import numpy as np
import pytest

from wallach_geo import (
    AlgebraContext,
    ReductiveDecomposition,
    build_product_spheres,
    build_so_blocks,
    build_stiefel,
    build_su3_flag,
)

SPACE_BUILDERS = {
    "so-blocks(1,1,1)": lambda: build_so_blocks(1, 1, 1),
    "so-blocks(2,2,2)": lambda: build_so_blocks(2, 2, 2),
    "so-blocks(2,3,4)": lambda: build_so_blocks(2, 3, 4),
    "stiefel(2)": lambda: build_stiefel(2),
    "stiefel(3)": lambda: build_stiefel(3),
    "su3-flag": lambda: build_su3_flag(),
    "product-spheres": lambda: build_product_spheres(),
}


def make_rng(seed=0):
    return np.random.default_rng(np.random.Philox(seed))


def counterexample_swapped(dec_builder=build_so_blocks, args=(2, 2, 2)):
    """A deliberately corrupted decomposition (one m1 basis vector swapped
    into m2) used as a negative control; verification is skipped so the
    caller can observe the failing report."""
    good = dec_builder(*args)
    parts = {p: list(good.part_indices[p]) for p in ("k", "m1", "m2", "m3")}
    moved = parts["m1"].pop()
    parts["m2"].append(moved)
    ctx = AlgebraContext(good.context.name + " (corrupted)", good.context.basis)
    return ReductiveDecomposition(ctx, parts, verify=False)


@pytest.fixture(scope="session")
def spaces():
    """All catalog spaces, built once per test session."""
    return {name: build() for name, build in SPACE_BUILDERS.items()}


@pytest.fixture(scope="session")
def stiefel3(spaces):
    return spaces["stiefel(3)"]


@pytest.fixture(scope="session")
def su3(spaces):
    return spaces["su3-flag"]


@pytest.fixture(scope="session")
def so222(spaces):
    return spaces["so-blocks(2,2,2)"]
