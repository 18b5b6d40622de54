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


def rotated(dec, seed):
    """``dec`` with each part's basis rotated by a random orthogonal matrix,
    which makes c dense."""
    rng, basis = make_rng(seed), dec.context.basis.copy()
    parts = {p: dec.part_indices[p] for p in ("k", "m1", "m2", "m3")}
    for ix in parts.values():
        Q = np.linalg.qr(rng.standard_normal((len(ix), len(ix))))[0]
        basis[ix] = np.tensordot(Q, basis[ix], axes=1)
    return ReductiveDecomposition(AlgebraContext(dec.name + " rotated", basis), parts)


def sheared(dec):
    """``dec`` with its first m1 vector sheared into the second, e_1 ->
    e_1 + e_2 / 2, which makes a module_killing block not diagonal."""
    ix, basis = dec.part_indices, dec.context.basis.copy()
    basis[ix["m1"][0]] += 0.5 * basis[ix["m1"][1]]
    parts = {p: ix[p] for p in ("k", "m1", "m2", "m3")}
    return ReductiveDecomposition(AlgebraContext(dec.name + " sheared", basis), parts)


def dense_c(ctx):
    """The dense structure constants c (d, d, d) of a context, scattered
    from the one list of its nonzero entries, ``structure_entries``."""
    i, j, l, v = ctx.structure_entries
    c = np.zeros((ctx.dim,) * 3)
    c[i, j, l] = v
    return c


def dense_u_operator(g):
    """The dense U operator Q (d_m, d_m^2) of the metric g, gathered from c
    rather than read from the defect table: Q[l, a d_m + j] =
    c[m_a, m_j, m_l] sigma_{m_j} / sigma_{m_l}, so that U(x, x)_m =
    Q (x_m (x) x_m)."""
    m, c = g.m_indices, dense_c(g.dec.context)
    s = np.array((0.0,) + g.lambdas)[g.dec.part_of].take(m)
    q0 = c[m[:, None], m, m[:, None, None]]
    return (q0 * (s / s[:, None])[:, None]).reshape(len(m), -1)


def dense_u(Q, x, y=None):
    """m-coordinates of U(X, Y) from those of X and Y (vectors or (T, d_m)
    stacks) through a dense operator Q: 0.5 Q (x (x) y + y (x) x), or
    Q (x (x) x) when y is omitted."""
    def outer(a, b):
        ab = a[..., :, None] * b[..., None, :]
        return ab.reshape(ab.shape[:-2] + (-1,))

    if y is None:
        return outer(x, x) @ Q.T
    return 0.5 * (outer(x, y) + outer(y, x)) @ Q.T


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
