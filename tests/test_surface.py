"""The package's public surface: the exported names, and no dead imports."""

import ast
import sys
from pathlib import Path

import wallach_geo

PACKAGE_DIR = Path(wallach_geo.__file__).parent

PUBLIC_NAMES = [
    "AlgebraContext", "AlgebraElement", "ContextMismatchError", "DegenerateSpaceError",
    "DiagonalMetric", "GroupElement", "GroupingInvalidError", "HypothesisViolatedError",
    "IntegrationFailureError", "InvalidMetricError", "NotInAlgebraError", "OutOfChartError",
    "ProductExpCurve", "ReductiveDecomposition", "RestrictionSolution", "ShotGeodesic",
    "SpaceDefinitionError", "StructureError", "StructureReport", "SubspaceSelectorError",
    "TwoSummandView", "WallachGeoError", "WrongModuleError", "adjoint", "bracket",
    "build_product_spheres", "build_so_blocks", "build_stiefel", "build_su3_flag",
    "certify_nonexistence", "closed_form_geodesic", "connection_defect", "coset_distance",
    "dohira_geodesic", "gw_defect", "gw_defect_all", "homogeneous_geodesic", "identity_checks",
    "inner", "killing_norm", "load_space_json", "matrix_exp", "restriction_residual",
    "shoot_geodesic", "solution_families", "u_map", "verify_fibration", "verify_structure",
]


def test_public_names_are_pinned():
    """``__all__`` lists the API and no submodule."""
    assert sorted(wallach_geo.__all__) == sorted(PUBLIC_NAMES)
    for name in wallach_geo.__all__:
        assert hasattr(wallach_geo, name), name


def _unused_imports(path: Path, exported=()) -> list:
    """Names bound by the module-level imports of ``path`` that its code
    never reads; ``exported`` names count as read."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported)
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined_names(body) -> list:
    """Names that the function, class and assignment statements of ``body``
    bind."""
    names = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in nodes if isinstance(t, ast.Name)]
    return names


def test_every_private_module_level_name_is_read():
    """Each private function, class and constant defined at module level
    in the package, and each private method, class attribute and attribute
    stored on ``self`` in its classes, is read (an ast Name or Attribute
    load) somewhere in it, so a deletion leaves no orphaned helper behind."""
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE_DIR.glob("*.py")}
    defined, members, read = [], [], set()
    for name, tree in trees.items():
        defined += [(name, t) for t in _defined_names(tree.body) if _private(t)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            stored = [
                node.attr for node in ast.walk(cls)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == "self"
            ]
            owned = {t for t in _defined_names(cls.body) + stored if _private(t)}
            members += [(name, cls.name, t) for t in owned]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(defined) > 20 and len(members) > 5
    unread = [f"{name}: {t}" for name, t in defined if t not in read]
    unread += [f"{name}: {cls}.{t}" for name, cls, t in members if t not in read]
    assert sorted(unread) == []


def test_no_module_stores_or_loads_structure_constants():
    """The dense c lives only in ``core``'s constructor, as a local: a
    context keeps c as its one list of nonzero entries (``structure_entries``),
    and no module of the package stores or loads an attribute named
    ``structure_constants``."""
    uses = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "structure_constants":
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []


def test_no_module_level_import_goes_unused():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        exported = wallach_geo.__all__ if path.name == "__init__.py" else ()
        unused += _unused_imports(path, exported)
    assert unused == []


def test_the_package_imports_only_the_standard_library_and_numpy():
    """pyproject.toml promises numpy as the only dependency: every import
    in the package, at any depth, is relative, stdlib or numpy."""
    outside = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            outside += [f"{path.name}:{node.lineno} {t}" for t in sorted(top)
                        if t != "numpy" and t not in sys.stdlib_module_names]
    assert outside == []
