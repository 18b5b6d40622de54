"""Numerical Lie theory for generalized Wallach spaces: catalog spaces,
diagonal invariant metrics, closed-form product-of-exponential geodesics
and independent verification oracles."""

from types import ModuleType as _ModuleType

from .catalog import (
    ReductiveDecomposition,
    StructureReport,
    TwoSummandView,
    build_product_spheres,
    build_so_blocks,
    build_stiefel,
    build_su3_flag,
    load_space_json,
    verify_fibration,
    verify_structure,
)
from .core import (
    AlgebraContext,
    AlgebraElement,
    ContextMismatchError,
    DegenerateSpaceError,
    GroupingInvalidError,
    HypothesisViolatedError,
    IntegrationFailureError,
    InvalidMetricError,
    OutOfChartError,
    SpaceDefinitionError,
    StructureError,
    WallachGeoError,
    WrongModuleError,
    killing_norm,
)
from .curves import ProductExpCurve
from .geodesics import (
    RestrictionSolution,
    certify_nonexistence,
    closed_form_geodesic,
    dohira_geodesic,
    gw_defect_all,
    homogeneous_geodesic,
    restriction_residual,
    solution_families,
)
from .metrics import DiagonalMetric
from .oracle import (
    ShotGeodesic,
    connection_defect,
    coset_distance,
    identity_checks,
    shoot_geodesic,
)

__version__ = "0.1.0"

# the names imported above, not the submodules that importing them bound
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
