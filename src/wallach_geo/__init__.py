"""Numerical Lie theory for generalized Wallach spaces: catalog spaces,
diagonal invariant metrics, closed-form product-of-exponential geodesics
and independent verification oracles."""

from .catalog import (
    ReductiveDecomposition,
    StructureReport,
    TwoSummandView,
    build_product_spheres,
    build_so_blocks,
    build_stiefel,
    build_su3_flag,
    load_space_json,
    two_summand_view,
    verify_fibration,
    verify_structure,
)
from .core import (
    AlgebraContext,
    AlgebraElement,
    ContextMismatchError,
    DegenerateSpaceError,
    GenericityError,
    GroupElement,
    GroupingInvalidError,
    HypothesisViolatedError,
    IntegrationFailureError,
    InvalidMetricError,
    NotInAlgebraError,
    OutOfChartError,
    SpaceDefinitionError,
    StructureError,
    SubspaceSelectorError,
    WallachGeoError,
    WrongModuleError,
    adjoint,
    bracket,
    killing_form,
    killing_norm,
    matrix_exp,
    project,
)
from .curves import ProductExpCurve
from .geodesics import (
    RestrictionSolution,
    closed_form_geodesic,
    dohira_geodesic,
    gw_defect,
    gw_defect_all,
    homogeneous_geodesic,
    nonexistence_probe,
    restriction_residual,
    solution_families,
)
from .metrics import DiagonalMetric, inner, pullback_velocity, u_map
from .oracle import (
    CurveSample,
    ShotGeodesic,
    connection_defect,
    coset_distance,
    identity_checks,
    shoot_geodesic,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
