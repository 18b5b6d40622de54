"""Closed-form geodesics, the defect functional and the restriction system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallach_geo import (
    DiagonalMetric,
    HypothesisViolatedError,
    InvalidMetricError,
    GenericityError,
    ProductExpCurve,
    WrongModuleError,
    closed_form_geodesic,
    dohira_geodesic,
    gw_defect,
    gw_defect_all,
    homogeneous_geodesic,
    matrix_exp,
    nonexistence_probe,
    restriction_residual,
    solution_families,
    two_summand_view,
)
from wallach_geo.oracle import coset_distance
from .conftest import make_rng


def _draws(dec, seed):
    rng = make_rng(seed)
    return [dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]


def test_closed_form_defect_vanishes(stiefel3):
    X1, X2, X3 = _draws(stiefel3, 0)
    for case in (1, 2, 3):
        curve, g = closed_form_geodesic(stiefel3, case, X1, X2, X3, 0.5)
        for t in np.linspace(0.0, 2.0, 9):
            assert np.abs(gw_defect_all(curve, g, t)).max() < 1e-12


def test_case_one_with_unit_c_is_single_exponential(su3):
    X1, X2, X3 = _draws(su3, 1)
    curve, g = closed_form_geodesic(su3, 1, X1, X2, X3, 1.0)
    assert np.abs(curve.factors[1].coeffs).max() == 0.0
    direct = matrix_exp(X1 + X2 + X3, 1.3)
    assert np.abs(curve.evaluate(1.3).matrix - direct.matrix).max() < 1e-12


def test_zero_velocity_curve_is_constant(stiefel3):
    z = stiefel3.context.zero()
    curve, g = closed_form_geodesic(stiefel3, 1, z, z, z, 0.7)
    n = stiefel3.context.ambient_size
    for t in (0.0, 1.0, 2.0):
        assert np.abs(curve.evaluate(t).matrix - np.eye(n)).max() < 1e-15
        assert np.abs(gw_defect_all(curve, g, t)).max() < 1e-15


def test_invalid_case_and_c_rejected(stiefel3):
    X1, X2, X3 = _draws(stiefel3, 2)
    with pytest.raises(InvalidMetricError):
        closed_form_geodesic(stiefel3, 1, X1, X2, X3, -0.5)
    with pytest.raises(ValueError):
        closed_form_geodesic(stiefel3, 4, X1, X2, X3, 0.5)


def test_module_membership_enforced(stiefel3):
    X1, X2, X3 = _draws(stiefel3, 3)
    with pytest.raises(WrongModuleError):
        closed_form_geodesic(stiefel3, 1, X2, X1, X3, 0.5)


@settings(max_examples=20, deadline=None)
@given(alpha=st.floats(-3, 3, allow_nan=False), seed=st.integers(0, 50))
def test_defect_is_linear_in_direction(alpha, seed):
    """G is linear in the probe direction W, even off geodesics."""
    from .conftest import SPACE_BUILDERS

    dec = _LINEARITY_CACHE.setdefault("dec", SPACE_BUILDERS["stiefel(2)"]())
    rng = make_rng(seed)
    factors = [dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]
    curve = ProductExpCurve(dec, factors)
    g = DiagonalMetric(dec, (1.0, 1.6, 0.4))
    W1 = dec.random_module_vector("m", rng)
    W2 = dec.random_module_vector("m", rng)
    t = 0.7
    lhs = gw_defect(curve, g, alpha * W1 + W2, t)
    rhs = alpha * gw_defect(curve, g, W1, t) + gw_defect(curve, g, W2, t)
    assert lhs == pytest.approx(rhs, abs=1e-11)


_LINEARITY_CACHE = {}


def test_defect_all_matches_single_direction(so222):
    curve = ProductExpCurve(so222, _draws(so222, 4))
    g = DiagonalMetric(so222, (1.0, 0.6, 2.1))
    t = 1.1
    vec = gw_defect_all(curve, g, t)
    for pos, w in enumerate(so222.part_indices["m"]):
        W = so222.context.basis_element(int(w))
        assert vec[pos] == pytest.approx(gw_defect(curve, g, W, t), abs=1e-12)


def test_defects_reject_more_than_three_factors(stiefel3):
    fs = _draws(stiefel3, 12)
    curve = ProductExpCurve(stiefel3, fs + fs[:1])
    g = DiagonalMetric(stiefel3, (1.0, 1.0, 0.5))
    with pytest.raises(ValueError):
        gw_defect_all(curve, g, 0.5)
    with pytest.raises(ValueError):
        gw_defect(curve, g, fs[0], 0.5)


def test_defect_warns_and_projects_k_direction(stiefel3):
    curve = ProductExpCurve(stiefel3, _draws(stiefel3, 5))
    g = DiagonalMetric(stiefel3, (1.0, 1.0, 0.5))
    W = stiefel3.random_module_vector("m1", make_rng(6))
    K = stiefel3.random_module_vector("k", make_rng(7))
    with pytest.warns(UserWarning):
        mixed = gw_defect(curve, g, W + K, 0.5)
    assert mixed == pytest.approx(gw_defect(curve, g, W, 0.5), abs=1e-12)


def test_metric_scaling_covariance(stiefel3):
    """Scaling the metric scales the defect; the geodesic property is
    scale-invariant."""
    curve = ProductExpCurve(stiefel3, _draws(stiefel3, 8))
    g = DiagonalMetric(stiefel3, (1.0, 1.4, 0.6))
    v1 = gw_defect_all(curve, g, 0.9)
    v3 = gw_defect_all(curve, g.scaled(3.0), 0.9)
    assert np.abs(v3 - 3.0 * v1).max() < 1e-11


def test_reparametrization_traverses_same_points(stiefel3):
    X1, X2, X3 = _draws(stiefel3, 9)
    s = 1.7
    base, _ = closed_form_geodesic(stiefel3, 1, X1, X2, X3, 0.5)
    fast, _ = closed_form_geodesic(stiefel3, 1, s * X1, s * X2, s * X3, 0.5)
    for tp in (0.2, 0.6, 1.0):
        d = coset_distance(base.evaluate(s * tp), fast.evaluate(tp), stiefel3)
        assert d < 1e-10


def test_generic_three_factor_curve_is_not_geodesic(so222):
    curve = ProductExpCurve(so222, _draws(so222, 10))
    g = DiagonalMetric(so222, (1.0, 1.3, 0.7))
    worst = max(np.abs(gw_defect_all(curve, g, t)).max() for t in (0.5, 1.0, 1.5))
    assert worst > 1e-3


def test_dohira_curve_is_geodesic_on_grouped_view(stiefel3):
    view = two_summand_view(stiefel3, 3)
    rng = make_rng(11)
    X1 = stiefel3.random_module_vector("m1", rng) + stiefel3.random_module_vector("m2", rng)
    X2 = stiefel3.random_module_vector("m3", rng)
    for c in (0.5, 2.0):
        curve, g = dohira_geodesic(view, c, X1, X2)
        for t in np.linspace(0.0, 2.0, 9):
            assert np.abs(gw_defect_all(curve, g, t)).max() < 1e-12
    with pytest.raises(WrongModuleError):
        dohira_geodesic(view, 0.5, X2, X1)


def test_homogeneous_geodesic_requires_commuting_modules(spaces):
    ps = spaces["product-spheres"]
    rng = make_rng(12)
    X = ps.random_module_vector("m", rng)
    curve = homogeneous_geodesic(ps, DiagonalMetric(ps, (1.0, 2.0, 0.5)), X)
    assert len(curve.factors) == 1
    with pytest.raises(HypothesisViolatedError):
        homogeneous_geodesic(
            spaces["stiefel(3)"],
            DiagonalMetric(spaces["stiefel(3)"], (1.0, 2.0, 0.5)),
            X=spaces["stiefel(3)"].random_module_vector("m", rng),
        )


# -- restriction system ------------------------------------------------------


def test_zero_point_residuals_frozen():
    """At a = b = 0 with metric (1.3, 0.7) the first two equations measure
    the metric asymmetry directly."""
    r = restriction_residual(np.zeros(6), 1.3, 0.7)
    assert r[0] == pytest.approx(-0.6, abs=1e-15)
    assert r[1] == pytest.approx(-0.23076923076923078, abs=1e-15)


def test_zero_point_biinvariant_residual_is_zero():
    r = restriction_residual(np.zeros(6), 1.0, 1.0)
    assert np.abs(r).max() == 0.0


def test_family_instances_frozen():
    sols = {s.family: s for s in solution_families(0.5, 0.1)}
    assert sols["s2"].a == (0.0, 0.0, 0.5)
    assert sols["s2"].b == (0.1, 0.1, 0.05)
    sols2 = {s.family: s for s in solution_families(2.0, 0.3)}
    assert sols2["s5"].a[0] == pytest.approx(0.5)
    assert sols2["s5"].b == (0.3, 0.6, 0.6)


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(0.05, 5.0, allow_nan=False),
    free=st.floats(-2.0, 2.0, allow_nan=False),
)
def test_all_families_solve_the_system(lam, free):
    for sol in solution_families(lam, free):
        r = restriction_residual(sol, sol.lambda2, sol.lambda3)
        assert np.abs(r).max() <= 1e-12 * max(1.0, lam, abs(free)) ** 3
        for ai, bi, ci in zip(sol.a, sol.b, sol.c):
            # c is defined by the sum constraint, so this holds bit-exactly
            assert 1.0 - ai - bi == ci
            assert ai + bi + ci == pytest.approx(1.0, abs=1e-14)


def test_families_reject_nonpositive_metric():
    with pytest.raises(InvalidMetricError):
        solution_families(-1.0, 0.2)


def test_probe_rejects_family_covered_metrics():
    with pytest.raises(GenericityError):
        nonexistence_probe(1.0, 0.7, multistarts=1)
    with pytest.raises(GenericityError):
        nonexistence_probe(1.3, 1.31, multistarts=1)


def test_probe_finds_residual_floor():
    floor = nonexistence_probe(1.3, 0.7, multistarts=20, seed=0)
    assert floor > 1e-4


def test_residual_rows_match_single_calls():
    """An (S, 6) stack gives (S, 9) rows equal to the one-vector calls to
    1e-15 of each row's largest entry: a scalar's ``**2`` and an array's can
    round apart in the last bit, which cancellation may lift within a row."""
    x = make_rng(13).uniform(-5.0, 5.0, (2000, 6))
    rows = restriction_residual(x, 1.3, 0.7)
    assert rows.shape == (2000, 9)
    singles = np.array([restriction_residual(p, 1.3, 0.7) for p in x])
    assert (np.abs(rows - singles) <= 1e-15 * np.abs(singles).max(axis=1, keepdims=True)).all()


@pytest.mark.parametrize(
    "l2, l3, floor",
    [(1.3, 0.7, 0.10149906884859027), (1.1, 0.9, 0.003466536821987761),
     (0.25, 1.8, 1.0839121662357103)],
)
def test_probe_floors_pinned(l2, l3, floor):
    """Three of acceptance criterion 5's floors (seed 50, 200 starts)."""
    assert nonexistence_probe(l2, l3, multistarts=200, seed=50) == pytest.approx(floor, rel=1e-9)


def _probe_one_start_at_a_time(lambda2, lambda3, multistarts, seed, max_iter=200):
    """Reference probe: the same Levenberg-Marquardt descent as plain loops
    over starts and Jacobian columns."""
    rng = np.random.default_rng(np.random.Philox(seed))
    best, h = np.inf, 1e-6
    for _ in range(multistarts):
        x = rng.uniform(-5.0, 5.0, 6)
        r = restriction_residual(x, lambda2, lambda3)
        f, mu = r @ r, 1e-3
        for _ in range(max_iter):
            J = np.empty((9, 6))
            for j, e in enumerate(h * np.eye(6)):
                J[:, j] = (restriction_residual(x + e, lambda2, lambda3)
                           - restriction_residual(x - e, lambda2, lambda3)) / (2 * h)
            try:
                p = np.linalg.solve(J.T @ J + mu * np.eye(6), -J.T @ r)
            except np.linalg.LinAlgError:
                break
            rn = restriction_residual(x + p, lambda2, lambda3)
            if rn @ rn < f:
                x, r, f, mu = x + p, rn, rn @ rn, max(mu * 0.3, 1e-12)
            else:
                mu *= 3.0
                if mu > 1e8:
                    break
        best = min(best, float(np.sqrt(f)))
    return best


@pytest.mark.parametrize("l2, l3", [(1.3, 0.7), (1.6, 2.4)])
def test_probe_matches_one_start_at_a_time(l2, l3):
    """Single starts (one per seed) and an 8-start floor end where the loops do."""
    for seed, starts in [(0, 1), (2, 1), (4, 8)]:
        expected = _probe_one_start_at_a_time(l2, l3, starts, seed)
        assert nonexistence_probe(l2, l3, starts, seed) == pytest.approx(expected, rel=1e-9)


def test_probe_singular_system_stops_only_its_start(monkeypatch):
    """A singular LM system stops its own start; the others go on."""
    floor = nonexistence_probe(1.3, 0.7, multistarts=20, seed=0)
    solve, sizes = np.linalg.solve, []

    def singular_first(A, b):
        if not sizes:
            A[0] = 0.0  # the first start's first system, zeroed in place
        sizes.append(len(A))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", singular_first)
    assert nonexistence_probe(1.3, 0.7, multistarts=20, seed=0) == floor
    assert sizes[:3] == [20, 19, 19]


def test_probe_is_deterministic():
    a = nonexistence_probe(2.0, 0.5, multistarts=5, seed=3)
    b = nonexistence_probe(2.0, 0.5, multistarts=5, seed=3)
    assert a == b
