"""Closed-form geodesics, the defect functional and the restriction system."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wallach_geo import (
    DiagonalMetric,
    HypothesisViolatedError,
    InvalidMetricError,
    ProductExpCurve,
    TwoSummandView,
    WrongModuleError,
    certify_nonexistence,
    closed_form_geodesic,
    dohira_geodesic,
    gw_defect,
    gw_defect_all,
    homogeneous_geodesic,
    matrix_exp,
    restriction_residual,
    solution_families,
)
from wallach_geo import geodesics
from wallach_geo.geodesics import applicable_families, match_case
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
    view = TwoSummandView(stiefel3, 3)
    for c in (-0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidMetricError):
            closed_form_geodesic(stiefel3, 1, X1, X2, X3, c)
        with pytest.raises(InvalidMetricError):
            dohira_geodesic(view, c, X1 + X2, X3)
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
        W = so222.context.element(np.eye(so222.context.dim)[w])
        assert vec[pos] == pytest.approx(gw_defect(curve, g, W, t), abs=1e-12)


def test_defects_reject_more_than_three_factors(stiefel3):
    fs = _draws(stiefel3, 12)
    with pytest.raises(ValueError, match="one to three factors"):
        ProductExpCurve(stiefel3, fs + fs[:1])


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
    v3 = gw_defect_all(curve, DiagonalMetric(stiefel3, [3.0 * l for l in g.lambdas]), 0.9)
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
    view = TwoSummandView(stiefel3, 3)
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
    sol = solution_families(0.7, 0.2)[0]
    for bad in (-1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidMetricError):
            solution_families(bad, 0.2)
        for l2, l3 in ((bad, 0.7), (0.7, bad)):
            with pytest.raises(InvalidMetricError):
                restriction_residual(sol, l2, l3)
            with pytest.raises(InvalidMetricError):
                certify_nonexistence(l2, l3)
            with pytest.raises(InvalidMetricError):
                applicable_families(l2, l3)


def test_residual_rows_match_single_calls():
    """An (S, 6) stack gives (S, 9) rows equal to the one-vector calls to
    1e-15 of each row's largest entry: a scalar's ``**2`` and an array's can
    round apart in the last bit, which cancellation may lift within a row."""
    x = make_rng(13).uniform(-5.0, 5.0, (2000, 6))
    rows = restriction_residual(x, 1.3, 0.7)
    assert rows.shape == (2000, 9)
    singles = np.array([restriction_residual(p, 1.3, 0.7) for p in x])
    assert (np.abs(rows - singles) <= 1e-15 * np.abs(singles).max(axis=1, keepdims=True)).all()


# -- the nonexistence certificate ---------------------------------------------

# {x in N^6 : |x| <= 3}: a polynomial of degree <= 3 in (a, b) that vanishes there is 0
_LATTICE = np.array([x for x in itertools.product(range(4), repeat=6) if sum(x) <= 3], object)


def _identity_gap(l2, l3):
    """sum_i Q_i r_i - E on the lattice, exactly, at rational (l2, l3)."""
    lhs = (geodesics._cofactors(_LATTICE, l2, l3) * restriction_residual(_LATTICE, l2, l3)).sum(-1)
    return lhs - ((l2 - 1) * (l3 - 1) * (l2 - l3)) ** 2


def test_cofactor_identity_holds_in_all_eight_variables():
    """l2 l3 (sum_i Q_i r_i - E) has degree <= 3 in (a, b) and <= 5 in each
    lambda, so its vanishing on the lattice at each point of a 6 x 6
    rational grid (loci included) makes it the zero polynomial."""
    assert len(_LATTICE) == 84
    grid = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(7, 3)]
    for l2, l3 in itertools.product(grid, grid):
        assert (_identity_gap(l2, l3) == 0).all(), (l2, l3)


@pytest.mark.parametrize("l2, l3", [(1.01, 0.7), (1 + 2.0**-40, 0.7), (1e-9, 1e9),
                                    (1e300, 1e-300), (5e-324, 1.7e308)])
def test_certificate_proves_off_the_loci(l2, l3):
    assert certify_nonexistence(l2, l3) is True
    assert applicable_families(l2, l3)[0] == []


@pytest.mark.parametrize("l2, l3", [(1.0, 0.7), (1.3, 1.0), (0.8, 0.8)])
def test_certificate_refuses_the_loci(l2, l3):
    """E = 0 on a locus, where the families solve the system."""
    assert certify_nonexistence(l2, l3) is False
    assert applicable_families(l2, l3)[0]


def test_a_wrong_cofactor_breaks_the_certificate(monkeypatch):
    """Negative control: one cofactor scaled by 1 + 1e-6 fails the check."""
    cofactors = geodesics._cofactors

    def perturbed(p, l2, l3):
        Q = cofactors(p, l2, l3)
        Q[..., 4] *= 1 + Fraction(1, 10**6)
        return Q

    monkeypatch.setattr(geodesics, "_cofactors", perturbed)
    assert certify_nonexistence(1.3, 0.7) is False


# -- the metric loci: one table against the two it replaced -----------------

def _reference_match_case(metric, requested):
    """match_case as written with its own case -> slot table and gap test."""
    case_slot = {1: 2, 2: 1, 3: 0}
    n = (1.0, metric[1] / metric[0], metric[2] / metric[0])
    if not all(1e-100 <= q <= 1e100 for q in n):
        raise InvalidMetricError(f"metric {metric} has a ratio outside [1e-100, 1e100]")
    candidates = []
    for case, slot in case_slot.items():
        a, b = (q for q in range(3) if q != slot)
        if abs(n[a] - n[b]) <= 1e-12:
            candidates.append((case, n[slot] / n[a]))
    if requested != "auto":
        case = int(requested)
        for cand in candidates:
            if cand[0] == case:
                return cand
        raise InvalidMetricError(f"metric {metric} does not match the case-{case} pattern")
    if not candidates:
        raise InvalidMetricError(
            f"metric {metric} fits no closed-form case; see the restriction command"
        )
    return candidates[0]


def _reference_applicable_families(lambda2, lambda3, tol):
    """applicable_families as written with its own family table and gaps."""
    family_loci = (("s1", "s2"), ("s3", "s4"), ("s5", "s6"))
    gaps = (abs(lambda2 - 1), abs(lambda3 - 1), abs(lambda2 - lambda3))
    families = [f for pair, gap in zip(family_loci, gaps) if gap <= tol for f in pair]
    return families, lambda2 if families == ["s3", "s4"] else lambda3


def _outcome(f, *args):
    try:
        return f(*args)
    except InvalidMetricError as exc:
        return str(exc)


def _near(x, ulps=3):
    """x and its floating-point neighbours up to ``ulps`` steps either side."""
    out = [x]
    for direction in (np.inf, -np.inf):
        y = x
        for _ in range(ulps):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def _locus_pairs():
    """(lambda2, lambda3) pairs: random, on each locus, at ties, at gaps of
    exactly 1e-12 and 0.05, and within a few ulps of those gaps on either
    side of every locus."""
    rng = make_rng(101)
    pairs = [tuple(p) for p in np.exp(rng.uniform(-3.0, 3.0, (300, 2)))]
    pairs += [(1.0, 1.0), (1.0, 0.7), (0.7, 1.0), (0.8, 0.8), (1.3, 1.0), (2.5, 2.5)]
    for tol in (1e-12, 0.05):
        pairs += [(2 * tol, tol), (tol, 2 * tol)]  # lambda2 - lambda3 is exactly +-tol
        for v in _near(1.0 + tol) + _near(1.0 - tol):
            pairs += [(v, 0.7), (0.7, v), (v, 1.0), (1.0, v)]
        for base in (0.7, 1.3):
            for v in _near(base + tol) + _near(base - tol):
                pairs += [(base, v), (v, base)]
    return pairs


def test_locus_table_matches_the_separate_case_and_family_tables():
    """match_case and applicable_families read one locus table; their
    results, order, lam and messages equal those of the two tables it
    replaced, the families at tol 0 (exactly the metrics where E = 0)."""
    rng = make_rng(102)
    for l2, l3 in _locus_pairs():
        assert applicable_families(l2, l3) == _reference_applicable_families(l2, l3, 0.0)
        for l1 in (1.0, float(rng.uniform(0.2, 5.0))):
            metric = (l1, l1 * l2, l1 * l3)
            for requested in ("auto", "1", "2", "3"):
                got = _outcome(match_case, metric, requested)
                assert got == _outcome(_reference_match_case, metric, requested)
    for metric in [(1.0, 1e-101, 1.0), (1.0, 1e101, 1e101), (1.0, float("nan"), 1.0)]:
        for requested in ("auto", "2"):
            got = _outcome(match_case, metric, requested)
            assert got == _outcome(_reference_match_case, metric, requested)
    assert match_case((1.0, 1.0, 1.0), "auto") == (1, 1.0)
    assert applicable_families(1.0, 1.0) == (["s1", "s2", "s3", "s4", "s5", "s6"], 1.0)


@pytest.mark.parametrize("metric", [(-1.0, -1.0, -1.0), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0),
                                    (1.0, 1.0, -2.0)])
@pytest.mark.parametrize("requested", ["auto", "1", "2", "3"])
def test_match_case_refuses_a_coefficient_that_is_not_positive(metric, requested):
    """A zero or negative coefficient is refused before any ratio is formed:
    (-1, -1, -1) has equal ratios and (0, 1, 1) would divide by zero."""
    with pytest.raises(InvalidMetricError, match="has a coefficient <= 0"):
        match_case(metric, requested)


@pytest.mark.parametrize("case", [1, 2, 3])
def test_closed_form_and_grouped_constructors_agree_bitwise(spaces, case):
    """Case k and the grouping M2 = m_(4-k) build one curve and metric."""
    i = 4 - case
    for name, dec in spaces.items():
        view = TwoSummandView(dec, i)
        Xs = _draws(dec, 200 + case)
        grouped = sum((X for q, X in enumerate(Xs, 1) if q != i), dec.context.zero())
        for c in (0.25, 0.5, 1.0, 1.5, 2.0):
            curve, g = closed_form_geodesic(dec, case, *Xs, c)
            curve2, g2 = dohira_geodesic(view, c, grouped, Xs[i - 1])
            for f, f2 in zip(curve.factors, curve2.factors, strict=True):
                assert f.coeffs.tobytes() == f2.coeffs.tobytes(), name
            assert g.gram_full.tobytes() == g2.gram_full.tobytes(), name
            assert g.lambdas == g2.lambdas == tuple(c if q == i else 1.0 for q in (1, 2, 3))
