"""Time-stacked kernels: a 1-D array of times gives the per-t values with a
leading time axis, and shooting on bare arrays reproduces the
element-wise RK4."""

import tracemalloc

import numpy as np
import pytest

from wallach_geo import (
    DiagonalMetric,
    OutOfChartError,
    ProductExpCurve,
    build_so_blocks,
    closed_form_geodesic,
    connection_defect,
    coset_distance,
    gw_defect_all,
    identity_checks,
    shoot_geodesic,
    verify_structure,
)
from wallach_geo import accel, catalog
from wallach_geo.catalog import ReductiveDecomposition, _find_commuting_pairs
from wallach_geo.oracle import _polar_orthonormalize
from .conftest import make_rng, rotated

GRID = np.linspace(0.0, 2.0, 21)


def _curves(dec, rng):
    """(curve, metric, geodesic?) for one-, two- and three-factor curves on
    a generic metric, and a closed-form geodesic."""
    out = []
    for r in (1, 2, 3):
        factors = [dec.random_module_vector("m", rng) for _ in range(r)]
        g = DiagonalMetric(dec, rng.uniform(0.3, 3.0, 3))
        out.append((ProductExpCurve(dec, factors), g, False))
    draws = [dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]
    out.append(closed_form_geodesic(dec, 2, *draws, 1.7) + (True,))
    return out


def _check_kept_rows(curve, g, gw, D, tol):
    """Scalar calls on ``curve`` in any order, and with a grid call between
    them, give the fresh-curve values ``gw`` and ``D`` on GRID; writing
    into returned arrays changes no later result."""

    def agrees(k, gw_t, D_t):
        return np.abs(gw_t - gw[k]).max() <= tol and np.abs(D_t.coeffs - D[k]).max() <= tol

    t1, t2 = GRID[5], GRID[13]
    first = gw_defect_all(curve, g, t1)  # G_W then D
    assert agrees(5, first, connection_defect(curve, g, t1))
    D_t2 = connection_defect(curve, g, t2)  # D then G_W
    assert agrees(13, gw_defect_all(curve, g, t2), D_t2)
    assert agrees(13, gw_defect_all(curve, g, t2), connection_defect(curve, g, t2))  # t twice
    first = gw_defect_all(curve, g, t1)
    gw_defect_all(curve, g, GRID)
    connection_defect(curve, g, GRID)
    assert agrees(5, first, connection_defect(curve, g, t1))
    w, wdot = curve.body_velocity(t1)
    w_ref, wdot_ref = w.copy(), wdot.copy()
    for out in (w, wdot, gw_defect_all(curve, g, t1), connection_defect(curve, g, t1).coeffs):
        out[...] = np.nan
    assert agrees(5, gw_defect_all(curve, g, t1), connection_defect(curve, g, t1))
    w, wdot = curve.body_velocity(t1)
    assert np.array_equal(w, w_ref) and np.array_equal(wdot, wdot_ref)


def test_grid_defects_match_per_t_calls(spaces):
    """One grid call gives G_W, D(t), the velocities and the lift at every
    t, within 1e-12 relative of the per-t calls; scalar calls that share a
    curve's kept rows give the same values, and D is +0.0 on k."""
    rng = make_rng(500)
    for dec in spaces.values():
        for curve, g, geodesic in _curves(dec, rng):
            ref = ProductExpCurve(dec, curve.factors)  # fresh caches
            gw = np.array([gw_defect_all(ref, g, t) for t in GRID])
            D = np.array([connection_defect(ref, g, t).coeffs for t in GRID])
            on_k = dec.part_indices["k"]
            assert not np.signbit(D[:, on_k]).any()
            scale = np.abs(gw).max()
            if geodesic:
                assert scale <= 1e-12
            elif dec.name != "product-spheres":  # there every exp(tX) is a geodesic
                assert 1e-2 <= scale <= 8.0
            tol = 1e-12 * max(scale, 1e-3)
            _check_kept_rows(curve, g, gw, D, tol)
            assert gw_defect_all(curve, g, GRID).shape == gw.shape
            assert np.abs(gw_defect_all(curve, g, GRID) - gw).max() <= tol
            assert np.abs(connection_defect(curve, g, GRID) - D).max() <= tol
            assert not np.signbit(connection_defect(curve, g, GRID)[:, on_k]).any()
            w, wdot = curve.body_velocity(GRID)
            for k, t in enumerate(GRID):
                wt, wdt = ref.body_velocity(t)
                assert np.abs(w[k] - wt).max() <= 1e-12 * np.abs(wt).max()
                assert np.abs(wdot[k] - wdt).max() <= 1e-12 * max(np.abs(wdt).max(), 1e-3)
            lift = curve.evaluate(GRID)
            assert lift.shape == (len(GRID),) + (dec.context.ambient_size,) * 2
            for k, t in enumerate(GRID):
                assert np.abs(lift[k] - ref.evaluate(t)).max() <= 1e-13


def test_defects_at_one_t_form_the_phase_vector_once(stiefel3, monkeypatch):
    """G_W then D at one scalar t form the first factor's phase vector
    exp(i lam t) once (``_rows`` forms it once a call), and so do G_W then
    D on one grid; a new t and a new grid form it again.  D after G_W at
    the same t probes the curve's kept entry once."""
    calls, probes = [], []
    rows, keep = ProductExpCurve._rows, ProductExpCurve._keep
    monkeypatch.setattr(ProductExpCurve, "_rows", lambda self, t: calls.append(t) or rows(self, t))
    monkeypatch.setattr(ProductExpCurve, "_keep", lambda self, t: probes.append(t) or keep(self, t))
    rng = make_rng(504)
    g = DiagonalMetric(stiefel3, (1.0, 1.4, 0.7))
    factors = [stiefel3.random_module_vector("m", rng) for _ in range(3)]
    for r in (1, 2, 3):
        curve = ProductExpCurve(stiefel3, factors[:r])
        calls.clear()
        gw_defect_all(curve, g, 0.7)
        probes.clear()
        connection_defect(curve, g, 0.7)
        assert probes == [0.7]
        curve.body_velocity(0.7)
        assert len(calls) == 1
        connection_defect(curve, g, 0.9)
        gw_defect_all(curve, g, GRID)
        connection_defect(curve, g, GRID)
        assert len(calls) == 3


def test_defects_on_one_grid_build_its_rows_once(stiefel3, monkeypatch):
    """G_W then D on one grid build the curve's rows once, and keep them
    read-only; the same grid changed in place builds them again, giving a
    fresh curve's values."""
    calls = []
    rows = ProductExpCurve._rows
    monkeypatch.setattr(ProductExpCurve, "_rows", lambda self, t: calls.append(t) or rows(self, t))
    rng = make_rng(505)
    curve = ProductExpCurve(stiefel3, [stiefel3.random_module_vector("m", rng) for _ in range(3)])
    g = DiagonalMetric(stiefel3, (1.0, 1.4, 0.7))
    grid = GRID.copy()
    gw_defect_all(curve, g, grid)
    connection_defect(curve, g, grid)
    assert len(calls) == 1
    assert not curve.defect_rows(grid).flags.writeable
    grid[3] += 0.05
    gw, D = gw_defect_all(curve, g, grid), connection_defect(curve, g, grid)
    assert len(calls) == 2
    ref = ProductExpCurve(stiefel3, curve.factors)
    assert np.array_equal(gw, gw_defect_all(ref, g, grid))
    assert np.array_equal(D, connection_defect(ref, g, grid))


def test_defects_at_one_t_contract_the_table_once(stiefel3, monkeypatch):
    """G_W then D at one scalar t contract the defect table once, and so do
    G_W then D on one grid; a second metric object at the same t, and the
    grid changed in place, contract it again.  D is 0 on k, and writing
    into a returned array changes no later result."""
    calls = []
    contract = accel.contract
    monkeypatch.setattr(accel, "contract", lambda *args: calls.append(1) or contract(*args))
    rng = make_rng(507)
    curve = ProductExpCurve(stiefel3, [stiefel3.random_module_vector("m", rng) for _ in range(3)])
    g = DiagonalMetric(stiefel3, (1.0, 1.4, 0.7))
    grid = GRID.copy()
    out = [gw_defect_all(curve, g, 0.7), connection_defect(curve, g, 0.7).coeffs]
    assert len(calls) == 1
    out += [gw_defect_all(curve, g, grid), connection_defect(curve, g, grid)]
    assert len(calls) == 2
    g2 = DiagonalMetric(stiefel3, g.lambdas)
    assert np.array_equal(connection_defect(curve, g2, 0.7).coeffs, out[1])
    assert np.array_equal(gw_defect_all(curve, g2, 0.7), out[0])
    assert len(calls) == 3
    k = stiefel3.part_indices["k"]
    assert np.abs(out[1]).max() > 0.1 and not out[1][k].any() and not out[3][:, k].any()
    kept = [a.copy() for a in out]
    for a in out:
        a[...] = np.nan
    assert np.array_equal(gw_defect_all(curve, g2, 0.7), kept[0])
    assert np.array_equal(connection_defect(curve, g, grid), kept[3])
    assert np.array_equal(gw_defect_all(curve, g, grid), kept[2])
    assert len(calls) == 3  # the grid's defects are kept beside the scalar t's
    grid[3] += 0.05
    gw_defect_all(curve, g, grid)
    connection_defect(curve, g, grid)
    assert len(calls) == 4


def test_a_new_metric_builds_no_dense_operator(spaces):
    """On so-blocks(5,5,5) (d = 105, d_m = 75), once its tables are built,
    a second metric's curve and both defects on the grid peak under half
    the memory of the dense G_W operator (d_m x 2 d^2 floats, 13.2 MB); on a
    rotated basis, where c is dense, no table holds more entries than its
    dense operator."""
    dec = build_so_blocks(5, 5, 5)
    d, dm = dec.context.dim, len(dec.part_indices["m"])
    rng = make_rng(506)
    draws = [dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]
    curve, g = closed_form_geodesic(dec, 1, *draws, 0.5)
    gw_defect_all(curve, g, GRID)
    connection_defect(curve, g, GRID)
    draws = [dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]
    tracemalloc.start()
    curve, g = closed_form_geodesic(dec, 2, *draws, 1.5)
    gw, D = gw_defect_all(curve, g, GRID), connection_defect(curve, g, GRID)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < dm * 2 * d * d * 8 / 2
    assert np.abs(gw).max() < 1e-9 and np.abs(D).max() < 1e-9
    table = rotated(spaces["so-blocks(2,2,2)"], 160).defect_table
    d, dm = 15, 12
    gw_entries = table.starts[dm]  # G_W's outputs come first
    assert gw_entries <= dm * 2 * d * d
    assert len(table.base) - gw_entries <= dm * d * dm


def _lift(dec, X, t):
    """exp(tX) in the ambient group, as a one-factor curve lifts it."""
    return ProductExpCurve(dec, [X]).evaluate(t)


def test_grid_coset_distances_match_per_pair(spaces):
    """Batched coset distances agree with per-pair calls within 1e-12
    relative; a single pair still gives a float."""
    rng = make_rng(501)
    for dec in spaces.values():
        curve = ProductExpCurve(dec, [dec.random_module_vector(p, rng) for p in ("m1", "m2")])
        a = curve.evaluate(GRID)
        b = np.array([m @ _lift(dec, dec.random_module_vector("m", rng), 0.3) for m in a])
        batched = coset_distance(a, b, dec)
        assert batched.shape == (len(GRID),)
        for k in range(len(GRID)):
            single = coset_distance(a[k], b[k], dec)
            assert isinstance(single, float)
            assert abs(batched[k] - single) <= 1e-12 * single
            assert single > 0.1


def test_grid_coset_distance_rejects_one_out_of_chart_pair(stiefel3):
    rng = make_rng(502)
    curve = ProductExpCurve(stiefel3, [stiefel3.random_module_vector("m", rng)])
    a = curve.evaluate(GRID)
    b = a.copy()
    b[7] = a[7] @ _lift(stiefel3, stiefel3.random_module_vector("m1", rng), 7.0)
    coset_distance(a, a, stiefel3)
    with pytest.raises(OutOfChartError, match="outside the principal-logarithm chart"):
        coset_distance(a, b, stiefel3)


def _element_wise_shot(dec, g, v0, t_end, steps):
    """RK4 on (a, v) with full coefficient vectors and one U(v, v) per stage,
    S (v[A] v[B]) on m-coordinates from the metric's pair matrix."""
    ctx = dec.context
    n = ctx.ambient_size
    basis_flat = ctx.basis.reshape(ctx.dim, n * n)
    a, v = np.eye(n), v0.coeffs * dec.part_masks["m"]
    h = t_end / steps
    S, A, B = g.u_pairs
    mi = g.m_indices

    def stage(am, vc):
        u = np.zeros(ctx.dim)
        u[mi] = S.dot(vc[mi][A] * vc[mi][B])
        return am @ (vc @ basis_flat).reshape(n, n), -u

    points = [(a, v)]
    for _ in range(steps):
        k1a, k1v = stage(a, v)
        k2a, k2v = stage(a + 0.5 * h * k1a, v + 0.5 * h * k1v)
        k3a, k3v = stage(a + 0.5 * h * k2a, v + 0.5 * h * k2v)
        k4a, k4v = stage(a + h * k3a, v + h * k3v)
        a = _polar_orthonormalize(a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a))
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        points.append((a, v))
    return points


def test_shooting_matches_element_wise_rk4(spaces):
    """Velocities agree with the element-wise RK4; the lift is the same map
    evaluated in another order (per-step factors, one polar each and their
    running product), so it agrees to the rounding the steps accumulate."""
    for name in ("stiefel(3)", "su3-flag", "so-blocks(2,2,2)", "so-blocks(2,3,4)"):
        dec = spaces[name]
        n = dec.context.ambient_size
        for steps in (40, 400):
            rng = make_rng(503)
            g = DiagonalMetric(dec, rng.uniform(0.3, 3.0, 3))
            v0 = dec.random_module_vector("m", rng)
            shot = shoot_geodesic(dec, g, v0, 2.0, steps)
            ref = _element_wise_shot(dec, g, v0, 2.0, steps)
            assert len(shot.points) == len(shot.velocities) == len(ref)
            # the shot's velocities in full coordinates, with a zero k-part
            full = np.zeros((len(ref), dec.context.dim))
            full[:, dec.part_indices["m"]] = shot.velocities
            for k, (a, v) in enumerate(ref):
                assert k * shot.step == pytest.approx(k * 2.0 / steps, abs=1e-15)
                assert np.abs(shot.points[k] - a).max() <= steps * n * np.finfo(float).eps
                assert np.abs(full[k] - v).max() <= 1e-15


def test_projection_identity_check_compares_two_computations(spaces):
    """The projected difference quotient and the projected bracket differ
    by the finite-difference error, which is nonzero and small."""
    for dec in spaces.values():
        check = next(
            c for c in identity_checks(dec).checks
            if c.name == "projection commutes with differentiation"
        )
        assert 0.0 < check.max_residual <= 1e-6
        assert check.passed


def test_decomposition_holds_its_commuting_pairs(spaces):
    """Verified or not, a decomposition finds its commuting pairs at build,
    so a bare one over the same split holds the same pairs."""
    for dec in spaces.values():
        bare = ReductiveDecomposition(dec.context, dec.part_indices, verify=False)
        assert bare.commuting_pairs == dec.commuting_pairs


@pytest.mark.parametrize("verify", [True, False])
def test_commuting_pairs_are_found_once_per_build(so222, monkeypatch, verify):
    """Building a decomposition calls ``_find_commuting_pairs`` exactly once,
    verified or not, and ``verify_structure`` never calls it."""
    calls = []

    def spy(dec):
        calls.append(dec)
        return _find_commuting_pairs(dec)

    monkeypatch.setattr(catalog, "_find_commuting_pairs", spy)
    dec = ReductiveDecomposition(so222.context, so222.part_indices, verify=verify)
    assert calls == [dec] and dec.commuting_pairs == so222.commuting_pairs
    verify_structure(dec)
    assert calls == [dec]
