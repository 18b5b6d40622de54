"""Connection-defect oracle, geodesic shooting and coset distance."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from wallach_geo import (
    ContextMismatchError,
    DiagonalMetric,
    IntegrationFailureError,
    OutOfChartError,
    ProductExpCurve,
    build_so_blocks,
    closed_form_geodesic,
    connection_defect,
    coset_distance,
    gw_defect,
    gw_defect_all,
    identity_checks,
    inner,
    killing_norm,
    matrix_exp,
    shoot_geodesic,
    u_map,
)
from wallach_geo import oracle
from .conftest import dense_c, dense_u, dense_u_operator, make_rng, rotated, sheared


def _draws(dec, seed):
    rng = make_rng(seed)
    return [dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]


def test_cross_oracle_identity_on_arbitrary_curves(spaces):
    """<W, D(t)> reproduces the defect G_W for every basis W, on curves
    that are not geodesics."""
    rng = make_rng(0)
    for dec in spaces.values():
        curve = ProductExpCurve(dec, _draws(dec, 1))
        g = DiagonalMetric(dec, rng.uniform(0.3, 3.0, 3))
        for t in (0.0, 0.6, 1.4):
            D = connection_defect(curve, g, t)
            vec = gw_defect_all(curve, g, t)
            for pos, w in enumerate(dec.part_indices["m"]):
                W = dec.context.element(np.eye(dec.context.dim)[w])
                assert abs(vec[pos] - inner(g, W, D)) < 1e-8


def _reference_defects(curve, g, t):
    """(G_W over the m-basis, D(t)) of a curve of at most three factors,
    from scipy's Pade exponentials, einsum contractions and a dense Gram
    solve."""
    ctx = curve.context
    c = dense_c(ctx)
    mi = g.m_indices
    G = g.gram_full
    X, Y, Z = (list(curve.factors) + [ctx.zero()] * 2)[:3]
    x, y, z = X.coeffs, Y.coeffs, Z.coeffs

    def br(a, b):
        return np.einsum("i,ijk,j->k", a, c, b)

    # T(t) = Ad(exp(-tZ) exp(-tY))
    adY, adZ = ctx.ad_matrix(y), ctx.ad_matrix(z)
    AY, AZ = expm(-t * adY), expm(-t * adZ)
    T = AZ @ AY
    Tx, Ty = T @ x, T @ y
    s = Tx + Ty + z
    gw = np.einsum("wjk,j,k->w", c[mi], s, G @ s) + (G @ (br(Tx, Ty + z) + br(Ty, z)))[mi]

    # w = Ad(exp(-tZ) exp(-tY)) x + Ad(exp(-tZ)) y + z and its derivative
    w = Tx + AZ @ y + z
    wdot = -(AZ @ adY @ AY @ x) - adZ @ (Tx + AZ @ y)
    mask = curve.dec.part_masks["m"]
    v = w * mask
    u = np.zeros(ctx.dim)
    u[mi] = np.linalg.solve(g.gram, np.einsum("jik,i,k->j", c[mi], v, G @ v))
    D = (wdot + br(w - v, v)) * mask + u
    return gw, D


def test_defects_match_pade_reference_on_non_geodesics(spaces):
    """gw_defect_all, gw_defect and connection_defect reproduce the scipy
    Pade formulas to 1e-12 relative on one-, two- and three-factor curves
    whose defects are far from zero, on a two-factor curve whose second
    factor is zero (the c = 1 closed form) and on the 21-point grid: on
    every catalog space, on so-blocks(2,2,2) in a rotated basis (dense c)
    and in a sheared one (a module_killing block that is not diagonal)."""
    rng = make_rng(16)
    grid = np.linspace(0.0, 2.0, 21)
    so222 = spaces["so-blocks(2,2,2)"]
    rebased = [rotated(so222, 160), sheared(so222)]
    nonzero = [np.count_nonzero(dense_c(q.context)) for q in (so222, rebased[0])]
    assert nonzero[1] >= 5 * nonzero[0]
    ix = rebased[1].part_indices["m1"]
    assert rebased[1].module_killing[ix[0], ix[1]] != 0
    for dec in [*spaces.values(), *rebased]:
        mi = dec.part_indices["m"]
        factors = [[dec.random_module_vector("m", rng) for _ in range(r)] for r in (2, 3)]
        if dec.name != "product-spheres":  # there every exp(tX) is a geodesic
            X = dec.random_module_vector("m", rng)
            factors += [[X], [X, dec.context.zero()]]
        for fs in factors:
            curve = ProductExpCurve(dec, fs)
            g = DiagonalMetric(dec, rng.uniform(0.3, 3.0, 3))
            for t in (0.35, 1.0, 1.9):
                gw_ref, D_ref = _reference_defects(curve, g, t)
                scale = np.abs(gw_ref).max()
                assert scale > 1e-3
                assert np.abs(gw_defect_all(curve, g, t) - gw_ref).max() <= 1e-12 * scale
                for pos, w in enumerate(mi):
                    W = dec.context.element(np.eye(dec.context.dim)[w])
                    assert abs(gw_defect(curve, g, W, t) - gw_ref[pos]) <= 1e-12 * scale
                D = connection_defect(curve, g, t).coeffs
                assert np.abs(D - D_ref).max() <= 1e-12 * np.abs(D_ref).max()
            # one grid call against the per-t reference, relative to the curve's largest defect
            gw_ref, D_ref = (np.array(q) for q in zip(*(_reference_defects(curve, g, t) for t in grid)))
            assert np.abs(gw_defect_all(curve, g, grid) - gw_ref).max() <= 1e-12 * np.abs(gw_ref).max()
            assert np.abs(connection_defect(curve, g, grid) - D_ref).max() <= 1e-12 * np.abs(D_ref).max()


def test_metric_or_velocity_of_another_decomposition_is_refused(stiefel3):
    """so-blocks(1,1,3) has stiefel(3)'s d = 10 and d_m = 7, so its metric
    and velocities fit every array shape; the defects and the shot refuse
    them."""
    other = build_so_blocks(1, 1, 3)
    draws = _draws(stiefel3, 19)
    curve, g = closed_form_geodesic(stiefel3, 1, *draws, 0.5)
    assert np.abs(gw_defect_all(curve, g, 0.7)).max() < 1e-12
    g_other = DiagonalMetric(other, g.lambdas)
    v0 = draws[0] + draws[1] + draws[2]
    for call in (
        lambda: gw_defect_all(curve, g_other, 0.7),
        lambda: connection_defect(curve, g_other, 0.7),
        lambda: shoot_geodesic(stiefel3, g_other, v0, 1.0, 20),
        lambda: shoot_geodesic(stiefel3, g, other.random_module_vector("m", make_rng(20)), 1.0, 20),
    ):
        with pytest.raises(ContextMismatchError):
            call()


def test_defect_vanishes_on_biinvariant_single_exponential(stiefel3):
    g = DiagonalMetric(stiefel3, (1.0, 1.0, 1.0))
    X = stiefel3.random_module_vector("m", make_rng(2))
    curve = ProductExpCurve(stiefel3, [X])
    for t in (0.0, 0.8, 1.9):
        assert connection_defect(curve, g, t).norm_b() < 1e-13


def test_an_exactly_zero_defect_has_norm_positive_zero(spaces):
    """The curve exp(t 0) has D = 0 exactly: at a scalar t its norm_b is the
    Python float +0.0, and on a grid every row's killing_norm is +0.0."""
    grid = np.linspace(0.0, 2.0, 21)
    for dec in spaces.values():
        curve = ProductExpCurve(dec, [dec.context.zero()])
        g = DiagonalMetric(dec, (1.0, 1.4, 0.7))
        for t in (0.0, 0.7):
            D = connection_defect(curve, g, t)
            norm = D.norm_b()
            assert not D.coeffs.any()
            assert type(norm) is float and norm == 0.0 and not np.signbit(norm)
        D = connection_defect(curve, g, grid)
        norms = killing_norm(dec.context, D)
        assert not D.any() and not norms.any() and not np.signbit(norms).any()


def test_defect_vanishes_on_closed_form_geodesics(su3):
    curve, g = closed_form_geodesic(su3, 2, *_draws(su3, 3), 1.5)
    for t in np.linspace(0.0, 2.0, 9):
        assert connection_defect(curve, g, t).norm_b() < 1e-12


def test_shot_biinvariant_curve_is_single_exponential(stiefel3):
    g = DiagonalMetric(stiefel3, (1.0, 1.0, 1.0))
    v0 = stiefel3.random_module_vector("m", make_rng(4))
    shot = shoot_geodesic(stiefel3, g, v0, 1.0, 100)
    for k in range(0, 101, 20):
        ref = matrix_exp(v0, k * shot.step)
        assert np.abs(shot.points[k] - ref.matrix).max() < 1e-9


def test_shooting_agrees_with_closed_form(stiefel3):
    curve, g = closed_form_geodesic(stiefel3, 1, *_draws(stiefel3, 5), 0.5)
    v0 = stiefel3.project(sum(curve.factors, stiefel3.context.zero()), "m")
    shot = shoot_geodesic(stiefel3, g, v0, 1.0, 1000)
    for k in range(0, 1001, 100):
        assert coset_distance(shot.points[k], curve.evaluate(k * shot.step), stiefel3) < 1e-6


def test_shooting_step_halving_is_fourth_order(stiefel3):
    """At coarse steps the max coset error shrinks by ~16x per halving."""
    curve, g = closed_form_geodesic(stiefel3, 1, *_draws(stiefel3, 6), 2.0)
    v0 = stiefel3.project(sum(curve.factors, stiefel3.context.zero()), "m")

    def max_err(steps):
        shot = shoot_geodesic(stiefel3, g, v0, 1.0, steps)
        stride = steps // 10
        return max(
            coset_distance(shot.points[k], curve.evaluate(k * shot.step), stiefel3)
            for k in range(stride, steps + 1, stride)
        )

    factor = max_err(20) / max_err(40)
    assert 8.0 <= factor <= 32.0


def test_shooting_conserves_energy(su3):
    g = DiagonalMetric(su3, (1.0, 2.0, 0.5))
    v0 = su3.random_module_vector("m", make_rng(7))
    shot = shoot_geodesic(su3, g, v0, 1.0, 400)
    assert shot.energy_drift <= 1e-8
    v = shot.velocities
    e0 = v[0] @ g.gram @ v[0]
    for k in range(0, 401, 80):
        assert v[k] @ g.gram @ v[k] == pytest.approx(e0, abs=1e-8)


def test_shooting_rejects_tiny_step_counts(stiefel3):
    g = DiagonalMetric(stiefel3, (1.0, 1.0, 0.5))
    v0 = stiefel3.random_module_vector("m", make_rng(8))
    with pytest.raises(ValueError):
        shoot_geodesic(stiefel3, g, v0, 1.0, 5)


def test_shot_frames_stay_orthogonal(so222):
    g = DiagonalMetric(so222, (1.0, 1.7, 0.4))
    v0 = so222.random_module_vector("m", make_rng(9))
    shot = shoot_geodesic(so222, g, v0, 1.0, 200)
    a = shot.points[-1]
    assert np.abs(a.T @ a - np.eye(len(a))).max() < 1e-12


def test_long_shot_lifts_stay_orthogonal(so222):
    """5,000 steps, not a whole number of lift chunks: every lift is
    orthogonal to rounding."""
    steps = 5000
    assert steps % oracle._CHUNK
    g = DiagonalMetric(so222, (1.0, 1.7, 0.4))
    v0 = so222.random_module_vector("m", make_rng(13))
    shot = shoot_geodesic(so222, g, v0, 5.0, steps)
    n = so222.context.ambient_size
    assert shot.points.shape == (steps + 1, n, n)
    assert shot.velocities.shape == (steps + 1, len(g.m_indices))
    for a in shot.points:
        assert np.abs(a.T @ a - np.eye(n)).max() <= 1e-14


def test_shot_reports_a_lift_overflow_at_its_step(stiefel3):
    """Finite velocities whose per-step lift factor overflows end in the
    overflow error at that step, never in the error of a polar step that
    does not converge."""
    g = DiagonalMetric(stiefel3, (1.0, 1.0, 1.0))
    v0 = stiefel3.random_module_vector("m1", make_rng(14)) * 1e80
    with pytest.raises(IntegrationFailureError, match="^state overflow at step 1; reduce the step size$"):
        shoot_geodesic(stiefel3, g, v0, 100.0, 10)


def test_coset_distance_basics(stiefel3):
    a = matrix_exp(stiefel3.random_module_vector("m1", make_rng(10)), 0.4)
    assert coset_distance(a, a, stiefel3) < 1e-14
    # right K-translation does not move the coset
    zeta = stiefel3.random_module_vector("k", make_rng(11))
    ak = a @ matrix_exp(zeta, 0.9)
    assert coset_distance(a, ak, stiefel3) < 1e-12
    b = matrix_exp(stiefel3.random_module_vector("m2", make_rng(12)), 0.3)
    d_ab = coset_distance(a, b, stiefel3)
    assert d_ab > 1e-3
    assert coset_distance(b, a, stiefel3) == pytest.approx(d_ab, abs=1e-10)


def test_coset_distance_chart_boundary(stiefel3):
    e = stiefel3.context.identity()
    far = matrix_exp(stiefel3.random_module_vector("m1", make_rng(13)), 7.0)
    with pytest.raises(OutOfChartError):
        coset_distance(e, far, stiefel3)


def test_gauge_invariance_of_defect_and_cosets(stiefel3):
    """A right k-factor changes the lift but neither the cosets nor the
    defect magnitude."""
    factors = _draws(stiefel3, 14)[:2]
    zeta = stiefel3.random_module_vector("k", make_rng(15))
    g = DiagonalMetric(stiefel3, (1.0, 1.4, 0.7))
    base = ProductExpCurve(stiefel3, factors)
    gauged = ProductExpCurve(stiefel3, factors + [zeta])
    for t in (0.4, 1.2):
        assert coset_distance(base.evaluate(t), gauged.evaluate(t), stiefel3) < 1e-10
        db = connection_defect(base, g, t).norm_b()
        dg = connection_defect(gauged, g, t).norm_b()
        assert db == pytest.approx(dg, abs=1e-9)


def test_identity_checks_pass_everywhere(spaces):
    for dec in spaces.values():
        report = identity_checks(dec)
        assert report.verdict, [c.name for c in report.checks if not c.passed]


def _stage_velocities(g, v0, t_end, steps):
    """The RK4 velocity recurrence through the dense U operator with
    negated stage slopes k_s = -U(w, w): (velocities, the four stage states
    per step)."""
    h = t_end / steps
    Q = dense_u_operator(g)
    v = v0.coeffs[g.m_indices]
    velocities, stages = [v], []
    for _ in range(steps):
        k1 = -dense_u(Q, v)
        s1 = v + 0.5 * h * k1
        k2 = -dense_u(Q, s1)
        s2 = v + 0.5 * h * k2
        k3 = -dense_u(Q, s2)
        s3 = v + h * k3
        k4 = -dense_u(Q, s3)
        stages.append((v, s1, s2, s3))
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        velocities.append(v)
    return np.array(velocities), stages


def _longdouble_polar(X):
    eye = np.eye(len(X), dtype=np.longdouble)
    for _ in range(60):
        E = eye - X.T @ X
        X = X + X @ E / 2
        if np.abs(E).max() < 1e-17:
            return X
    raise AssertionError("reference polar did not converge")


@pytest.mark.parametrize("steps", [40, 400])
def test_shot_lifts_match_longdouble_per_step_polar(spaces, steps):
    """Every lift lies within 1e-15 of a_{k+1} = polar(a_k Phi_k) formed per
    step in extended precision from the same stage velocities (a batched
    SVD polar in place of Newton-Schulz misses this by 6e-15 to 1.7e-13)."""
    for name in ("stiefel(3)", "su3-flag", "so-blocks(2,2,2)"):
        dec = spaces[name]
        ctx = dec.context
        rng = make_rng(503)
        g = DiagonalMetric(dec, rng.uniform(0.3, 3.0, 3))
        v0 = dec.random_module_vector("m", rng)
        shot = shoot_geodesic(dec, g, v0, 2.0, steps)
        _, stages = _stage_velocities(g, v0, 2.0, steps)
        basis = ctx.basis[g.m_indices].astype(np.longdouble)
        h = np.longdouble(2.0) / steps
        a = np.eye(ctx.ambient_size, dtype=np.longdouble)
        worst = 0.0
        for k, states in enumerate(stages):
            V1, V2, V3, V4 = (np.tensordot(s.astype(np.longdouble), basis, 1) for s in states)
            k1 = a @ V1
            k2 = (a + h / 2 * k1) @ V2
            k3 = (a + h / 2 * k2) @ V3
            k4 = (a + h * k3) @ V4
            a = _longdouble_polar(a + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4))
            worst = max(worst, float(np.abs(shot.points[k + 1] - a).max()))
        assert worst <= 1e-15, (name, worst)


@pytest.mark.parametrize("steps", [40, 400, 1000])
def test_shot_velocities_keep_the_negated_stage_bits(spaces, steps):
    """The shot's velocities are those of the dense-operator recurrence with
    negated slopes to rounding (the shot sums each U term over a symmetric
    pair of the defect table, the reference over both orders), and its
    energy drift is bitwise the reference's."""
    for name in ("stiefel(3)", "su3-flag", "so-blocks(2,2,2)", "so-blocks(2,3,4)"):
        dec = spaces[name]
        rng = make_rng(503)
        g = DiagonalMetric(dec, rng.uniform(0.3, 3.0, 3))
        v0 = dec.random_module_vector("m", rng)
        shot = shoot_geodesic(dec, g, v0, 2.0, steps)
        ref, _ = _stage_velocities(g, v0, 2.0, steps)
        scale = np.abs(ref).max()
        assert np.abs(shot.velocities - ref).max() <= 2 * np.finfo(float).eps * scale, name
        energy = ((ref @ g.gram) * ref).sum(axis=1)
        assert shot.energy_drift == float(np.abs(energy[1:] - energy[0]).max())


def test_shot_and_u_map_form_no_cubic_array():
    """On so-blocks 4 4 4 (d_m = 48) a new metric's 10-step shot and one
    u_map, after the defect table is built, peak below 0.6 MB of traced
    allocations: a dense (d_m, d_m^2) U operator alone is 0.88 MB."""
    dec = build_so_blocks(4, 4, 4)
    dec.defect_table
    rng = make_rng(31)
    v0 = dec.random_module_vector("m", rng)
    g = DiagonalMetric(dec, (1.0, 1.3, 0.7))
    tracemalloc.start()
    try:
        shoot_geodesic(dec, g, v0, 1.0, 10)
        u_map(g, v0, dec.random_module_vector("m", rng))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600_000, peak


def test_polar_marks_only_the_stack_entries_it_cannot_orthonormalize():
    """Newton-Schulz diverges on singular values beyond sqrt(3): that
    matrix comes back nan, its orthogonal neighbour to rounding."""
    rng = make_rng(17)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    R = oracle._polar_orthonormalize(np.stack((q + 1e-6 * rng.standard_normal((4, 4)), 3.0 * q)))
    assert np.abs(R[0].T @ R[0] - np.eye(4)).max() <= 4 * np.finfo(float).eps
    assert np.isnan(R[1]).all()


def test_shot_reports_a_polar_that_does_not_converge(stiefel3):
    """With a bi-invariant metric v stays constant, so the energy drift is
    zero while h |v| is far too large for Phi_k to be near orthogonal."""
    g = DiagonalMetric(stiefel3, (1.0, 1.0, 1.0))
    v0 = stiefel3.random_module_vector("m", make_rng(18))
    with pytest.raises(
        IntegrationFailureError,
        match="^polar factor did not converge at step 1; reduce the step size$",
    ):
        shoot_geodesic(stiefel3, g, v0, 1000.0, 20)


def test_shot_and_grid_coset_distance_call_no_per_matrix_lapack(so222, monkeypatch):
    """Neither a shot nor a grid coset distance calls np.linalg.svd or
    np.linalg.solve."""
    g = DiagonalMetric(so222, (0.6, 1.0, 1.0))
    v0 = so222.random_module_vector("m", make_rng(19))
    curve = ProductExpCurve(so222, [v0])
    grid = np.linspace(0.0, 1.0, 21)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-matrix LAPACK call")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    shot = shoot_geodesic(so222, g, v0, 1.0, 40)
    assert coset_distance(shot.points[::2], curve.evaluate(grid), so222).shape == (21,)


def test_coset_distance_rejects_non_orthogonal_stacks(stiefel3):
    curve = ProductExpCurve(stiefel3, [stiefel3.random_module_vector("m", make_rng(20))])
    a = curve.evaluate(np.linspace(0.0, 2.0, 21))
    b = a.copy()
    b[3] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="needs orthogonal matrices"):
        coset_distance(a, b, stiefel3)
    with pytest.raises(ValueError, match="needs orthogonal matrices"):
        coset_distance(b[3], a[3], stiefel3)
