"""Acceptance suite: ten end-to-end criteria with stated tolerances.

Each test prints one pass/fail line (run pytest with -s to see them all).
"""

import time

import numpy as np
import pytest

from wallach_geo import (
    AlgebraElement,
    DiagonalMetric,
    ProductExpCurve,
    TwoSummandView,
    certify_nonexistence,
    closed_form_geodesic,
    connection_defect,
    coset_distance,
    dohira_geodesic,
    gw_defect_all,
    identity_checks,
    killing_norm,
    restriction_residual,
    shoot_geodesic,
    solution_families,
    verify_fibration,
    verify_structure,
)
from .conftest import counterexample_swapped, make_rng

GRID = np.linspace(0.0, 2.0, 21)
C_VALUES = (0.25, 0.5, 1.0, 1.5, 2.0)


_started = {}


@pytest.fixture(autouse=True)
def _clock():
    _started["t"] = time.perf_counter()


def _report(num, desc, ok, detail):
    elapsed = time.perf_counter() - _started["t"]
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {desc}  ({detail}; {elapsed:.1f} s)"
    print("\n" + line)
    assert ok, line


def _draws(dec, rng):
    return [dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]


def test_criterion_01_closed_form_suite(spaces):
    """Closed-form curves are geodesics on every space, case and c."""
    worst_gw = worst_d = 0.0
    for si, dec in enumerate(spaces.values()):
        rng = make_rng(1000 + si)
        for case in (1, 2, 3):
            for c in C_VALUES:
                for _ in range(20):
                    curve, g = closed_form_geodesic(dec, case, *_draws(dec, rng), c)
                    defects = killing_norm(dec.context, connection_defect(curve, g, GRID))
                    worst_gw = max(worst_gw, np.abs(gw_defect_all(curve, g, GRID)).max())
                    worst_d = max(worst_d, defects.max())
    ok = worst_gw <= 1e-9 and worst_d <= 1e-9
    _report(1, "closed-form geodesic suite, 7 spaces x 3 cases x 5 c x 20 draws",
            ok, f"max |G_W| {worst_gw:.2e}, max defect {worst_d:.2e}")


def test_criterion_02_cross_oracle(spaces):
    """Twist-based and connection-based defects agree on arbitrary curves."""
    rng = make_rng(2000)
    names = list(spaces)
    worst = 0.0
    for k in range(50):
        dec = spaces[names[k % len(names)]]
        curve = ProductExpCurve(dec, _draws(dec, rng))
        g = DiagonalMetric(dec, rng.uniform(0.3, 3.0, 3))
        mi = dec.part_indices["m"]
        for t in GRID:
            vec = gw_defect_all(curve, g, t)
            D = connection_defect(curve, g, t)
            pairing = (g.gram_full @ D.coeffs)[mi]
            worst = max(worst, np.abs(vec - pairing).max())
    ok = worst <= 1e-8
    _report(2, "cross-oracle identity on 50 arbitrary curves", ok, f"max gap {worst:.2e}")


def test_criterion_03_shooting_agreement(spaces):
    """RK4 shooting reproduces the closed form; step halving is 4th order."""
    worst = 0.0
    factors = []
    for name in ("stiefel(3)", "su3-flag"):
        dec = spaces[name]
        rng = make_rng(3000)
        for _ in range(3):
            curve, g = closed_form_geodesic(dec, 1, *_draws(dec, rng), 0.5)
            v0 = sum(curve.factors, dec.context.zero())  # the factors lie in m
            shot = shoot_geodesic(dec, g, v0, 1.0, 1000)
            for k in range(0, 1001, 50):
                dist = coset_distance(shot.points[k], curve.evaluate(k * shot.step), dec)
                worst = max(worst, dist)

        # convergence order, measured at coarse steps where truncation
        # error dominates rounding noise
        curve, g = closed_form_geodesic(dec, 1, *_draws(dec, rng), 0.5)
        v0 = sum(curve.factors, dec.context.zero())  # the factors lie in m

        def max_err(steps):
            shot = shoot_geodesic(dec, g, v0, 1.0, steps)
            stride = steps // 10
            return max(
                coset_distance(shot.points[k], curve.evaluate(k * shot.step), dec)
                for k in range(stride, steps + 1, stride)
            )

        factors.append(max_err(20) / max_err(40))
    ok = worst <= 1e-6 and all(8.0 <= f <= 32.0 for f in factors)
    _report(3, "shooting agreement and step-halving order", ok,
            f"max coset dist {worst:.2e}, halving factors "
            + ", ".join(f"{f:.1f}" for f in factors))


def test_criterion_04_solution_families():
    """All six solution families solve the restriction system."""
    rng = make_rng(4000)
    worst = 0.0
    sum_ok = True
    for _ in range(10):
        lam = rng.uniform(0.2, 2.2)
        free = rng.uniform(-1.0, 1.0)
        for sol in solution_families(lam, free):
            r = restriction_residual(sol, sol.lambda2, sol.lambda3)
            worst = max(worst, np.abs(r).max())
            for ai, bi, ci in zip(sol.a, sol.b, sol.c):
                sum_ok = sum_ok and (1.0 - ai - bi == ci)
    ok = worst <= 1e-12 and sum_ok
    _report(4, "six solution families at 10 random parameter values", ok,
            f"max residual {worst:.2e}, sum constraint exact: {sum_ok}")


def test_criterion_05_genericity_probe():
    """The cofactor certificate proves, exactly, that the restriction system
    has no solution at ten generic metrics."""
    pairs = [
        (1.3, 0.7), (2.0, 0.5), (0.8, 1.4), (1.1, 0.9), (3.0, 1.5),
        (0.5, 0.3), (1.6, 2.4), (0.25, 1.8), (2.5, 0.9), (1.45, 1.15),
    ]
    proved = [certify_nonexistence(l2, l3) for l2, l3 in pairs]
    ok = all(proved)
    _report(5, "nonexistence certificate on 10 generic metrics", ok,
            f"proved at {sum(proved)} of {len(pairs)}")


def test_criterion_06_commuting_modules_space(spaces):
    """On the product of spheres every exp(tX).o is a geodesic for every
    diagonal metric."""
    dec = spaces["product-spheres"]
    rng = make_rng(6000)
    worst = 0.0
    for _ in range(10):
        g = DiagonalMetric(dec, rng.uniform(0.25, 4.0, 3))
        for _ in range(10):
            X = sum(_draws(dec, rng), dec.context.zero())
            curve = ProductExpCurve(dec, [X])
            for t in GRID:
                worst = max(worst, connection_defect(curve, g, t).norm_b())
                worst = max(worst, float(np.abs(gw_defect_all(curve, g, t)).max()))
    ok = worst <= 1e-9
    _report(6, "single-exponential geodesics, 10 metrics x 10 draws", ok,
            f"max defect {worst:.2e}")


def test_criterion_07_two_summand_grouping(spaces):
    """The grouped two-summand curve is a geodesic and coincides
    factor-by-factor with the three-module construction."""
    dec = spaces["stiefel(3)"]
    view = TwoSummandView(dec, 3)
    rng = make_rng(7000)
    worst = 0.0
    coincide = True
    for c in (0.5, 2.0):
        X1m, X2m, X3m = _draws(dec, rng)
        grouped, g = dohira_geodesic(view, c, X1m + X2m, X3m)
        direct, _ = closed_form_geodesic(dec, 1, X1m, X2m, X3m, c)
        for fa, fb in zip(grouped.factors, direct.factors):
            coincide = coincide and np.abs(fa.coeffs - fb.coeffs).max() <= 1e-15
        for t in GRID:
            worst = max(worst, float(np.abs(gw_defect_all(grouped, g, t)).max()))
            worst = max(worst, connection_defect(grouped, g, t).norm_b())
    ok = worst <= 1e-9 and coincide
    _report(7, "grouped two-summand geodesics, c in {0.5, 2}", ok,
            f"max defect {worst:.2e}, factors coincide: {coincide}")


def test_criterion_08_structure_suite(spaces):
    """Structural relations, fibrations and Killing-form identities."""
    worst = 0.0
    ok = True
    for dec in spaces.values():
        rep = verify_structure(dec)
        ok = ok and rep.verdict
        worst = max(worst, rep.max_residual())
        for i in (1, 2, 3):
            fib = verify_fibration(dec, i)
            ok = ok and fib.verdict
            worst = max(worst, fib.max_residual())
    ok = ok and worst <= 1e-12

    rel = 0.0
    rng = make_rng(8000)
    for name in ("so-blocks(2,3,4)", "stiefel(3)"):
        dec = spaces[name]
        ctx = dec.context
        N = ctx.ambient_size
        X = AlgebraElement(ctx, rng.standard_normal(ctx.dim))
        Y = AlgebraElement(ctx, rng.standard_normal(ctx.dim))
        expect = (N - 2) * np.trace(X.matrix @ Y.matrix)
        rel = max(rel, abs(X.coeffs @ ctx.killing @ Y.coeffs - expect) / abs(expect))
    ctx = spaces["su3-flag"].context
    X = AlgebraElement(ctx, rng.standard_normal(ctx.dim))
    Y = AlgebraElement(ctx, rng.standard_normal(ctx.dim))
    expect = 3.0 * np.trace(X.matrix @ Y.matrix)
    rel = max(rel, abs(X.coeffs @ ctx.killing @ Y.coeffs - expect) / abs(expect))
    ok = ok and rel <= 1e-10
    _report(8, "structure + fibration residuals and Killing identities", ok,
            f"max residual {worst:.2e}, Killing rel err {rel:.2e}")


def test_criterion_09_derivative_identities(spaces):
    """Finite-difference identity checks pass on every space; the fixed
    adjoint relation holds at near machine precision."""
    ok = True
    worst_fd = worst_exact = 0.0
    for dec in spaces.values():
        rep = identity_checks(dec, seed=90)
        ok = ok and rep.verdict
        for chk in rep.checks:
            if "exact" in chk.name:
                worst_exact = max(worst_exact, chk.max_residual)
            else:
                worst_fd = max(worst_fd, chk.max_residual)
    ok = ok and worst_fd <= 1e-6 and worst_exact <= 1e-12
    _report(9, "derivative identity checks on all spaces", ok,
            f"max FD err {worst_fd:.2e}, max exact err {worst_exact:.2e}")


def test_criterion_10_negative_controls(spaces):
    """A wrong curve and a wrong decomposition are both detected."""
    dec = spaces["so-blocks(2,2,2)"]
    g = DiagonalMetric(dec, (1.0, 1.3, 0.7))
    X = sum(_draws(dec, make_rng(10000)), dec.context.zero())
    curve = ProductExpCurve(dec, [X])
    worst = max(float(np.abs(gw_defect_all(curve, g, t)).max()) for t in GRID)
    bad = counterexample_swapped()
    bad_res = verify_structure(bad).max_residual()
    ok = worst > 1e-3 and bad_res > 0.1
    _report(10, "negative controls: non-geodesic curve and corrupted split", ok,
            f"curve max |G_W| {worst:.2e}, corrupted residual {bad_res:.2e}")
