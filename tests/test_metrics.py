"""Diagonal metrics, the U-map and pullback velocities."""

import numpy as np
import pytest
from scipy.linalg import expm

from wallach_geo import (
    DiagonalMetric,
    InvalidMetricError,
    ProductExpCurve,
    bracket,
    inner,
    u_map,
)
from wallach_geo import accel
from .conftest import dense_c, dense_u, dense_u_operator, make_rng


def test_positive_coefficients_required(stiefel3):
    with pytest.raises(InvalidMetricError):
        DiagonalMetric(stiefel3, (1.0, -0.5, 1.0))
    with pytest.raises(InvalidMetricError):
        DiagonalMetric(stiefel3, (0.0, 1.0, 1.0))
    for bad in (np.nan, np.inf, -np.inf):
        for k in range(3):
            with pytest.raises(InvalidMetricError):
                DiagonalMetric(stiefel3, tuple(bad if q == k else 1.0 for q in range(3)))


def test_gram_is_blockwise_scaled_killing(spaces):
    for dec in spaces.values():
        g = DiagonalMetric(dec, (1.0, 1.3, 0.7))
        K = dec.context.killing
        for lam, part in zip(g.lambdas, ("m1", "m2", "m3")):
            ix = dec.part_indices[part]
            block = g.gram_full[np.ix_(ix, ix)]
            assert np.abs(block + lam * K[np.ix_(ix, ix)]).max() <= 1e-12 * np.abs(K).max()
        # off-module and k rows are exactly zero
        mask = dec.part_masks["m"]
        assert np.abs(g.gram_full * np.outer(1 - mask, np.ones(dec.context.dim))).max() == 0.0


def test_inner_discards_k_components(stiefel3):
    rng = make_rng(0)
    g = DiagonalMetric(stiefel3, (1.0, 2.0, 0.5))
    ctx = stiefel3.context
    X = ctx.element(rng.standard_normal(ctx.dim))
    Xm = stiefel3.project(X, "m")
    Y = ctx.element(rng.standard_normal(ctx.dim))
    assert inner(g, X, Y) == pytest.approx(inner(g, Xm, Y), abs=1e-12)


def test_inner_positive_definite_on_m(spaces):
    rng = make_rng(1)
    for dec in spaces.values():
        g = DiagonalMetric(dec, (0.4, 1.0, 2.5))
        for _ in range(5):
            v = dec.random_module_vector("m", rng)
            assert inner(g, v, v) > 0


def test_u_map_closed_form_on_cross_module_pairs(spaces):
    """For X in m_i and Y in m_j (i, j, k distinct) the defining identity
    collapses to U(X, Y) = (l_j - l_i) / (2 l_k) [X, Y]."""
    rng = make_rng(2)
    lambdas = (1.0, 1.7, 0.6)
    for dec in spaces.values():
        g = DiagonalMetric(dec, lambdas)
        for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3)):
            X = dec.random_module_vector(f"m{i}", rng)
            Y = dec.random_module_vector(f"m{j}", rng)
            got = u_map(g, X, Y)
            li, lj, lk = (lambdas[q - 1] for q in (i, j, k))
            expect = ((lj - li) / (2.0 * lk)) * bracket(X, Y)
            assert np.abs(got.coeffs - expect.coeffs).max() < 1e-10


def test_u_map_matches_gram_solve_reference(spaces):
    """U from the metric's pair matrix agrees with the contraction against
    c[m] followed by the inverse Gram matrix, for X != Y in m."""
    rng = make_rng(12)
    for dec in spaces.values():
        g = DiagonalMetric(dec, rng.uniform(0.3, 3.0, 3))
        c = dense_c(dec.context)
        G_inv = np.linalg.inv(g.gram)
        for _ in range(3):
            X = dec.random_module_vector("m", rng)
            Y = dec.random_module_vector("m", rng)
            x, y = X.coeffs, Y.coeffs
            gx, gy = g.gram_full @ x, g.gram_full @ y
            rhs = np.einsum("jik,i,k->j", c[g.m_indices], x, gy) + np.einsum(
                "jik,i,k->j", c[g.m_indices], y, gx
            )
            ref = np.zeros(dec.context.dim)
            ref[g.m_indices] = 0.5 * (G_inv @ rhs)
            got = u_map(g, X, Y).coeffs
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _pair_u_excess(g, pairs):
    """The largest |u_map(g, X, Y) - U(X, Y)| on m over the (X, Y) pairs,
    less the rounding bound 16 eps sum |Q| |x (x) y| (the sum of the
    absolute terms), for U of the dense reference Q: <= 0 to rounding."""
    Q, mi, excess = dense_u_operator(g), g.m_indices, -np.inf
    for X, Y in pairs:
        x, y = X.coeffs[mi], Y.coeffs[mi]
        got = u_map(g, X, Y).coeffs
        assert not got[g.dec.part_indices["k"]].any()
        bound = 16 * np.finfo(float).eps * dense_u(np.abs(Q), np.abs(x), np.abs(y))
        excess = max(excess, (np.abs(got[mi] - dense_u(Q, x, y)) - bound).max())
    return excess


def test_pair_matrix_reproduces_the_dense_u_operator(spaces):
    """The metric's pair matrix, read from the defect table, gives U(X, Y)
    of the dense gather of c to rounding, on every space at a metric on a
    solution locus and one off all of them; dropping one pair (its
    largest column) breaks the agreement.  On product-spheres U vanishes
    and there is no pair to drop."""
    rng = make_rng(21)
    for dec in spaces.values():
        for lambdas in ((1.0, 1.0, 0.5), (0.8, 1.3, 2.1)):
            g = DiagonalMetric(dec, lambdas)
            draws = [dec.random_module_vector("m", rng) for _ in range(3)]
            pairs = [(draws[0], draws[1]), (draws[1], draws[2]), (draws[2], draws[2])]
            assert _pair_u_excess(g, pairs) <= 0.0, (dec.name, lambdas)
            S, A, B = g.u_pairs
            assert (A <= B).all() and len(set(zip(A, B))) == len(A)
            if not len(A):
                continue
            dropped = S.copy()
            dropped[:, np.abs(S).max(axis=0).argmax()] = 0.0
            g.u_pairs = (dropped, A, B)
            assert _pair_u_excess(g, pairs) > 0.0, (dec.name, lambdas)


def test_u_map_vanishes_on_single_module_arguments(stiefel3):
    rng = make_rng(3)
    g = DiagonalMetric(stiefel3, (1.0, 1.7, 0.6))
    for part in ("m1", "m2", "m3"):
        X = stiefel3.random_module_vector(part, rng)
        assert u_map(g, X, X).norm_b() < 1e-12


def test_u_map_defining_identity(su3):
    rng = make_rng(4)
    g = DiagonalMetric(su3, (1.0, 0.8, 2.2))
    X = su3.random_module_vector("m", rng)
    Y = su3.random_module_vector("m", rng)
    U = u_map(g, X, Y)
    for w in range(su3.context.dim):
        Z = su3.context.element(np.eye(su3.context.dim)[w])
        if su3.part_masks["m"][w] == 0:
            continue
        lhs = 2.0 * inner(g, U, Z)
        rhs = inner(g, su3.project(bracket(Z, X), "m"), Y) + inner(
            g, X, su3.project(bracket(Z, Y), "m")
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_u_map_symmetry_and_bilinearity(so222):
    rng = make_rng(5)
    g = DiagonalMetric(so222, (1.0, 2.0, 0.3))
    X = so222.random_module_vector("m", rng)
    Y = so222.random_module_vector("m", rng)
    Z = so222.random_module_vector("m", rng)
    assert np.abs(u_map(g, X, Y).coeffs - u_map(g, Y, X).coeffs).max() < 1e-10
    lhs = u_map(g, 2.0 * X + Z, Y)
    rhs = 2.0 * u_map(g, X, Y) + u_map(g, Z, Y)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10


def test_pullback_velocity_matches_finite_difference(stiefel3):
    """w(t) from the analytic path against log(a(t)^-1 a(t+h)) / h."""
    rng = make_rng(6)
    factors = [stiefel3.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]
    curve = ProductExpCurve(stiefel3, factors)
    ctx = stiefel3.context
    h = 1e-6
    for t in (0.0, 0.7, 1.9):
        w, _ = curve.body_velocity(t)
        a0 = curve.evaluate(t).matrix
        a1 = curve.evaluate(t + h).matrix
        fd = ctx.coefficients_of(accel.logm(np.linalg.solve(a0, a1)) / h, check=False)
        assert np.abs(w - fd).max() < 1e-5


def test_k_gauge_covariance(stiefel3):
    """Adding a right k-factor rotates module components of v without
    changing their norms."""
    rng = make_rng(7)
    g = DiagonalMetric(stiefel3, (1.0, 1.0, 0.5))
    factors = [stiefel3.random_module_vector(p, rng) for p in ("m1", "m3")]
    zeta = stiefel3.random_module_vector("k", rng)
    base = ProductExpCurve(stiefel3, factors)
    gauged = ProductExpCurve(stiefel3, factors + [zeta])
    ctx = stiefel3.context

    def pullback_velocity(curve, t):
        """The m-part of the body velocity of the curve's lift."""
        return stiefel3.project(ctx.element(curve.body_velocity(t)[0]), "m")

    for t in (0.3, 1.1):
        v1 = pullback_velocity(base, t)
        v2 = pullback_velocity(gauged, t)
        R = expm(-t * ctx.ad_matrix(zeta.coeffs))
        assert np.abs(v2.coeffs - R @ v1.coeffs).max() < 1e-10
        assert inner(g, v1, v1) == pytest.approx(inner(g, v2, v2), abs=1e-10)
