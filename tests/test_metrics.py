"""Diagonal metrics, the U map of the metric's pair matrix and pullback
velocities."""

import numpy as np
import pytest
from scipy.linalg import expm

from wallach_geo import (
    DiagonalMetric,
    InvalidMetricError,
    ProductExpCurve,
    closed_form_geodesic,
    killing_norm,
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


def test_gram_is_formed_on_first_read(spaces):
    """A metric built by ``closed_form_geodesic`` holds no ``gram_full``
    or ``gram`` until one is read, and the first read has the bytes of
    ``module_killing`` with each column scaled by its module's coefficient
    and of that matrix's m block; either may be read first."""
    rng = make_rng(3)
    for name, dec in spaces.items():
        draws = [dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]
        for case, first in ((1, "gram_full"), (3, "gram")):
            _, g = closed_form_geodesic(dec, case, *draws, 0.7)
            assert "gram_full" not in vars(g) and "gram" not in vars(g), name
            getattr(g, first)
            full = dec.module_killing * np.array((0.0,) + g.lambdas)[dec.part_of]
            m = dec.part_indices["m"]
            assert g.gram_full.tobytes() == full.tobytes(), name
            assert g.gram.tobytes() == full[m[:, None], m].tobytes(), name


def _u(g, x, y=None):
    """U(X, Y) as a coefficient vector (0 on k) from the coefficient vectors
    x and y, through the metric's pair matrix as shooting reads it:
    S (x[A] x[B]) on m-coordinates at X = Y, and by polarization
    (U(X + Y, X + Y) - U(X - Y, X - Y)) / 4 otherwise."""
    if y is not None:
        return 0.25 * (_u(g, x + y) - _u(g, x - y))
    S, A, B = g.u_pairs
    v = x[g.m_indices]
    u = np.zeros(len(x))
    u[g.m_indices] = S.dot(v[A] * v[B])
    return u


def test_inner_discards_k_components(stiefel3):
    rng = make_rng(0)
    g = DiagonalMetric(stiefel3, (1.0, 2.0, 0.5))
    ctx = stiefel3.context
    x = rng.standard_normal(ctx.dim)
    xm = x * stiefel3.part_masks["m"]
    y = rng.standard_normal(ctx.dim)
    G = g.gram_full
    assert x @ G @ y == pytest.approx(xm @ G @ y, abs=1e-12)


def test_inner_positive_definite_on_m(spaces):
    rng = make_rng(1)
    for dec in spaces.values():
        g = DiagonalMetric(dec, (0.4, 1.0, 2.5))
        for _ in range(5):
            v = dec.random_module_vector("m", rng).coeffs
            assert v @ g.gram_full @ v > 0


def test_u_map_closed_form_on_cross_module_pairs(spaces):
    """For X in m_i and Y in m_j (i, j, k distinct) the defining identity
    collapses to U(X, Y) = (l_j - l_i) / (2 l_k) [X, Y]."""
    rng = make_rng(2)
    lambdas = (1.0, 1.7, 0.6)
    for dec in spaces.values():
        g = DiagonalMetric(dec, lambdas)
        for (i, j, k) in ((1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3)):
            x = dec.random_module_vector(f"m{i}", rng).coeffs
            y = dec.random_module_vector(f"m{j}", rng).coeffs
            got = _u(g, x, y)
            li, lj, lk = (lambdas[q - 1] for q in (i, j, k))
            expect = ((lj - li) / (2.0 * lk)) * accel.bracket_coeffs(
                dec.context.structure_entries, x, y
            )
            assert np.abs(got - expect).max() < 1e-10


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
            got = _u(g, x, y)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _u_excess(g, draws):
    """The largest |S (x[A] x[B]) - U(X, X)| on m over the draws X, for the
    metric's pair matrix S and U of the dense reference Q, less the rounding
    bound 16 eps sum |Q| |x (x) x| (the sum of the absolute terms): <= 0 to
    rounding."""
    Q, mi, excess = dense_u_operator(g), g.m_indices, -np.inf
    S, A, B = g.u_pairs
    for X in draws:
        x = X.coeffs[mi]
        got = S.dot(x[A] * x[B])
        bound = 16 * np.finfo(float).eps * dense_u(np.abs(Q), np.abs(x))
        excess = max(excess, (np.abs(got - dense_u(Q, x)) - bound).max())
    return excess


def test_pair_matrix_reproduces_the_dense_u_operator(spaces):
    """The metric's pair matrix, read from the defect table, gives U(X, X)
    of the dense gather of c to rounding, as shooting reads it, on every
    space at a metric on a solution locus and one off all of them; dropping
    one pair (its largest column) breaks the agreement.  On product-spheres
    U vanishes and there is no pair to drop."""
    rng = make_rng(21)
    for dec in spaces.values():
        for lambdas in ((1.0, 1.0, 0.5), (0.8, 1.3, 2.1)):
            g = DiagonalMetric(dec, lambdas)
            draws = [dec.random_module_vector("m", rng) for _ in range(3)]
            assert _u_excess(g, draws) <= 0.0, (dec.name, lambdas)
            S, A, B = g.u_pairs
            assert (A <= B).all() and len(set(zip(A, B))) == len(A)
            if not len(A):
                continue
            dropped = S.copy()
            dropped[:, np.abs(S).max(axis=0).argmax()] = 0.0
            g.u_pairs = (dropped, A, B)
            assert _u_excess(g, draws) > 0.0, (dec.name, lambdas)


def test_u_map_vanishes_on_single_module_arguments(stiefel3):
    rng = make_rng(3)
    g = DiagonalMetric(stiefel3, (1.0, 1.7, 0.6))
    for part in ("m1", "m2", "m3"):
        x = stiefel3.random_module_vector(part, rng).coeffs
        assert killing_norm(stiefel3.context, _u(g, x)) < 1e-12


def test_u_map_defining_identity(su3):
    rng = make_rng(4)
    g = DiagonalMetric(su3, (1.0, 0.8, 2.2))
    x = su3.random_module_vector("m", rng).coeffs
    y = su3.random_module_vector("m", rng).coeffs
    U = _u(g, x, y)
    c, mask, G = su3.context.structure_entries, su3.part_masks["m"], g.gram_full
    for w in range(su3.context.dim):
        z = np.eye(su3.context.dim)[w]
        if mask[w] == 0:
            continue
        lhs = 2.0 * (U @ G @ z)
        rhs = (accel.bracket_coeffs(c, z, x) * mask) @ G @ y + x @ G @ (
            accel.bracket_coeffs(c, z, y) * mask
        )
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_u_map_symmetry_and_bilinearity(so222):
    rng = make_rng(5)
    g = DiagonalMetric(so222, (1.0, 2.0, 0.3))
    x, y, z = (so222.random_module_vector("m", rng).coeffs for _ in range(3))
    assert np.abs(_u(g, x, y) - _u(g, y, x)).max() < 1e-10
    lhs = _u(g, 2.0 * x + z, y)
    rhs = 2.0 * _u(g, x, y) + _u(g, z, y)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_pullback_velocity_matches_finite_difference(stiefel3):
    """w(t) from the analytic path against log(a(t)^-1 a(t+h)) / h."""
    rng = make_rng(6)
    factors = [stiefel3.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]
    curve = ProductExpCurve(stiefel3, factors)
    ctx = stiefel3.context
    h = 1e-6
    for t in (0.0, 0.7, 1.9):
        w, _ = curve.body_velocity(t)
        a0 = curve.evaluate(t)
        a1 = curve.evaluate(t + h)
        fd = ctx.coefficients_of(accel.logm(np.linalg.solve(a0, a1)) / h)
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
        return curve.body_velocity(t)[0] * stiefel3.part_masks["m"]

    for t in (0.3, 1.1):
        v1 = pullback_velocity(base, t)
        v2 = pullback_velocity(gauged, t)
        R = expm(-t * ctx.ad_matrix(zeta.coeffs))
        assert np.abs(v2 - R @ v1).max() < 1e-10
        assert v1 @ g.gram_full @ v1 == pytest.approx(v2 @ g.gram_full @ v2, abs=1e-10)
