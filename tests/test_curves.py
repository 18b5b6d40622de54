"""Product-of-exponential curves, body velocities and Ad-exponentials."""

import numpy as np
import pytest
from scipy.linalg import expm

from wallach_geo import ContextMismatchError, ProductExpCurve, accel, matrix_exp
from .conftest import make_rng


def _factors(dec, seed, parts=("m1", "m2", "m3")):
    rng = make_rng(seed)
    return [dec.random_module_vector(p, rng) for p in parts]


def _ad_exp(ctx, F, t):
    """Ad(exp(-t F)) on coefficients, from the spectral factors of ad F in
    the Cholesky frame of -B, as curves and the identity checks form it."""
    A = ctx.ad_matrix(F.coeffs)
    return accel.spectral_exp(*accel.exp_factors(A, ctx.killing_chol, ctx.killing_chol_inv), t)


def test_curve_starts_at_identity(stiefel3):
    curve = ProductExpCurve(stiefel3, _factors(stiefel3, 0))
    n = stiefel3.context.ambient_size
    assert np.abs(curve.evaluate(0.0).matrix - np.eye(n)).max() < 1e-15


def test_curve_stays_orthogonal(su3):
    curve = ProductExpCurve(su3, _factors(su3, 1))
    for t in (0.5, 1.5, 3.0):
        M = curve.evaluate(t).matrix
        assert np.abs(M.T @ M - np.eye(M.shape[0])).max() < 1e-12


def test_factors_must_share_context(stiefel3, su3):
    good = _factors(stiefel3, 2)
    alien = _factors(su3, 2)[:1]
    with pytest.raises(ContextMismatchError):
        ProductExpCurve(stiefel3, good[:2] + alien)


def test_empty_factor_list_rejected(stiefel3):
    with pytest.raises(ValueError):
        ProductExpCurve(stiefel3, [])


def test_body_velocity_matches_finite_difference(so222):
    curve = ProductExpCurve(so222, _factors(so222, 4))
    h = 1e-5
    for t in (0.2, 1.3):
        w, wdot = curve.body_velocity(t)
        wp, _ = curve.body_velocity(t + h)
        wm, _ = curve.body_velocity(t - h)
        assert np.abs(wdot - (wp - wm) / (2 * h)).max() < 1e-8


def test_single_factor_velocity_is_constant(stiefel3):
    X = _factors(stiefel3, 5)[0]
    curve = ProductExpCurve(stiefel3, [X])
    for t in (0.0, 0.9, 2.0):
        w, wdot = curve.body_velocity(t)
        assert np.abs(w - X.coeffs).max() < 1e-14
        assert np.abs(wdot).max() < 1e-14


def test_spectral_ad_exponentials_match_pade(spaces):
    """Ad-exponentials from one eigendecomposition per factor agree with
    scipy's Pade exponentials of -t ad F on the 21-point grid in [0, 2]."""
    for dec in spaces.values():
        for f in _factors(dec, 6)[1:]:
            A = dec.context.ad_matrix(f.coeffs)
            for t in np.linspace(0.0, 2.0, 21):
                assert np.abs(_ad_exp(dec.context, f, t) - expm(-t * A)).max() <= 1e-13


def test_spectral_evaluate_matches_pade_product(spaces):
    """The ambient lift, from one eigendecomposition per factor, agrees
    with the product of scipy's Pade exponentials on the 21-point grid in
    [0, 2]."""
    for dec in spaces.values():
        fs = _factors(dec, 10, ("m1", "m2")) + [dec.random_module_vector("k", make_rng(11))]
        curve = ProductExpCurve(dec, fs)
        for t in np.linspace(0.0, 2.0, 21):
            ref = np.eye(dec.context.ambient_size)
            for f in fs:
                ref = ref @ expm(t * f.matrix)
            assert np.abs(curve.evaluate(t).matrix - ref).max() <= 1e-13


def test_ad_exps_are_composed_ambient_adjoint(su3):
    """The product of two Ad-exponentials acting on coefficients equals
    Ad(exp(-tZ)exp(-tY)) computed through the ambient conjugation; a zero
    generator's Ad-exponential is exactly the identity."""
    ctx = su3.context
    Y, Z = _factors(su3, 7)[:2]
    t = 0.8
    AY, AZ = _ad_exp(ctx, Y, t), _ad_exp(ctx, Z, t)
    g = matrix_exp(Z, -t) @ matrix_exp(Y, -t)
    rng = make_rng(8)
    x = rng.standard_normal(ctx.dim)
    X = ctx.element(x)
    via_ambient = ctx.coefficients_of(
        g.matrix @ X.matrix @ np.linalg.inv(g.matrix)
    )
    assert np.abs(AZ @ AY @ x - via_ambient).max() < 1e-11
    for t in (0.0, 1.0, 4.2, -0.6):
        assert np.array_equal(_ad_exp(ctx, ctx.zero(), t), np.eye(ctx.dim))


def test_evaluation_cache_is_consistent(stiefel3):
    curve = ProductExpCurve(stiefel3, _factors(stiefel3, 9))
    a1 = curve.evaluate(0.7).matrix
    a2 = curve.evaluate(0.7).matrix
    assert a1 is a2 or np.array_equal(a1, a2)
