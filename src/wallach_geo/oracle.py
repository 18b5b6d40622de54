"""Independent verification oracles.

The connection defect evaluates the body-frame covariant derivative
D(t) = v_dot + [w_k, v] + U(v, v) along a lifted curve; it vanishes iff
the curve is a geodesic, and <W, D(t)> must reproduce the defect G_W of
``geodesics`` for every W.  Geodesic shooting integrates the same
equation forward with RK4 as a second, fully independent check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import accel
from .catalog import ReductiveDecomposition, StructureReport
from .core import (
    AlgebraElement,
    GroupElement,
    IntegrationFailureError,
    OutOfChartError,
)
from .curves import ProductExpCurve
from .metrics import DiagonalMetric, u_map


def connection_defect(curve: ProductExpCurve, g: DiagonalMetric, t: float) -> AlgebraElement:
    """D(t) in m; the curve is a geodesic iff D vanishes identically."""
    ctx = curve.context
    w, wdot = curve.body_velocity(t)
    mask_m = curve.dec.part_masks["m"]
    v = w * mask_m
    wk = w - v
    vdot = wdot * mask_m
    V = AlgebraElement(ctx, v)
    U = u_map(g, V, V)
    kv = accel.bracket_coeffs(ctx.structure_constants, wk, v)
    return AlgebraElement(ctx, (vdot + kv) * mask_m + U.coeffs)


@dataclass
class CurveSample:
    """A shot point: the horizontal lift has body velocity v in m, no k-part."""

    t: float
    group_point: GroupElement
    v: AlgebraElement


@dataclass
class ShotGeodesic:
    samples: list = field(default_factory=list)
    step: float = 0.0
    energy_drift: float = 0.0


def _polar_orthonormalize(M: np.ndarray) -> np.ndarray:
    # nearest orthogonal matrix in Frobenius norm
    U, _, Vt = np.linalg.svd(M)
    return U @ Vt


def shoot_geodesic(
    dec: ReductiveDecomposition,
    g: DiagonalMetric,
    v0: AlgebraElement,
    t_end: float,
    steps: int,
) -> ShotGeodesic:
    """Classic RK4 on (a, v) with a_dot = a v, v_dot = -U(v, v), using the
    horizontal lift (zero k-gauge) and polar re-orthonormalization of a."""
    if steps < 10:
        raise ValueError("steps must be at least 10")
    ctx = dec.context
    mask_m = dec.part_masks["m"]
    v = v0.coeffs * mask_m
    n = ctx.ambient_size
    a = np.eye(n)
    h = t_end / steps
    basis_flat = ctx.basis.reshape(ctx.dim, n * n)

    def stage(am, vc):
        # (a_dot, v_dot) = (a v, -U(v, v)); v is expanded in the ambient basis by one product
        V = AlgebraElement(ctx, vc)
        return am @ (vc @ basis_flat).reshape(n, n), -u_map(g, V, V).coeffs

    def sample(t, am, vc):
        return CurveSample(t=t, group_point=GroupElement(ctx, am), v=AlgebraElement(ctx, vc))

    e0 = g.inner_coeffs(v, v)
    shot = ShotGeodesic(step=h)
    # a and v are rebound, never updated in place, so samples can share them
    shot.samples.append(sample(0.0, a, v))
    drift = 0.0
    for k in range(steps):
        k1a, k1v = stage(a, v)
        k2a, k2v = stage(a + 0.5 * h * k1a, v + 0.5 * h * k1v)
        k3a, k3v = stage(a + 0.5 * h * k2a, v + 0.5 * h * k2v)
        k4a, k4v = stage(a + h * k3a, v + h * k3v)
        a = _polar_orthonormalize(a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a))
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        drift = max(drift, abs(g.inner_coeffs(v, v) - e0))
        shot.samples.append(sample((k + 1) * h, a, v))
    shot.energy_drift = drift
    if drift > 1e-6:
        raise IntegrationFailureError(
            f"energy drift {drift:.3e} exceeds 1e-6; reduce the step size"
        )
    return shot


def coset_distance(a: GroupElement, b: GroupElement, dec: ReductiveDecomposition) -> float:
    """Local separation of the cosets aK and bK: the -B norm of the
    m-part of log(a^-1 b) expanded in the algebra basis.

    a and b must be orthogonal (the catalog's groups are; shot points are
    re-orthonormalized): the chart test and the logarithm both read the
    spectrum of the symmetric part of a^-1 b.
    """
    ctx = dec.context
    M = np.linalg.solve(a.matrix, b.matrix)
    cos_theta, V = np.linalg.eigh(0.5 * (M + M.T))
    # for orthogonal M, ||M - I||_2^2 = ||2I - M - M^T||_2 = 2 - 2 min cos(theta)
    if np.sqrt(max(2.0 - 2.0 * cos_theta[0], 0.0)) >= 1.9:
        raise OutOfChartError("a^-1 b is outside the principal-logarithm chart")
    L = accel.logm(M, (cos_theta, V))
    # points produced by numerical integration can sit slightly off the
    # embedded subgroup; the off-span component of the log is part of the
    # separation, so fold it in instead of rejecting the expansion
    coeffs = ctx.coefficients_of(L, check=False)
    off_span = np.linalg.norm(coeffs @ ctx.basis.reshape(ctx.dim, -1) - L.ravel())
    lm = coeffs * dec.part_masks["m"]
    q = lm @ (-ctx.killing) @ lm
    return float(np.hypot(np.sqrt(max(q, 0.0)), off_span))


def identity_checks(dec: ReductiveDecomposition, seed: int = 0, h: float = 1e-4) -> StructureReport:
    """Finite-difference verification of the derivative relations of
    T(t) = Ad(exp(-tZ) exp(-tY)) on random draws, plus the exact
    Ad(exp(tX))X = X identity and linearity of projection under
    differentiation."""
    ctx = dec.context
    rng = np.random.default_rng(np.random.Philox(seed))
    report = StructureReport(space=f"{dec.name} identities", module_dims=dec.module_dims())

    def rand_m():
        v = rng.standard_normal(ctx.dim) * dec.part_masks["m"]
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    fd_tol = 1e-6
    err17 = err18 = err19 = err20 = err25 = 0.0
    for _ in range(5):
        x, y, z = rand_m(), rand_m(), rand_m()
        X, Y, Z = (AlgebraElement(ctx, q) for q in (x, y, z))
        c = ctx.structure_constants
        # ad_exps(t) = [Ad(exp(-tX)), Ad(exp(-tY)), Ad(exp(-tZ))]
        ad_exps = ProductExpCurve(dec, [ctx.zero(), X, Y, Z]).ad_exps

        def T(t):
            return ad_exps(t)[2] @ ad_exps(t)[1]

        # (d/dt)|0 T(t)X = [X, Y+Z]
        fd = (T(h) @ x - T(-h) @ x) / (2 * h)
        exact = np.einsum("i,ijk,j->k", x, c, y + z)
        err17 = max(err17, np.abs(fd - exact).max())

        # Ad(exp(tX))X = X, exact
        for t in (0.3, 1.7):
            err18 = max(err18, np.abs(ad_exps(-t)[0] @ x - x).max())

        # (d/ds)|0 Ad(exp(-(t+s)Z))Y = [TY, Z] at fixed t
        t0 = 0.4
        Ty = ad_exps(t0)[2] @ y
        fd = (ad_exps(t0 + h)[2] @ y - ad_exps(t0 - h)[2] @ y) / (2 * h)
        exact = np.einsum("i,ijk,j->k", Ty, c, z)
        err19 = max(err19, np.abs(fd - exact).max())

        # (d/ds)|0 Ad(alpha(t+s)^-1)X = [TX, Z] + [TX, TY]
        def ad_alpha_inv(s):
            return T(s) @ ad_exps(s)[0]

        fd = (ad_alpha_inv(t0 + h) @ x - ad_alpha_inv(t0 - h) @ x) / (2 * h)
        Tt = T(t0)
        Tx, Ty2 = Tt @ x, Tt @ y
        exact = np.einsum("i,ijk,j->k", Tx, c, z) + np.einsum("i,ijk,j->k", Tx, c, Ty2)
        err20 = max(err20, np.abs(fd - exact).max())

        # derivative commutes with projection (linearity of the projector)
        mask = dec.part_masks["m"]
        curve_fd = (ad_alpha_inv(t0 + h) @ x - ad_alpha_inv(t0 - h) @ x) / (2 * h)
        err25 = max(err25, np.abs((curve_fd * mask) - (fd * mask)).max())

    report.add("T(t) derivative at 0 equals [X, Y+Z]", err17, fd_tol)
    report.add("Ad(exp(tX))X = X (exact)", err18, 1e-12)
    report.add("Ad(exp(-tZ)) derivative equals [TY, Z]", err19, fd_tol)
    report.add("full-lift Ad derivative equals [TX, Z]+[TX, TY]", err20, fd_tol)
    report.add("projection commutes with differentiation", err25, 1e-14)
    return report
