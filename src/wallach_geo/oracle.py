"""Independent verification oracles.

The connection defect evaluates the body-frame covariant derivative
D(t) = v_dot + [w_k, v] + U(v, v) along a lifted curve; it vanishes iff
the curve is a geodesic, and <W, D(t)> must reproduce the defect G_W of
``geodesics`` for every W.  Geodesic shooting integrates the same
equation forward with RK4 as a second, fully independent check, on bare
arrays: the lift and the m-coordinates of its velocity.

``connection_defect`` takes a scalar t or a 1-D array of T times, and
``coset_distance`` a pair of group elements or two (T, n, n) stacks, so a
whole t-grid is checked with one call each (batched ``solve``, ``eigh``
and logarithm for the distances).
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
    killing_norm,
)
from .curves import ProductExpCurve
from .metrics import DiagonalMetric, u_coeffs


def connection_defect(curve: ProductExpCurve, g: DiagonalMetric, t):
    """D(t) in m; the curve is a geodesic iff D vanishes identically.

    An AlgebraElement at a scalar t, a (T, d) array of coefficient vectors
    at a 1-D array of T times.
    """
    ctx = curve.context
    w, wdot = curve.body_velocity(t)
    mask_m = curve.dec.part_masks["m"]
    v = w * mask_m
    D = (wdot * mask_m + accel.bracket_coeffs(ctx.structure_constants, w - v, v)) * mask_m
    # .T[mi] picks the m-coordinates of a vector or of each row of a stack
    mi = g.m_indices
    D.T[mi] += u_coeffs(g, v.T[mi].T).T
    return D if accel.is_grid(t) else AlgebraElement(ctx, D)


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
    mi = g.m_indices
    n = ctx.ambient_size
    # the state is (a, v_m): the lift and the m-coordinates of its body velocity
    basis_m_flat = ctx.basis[mi].reshape(len(mi), n * n)
    v = v0.coeffs[mi]
    a = np.eye(n)
    h = t_end / steps

    def stage(am, vm):
        # (a_dot, v_dot) = (a v, -U(v, v)); v is expanded in the ambient basis by one product
        return am @ (vm @ basis_m_flat).reshape(n, n), -u_coeffs(g, vm)

    def sample(t, am, vm):
        coeffs = np.zeros(ctx.dim)
        coeffs[mi] = vm
        return CurveSample(t=t, group_point=GroupElement(ctx, am), v=AlgebraElement(ctx, coeffs))

    e0 = v @ g.gram @ v
    shot = ShotGeodesic(step=h)
    # a is rebound, never updated in place, so samples can share it
    shot.samples.append(sample(0.0, a, v))
    drift = 0.0
    for k in range(steps):
        k1a, k1v = stage(a, v)
        k2a, k2v = stage(a + 0.5 * h * k1a, v + 0.5 * h * k1v)
        k3a, k3v = stage(a + 0.5 * h * k2a, v + 0.5 * h * k2v)
        k4a, k4v = stage(a + h * k3a, v + h * k3v)
        a = a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        e = v @ g.gram @ v
        if not (np.isfinite(e) and np.isfinite(a).all()):
            raise IntegrationFailureError(f"state overflow at step {k + 1}; reduce the step size")
        a = _polar_orthonormalize(a)
        drift = max(drift, abs(e - e0))
        shot.samples.append(sample((k + 1) * h, a, v))
    shot.energy_drift = drift
    if drift > 1e-6:
        raise IntegrationFailureError(
            f"energy drift {drift:.3e} exceeds 1e-6; reduce the step size"
        )
    return shot


def coset_distance(a, b, dec: ReductiveDecomposition):
    """Local separation of the cosets aK and bK: the -B norm of the
    m-part of log(a^-1 b) expanded in the algebra basis.

    a and b are GroupElements or matrices (a float), or two (T, n, n) stacks
    (T separations; the chart test fails if any pair is out of chart).  They
    must be orthogonal (shot points are re-orthonormalized): the chart test
    and the logarithm both read the spectrum of the symmetric part of a^-1 b.
    """
    ctx = dec.context
    M = np.linalg.solve(*(getattr(q, "matrix", q) for q in (a, b)))
    cos_theta, V = np.linalg.eigh(0.5 * (M + np.swapaxes(M, -1, -2)))
    # for orthogonal M, ||M - I||_2^2 = ||2I - M - M^T||_2 = 2 - 2 min cos(theta)
    if np.sqrt(max(2.0 - 2.0 * cos_theta[..., 0].min(), 0.0)) >= 1.9:
        raise OutOfChartError("a^-1 b is outside the principal-logarithm chart")
    L = accel.logm(M, (cos_theta, V))
    # points produced by numerical integration can sit slightly off the
    # embedded subgroup; the off-span component of the log is part of the
    # separation, so fold it in instead of rejecting the expansion
    coeffs = ctx.coefficients_of(L, check=False)
    L_flat = L.reshape(L.shape[:-2] + (-1,))
    off_span = np.linalg.norm(coeffs @ ctx.basis.reshape(ctx.dim, -1) - L_flat, axis=-1)
    dist = np.hypot(killing_norm(ctx, coeffs * dec.part_masks["m"]), off_span)
    return float(dist) if dist.ndim == 0 else dist


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

        # (d/ds)|0 P_m(Ad(alpha(t+s)^-1)X) = P_m([TX, Z] + [TX, TY]): the
        # difference quotient of the projected curve against the projected bracket
        mask = dec.part_masks["m"]
        fd_m = ((ad_alpha_inv(t0 + h) @ x) * mask - (ad_alpha_inv(t0 - h) @ x) * mask) / (2 * h)
        err25 = max(err25, np.abs(fd_m - exact * mask).max())

    report.add("T(t) derivative at 0 equals [X, Y+Z]", err17, fd_tol)
    report.add("Ad(exp(tX))X = X (exact)", err18, 1e-12)
    report.add("Ad(exp(-tZ)) derivative equals [TY, Z]", err19, fd_tol)
    report.add("full-lift Ad derivative equals [TX, Z]+[TX, TY]", err20, fd_tol)
    report.add("projection commutes with differentiation", err25, fd_tol)
    return report
