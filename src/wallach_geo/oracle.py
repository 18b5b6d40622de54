"""Independent verification oracles.

The connection defect evaluates the body-frame covariant derivative
D(t) = v_dot + [w_k, v] + U(v, v) along a lifted curve, v = w_m; it
vanishes iff the curve is a geodesic, and <W, D(t)> must reproduce the
defect G_W of ``geodesics`` for every W.  D_m - w_dot_m = [w_k, w_m]_m
+ U(w_m, w_m) is the last d outputs (one per basis vector, 0 on k) of the
decomposition's sparse defect table (``defect_table``), whose
first d_m are G_W, at the metric's ``defect_values``:

    D_m[l] - w_dot_m[l] = sum c[i, m_j, m_l] w_i w_{m_j}, times
    sigma_{m_j} / sigma_{m_l} for i in m,

as U(X, X)_m = Lambda^-1 [X, Lambda X]_m for the metric -B(Lambda ., .)
(see ``metrics``).  ``ProductExpCurve.defects`` contracts the table on
the curve's flat rows once for G_W and D, and keeps the result with the
rows for the last scalar t and the last grid; ``connection_defect``
probes that entry once for both, and D is its part plus w_dot times the
m mask, a new array either way (at a scalar t, wrapped as an
AlgebraElement without a second shape check).

Geodesic shooting integrates the same equation forward with RK4 from v0
alone, a second check that never reads the closed form, on bare arrays,
and returns the lifts and velocities as two arrays (``ShotGeodesic``).
Its U(v, v) = S (v[A] v[B]) sums the table's U entries (``metrics``).  Its
velocity equation v_dot = -U(v, v) does not involve the lift a, so the v
recurrence runs alone; the lift's RK4 step is linear in a, a_{k+1} =
a_k Phi_k, and as polar(a Phi) = a polar(Phi) for orthogonal a,
re-orthonormalizing every step becomes Newton-Schulz steps on the stack
of all the Phi_k and their running product, the same map in exact
arithmetic.  A last Newton-Schulz step takes out the drift that rounding
gives that product; a step size so large that the iteration does not
converge is an IntegrationFailureError.

``connection_defect`` takes a scalar t or a 1-D array of T times, and
``coset_distance`` a pair of (n, n) group matrices or two (T, n, n)
stacks, so a whole t-grid is checked with one call each (a^-1 b as the
product a^T b of orthogonal matrices, then a batched ``eigh`` and
logarithm).
``identity_checks`` applies each Ad-exponential to its vectors from the
spectral factors (``accel.spectral_apply``), forming no d x d matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import accel
from .catalog import ReductiveDecomposition, StructureReport
from .core import (
    AlgebraElement,
    ContextMismatchError,
    IntegrationFailureError,
    OutOfChartError,
    _element,
    killing_norm,
)
from .curves import ProductExpCurve
from .metrics import DiagonalMetric, _same_decomposition


def connection_defect(curve: ProductExpCurve, g: DiagonalMetric, t):
    """D(t) in m; the curve is a geodesic iff D vanishes identically.

    An AlgebraElement at a scalar t, a (T, d) array of coefficient vectors
    at a 1-D array of T times.  A metric of another decomposition is a
    ContextMismatchError.
    """
    # D = [w_k, w_m]_m + U(w_m, w_m) from the table, plus w_dot_m
    flat, defects = curve.defects(g, t)
    mask = g.dec.part_masks["m"]
    D = defects[..., len(g.m_indices):] + flat[..., -len(mask):] * mask
    return D if D.ndim > 1 else _element(g.dec.context, D)


@dataclass(eq=False)
class ShotGeodesic:
    """A shot on bare arrays: ``points`` (steps + 1, n, n) holds the
    horizontal lift at t = k ``step`` and ``velocities`` (steps + 1, d_m)
    the m-coordinates of its body velocity, whose k-part is zero."""

    points: np.ndarray
    velocities: np.ndarray
    step: float
    energy_drift: float


# steps per chunk of the lift passes, whose working arrays are O(_CHUNK n^2)
_CHUNK = 256
# Newton-Schulz stops one step after max|I - X^T X| falls below _POLAR_TOL,
# when that last step leaves a residual at rounding level
_POLAR_TOL = 1e-8
_POLAR_MAX_STEPS = 16


def _polar_orthonormalize(M: np.ndarray) -> np.ndarray:
    """The orthogonal polar factor of a near-orthogonal matrix, or of each
    matrix of a stack, by Newton-Schulz steps X <- X + X (I - X^T X) / 2
    on the whole stack (Higham, "Functions of Matrices", 2008, ch. 8;
    Bjorck & Bowie, 1971); a matrix that has not converged after
    _POLAR_MAX_STEPS steps comes back as nan."""
    eye = np.eye(M.shape[-1])
    X = M
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_POLAR_MAX_STEPS):
            E = eye - np.swapaxes(X, -1, -2) @ X
            converged = np.abs(E).max(axis=(-2, -1)) < _POLAR_TOL
            X = X + 0.5 * (X @ E)
            if converged.all():
                return X
    return np.where(converged[..., None, None], X, np.nan)


def _prefix_products(R: np.ndarray) -> np.ndarray:
    """R_0, R_0 R_1, ..., R_0 ... R_{C-1} for a (C, n, n) stack by recursive
    doubling: ceil(log2 C) stacked products instead of C single ones."""
    P = R.copy()
    s = 1
    while s < len(P):
        P[s:] = P[:-s] @ P[s:]
        s *= 2
    return P


def _overflow(step: int) -> IntegrationFailureError:
    return IntegrationFailureError(f"state overflow at step {step}; reduce the step size")


def shoot_geodesic(
    dec: ReductiveDecomposition,
    g: DiagonalMetric,
    v0: AlgebraElement,
    t_end: float,
    steps: int,
) -> ShotGeodesic:
    """Classic RK4 on (a, v) with a_dot = a v, v_dot = -U(v, v), using the
    horizontal lift (zero k-gauge) and polar re-orthonormalization of a
    after every step, in three passes over bare arrays.

    (i) v does not involve a, so its recurrence runs alone, keeping the
    four stage states of every step.  (ii) The RK4 update of a is linear
    in a: a + h/6 (k1 + 2 k2 + 2 k3 + k4) = a Phi_k with
    Phi_k = I + h/6 (V1 + 2 P2 + 2 P3 + P4), P2 = (I + h/2 V1) V2,
    P3 = (I + h/2 P2) V3, P4 = (I + h P3) V4 and V_s the stage velocities
    in the ambient basis; one product expands all V_s of a chunk of steps
    and three stacked products give its Phi_k.  (iii) For orthogonal a,
    polar(a Phi) = a polar(Phi) (Higham, "Functions of Matrices", 2008,
    ch. 8), so Newton-Schulz steps on the whole stack give every
    R_k = polar(Phi_k) (Phi_k is orthogonal to O(h^5)) and the lift is the
    running product a_{k+1} = a_k R_k: the per-step projection map in
    exact arithmetic, reassociated.  A product of many orthogonal factors
    drifts off the group by rounding, so a last Newton-Schulz step returns
    each lift to it; a chunk starts from its predecessor's projected last
    lift.  A Phi_k too far from orthogonal for the iteration to converge
    is reported at its step, after any overflow or energy drift.  A metric
    of another decomposition, or a v0 of another context, is a
    ContextMismatchError.
    """
    if steps < 10:
        raise ValueError("steps must be at least 10")
    _same_decomposition(g, dec)
    if v0.context is not dec.context:
        raise ContextMismatchError("v0 does not belong to the decomposition's context")
    ctx = dec.context
    mi = g.m_indices
    n = ctx.ambient_size
    step = t_end / steps
    # the stage constants as 0-d arrays: a ufunc takes one with less overhead
    # than a Python float, and to the same bits
    h, half, sixth = (np.array(q) for q in (step, 0.5 * step, step / 6.0))
    # row k holds v_k and the three stage states of step k that follow it;
    # each stage is v - c U(w, w), the bits of v + c k_s with k_s = -U(w, w)
    dm = len(mi)
    states = np.empty((steps + 1, 4, dm))
    states[0, 0] = v0.coeffs[mi]
    # every step writes into these buffers, so a stage costs a few numpy
    # calls and allocates only w[A] and w[B]: P is w[A] w[B], U holds the
    # step's U(w, w) = S P of each stage and W those times their RK4 weights,
    # which add.reduce sums row after row, as u1 + 2 u2 + 2 u3 + u4 is summed
    S, A, B = g.u_pairs
    P, U, W, tmp = np.empty(len(A)), np.empty((4, dm)), np.empty((4, dm)), np.empty(dm)
    u1, u2, u3, u4 = U
    weights = np.array([[1.0], [2.0], [2.0], [1.0]])
    quad, mul, sub, add = S.dot, np.multiply, np.subtract, np.add
    # an overflow is reported below, at the step where it first shows
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            v, s1, s2, s3 = states[k]
            mul(v[A], v[B], P)
            sub(v, mul(half, quad(P, u1), tmp), s1)
            mul(s1[A], s1[B], P)
            sub(v, mul(half, quad(P, u2), tmp), s2)
            mul(s2[A], s2[B], P)
            sub(v, mul(h, quad(P, u3), tmp), s3)
            mul(s3[A], s3[B], P)
            quad(P, u4)
            add.reduce(mul(U, weights, W), 0, None, tmp)
            sub(v, mul(sixth, tmp, tmp), states[k + 1, 0])
        velocities = states[:, 0]
        energy = ((velocities @ g.gram) * velocities).sum(axis=1)
    stages = states[:-1]
    finite = np.isfinite(stages).all(axis=(1, 2)) & np.isfinite(energy[1:])
    good_steps = steps if finite.all() else int(np.argmin(finite))

    basis_m_flat = ctx.basis[mi].reshape(len(mi), n * n)
    eye = np.eye(n)
    points = np.empty((steps + 1, n, n))
    points[0] = eye
    for lo in range(0, good_steps, _CHUNK):
        hi = min(lo + _CHUNK, good_steps)
        with np.errstate(over="ignore", invalid="ignore"):
            # the stage velocities V_s of the chunk in the ambient basis, one product
            V = (stages[lo:hi] @ basis_m_flat).reshape(hi - lo, 4, n, n)
            V1, V2, V3, V4 = np.moveaxis(V, 1, 0)
            P2 = (eye + half * V1) @ V2
            P3 = (eye + half * P2) @ V3
            P4 = (eye + h * P3) @ V4
            phi = eye + sixth * (V1 + 2 * P2 + 2 * P3 + P4)
        # finite stages can still give a Phi_k that overflows, as a would
        bad = ~np.isfinite(phi).all(axis=(1, 2))
        if bad.any():
            raise _overflow(lo + int(np.argmax(bad)) + 1)
        # a Phi_k that did not converge makes its lift and all later ones nan
        lifts = _prefix_products(_polar_orthonormalize(phi))
        if lo:  # the first chunk starts at the identity
            lifts = a @ lifts
        points[lo + 1 : hi + 1] = _polar_orthonormalize(lifts)
        a = points[hi]
    if good_steps < steps:
        raise _overflow(good_steps + 1)
    drift = float(np.abs(energy[1:] - energy[0]).max())
    if drift > 1e-6:
        raise IntegrationFailureError(
            f"energy drift {drift:.3e} exceeds 1e-6; reduce the step size"
        )
    lost = np.isnan(points[:, 0, 0])
    if lost.any():
        raise IntegrationFailureError(
            f"polar factor did not converge at step {int(np.argmax(lost))}; "
            "reduce the step size"
        )
    return ShotGeodesic(points, velocities, step, drift)


# bound on max|q^T q - I| for the inputs of coset_distance, in units of
# n eps: the rounding of a product of a few exponentials or polar factors
_ORTHOGONALITY_ULPS = 64


def coset_distance(a, b, dec: ReductiveDecomposition):
    """Local separation of the cosets aK and bK: the -B norm of the
    m-part of log(a^-1 b) expanded in the algebra basis.

    a and b are two (n, n) matrices (a float), or two (T, n, n) stacks
    (T separations; the chart test fails if any pair is out of chart).  They
    must be orthogonal to rounding (shot points are re-orthonormalized), or
    a ValueError is raised: a^-1 b is then a^T b, and the chart test and the
    logarithm both read the spectrum of its symmetric part.
    """
    ctx = dec.context
    eye = np.eye(a.shape[-1])
    for q in (a, b):
        drift = np.abs(np.swapaxes(q, -1, -2) @ q - eye).max()
        # a nan drift passes, so non-finite points give a non-finite distance
        if drift > _ORTHOGONALITY_ULPS * len(eye) * np.finfo(float).eps:
            raise ValueError(
                f"coset_distance needs orthogonal matrices, max|q^T q - I| = {drift:.3e}"
            )
    M = np.swapaxes(a, -1, -2) @ b
    cos_theta, V = np.linalg.eigh(0.5 * (M + np.swapaxes(M, -1, -2)))
    # for orthogonal M, ||M - I||_2^2 = ||2I - M - M^T||_2 = 2 - 2 min cos(theta)
    if np.sqrt(max(2.0 - 2.0 * cos_theta[..., 0].min(), 0.0)) >= 1.9:
        raise OutOfChartError("a^-1 b is outside the principal-logarithm chart")
    L = accel.logm(M, (cos_theta, V))
    # points produced by numerical integration can sit slightly off the
    # embedded subgroup; the off-span component of the log is part of the
    # separation, so fold it in instead of rejecting the expansion
    coeffs = ctx.coefficients_of(L)
    L_flat = L.reshape(L.shape[:-2] + (-1,))
    off_span = np.linalg.norm(coeffs @ ctx.basis.reshape(ctx.dim, -1) - L_flat, axis=-1)
    dist = np.hypot(killing_norm(ctx, coeffs * dec.part_masks["m"]), off_span)
    return float(dist) if dist.ndim == 0 else dist


_FD_STEP = 1e-4  # the step of identity_checks' central differences


def identity_checks(dec: ReductiveDecomposition, seed: int = 0) -> StructureReport:
    """Finite-difference verification of the derivative relations of
    T(t) = Ad(exp(-tZ) exp(-tY)) on random draws, at step ``_FD_STEP``,
    plus the exact Ad(exp(tX))X = X identity and linearity of projection
    under differentiation.  Brackets and ad matrices read only c's listed
    nonzero entries, and each Ad-exponential is applied to its vectors from
    its spectral factors, never formed."""
    ctx = dec.context
    rng = np.random.default_rng(np.random.Philox(seed))
    report = StructureReport()
    chol = ctx.killing_chol, ctx.killing_chol_inv

    def rand_m():
        v = rng.standard_normal(ctx.dim) * dec.part_masks["m"]
        n = np.linalg.norm(v)
        return v / n if n > 0 else v

    fd_tol, h, c = 1e-6, _FD_STEP, ctx.structure_entries
    err17 = err18 = err19 = err20 = err25 = 0.0
    for _ in range(5):
        x, y, z = rand_m(), rand_m(), rand_m()
        spectra = [accel.exp_factors(ctx.ad_matrix(q), *chol) for q in (x, y, z)]

        def ad_exp(fs, t, v):
            # Ad(exp(-t F)) v for F = (X, Y, Z)[f], f in fs in turn
            for f in fs:
                v = accel.spectral_apply(*spectra[f], t, v[None])[0]
            return v

        # (d/dt)|0 T(t)X = [X, Y+Z]
        fd = (ad_exp((1, 2), h, x) - ad_exp((1, 2), -h, x)) / (2 * h)
        exact = accel.bracket_coeffs(c, x, y + z)
        err17 = max(err17, np.abs(fd - exact).max())

        # Ad(exp(tX))X = X, exact
        for t in (0.3, 1.7):
            err18 = max(err18, np.abs(ad_exp((0,), -t, x) - x).max())

        # (d/ds)|0 Ad(exp(-(t+s)Z))Y = [TY, Z] at fixed t
        t0 = 0.4
        Ty = ad_exp((2,), t0, y)
        fd = (ad_exp((2,), t0 + h, y) - ad_exp((2,), t0 - h, y)) / (2 * h)
        exact = accel.bracket_coeffs(c, Ty, z)
        err19 = max(err19, np.abs(fd - exact).max())

        # (d/ds)|0 Ad(alpha(t+s)^-1)X = [TX, Z] + [TX, TY], Ad(alpha(s)^-1) =
        # T(s) Ad(exp(-sX))
        ahead, behind = (ad_exp((0, 1, 2), t0 + e, x) for e in (h, -h))
        fd = (ahead - behind) / (2 * h)
        Tx, Ty2 = ad_exp((1, 2), t0, x), ad_exp((1, 2), t0, y)
        exact = accel.bracket_coeffs(c, Tx, z) + accel.bracket_coeffs(c, Tx, Ty2)
        err20 = max(err20, np.abs(fd - exact).max())

        # (d/ds)|0 P_m(Ad(alpha(t+s)^-1)X) = P_m([TX, Z] + [TX, TY]): the
        # difference quotient of the projected curve against the projected bracket
        mask = dec.part_masks["m"]
        fd_m = (ahead * mask - behind * mask) / (2 * h)
        err25 = max(err25, np.abs(fd_m - exact * mask).max())

    report.add("T(t) derivative at 0 equals [X, Y+Z]", err17, fd_tol)
    report.add("Ad(exp(tX))X = X (exact)", err18, 1e-12)
    report.add("Ad(exp(-tZ)) derivative equals [TY, Z]", err19, fd_tol)
    report.add("full-lift Ad derivative equals [TX, Z]+[TX, TY]", err20, fd_tol)
    report.add("projection commutes with differentiation", err25, fd_tol)
    return report
