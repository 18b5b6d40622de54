"""Closed-form geodesics, the geodesic-defect functional and the
restriction system that singles out the admissible diagonal metrics.

A three-factor curve exp(tX)exp(tY)exp(tZ).o is a geodesic iff the defect

    G_W(t) = <(TX)_m + (TY)_m + Z_m, [W, TX+TY+Z]_m>
           + <W, [TX, TY+Z]_m + [TY, Z]_m>

vanishes for every W in m and every t, where T(t) = Ad(exp(-tZ)exp(-tY)).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import accel
from .catalog import _MODULES, ReductiveDecomposition, TwoSummandView
from .core import (
    AlgebraElement,
    GenericityError,
    HypothesisViolatedError,
    InvalidMetricError,
    WrongModuleError,
    project,
)
from .curves import ProductExpCurve, along_time
from .metrics import DiagonalMetric


def _defect_terms(curve: ProductExpCurve, t):
    """s = TX + TY + Z and d = [TX, TY + Z] + [TY, Z] for the factors
    (X, Y, Z), absent ones zero, with T(t) = A[r-1] ... A[1] taken from the
    curve's Ad-exponentials; (T, d) stacks at a 1-D array of T times."""
    r = len(curve.factors)
    if r > 3:
        raise ValueError("defect formula supports at most three factors")
    x, *yz = [f.coeffs for f in curve.factors]
    Tx, Ty, z = [along_time(t, x)] + yz + [np.zeros(curve.context.dim)] * (3 - r)
    for A in curve.ad_exps(t):
        Tx, Ty = accel.apply(A, Tx), accel.apply(A, Ty)
    # [TX, TY + Z] + [TY, Z] = [TX + TY, TY + Z], as [TY, TY] = 0
    d = accel.bracket_coeffs(curve.context.structure_constants, Tx + Ty, Ty + z)
    return Tx + Ty + z, d


def gw_defect_all(curve: ProductExpCurve, g: DiagonalMetric, t) -> np.ndarray:
    """G_W(t) for every m-basis vector W at once (vector over m indices),
    or a (T, d_m) array of them at a 1-D array of T times."""
    s, d = _defect_terms(curve, t)
    # term 1 per basis W: <s_m, [e_w, s]_m> = sum_jk c[w, j, k] s_j (G s)_k
    term1 = accel.apply(curve.dec.c_m_flat, accel.outer_flat(s, accel.apply(g.gram_full, s)))
    # .T[m] picks the m-coordinates of a vector or of each row of a stack
    return term1 + accel.apply(g.gram_full, d).T[g.m_indices].T


def gw_defect(curve: ProductExpCurve, g: DiagonalMetric, W: AlgebraElement, t: float) -> float:
    """The defect G_W(t) for a single direction W (projected to m if needed)."""
    Wm = project(W, "m")
    if np.abs(W.coeffs - Wm.coeffs).max() > 1e-14 * max(1.0, np.abs(W.coeffs).max()):
        warnings.warn("gw_defect: W had a k-component; projected to m", stacklevel=2)
    # G_W is linear in W: the m-coordinates of W against G_W over the m-basis
    return float(Wm.coeffs[g.m_indices] @ gw_defect_all(curve, g, t))


def _require_module(dec: ReductiveDecomposition, X: AlgebraElement, part: str) -> None:
    out = np.abs(X.coeffs * (1.0 - dec.part_masks[part])).max()
    if out > 1e-10 * max(1.0, np.abs(X.coeffs).max()):
        raise WrongModuleError(f"vector is not in {part} (outside component {out:.3e})")


# closed-form case -> index into (m1, m2, m3) of the module whose metric
# coefficient is c (the others are 1); it builds and recognises each case
_CASE_SLOT = {1: 2, 2: 1, 3: 0}


def match_case(metric, requested):
    """Normalize by lambda1 and match the closed-form metric patterns.

    Returns (case, c) or raises InvalidMetricError when no pattern fits.
    Ties prefer case 1 (c = 1 fits all three).
    """
    n = (1.0, metric[1] / metric[0], metric[2] / metric[0])
    # beyond this range the curves' spectra and defects overflow
    if not all(1e-100 <= q <= 1e100 for q in n):
        raise InvalidMetricError(f"metric {metric} has a ratio outside [1e-100, 1e100]")
    tol = 1e-12
    candidates = []
    for case, slot in _CASE_SLOT.items():
        a, b = (q for q in range(3) if q != slot)
        if abs(n[a] - n[b]) <= tol:
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


def closed_form_geodesic(
    dec: ReductiveDecomposition,
    case: int,
    X1: AlgebraElement,
    X2: AlgebraElement,
    X3: AlgebraElement,
    c: float,
):
    """The two-factor geodesic through o with initial velocity X1+X2+X3.

    case 1: metric (1,1,c), factors (X1+X2+cX3, (1-c)X3);
    case 2: metric (1,c,1), factors (X1+cX2+X3, (1-c)X2);
    case 3: metric (c,1,1), factors (cX1+X2+X3, (1-c)X1).
    """
    if c <= 0:
        raise InvalidMetricError(f"c must be positive, got {c}")
    if case not in (1, 2, 3):
        raise ValueError("case must be 1, 2 or 3")
    for X, part in zip((X1, X2, X3), _MODULES):
        _require_module(dec, X, part)
    slot = _CASE_SLOT[case]
    moving = (X1, X2, X3)[slot]
    others = sum((X for X in (X1, X2, X3) if X is not moving), dec.context.zero())
    curve = ProductExpCurve(dec, [others + c * moving, (1.0 - c) * moving])
    metric = DiagonalMetric(dec, tuple(c if q == slot else 1.0 for q in range(3)))
    return curve, metric


def dohira_geodesic(view: TwoSummandView, c: float, X1: AlgebraElement, X2: AlgebraElement):
    """Two-summand geodesic on the grouped view: metric (1, c) on (M1, M2),
    factors (X1 + cX2, (1-c)X2)."""
    if c <= 0:
        raise InvalidMetricError(f"c must be positive, got {c}")
    if not view.in_M1(X1):
        raise WrongModuleError("X1 is not in M1")
    if not view.in_M2(X2):
        raise WrongModuleError("X2 is not in M2")
    dec = view.parent
    lambdas = [c if f"m{q}" == view.M2_part else 1.0 for q in (1, 2, 3)]
    curve = ProductExpCurve(dec, [X1 + c * X2, (1.0 - c) * X2])
    return curve, DiagonalMetric(dec, lambdas)


def homogeneous_geodesic(
    dec: ReductiveDecomposition, g: DiagonalMetric, X: AlgebraElement
) -> ProductExpCurve:
    """Single-exponential geodesic exp(tX).o, certified by the commuting
    module pair hypothesis (valid for every diagonal metric)."""
    if not dec.commuting_pairs:
        raise HypothesisViolatedError(
            f"{dec.name}: no commuting module pair; exp(tX).o is not certified "
            "as a geodesic for arbitrary diagonal metrics"
        )
    _require_module(dec, X, "m")
    return ProductExpCurve(dec, [X])


@dataclass
class RestrictionSolution:
    """A point of one solution family of the geodesic restriction system."""

    family: str
    a: tuple
    b: tuple
    lambda2: float
    lambda3: float
    free: dict

    @property
    def c(self) -> tuple:
        return tuple(1.0 - ai - bi for ai, bi in zip(self.a, self.b))

    def params(self) -> np.ndarray:
        return np.array(self.a + self.b)


def restriction_residual(sol, lambda2: float, lambda3: float) -> np.ndarray:
    """Signed residuals (LHS - RHS) of the nine restriction equations
    characterizing G_W(0) = 0 and dG_W/dt(0) = 0, at one parameter vector
    (a1, a2, a3, b1, b2, b3) or, row by row, at a (..., 6) stack of them."""
    if lambda2 <= 0 or lambda3 <= 0:
        raise InvalidMetricError("lambda2 and lambda3 must be positive")
    p = sol.params() if isinstance(sol, RestrictionSolution) else np.asarray(sol, np.float64)
    a1, a2, a3, b1, b2, b3 = np.moveaxis(p, -1, 0)
    l2, l3 = lambda2, lambda3
    return np.stack(
        [
            a3 - a2 + b3 - b2 + b2 * a3 - b3 * a2 - (l2 - l3),
            a3 - a1 + b3 - b1 + b1 * a3 - b3 * a1 - (1 - l3) / l2,
            a2 - a1 + b2 - b1 + b1 * a2 - b2 * a1 - (1 - l2) / l3,
            (1 - l2) * b2 + 2 * (1 - l2) * a2 + l3 * b2 * a1 - l3 * b2 * a2
            - l3 * a2**2 + l3 * a1 * a2 - (l3 - l2) * (1 - l2),
            (1 - l3) * b3 + 2 * (1 - l3) * a3 + l2 * b3 * a1 - l2 * b3 * a3
            - l2 * a3**2 + l2 * a1 * a3 - (l2 - l3) * (1 - l3),
            l2 * (1 - l2) * b1 + 2 * l2 * (1 - l2) * a1 + l2 * l3 * b1 * a1
            - l2 * l3 * b1 * a2 + l2 * l3 * a1**2 - l2 * l3 * a1 * a2
            - (l2 - 1) * (1 - l3),
            l2 * (l2 - l3) * b3 + 2 * l2 * (l2 - l3) * a3 + l2 * b3 * a2
            - l2 * b3 * a3 - l2 * a3**2 + l2 * a2 * a3 - (1 - l3) * (l2 - l3),
            l3 * (1 - l3) * b1 + 2 * l3 * (1 - l3) * a1 + l2 * l3 * b1 * a1
            - l2 * l3 * b1 * a3 + l2 * l3 * a1**2 - l2 * l3 * a1 * a3
            - (l2 - 1) * (1 - l3),
            l3 * (l2 - l3) * b2 + 2 * l3 * (l2 - l3) * a2 + l3 * b2 * a2
            - l3 * b2 * a3 + l3 * a2**2 - l3 * a2 * a3 - (l2 - l3) * (1 - l2),
        ],
        axis=-1,
    )


def solution_families(lambda_free: float, extra_free: float) -> list[RestrictionSolution]:
    """Instantiate all six solution families at the given free parameters.

    ``lambda_free`` is the family's free metric coefficient (must be
    positive); ``extra_free`` is its free linear coefficient.
    """
    lam, f = float(lambda_free), float(extra_free)
    if lam <= 0:
        raise InvalidMetricError("free metric coefficient must be positive")
    sols = [
        RestrictionSolution(
            "s1", (0.0, 0.0, f), (0.0, 0.0, 1 - f - lam), 1.0, lam,
            {"lambda3": lam, "a3": f},
        ),
        RestrictionSolution(
            "s2", (0.0, 0.0, 1 - lam), (f, f, lam * f), 1.0, lam,
            {"lambda3": lam, "b2": f},
        ),
        RestrictionSolution(
            "s3", (0.0, f, 0.0), (0.0, 1 - f - lam, 0.0), lam, 1.0,
            {"lambda2": lam, "a2": f},
        ),
        RestrictionSolution(
            "s4", (0.0, 1 - lam, 0.0), (f / lam, f, f / lam), lam, 1.0,
            {"lambda2": lam, "b2": f},
        ),
        RestrictionSolution(
            "s5", ((lam - 1) / lam, 0.0, 0.0), (f, lam * f, lam * f), lam, lam,
            {"lambda3": lam, "b1": f},
        ),
        RestrictionSolution(
            "s6", (f, 0.0, 0.0), ((lam - f * lam - 1) / lam, 0.0, 0.0), lam, lam,
            {"lambda3": lam, "a1": f},
        ),
    ]
    return sols


_FAMILY_LOCI = (("s1", "s2"), ("s3", "s4"), ("s5", "s6"))  # l2 = 1, l3 = 1, l2 = l3
_GENERICITY_GAP = 0.05


def applicable_families(lambda2: float, lambda3: float, tol: float = 1e-12):
    """(families, lam): the solution families whose metric locus, lambda2 = 1
    (s1, s2), lambda3 = 1 (s3, s4) or lambda2 = lambda3 (s5, s6), holds
    within ``tol``, and the free metric coefficient that instantiates them
    in ``solution_families``."""
    gaps = (abs(lambda2 - 1), abs(lambda3 - 1), abs(lambda2 - lambda3))
    families = [f for pair, gap in zip(_FAMILY_LOCI, gaps) if gap <= tol for f in pair]
    # lambda3 is free on the s1/s2 and s5/s6 loci, lambda2 on the s3/s4 one
    return families, lambda2 if families == ["s3", "s4"] else lambda3


def nonexistence_probe(
    lambda2: float,
    lambda3: float,
    multistarts: int = 200,
    seed: int = 0,
    max_iter: int = 200,
) -> float:
    """Best residual norm found by multistart Levenberg-Marquardt descent
    on the nine restriction equations from uniform starts in [-5, 5]^6.

    All starts advance as one (multistarts, 6) array: O(multistarts)
    memory. Each iteration solves (J^T J + mu I) p = -J^T r per start with
    a central-difference Jacobian (step 1e-6); mu falls by 0.3 (floor
    1e-12) on a step that lowers the residual and otherwise rises by 3.
    A start stops when mu exceeds 1e8, after ``max_iter`` iterations or
    when its system is singular; a start with a nan residual never counts.

    A descent floor bounded away from zero supports (but does not prove)
    that no three-exponential geodesic exists for a generic metric.
    """
    if lambda2 <= 0 or lambda3 <= 0:
        raise InvalidMetricError("lambda2 and lambda3 must be positive")
    if applicable_families(lambda2, lambda3, _GENERICITY_GAP)[0]:
        raise GenericityError(
            f"metric ({lambda2}, {lambda3}) lies within {_GENERICITY_GAP} of a "
            "solution-family locus (lambda2 = 1, lambda3 = 1 or lambda2 = lambda3), "
            "where the probe is not run"
        )
    rng = np.random.default_rng(np.random.Philox(seed))
    x = rng.uniform(-5.0, 5.0, (multistarts, 6))
    r = restriction_residual(x, lambda2, lambda3)
    f = (r[:, None] @ r[..., None])[:, 0, 0]  # r @ r per start
    mu = np.full(multistarts, 1e-3)
    live = np.arange(multistarts)  # the starts still descending
    h, eye = 1e-6, np.eye(6)
    for _ in range(max_iter):
        if not live.size:
            break
        xl = x[live, None]  # row j of xl +- h I is x +- h e_j, giving J's column j
        d = restriction_residual(xl + h * eye, lambda2, lambda3)
        d -= restriction_residual(xl - h * eye, lambda2, lambda3)
        # C-ordered (9, 6) Jacobians round J^T J and J^T r as one start would
        J = np.ascontiguousarray((d / (2 * h)).swapaxes(1, 2))
        A = J.swapaxes(1, 2) @ J + mu[live, None, None] * eye
        g = -J.swapaxes(1, 2) @ r[live, :, None]
        try:
            step = np.linalg.solve(A, g)
        except np.linalg.LinAlgError:  # a singular system stops only its own start
            ok = np.linalg.slogdet(A)[0] != 0
            live, A, g = live[ok], A[ok], g[ok]
            step = np.linalg.solve(A, g)
        xn = x[live] + step[..., 0]
        rn = restriction_residual(xn, lambda2, lambda3)
        fn = (rn[:, None] @ rn[..., None])[:, 0, 0]
        down = fn < f[live]  # a nan residual never descends
        won = live[down]
        x[won], r[won], f[won] = xn[down], rn[down], fn[down]
        mu[live] = np.where(down, np.maximum(mu[live] * 0.3, 1e-12), mu[live] * 3.0)
        live = live[mu[live] <= 1e8]
    # fmin passes over the nan residual norm of a start that overflowed
    return float(np.fmin.reduce(np.sqrt(f), initial=np.inf))
