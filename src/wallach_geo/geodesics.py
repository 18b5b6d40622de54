"""Closed-form geodesics, the geodesic-defect functional and the
restriction system that singles out the admissible diagonal metrics.

A three-factor curve exp(tX)exp(tY)exp(tZ).o is a geodesic iff the defect

    G_W(t) = <(TX)_m + (TY)_m + Z_m, [W, TX+TY+Z]_m>
           + <W, [TX, TY+Z]_m + [TY, Z]_m>

vanishes for every W in m and every t, where T(t) = Ad(exp(-tZ)exp(-tY)).
With s = TX + TY + Z, p = TX + TY and q = TY + Z, [TX, TY+Z] + [TY, Z] is
[p, q], and with G = K diag(sigma) (see ``metrics``) and cK[i, j, l] =
sum_k c[i, j, k] K[k, l], G_W over the m-basis is

    G_W[w] = sum cK[m_w, j, l] sigma_l s_j s_l + sum cK[i, j, m_w] sigma_{m_w} p_i q_j,

the first d_m outputs of the decomposition's one sparse defect table
(``defect_table``) at the metric's ``defect_values``: each entry
multiplies two coordinates of the rows s, p and q of
``ProductExpCurve.defect_rows`` and its value, and each W sums its run
of entries.  The table's other outputs are the connection defect of
``oracle``, so ``ProductExpCurve.defects`` contracts it once for both,
and the curve keeps that contraction with the rows of the last scalar t
and of the last grid; ``gw_defect_all`` returns a copy of its part.

For a free module m_i, the metrics whose two coefficients other than
lambda_i are equal form one locus: closed-form case 4 - i, the two-summand
grouping M2 = m_i and a pair of restriction families (i = 3: s1/s2, i = 2:
s3/s4, i = 1: s5/s6).  The table ``_LOCI`` holds that map.  Off every
locus, ``certify_nonexistence`` proves exactly that the restriction system
has no solution, so no three-factor geodesic exists there.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .catalog import _MODULES, ReductiveDecomposition, TwoSummandView
from .core import (
    AlgebraElement,
    ContextMismatchError,
    HypothesisViolatedError,
    InvalidMetricError,
    WrongModuleError,
    _element,
    require_positive_finite,
)
from .curves import ProductExpCurve
from .metrics import DiagonalMetric


def gw_defect_all(curve: ProductExpCurve, g: DiagonalMetric, t) -> np.ndarray:
    """G_W(t) for every m-basis vector W at once (vector over m indices),
    or a (T, d_m) array of them at a 1-D array of T times: the
    decomposition's G_W table at the metric's values on the rows of
    ``curve.defect_rows``.  A metric of another decomposition is a
    ContextMismatchError."""
    return curve.defects(g, t)[1][..., : len(g.m_indices)].copy()


def _require_parts(dec: ReductiveDecomposition, Xs, outside: np.ndarray, names) -> None:
    """Raise ContextMismatchError for an X of Xs outside the context of
    ``dec``, then WrongModuleError for the first X with a component off
    its part, ``names[q]`` for Xs[q], in one vectorized check: row q of
    ``outside`` is 1 off that part and 0 on it (one row serves every X)."""
    if any(X.context is not dec.context for X in Xs):
        raise ContextMismatchError("curve factors must live in the decomposition's context")
    C = np.array([X.coeffs for X in Xs])
    off = C * outside
    if not off.any():  # every X exactly in its part, as drawn ones are
        return
    A = np.abs(C)
    out = np.abs(off).max(axis=1)
    # fmax, like max(1.0, .), ignores a nan
    bad = out > 1e-10 * np.fmax(1.0, A.max(axis=1))
    q = int(bad.argmax())
    if bad[q]:
        raise WrongModuleError(f"vector is not in {names[q]} (outside component {out[q]:.3e})")


# free module i -> (closed-form case, restriction families); the order ranks ties
_LOCI = {3: (1, ("s1", "s2")), 2: (2, ("s3", "s4")), 1: (3, ("s5", "s6"))}
_MODULE_OF_CASE = {case: i for i, (case, _) in _LOCI.items()}


def _on_loci(n, tol: float) -> dict:
    """{i: (n_i, n_j)} for the loci, in ``_LOCI`` order, of the normalized
    metric n = (1, n2, n3): its n_j and n_k (j < k, both not i) differ by at most ``tol``."""
    others = {i: [q for k, q in enumerate(n) if k != i - 1] for i in _LOCI}
    return {i: (n[i - 1], a) for i, (a, b) in others.items() if abs(a - b) <= tol}


def match_case(metric, requested):
    """Normalize by lambda1 and match the closed-form metric patterns.

    Returns (case, c), or raises InvalidMetricError when a coefficient is
    <= 0 or no pattern fits.
    Ties prefer case 1 (c = 1 fits all three).
    """
    # a nan passes on to the ratio check below
    if any(v <= 0 for v in metric):
        raise InvalidMetricError(f"metric {metric} has a coefficient <= 0")
    n = (1.0, metric[1] / metric[0], metric[2] / metric[0])
    # beyond this range the curves' spectra and defects overflow
    if not all(1e-100 <= q <= 1e100 for q in n):
        raise InvalidMetricError(f"metric {metric} has a ratio outside [1e-100, 1e100]")
    candidates = [(_LOCI[i][0], ni / nj) for i, (ni, nj) in _on_loci(n, 1e-12).items()]
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


def _two_factor_geodesic(dec: ReductiveDecomposition, i: int, c: float, others, moving):
    """The geodesic on the locus of free module m_i: metric c on m_i and 1
    on the other two, factors (others + c moving, (1 - c) moving), with
    ``others`` and ``moving`` coefficient vectors in the context of dec."""
    require_positive_finite("c", c)
    ctx = dec.context
    factors = (_element(ctx, others + moving * float(c)), _element(ctx, moving * float(1.0 - c)))
    metric = DiagonalMetric(dec, tuple(c if q == i else 1.0 for q in (1, 2, 3)))
    return ProductExpCurve(dec, factors), metric


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
    if case not in _MODULE_OF_CASE:
        raise ValueError("case must be 1, 2 or 3")
    Xs = (X1, X2, X3)
    _require_parts(dec, Xs, dec.module_outside, _MODULES)
    i = _MODULE_OF_CASE[case]
    a, b = (X.coeffs for q, X in enumerate(Xs, 1) if q != i)
    return _two_factor_geodesic(dec, i, c, a + b, Xs[i - 1].coeffs)


def dohira_geodesic(view: TwoSummandView, c: float, X1: AlgebraElement, X2: AlgebraElement):
    """Two-summand geodesic on the grouped view: metric (1, c) on (M1, M2),
    factors (X1 + cX2, (1-c)X2)."""
    _require_parts(view.parent, (X1, X2), view.outside, ("+".join(view.M1_parts), view.M2_part))
    return _two_factor_geodesic(view.parent, view.i, c, X1.coeffs, X2.coeffs)


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
    _require_parts(dec, (X,), 1.0 - dec.part_masks["m"], ("m",))
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
    (a1, a2, a3, b1, b2, b3) or, row by row, at a (..., 6) stack of them;
    an object array (of ``Fraction``, say) is evaluated exactly, as it is."""
    require_positive_finite("lambda2 and lambda3", lambda2, lambda3)
    p = sol.params() if isinstance(sol, RestrictionSolution) else np.asarray(sol)
    p = p if p.dtype == object else np.asarray(p, np.float64)
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
    positive and finite); ``extra_free`` is its free linear coefficient.
    """
    lam, f = float(lambda_free), float(extra_free)
    require_positive_finite("free metric coefficient", lam)
    return [
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


def applicable_families(lambda2: float, lambda3: float):
    """(families, lam): the solution families whose metric locus, lambda2 = 1
    (s1, s2), lambda3 = 1 (s3, s4) or lambda2 = lambda3 (s5, s6), holds
    exactly, and the free metric coefficient that instantiates them in
    ``solution_families``.  Off every locus ``certify_nonexistence`` proves
    that the restriction system has no solution."""
    require_positive_finite("lambda2 and lambda3", lambda2, lambda3)
    loci = list(_on_loci((1.0, lambda2, lambda3), 0.0))
    families = [f for i in loci for f in _LOCI[i][1]]
    # lambda3 is free on the s1/s2 and s5/s6 loci, lambda2 on the s3/s4 one
    return families, lambda2 if loci == [2] else lambda3


def _cofactors(p, l2, l3) -> np.ndarray:
    """The cofactors Q_0..Q_8 of the identity sum_i Q_i r_i = E (see
    ``certify_nonexistence``) at a (..., 6) stack p of (a1, a2, a3, b1, b2, b3)."""
    a1, a2, a3, b1, b2, b3 = np.moveaxis(p, -1, 0)
    u, v, w = l2 - 1, l3 - 1, l2 - l3
    return np.stack(
        [
            l2 * l3 * u * v * (a3 - a2) / 2 + l2 * l3 * u * v * w * b1,
            l2 * l2 * l3 * u * w * (a3 - a1) / 2 - l2 * l3 * u * v * w * b2,
            l2 * l3 * l3 * w * v * (a1 - a2) / 2 + l2 * l3 * u * v * w * b3,
            -l2 * l3 * w * v * (1 + b1) / 2,
            l2 * l3 * u * w * (1 + b1) / 2,
            l3 * w * v * (1 + b2) / 2,
            l3 * u * v * (1 + b2) / 2,
            -l2 * u * w * (1 + b3) / 2,
            -l2 * u * v * (1 + b3) / 2,
        ],
        axis=-1,
    )


def certify_nonexistence(lambda2: float, lambda3: float) -> bool:
    """Whether the nine restriction equations provably have no common zero,
    complex or real, at the metric (1, lambda2, lambda3): no three-factor
    geodesic exp(tX)exp(tY)exp(tZ).o exists there.

    The cofactors Q_i of ``_cofactors``, linear in (a, b), satisfy

        sum_i Q_i r_i = E = ((lambda2 - 1)(lambda3 - 1)(lambda2 - lambda3))^2

    identically, so a common zero of the r_i would make E = 0 (a weak
    Nullstellensatz certificate).  The check runs over ``Fraction`` at the exact
    binary value of each float: both sides have degree <= 3 in (a, b), so
    equality on the 84 points {x in N^6 : |x| <= 3}, a unisolvent set for
    cubics, proves the identity at this metric.  It is proved when the
    identity holds and E != 0, i.e. off the three family loci."""
    require_positive_finite("lambda2 and lambda3", lambda2, lambda3)
    l2, l3 = Fraction(lambda2), Fraction(lambda3)
    x = np.array([q for q in itertools.product(range(4), repeat=6) if sum(q) <= 3], object)
    lhs = (_cofactors(x, l2, l3) * restriction_residual(x, l2, l3)).sum(axis=-1)
    E = ((l2 - 1) * (l3 - 1) * (l2 - l3)) ** 2
    return E != 0 and bool((lhs == E).all())
