"""Diagonal invariant metrics on m and the Levi-Civita machinery they induce.

The metric (l1, l2, l3) weighs -B on the three modules.  Its coefficient
Gram matrix G is the decomposition's ``module_killing`` (-B on the module
blocks) with each column scaled by its module's coefficient, so the inner
product of two elements automatically discards k-components.

With sigma the coefficient of each basis vector's module, G = K diag(sigma)
for K the ``module_killing``.  The decomposition's ``defect_table``,
built once per space, holds every Levi-Civita term of both defects as one
sparse table of base values (see ``catalog.ContractionTable``); a metric
supplies only each entry's sigma ratio, built on first use (d_m = dim m):

- ``defect_values``: the table's base values times sigma_p / sigma_q,
  the entries of G_W (see ``geodesics``) and of the connection defect D
  (see ``oracle``);
- ``u_pairs`` (S, A, B), which shooting and ``u_map`` read: U(x, x)_m =
  S (x[A] x[B]) for m-coordinates x.  As U(X, X)_m = Lambda^-1 [X, Lambda
  X]_m (B is ad-invariant, the parts B-orthogonal), U's terms are the D
  entries of the table with both coordinates in m, which the
  decomposition's ``u_pairs`` merges into symmetric pairs (A[p], B[p]);
  S (d_m, pairs) is one ``bincount`` of their values, no d_m^3 array.

A metric is tied to its decomposition: the defects and the shot refuse
a metric of another one (``ContextMismatchError``), whose table would
index another space's values.
"""

from __future__ import annotations

import functools

import numpy as np

from .catalog import ReductiveDecomposition
from .core import AlgebraElement, ContextMismatchError, require_positive_finite


class DiagonalMetric:
    """Invariant metric l1 (-B)|m1 + l2 (-B)|m2 + l3 (-B)|m3."""

    def __init__(self, dec: ReductiveDecomposition, lambdas):
        l1, l2, l3 = (float(x) for x in lambdas)
        require_positive_finite("metric coefficients", l1, l2, l3)
        self.dec = dec
        self.lambdas = (l1, l2, l3)
        # G is -B on the block of m_i times lambda_i: ``module_killing`` with
        # each column scaled by its module's coefficient (0 on k)
        self.gram_full = dec.module_killing * np.array((0.0,) + self.lambdas)[dec.part_of]
        self.m_indices = dec.part_indices["m"]
        self.gram = self.gram_full[self.m_indices[:, None], self.m_indices]

    @property
    def context(self):
        return self.dec.context

    @functools.cached_property
    def defect_values(self) -> np.ndarray:
        """The values of the decomposition's defect table at this metric:
        each base value times sigma_p / sigma_q, the part k (p or q = 0)
        standing for 1."""
        table = self.dec.defect_table
        s = np.array((1.0,) + self.lambdas)
        return table.base * (s / s[:, None]).ravel().take(table.scale)

    @functools.cached_property
    def u_pairs(self) -> tuple:
        """(S, A, B) of the module docstring: S[l, p] sums the U entries at
        this metric that add to output m_l and pair p; built on first use."""
        at, flat, A, B = self.dec.u_pairs
        dm = len(self.m_indices)
        S = np.bincount(flat, self.defect_values[at], dm * len(A))
        return S.reshape(dm, len(A)), A, B


def _same_decomposition(g: DiagonalMetric, dec: ReductiveDecomposition) -> None:
    if g.dec is not dec:
        raise ContextMismatchError(
            f"the metric belongs to another decomposition: {g.dec.name!r} vs {dec.name!r}"
        )


def inner(g: DiagonalMetric, X: AlgebraElement, Y: AlgebraElement) -> float:
    """The Ad(K)-invariant inner product of the m-parts of X and Y."""
    if X.context is not g.context or Y.context is not g.context:
        raise ContextMismatchError("elements do not belong to the metric's context")
    return float(X.coeffs @ g.gram_full @ Y.coeffs)


def u_map(g: DiagonalMetric, X: AlgebraElement, Y: AlgebraElement) -> AlgebraElement:
    """The symmetric bilinear map U on m with
    2<U(X,Y), Z> = <[Z,X]_m, Y> + <X, [Z,Y]_m> for all Z in m
    (k-components of X and Y are ignored): S 0.5 (x[A] y[B] + x[B] y[A])
    on m-coordinates (``u_pairs``), at X = Y the bits of S (x[A] x[B])."""
    if X.context is not g.context or Y.context is not g.context:
        raise ContextMismatchError("elements do not belong to the metric's context")
    mi = g.m_indices
    S, A, B = g.u_pairs
    x, y = X.coeffs[mi], Y.coeffs[mi]
    u = np.zeros(X.context.dim)
    u[mi] = S.dot(0.5 * (x[A] * y[B] + x[B] * y[A]))
    return AlgebraElement(X.context, u)
