"""Diagonal invariant metrics on m and the Levi-Civita machinery they induce.

The metric (l1, l2, l3) weighs -B on the three modules.  Its coefficient
Gram matrix is assembled blockwise from the Killing matrix, so the inner
product of two elements automatically discards k-components.
"""

from __future__ import annotations

import functools

import numpy as np

from . import accel
from .catalog import ReductiveDecomposition
from .core import AlgebraElement, ContextMismatchError, InvalidMetricError


class DiagonalMetric:
    """Invariant metric l1 (-B)|m1 + l2 (-B)|m2 + l3 (-B)|m3."""

    def __init__(self, dec: ReductiveDecomposition, lambdas):
        l1, l2, l3 = (float(x) for x in lambdas)
        if min(l1, l2, l3) <= 0:
            raise InvalidMetricError(f"metric coefficients must be positive, got {lambdas}")
        self.dec = dec
        self.lambdas = (l1, l2, l3)
        ctx = dec.context
        K = ctx.killing
        G = np.zeros((ctx.dim, ctx.dim))
        for lam, part in zip(self.lambdas, ("m1", "m2", "m3")):
            ix = dec.part_indices[part]
            if len(ix):
                G[np.ix_(ix, ix)] = -lam * K[np.ix_(ix, ix)]
        self.gram_full = G
        self.m_indices = dec.part_indices["m"]
        self.gram = G[np.ix_(self.m_indices, self.m_indices)]

    @property
    def context(self):
        return self.dec.context

    @functools.cached_property
    def u_operator(self) -> np.ndarray:
        """Q = G^-1 C of shape (d_m, d_m^2), C[j, (i, l)] = sum_k c[j, i, k] G[k, l]
        over m, so that U(X, Y)_m = 0.5 Q (x_m (x) y_m + y_m (x) x_m); built on
        first use."""
        dm = len(self.m_indices)
        # an explicit inverse and one GEMM: a solve with d_m^2 right-hand sides
        # costs several times more
        return np.linalg.inv(self.gram) @ (self.dec.c_mmm @ self.gram).reshape(dm, dm * dm)


def inner(g: DiagonalMetric, X: AlgebraElement, Y: AlgebraElement) -> float:
    """The Ad(K)-invariant inner product of the m-parts of X and Y."""
    if X.context is not g.context or Y.context is not g.context:
        raise ContextMismatchError("elements do not belong to the metric's context")
    return float(X.coeffs @ g.gram_full @ Y.coeffs)


def u_coeffs(g: DiagonalMetric, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """m-coordinates of U(X, Y) from the m-coordinates x and y of X and Y
    (vectors or (T, d_m) stacks): 0.5 Q (x (x) y + y (x) x), or Q (x (x) x)
    for U(X, X) when y is omitted."""
    # (G U)_j = 0.5 sum_ik c[j, i, k] (x_i (G y)_k + y_i (G x)_k) over m
    if y is None:
        return accel.apply(g.u_operator, accel.outer_flat(x, x))
    return 0.5 * accel.apply(g.u_operator, accel.outer_flat(x, y) + accel.outer_flat(y, x))


def u_map(g: DiagonalMetric, X: AlgebraElement, Y: AlgebraElement) -> AlgebraElement:
    """The symmetric bilinear map U on m with
    2<U(X,Y), Z> = <[Z,X]_m, Y> + <X, [Z,Y]_m> for all Z in m
    (k-components of X and Y are ignored), one product against the
    metric's precomputed operator Q."""
    if X.context is not g.context or Y.context is not g.context:
        raise ContextMismatchError("elements do not belong to the metric's context")
    mi = g.m_indices
    u = np.zeros(X.context.dim)
    u[mi] = u_coeffs(g, X.coeffs[mi], Y.coeffs[mi])
    return AlgebraElement(X.context, u)

