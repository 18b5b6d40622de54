"""Diagonal invariant metrics on m and the Levi-Civita machinery they induce.

The metric (l1, l2, l3) weighs -B on the three modules.  Its coefficient
Gram matrix G is the decomposition's ``module_killing`` (-B on the module
blocks) with each column scaled by its module's coefficient, so the inner
product of two elements automatically discards k-components.

Three operators, each built on first use, turn the Levi-Civita terms into
one product each (d = dim g, d_m = dim m, indices of m in its basis order):

- ``u_operator`` Q (d_m, d_m^2): U(x, x)_m = Q (x_m (x) x_m), with
  Q[l, i * d_m + j] = sum over a, k in m of G^-1[l, a] c[a, i, k] G[k, j];
- ``gw_operator`` H (d_m, 2 d^2): G_W = H [s (x) s ; p (x) q] over the
  m-basis W (see ``geodesics``), with H[w, j * d + l] = sum_k c[w, j, k]
  G[k, l] and H[w, d^2 + i * d + j] = sum_k c[i, j, k] G[k, w];
- ``connection_operator`` R (d_m, d d_m): D_m = w_dot_m + R (w (x) w_m)
  (see ``oracle``), with R[l, i * d_m + j] = c[i, m_j, m_l] for i in k and
  R[l, m_a * d_m + j] = Q[l, a * d_m + j].
"""

from __future__ import annotations

import functools

import numpy as np

from . import accel
from .catalog import _MODULES, ReductiveDecomposition
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
        scale = np.zeros(dec.context.dim)
        for lam, part in zip(self.lambdas, _MODULES):
            scale[dec.part_indices[part]] = lam
        self.gram_full = dec.module_killing * scale
        self.m_indices = dec.part_indices["m"]
        self.gram = self.gram_full[self.m_indices][:, self.m_indices]

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

    @functools.cached_property
    def gw_operator(self) -> np.ndarray:
        """H of the module docstring; built on first use."""
        c, G, mi = self.context.structure_constants, self.gram_full, self.m_indices
        d = len(G)
        return np.hstack(((c[mi] @ G).reshape(len(mi), d * d), (c.reshape(d * d, d) @ G[:, mi]).T))

    @functools.cached_property
    def connection_operator(self) -> np.ndarray:
        """R of the module docstring: the decomposition's ``c_kmm`` on the k
        rows of w, ``u_operator`` on its m rows."""
        k, mi = self.dec.part_indices["k"], self.m_indices
        dm = len(mi)
        R = np.empty((dm, self.context.dim, dm))
        R[:, k] = self.dec.c_kmm
        R[:, mi] = self.u_operator.reshape(dm, dm, dm)
        return R.reshape(dm, -1)


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
        return accel.outer_flat(x, x) @ g.u_operator.T
    return 0.5 * (accel.outer_flat(x, y) + accel.outer_flat(y, x)) @ g.u_operator.T


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

