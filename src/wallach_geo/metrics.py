"""Diagonal invariant metrics on m and the Levi-Civita machinery they induce.

The metric (l1, l2, l3) weighs -B on the three modules.  Its coefficient
Gram matrix G is the decomposition's ``module_killing`` (-B on the module
blocks) with each column scaled by its module's coefficient, so the inner
product of two elements automatically discards k-components.

With sigma the coefficient of each basis vector's module, G = K diag(sigma)
for K the ``module_killing``.  The decomposition's ``defect_table``,
built once per space, hold every Levi-Civita term of both defects as one
sparse table of base values (see ``catalog.ContractionTable``); a metric
supplies only each entry's sigma ratio, built on first use (d_m = dim m,
indices of m in its basis order):

- ``defect_values``: the table's base values times sigma_p / sigma_q,
  the entries of G_W (see ``geodesics``) and of the connection defect D
  (see ``oracle``);
- ``u_operator`` Q (d_m, d_m^2), which shooting reads: U(x, x)_m =
  Q (x_m (x) x_m), with Q[l, a * d_m + j] = c[m_a, m_j, m_l]
  sigma_{m_j} / sigma_{m_l}.  This is G_mm^-1 C, C[j, (i, l)] = sum over
  k in m of c[m_j, m_i, m_k] G[k, l], as B is ad-invariant and the parts
  are B-orthogonal, so no inverse is formed.

A metric is tied to its decomposition: the defects and the shot refuse
a metric of another one (``ContextMismatchError``), whose table would
index another space's values.
"""

from __future__ import annotations

import functools

import numpy as np

from . import accel
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
        self._scale = np.array((0.0,) + self.lambdas)[dec.part_of]
        self.gram_full = dec.module_killing * self._scale
        self.m_indices = dec.part_indices["m"]
        self.gram = self.gram_full[self.m_indices[:, None], self.m_indices]

    @property
    def context(self):
        return self.dec.context

    @functools.cached_property
    def u_operator(self) -> np.ndarray:
        """Q of the module docstring, (d_m, d_m^2): Q0[l, a, j] =
        c[m_a, m_j, m_l] scaled by sigma_{m_j} / sigma_{m_l}; built on
        first use."""
        m, c = self.m_indices, self.dec.context.structure_constants
        s = self._scale.take(m)
        q0 = c[m[:, None], m, m[:, None, None]]
        return (q0 * (s / s[:, None])[:, None]).reshape(len(s), -1)

    @functools.cached_property
    def defect_values(self) -> np.ndarray:
        """The values of the decomposition's defect table at this metric:
        each base value times sigma_p / sigma_q, the part k (p or q = 0)
        standing for 1."""
        table = self.dec.defect_table
        s = np.array((1.0,) + self.lambdas)
        return table.base * (s / s[:, None]).ravel().take(table.scale)


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

