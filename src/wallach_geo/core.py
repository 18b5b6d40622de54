"""Matrix Lie algebra kernel: contexts, elements, the Killing form and ad
matrices.

An :class:`AlgebraContext` is built once from an ordered basis of real
matrices; the structure constants c, the Killing matrix and the trace-form
Gram factorization are precomputed and the context is immutable afterwards.
The dense c lives only in the constructor's own checks: the context keeps c
as the one list of its nonzero entries, ``structure_entries``.
"""

from __future__ import annotations

import math

import numpy as np

from . import accel


class WallachGeoError(Exception):
    """Base class for all library errors."""


class ContextMismatchError(WallachGeoError):
    """Elements from distinct algebra contexts were combined."""


class StructureError(WallachGeoError):
    """The basis does not define a valid Lie algebra within tolerance."""


class DegenerateSpaceError(WallachGeoError):
    """Catalog constructor called with degenerate dimensions."""


class GroupingInvalidError(WallachGeoError):
    """Two-summand grouping hypotheses fail for the requested module."""


class WrongModuleError(WallachGeoError):
    """A vector does not lie in the requested isotropy module."""


class InvalidMetricError(WallachGeoError):
    """Metric coefficient that is not positive and finite."""


def require_positive_finite(what: str, *values) -> None:
    """Raise InvalidMetricError unless every value is positive and finite:
    the check on metric coefficients at every public entry (nan fails it)."""
    if not all(0.0 < v < math.inf for v in values):
        raise InvalidMetricError(f"{what} must be positive and finite, got {values}")


class HypothesisViolatedError(WallachGeoError):
    """Hypotheses of a geodesic constructor are not met."""


class OutOfChartError(WallachGeoError):
    """Principal-logarithm chart does not contain the argument."""


class IntegrationFailureError(WallachGeoError):
    """Numerical integration left its stability budget."""


class SpaceDefinitionError(WallachGeoError):
    """A JSON space definition violates the schema or is degenerate."""


class AlgebraElement:
    """A Lie algebra element stored as coordinates in the context basis."""

    __slots__ = ("context", "coeffs")

    def __init__(self, context: "AlgebraContext", coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.shape != (context.dim,):
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, expected ({context.dim},)"
            )
        self.context = context
        self.coeffs = coeffs

    @property
    def matrix(self) -> np.ndarray:
        ctx = self.context
        n = ctx.ambient_size
        return self.coeffs.dot(ctx.basis.reshape(ctx.dim, n * n)).reshape(n, n)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_context(self, other)
        return _element(self.context, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_context(self, other)
        return _element(self.context, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "AlgebraElement":
        return _element(self.context, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "AlgebraElement":
        return _element(self.context, -self.coeffs)

    def norm_b(self) -> float:
        """Norm in the -B form (real and nonnegative on compact algebras)."""
        return killing_norm(self.context, self.coeffs)

    def __repr__(self) -> str:
        return f"AlgebraElement({self.context.name}, {self.coeffs})"


def _element(context: "AlgebraContext", coeffs: np.ndarray) -> AlgebraElement:
    # an element over a (dim,) float64 array that already fits, unchecked
    X = object.__new__(AlgebraElement)
    X.context, X.coeffs = context, coeffs
    return X


def _same_context(a, b) -> None:
    if a.context is not b.context:
        raise ContextMismatchError(
            f"elements belong to distinct contexts: {a.context.name!r} vs {b.context.name!r}"
        )


def _sum_runs(key: np.ndarray, val: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a nonnegative integer key, ascending, and the sum
    of val over each, summed in input order."""
    srt = np.argsort(key, kind="stable")
    key = key[srt]
    heads = np.flatnonzero(np.concatenate((key[:1] >= 0, key[1:] != key[:-1])))
    return key[heads], np.add.reduceat(val[srt], heads)


def _nonzero_entries(c: np.ndarray) -> tuple:
    """c's nonzero entries as four arrays (i, j, l, value), sorted by l, then i, j."""
    ij, l = np.nonzero(c.reshape(-1, len(c)))
    srt = np.argsort(l, kind="stable")
    return (*np.divmod(ij[srt], len(c)), l[srt], c.reshape(-1, len(c))[ij, l][srt])


def _jacobi_check(entries: tuple, d: int, tol: float) -> tuple[float, float, bool]:
    """Jacobi residual max|J|, max|T| and whether J passes for structure
    constants c of dimension d, given as their list ``_nonzero_entries``.

    T[i,j,k,m] = sum_l c[i,j,l] c[l,k,m] is the m-coefficient of [[e_i, e_j], e_k]
    and J[i,j,k] = T[i,j,k] + T[k,i,j] + T[j,k,i] its cyclic sum; J passes when
    max|J| <= tol * max(1, max|T|).  T is formed only from pairs of listed
    entries that share l, and each T entry is summed into the rotation of
    (i, j, k) that is least in lexicographic order, which gives every J once.
    Rotations keep m, so the pass runs in blocks of pairs ordered by m and
    carries the sums of a block's last m forward: memory stays O(d^3).

    Entries of size <= cut (rounding noise) are dropped.  With d' the largest
    dropped size, that moves each T entry by at most d d' (2 max|c| + d'), which
    is added three times to max|J| and taken off max|T|, so the verdict is never
    weaker than the dense one; the cut keeps that bound under tol / 10.
    """
    first, second, last, v = entries
    a = np.abs(v)
    big = float(a.max(initial=0.0))
    q = 0.1 * tol  # 3 d cut (2 big + cut) = q, solved for cut
    cut = 2 * q / (6 * d * big + math.sqrt((6 * d * big) ** 2 + 12 * d * q)) if q > 0 else 0.0
    keep = a > cut
    dropped = float(a[~keep].max(initial=0.0))
    slack = d * dropped * (2 * big + dropped)
    # the kept entries, ordered by their last index: as left factors c[i, j, l]
    # they are grouped by l, as right factors c[l, k, m] ordered by m
    first, second, last, v = first[keep], second[keep], last[keep], v[keep]
    lo = np.searchsorted(last, first)  # left factors of each right factor's l
    count = np.searchsorted(last, first, "right") - lo
    ends = np.cumsum(count)
    # a T index (m, i, j, k) is packed into one integer, b bits per index
    b = max(1, (d - 1).bit_length())
    low, low2, low3 = (1 << b) - 1, (1 << 2 * b) - 1, (1 << 3 * b) - 1
    ij_key = (first << b | second) << b

    t_max = j_max = 0.0
    carry_key, carry_T = np.empty(0, np.int64), np.empty(0)
    s, n = 0, last.size
    while s < n:
        start = ends[s] - count[s]
        # about 2**17 pairs per block, at least one right factor
        e = max(s + 1, int(np.searchsorted(ends, start + 2**17, "right")))
        rep = count[s:e]
        pos = np.arange(start, ends[e - 1]) + np.repeat(lo[s:e] - ends[s:e] + rep, rep)
        # the pair c[i, j, l] c[l, k, m]
        key = np.repeat(last[s:e] << 3 * b | second[s:e], rep) | ij_key[pos]
        key, T = _sum_runs(
            np.concatenate((carry_key, key)),
            np.concatenate((carry_T, np.repeat(v[s:e], rep) * v[pos])),
        )
        # the sums of the block's last m may continue in the next block
        split = key.size if e == n else int(np.searchsorted(key, last[e - 1] << 3 * b))
        carry_key, carry_T = key[split:], T[split:]
        key, T = key[:split], T[:split]
        s = e
        if not split:
            continue
        t_max = max(t_max, float(np.abs(T).max()))
        ijk = key & low3
        rot = np.minimum((ijk & low2) << b | ijk >> 2 * b, (ijk & low) << 2 * b | ijk >> b)
        # J[x, x, x] = 3 T[x, x, x], its one rotation
        J = _sum_runs(key - ijk + np.minimum(ijk, rot), np.where(rot == ijk, 3 * T, T))[1]
        j_max = max(j_max, float(np.abs(J).max()))
    residual = j_max + 3 * slack
    t_max = max(0.0, t_max - slack)
    return residual, t_max, residual <= tol * max(1.0, t_max)


class AlgebraContext:
    """A finite-dimensional real matrix Lie algebra with a fixed basis.

    Construction computes structure constants, the Killing matrix from
    ad-traces and the trace-form Gram factorization, then verifies
    antisymmetry, the Jacobi identity, the commutator/structure-constant
    match and ad-invariance of the Killing form on basis triples.  Then -B
    must be positive definite and the basis skew (SpaceDefinitionError), so
    every context is compact semisimple with an orthogonal group.  It keeps
    c only as ``structure_entries``, next to the Killing form and its
    Cholesky factors: the dense c and its d^2 n^2 products die in here.
    """

    def __init__(self, name: str, basis, tol_structural: float = 1e-12):
        self.name = name
        basis = np.asarray(basis, dtype=np.float64)
        if basis.ndim != 3 or basis.shape[1] != basis.shape[2]:
            raise ValueError("basis must be a list of square matrices")
        self.basis = basis
        self.dim = basis.shape[0]
        self.ambient_size = basis.shape[1]
        self.tol_structural = float(tol_structural)

        # trace-form Gram matrix; singular Gram means a dependent basis
        self.gram = np.einsum("aij,bij->ab", basis, basis)
        try:
            self._gram_inv = np.linalg.inv(self.gram)
        except np.linalg.LinAlgError as exc:
            raise StructureError(f"{name}: basis matrices are linearly dependent") from exc
        if np.linalg.cond(self.gram) > 1e12:
            raise StructureError(f"{name}: basis matrices are (numerically) dependent")

        # each contraction below is one GEMM: rows (a, i) of the stacked basis
        # against columns (b, k) give all products e_a e_b at once
        d, n = self.dim, self.ambient_size
        flat = basis.reshape(d, n * n)
        prods = basis.reshape(d * n, n) @ basis.transpose(1, 0, 2).reshape(n, d * n)
        prods = prods.reshape(d, n, d, n).transpose(0, 2, 1, 3)
        comms = prods - prods.transpose(1, 0, 2, 3)
        del prods  # each temporary is freed once read: at most two d^2 n^2 arrays live
        scale = max(1.0, np.abs(comms).max())
        c = (comms.reshape(d * d, n * n) @ flat.T @ self._gram_inv.T).reshape(d, d, d)

        recon = (c.reshape(d * d, d) @ flat).reshape(d, d, n, n)
        recon -= comms
        residual = float(np.abs(recon, out=recon).max())
        del comms, recon
        if residual > self.tol_structural * scale:
            raise StructureError(
                f"{name}: commutators leave the basis span (residual {residual:.3e})"
            )

        anti = np.abs(c + np.transpose(c, (1, 0, 2))).max()
        if anti > self.tol_structural * max(1.0, np.abs(c).max()):
            raise StructureError(f"{name}: structure constants not antisymmetric ({anti:.3e})")

        # c is kept only as this list of its nonzero entries, which every reader takes
        entries = self.structure_entries = _nonzero_entries(c)
        self._jacobi_residual, _, jacobi_ok = _jacobi_check(entries, d, self.tol_structural)
        if not jacobi_ok:
            raise StructureError(f"{name}: Jacobi identity fails ({self._jacobi_residual:.3e})")

        # the Killing form from ad-traces, ad(e_i)[k, j] = c[i, j, k]:
        # B[i, j] = tr(ad_i ad_j) = sum_lk c[i, l, k] c[j, k, l]
        self.killing = c.reshape(d, -1) @ c.transpose(0, 2, 1).reshape(d, -1).T

        kb = max(1.0, np.abs(self.killing).max())
        sym = np.abs(self.killing - self.killing.T).max()
        if sym > self.tol_structural * kb:
            raise StructureError(f"{name}: Killing matrix not symmetric ({sym:.3e})")
        K = self.killing
        adinv = (c.reshape(-1, d) @ K).reshape(d, d, d) + K @ c.transpose(0, 2, 1)
        residual = float(np.abs(adinv).max())
        if residual > 10 * self.tol_structural * kb:
            raise StructureError(f"{name}: Killing form not ad-invariant ({residual:.3e})")

        # metrics weigh -B per module, so g must be compact semisimple: -B positive
        # definite, i.e. its Cholesky exists with no pivot at rounding level
        try:
            L = np.linalg.cholesky(-self.killing)
        except np.linalg.LinAlgError:
            L = None
        if L is None or L.diagonal().min() ** 2 <= self.tol_structural * max(1.0, kb):
            raise SpaceDefinitionError(
                f"{name}: -B is not positive definite (g is not compact semisimple)"
            )
        # the spectral exponentials, the logarithm and the oracles' polar step
        # assume an orthogonal group, i.e. skew basis matrices
        skew_res = np.abs(basis + basis.transpose(0, 2, 1)).max()
        if skew_res > self.tol_structural * max(1.0, np.abs(basis).max()):
            raise SpaceDefinitionError(
                f"{name}: ambient basis matrices are not skew-symmetric "
                f"(residual {skew_res:.3e}; the group is not orthogonal)"
            )
        # -B = L L^T: L^T maps coefficients to a -B-orthonormal frame
        self.killing_chol = L
        self.killing_chol_inv = np.linalg.inv(L)

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, np.zeros(self.dim))

    def coefficients_of(self, matrix: np.ndarray) -> np.ndarray:
        """Expand an ambient matrix, or each of a (T, n, n) stack, in the basis
        via the Gram factorization: the least-squares coefficients, with no
        check that the matrix lies in the span."""
        rhs = np.einsum("aij,...ij->...a", self.basis, matrix)
        return rhs @ self._gram_inv.T

    def ad_matrix(self, x: np.ndarray) -> np.ndarray:
        """Matrix of ad(x) acting on coefficient vectors."""
        return accel.ad_matrix(self.structure_entries, x)


def killing_norm(ctx: AlgebraContext, coeffs: np.ndarray):
    """-B norm of a coefficient vector (a float), or of each row of a (T, d)
    stack; a zero norm is +0.0."""
    # dot costs less per call than @ on a vector
    y = coeffs.dot(ctx.killing)
    if coeffs.ndim == 1:
        # max(-0.0, 0.0) is -0.0, and so is its sqrt; adding 0.0 gives +0.0
        # and keeps a nan
        return math.sqrt(max(-float(y.dot(coeffs)), 0.0)) + 0.0
    return np.sqrt(np.maximum(-np.einsum("ti,ti->t", y, coeffs), 0.0))
