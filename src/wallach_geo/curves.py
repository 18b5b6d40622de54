"""Product-of-exponential curves and their body velocities.

A curve t -> exp(t X_1) ... exp(t X_r) . o of the paper's r <= 3 factors
is evaluated in the ambient group as an (n, n) matrix (``evaluate``, the
package's one ambient lift), while velocities are computed exactly
in coordinates through the adjoint representation: Ad(exp(-t F)) acts on
coefficient vectors as exp(-t ad F).  The curve owns both kinds of exponential.  ad F is skew in
a -B-orthonormal frame and the ambient factors are skew matrices, so one
eigendecomposition per factor, exp(-t A) = Re(P diag(exp(i lam t)) Q),
gives its exponential at any t.  The Ad spectra are taken at construction;
the ambient ones on the first ``evaluate``, so a defect sweep that never
evaluates pays nothing for them.

The velocity and both defects read four rows of d coordinates at t,
built by ``defect_rows``: s, p and q of the defect G_W (see
``geodesics``) and the velocity derivative w_dot; the velocity w is s.
Ad(exp(-t X_2)) acts first, on
constant vectors, so the rows before the next factor are affine in the
pairs (cos lam t, sin lam t), the real view of its phase vector
exp(i lam t).  A real matrix built at construction maps that vector, with
a last eigenvalue 0 whose pair (1, 0) carries the constant offsets, to
all four rows: one complex exponential and one product per t.  A third
factor acts on the rows through ``accel.spectral_apply``, in O(d^2) per
row and t, never forming its d x d matrix.

A curve keeps the rows of the last scalar t and those of the last grid,
only as the product itself, flat as (4d,) or (T, 4d); ``defect_rows``
and ``body_velocity`` make the (4, d) or (T, 4, d) view when asked.
Each is kept with the contraction of the decomposition's defect table on
the flat rows (``defects``) for the last metric object that asked; a
metric is checked against the curve's decomposition when the table is
contracted for it, not again at each probe.  ``defects`` hands back
the flat rows with the contraction, so ``gw_defect_all`` and
``connection_defect`` each probe the kept entry once, and at the same t
or grid the two build the rows and contract the table once; a grid is
kept as a copy and compared by value, so one changed in place gets new
rows.  The kept arrays are read-only, and every
array the defects return belongs to the caller.  Every time-dependent
method takes a scalar t or a 1-D array of T times by one code path: an
array adds a leading time axis, giving (T, d) velocities and a (T, n, n)
stack of lift matrices, so a whole t-grid is one pass.
"""

from __future__ import annotations

import numpy as np

from . import accel
from .catalog import ReductiveDecomposition
from .core import ContextMismatchError
from .metrics import _same_decomposition


class ProductExpCurve:
    """Curve t -> exp(t X_1) ... exp(t X_r) . o given by its r = 1, 2 or 3
    factors."""

    def __init__(self, dec: ReductiveDecomposition, factors):
        self.dec = dec
        self.factors = list(factors)
        if not 1 <= len(self.factors) <= 3:
            raise ValueError("a curve takes one to three factors")
        ctx = dec.context
        for f in self.factors:
            if f.context is not ctx:
                raise ContextMismatchError("curve factors must live in the decomposition's context")
        # Ad(exp(-t X_1)) enters neither the velocity nor the defects, so
        # only the later factors get an ad matrix and a spectrum
        d = ctx.dim
        x1, *later = (f.coeffs for f in self.factors)
        ad = [ctx.ad_matrix(x) for x in later]
        chol = ctx.killing_chol, ctx.killing_chol_inv
        # With A_q = Ad(exp(-t X_q)), T = A_3 A_2 and x_3 = 0 when r < 3,
        # the rows before A_3 are s = A_2 x_1 + x_2 + x_3, p = s - x_3,
        # q = x_2 + x_3 and w_dot = -A_2 ad(X_2) x_1 - ad(X_3) w_2 with
        # w_2 = A_2 x_1 + x_2; A_3 x_3 = x_3 then gives s = TX + TY + Z,
        # p = TX + TY and q = TY + Z.  A_2 v = Re(P (exp(i lam t) * Q v)),
        # and -ad(X_2) x_1 has eigenbasis coordinates i lam Q x_1, so each
        # row is Re(B exp(i lam t)) + c, with B = Pu or Pw below (0 for q)
        P, lam, Q = accel.exp_factors(ad[0] if ad else np.zeros((d, d)), *chol)
        x2 = later[0] if later else np.zeros(d)
        x3 = later[1] if len(later) > 1 else 0.0
        # the phase i lam with a last eigenvalue 0 for the constant offsets
        self._ilam = ilam = np.empty(d + 1, dtype=complex)
        np.multiply(1j, lam, out=ilam[:-1])
        ilam[-1] = 0.0
        Pu = P * (Q @ x1)
        Pw = Pu * ilam[:-1]
        # Re(B e) = Re(B) cos - Im(B) sin, the real view of conj(B) against
        # that of e; c takes the cos slot of the appended phase 1, and the
        # zeros stay where q has no B and in that phase's sin slot
        M = np.zeros((4, d, 2 * d + 2))
        B, C = M[:, :, :-2].view(complex), M[:, :, -2]
        np.conjugate(Pu, out=B[:2])
        np.add(x2, x3, out=C[::2])
        C[1] = x2
        # A_3's spectrum, applied to the rows at t (None when r < 3)
        self._last = None
        if len(later) > 1:
            Pw -= ad[1] @ Pu
            # -ad(X_3) x2 as ad(X_3) (-x2), the bits of (-ad) x2; -(ad x2)
            # would turn its zeros to -0.0
            C[3] = ad[1] @ -x2
            self._last = accel.exp_factors(ad[1], *chol)
        np.conjugate(Pw, out=B[3])
        self._fold = M.reshape(-1, 2 * d + 2).T
        # the last scalar t and the last grid, each with its read-only flat
        # rows and the defects of the last metric on them
        self._kept = [[None] * 4, [None] * 4]
        self._amb_spectra = None  # built on the first evaluate

    @property
    def context(self):
        return self.dec.context

    def defect_rows(self, t) -> np.ndarray:
        """The rows s, p, q and w_dot at t: a read-only (4, d) array, or
        (T, 4, d) at a 1-D array of T times, a view of the flat rows kept
        until the next scalar t or the next grid, with absent factors zero
        in s = TX + TY + Z, p = TX + TY and q = TY + Z; s is the velocity w."""
        flat = self._keep(t)[1]
        return flat.reshape(flat.shape[:-1] + (4, -1))

    def defects(self, g, t) -> tuple:
        """(flat rows, defects): the ``defect_rows`` at t flattened to a
        read-only (4d,) array, w_dot its last d entries, and the
        decomposition's ``defect_table`` at the metric g's values on them,
        a read-only (d_m + d,) array of G_W over m, then D - w_dot_m over
        the basis; (T, 4d) and (T, d_m + d) at a 1-D array of T times.  The
        defects are kept with the rows for the last metric object that
        asked; a metric of another decomposition is a
        ContextMismatchError."""
        kept = self._keep(t)
        if kept[2] is not g:
            # the kept metric passed this check when its defects were built
            _same_decomposition(g, self.dec)
            out = accel.contract(kept[1], self.dec.defect_table, g.defect_values)
            out.setflags(write=False)
            kept[2:] = g, out
        return kept[1], kept[3]

    def _keep(self, t) -> list:
        # [t, flat rows (..., 4d), metric, defects] for the last scalar t or
        # grid
        grid = accel.is_grid(t)
        kept = self._kept[grid]
        if not (np.array_equal(kept[0], t) if grid else float(t) == kept[0]):
            # a grid is kept as a copy, so one changed in place misses
            key = t.copy() if grid else float(t)
            flat = self._rows(key)
            flat.setflags(write=False)
            kept = self._kept[grid] = [key, flat, None, None]
        return kept

    def _rows(self, t) -> np.ndarray:
        # the rows at t flattened to (4d,), or (T, 4d) at T times, from the
        # real view of A_2's exp(i lam t) and of the constant phase 1; dot
        # costs less per call than @ on arrays this small
        lam_t = np.multiply.outer(t, self._ilam) if accel.is_grid(t) else t * self._ilam
        R = np.exp(lam_t).view(np.float64).dot(self._fold)
        if self._last is None:
            return R
        R = accel.spectral_apply(*self._last, t, R.reshape(R.shape[:-1] + (4, -1)))
        return R.reshape(R.shape[:-2] + (-1,))

    def evaluate(self, t):
        """Lift a(t) = exp(t X_1) ... exp(t X_r) in the ambient group: an
        (n, n) matrix at a scalar t, a (T, n, n) array of lift matrices at a
        1-D array of T times."""
        if self._amb_spectra is None:
            self._amb_spectra = [accel.exp_factors(f.matrix) for f in self.factors]
        # the factors give exp(-s M), so exp(t M) is their value at s = -t
        M, *rest = (accel.spectral_exp(*sp, -t) for sp in self._amb_spectra)
        for E in rest:
            M = M @ E
        return M

    def body_velocity(self, t):
        """(w, w_dot) coefficient vectors of a^-1 a_dot and its t-derivative,
        or (T, d) arrays of them at a 1-D array of T times.

        w(t) = sum_i Ad(exp(-t X_r) ... exp(-t X_{i+1})) X_i; differentiating
        each Ad factor with d/dt Ad(exp(-t F)) = -ad(F) Ad(exp(-t F)) gives
        w_dot exactly.
        """
        W = self.defect_rows(t)[..., (0, 3), :]  # a copy
        return W[..., 0, :], W[..., 1, :]
