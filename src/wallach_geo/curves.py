"""Product-of-exponential curves and their body velocities.

A curve t -> exp(t X_1) ... exp(t X_r) . o is evaluated in the ambient
group, while velocities are computed exactly in coordinates through the
adjoint representation: Ad(exp(-t F)) acts on coefficient vectors as
exp(-t ad F).  The curve owns both kinds of exponential.  ad F is skew in
a -B-orthonormal frame and the ambient factors are skew matrices, so one
eigendecomposition per factor, exp(-t A) = Re(P diag(exp(i lam t)) Q),
gives its exponential at any t.  The Ad spectra are taken at construction;
the ambient ones on the first ``evaluate``, so a defect sweep that never
evaluates pays nothing for them.

The velocity and the defects need each Ad-exponential only on a few
vectors, so they never form its d x d matrix: they apply it as
Re(P (exp(i lam t) * Q v)), O(d^2) per vector and t.  The first factor
that acts, Ad(exp(-t X_2)), acts on constant vectors (x_1, x_2 and
-ad(X_2) x_1), so their images are one real product with the (cos, sin)
pairs of lam t.  The left-trivialized velocity and its derivative follow
exactly, with no finite differences.  ``ad_exps`` still forms the
matrices, uncached, for the identity checks and the tests.

Every time-dependent method takes a scalar t or a 1-D array of T times by
one code path: an array adds a leading time axis, giving (T, d)
velocities, (T, d, d) Ad-exponentials and a (T, n, n) stack of lift
matrices, so a whole t-grid is one pass.
"""

from __future__ import annotations

import numpy as np

from . import accel
from .catalog import ReductiveDecomposition
from .core import ContextMismatchError, GroupElement


def _spectrum(A, size, *chol):
    # the spectral factors of exp(-t A); a zero A gets the identity's (P = Q = I, lam = 0)
    return accel.exp_factors(A, *chol) or (np.eye(size), np.zeros(size), np.eye(size))


class ProductExpCurve:
    """Curve t -> exp(t X_1) ... exp(t X_r) . o given by its factor list."""

    def __init__(self, dec: ReductiveDecomposition, factors):
        if not factors:
            raise ValueError("factor list must be non-empty")
        self.dec = dec
        self.factors = list(factors)
        ctx = dec.context
        for f in self.factors:
            if f.context is not ctx:
                raise ContextMismatchError("curve factors must live in the decomposition's context")
        # Ad(exp(-t X_1)) enters neither the velocity nor the defects, so
        # only the later factors get an ad matrix and a spectrum
        d = ctx.dim
        self._ad_mats = [ctx.ad_matrix(f.coeffs) for f in self.factors[1:]]
        chol = ctx.killing_chol, ctx.killing_chol_inv
        self._spectra = [_spectrum(A, d, *chol) for A in self._ad_mats]
        # A_2 = Ad(exp(-t X_2)) (the identity when r = 1) acts on constant
        # vectors v: x_1, x_2 and -ad(X_2) x_1, whose eigenbasis coordinates
        # Q v are u_1, u_2 and i lam u_1.  Re(P (exp(i lam t) * Q v)) is then
        # linear in the pairs (cos lam t, sin lam t), which are the real view
        # of exp(i lam t): one real (2d, 3d) matrix gives all three at any t
        P, lam, Q = self._spectra[0] if self._spectra else _spectrum(np.zeros((d, d)), d)
        x1, x2 = (self.factors + [ctx.zero()])[:2]
        u1 = Q @ x1.coeffs
        u = np.array([u1, Q @ x2.coeffs, 1j * lam * u1])
        # Re(z e) = Re(z) cos - Im(z) sin, the real view of conj(z) against that of e
        self._first = (P * u[:, None, :]).conj().view(np.float64).reshape(3 * d, 2 * d).T.copy()
        self._ilam = 1j * lam
        self._amb_spectra = None  # built on the first evaluate

    @property
    def context(self):
        return self.dec.context

    def ad_exps(self, t) -> list:
        """Coefficient-space matrices of Ad(exp(-t X_i)) for i = 2, ..., r:
        (d, d) each at a scalar t, (T, d, d) stacks at T times.  The velocity
        and the defects never form them (see ``transport``)."""
        return [accel.spectral_exp(*sp, t) for sp in self._spectra]

    def _first_step(self, t) -> np.ndarray:
        # A_2 x_1, A_2 x_2 and -A_2 ad(X_2) x_1: a (3, d) array, (T, 3, d) at T times
        cos_sin = np.exp(np.multiply.outer(t, self._ilam)).view(np.float64)
        return (cos_sin @ self._first).reshape(np.shape(t) + (3, -1))

    def transport(self, t) -> np.ndarray:
        """T(t) x_1 and T(t) x_2 for T(t) = Ad(exp(-t X_r) ... exp(-t X_2)),
        x_2 = 0 when r = 1: a (2, d) array, (T, 2, d) at a 1-D array of T
        times.  Each factor acts through its spectral factors in O(d^2) per
        vector and t, without forming its d x d exponential."""
        V = self._first_step(t)[..., :2, :]
        for sp in self._spectra[1:]:
            V = accel.spectral_apply(*sp, t, V)
        return V

    def evaluate(self, t):
        """Lift a(t) = exp(t X_1) ... exp(t X_r) in the ambient group: a
        GroupElement at a scalar t, a (T, n, n) array of lift matrices at a
        1-D array of T times."""
        n = self.context.ambient_size
        if self._amb_spectra is None:
            self._amb_spectra = [_spectrum(f.matrix, n) for f in self.factors]
        # the factors give exp(-s M), so exp(t M) is their value at s = -t
        M, *rest = (accel.spectral_exp(*sp, -t) for sp in self._amb_spectra)
        for E in rest:
            M = M @ E
        return M if accel.is_grid(t) else GroupElement(self.context, M)

    def body_velocity(self, t):
        """(w, w_dot) coefficient vectors of a^-1 a_dot and its t-derivative,
        or (T, d) arrays of them at a 1-D array of T times.

        w(t) = sum_i Ad(exp(-t X_r) ... exp(-t X_{i+1})) X_i; differentiating
        each Ad factor with d/dt Ad(exp(-t F)) = -ad(F) Ad(exp(-t F)) gives
        w_dot exactly.
        """
        # w_q = A_q w_{q-1} + X_q with A_q = Ad(exp(-t X_q)); as ad(X_q)
        # commutes with A_q, d/dt w_q = A_q (d/dt w_{q-1} - ad(X_q) w_{q-1}),
        # so one application of A_q moves both rows
        W = self._first_step(t)[..., ::2, :]
        if len(self.factors) > 1:
            W[..., 0, :] += self.factors[1].coeffs
        for f, sp, ad in zip(self.factors[2:], self._spectra[1:], self._ad_mats[1:]):
            W[..., 1, :] -= W[..., 0, :] @ ad.T
            W = accel.spectral_apply(*sp, t, W)
            W[..., 0, :] += f.coeffs
        return W[..., 0, :], W[..., 1, :]
