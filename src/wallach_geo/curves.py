"""Product-of-exponential curves and their body velocities.

A curve t -> exp(t X_1) ... exp(t X_r) . o is evaluated in the ambient
group, while velocities are computed exactly in coordinates through the
adjoint representation: Ad(exp(-t F)) acts on coefficient vectors as
exp(-t ad F).  The curve owns both kinds of exponential.  ad F is skew in
a -B-orthonormal frame and the ambient factors are skew matrices, so one
eigendecomposition per factor gives its exponential at any t as one matrix
product.  The Ad spectra are taken at construction; the ambient ones on
the first ``evaluate``, so a defect sweep that never evaluates pays
nothing for them.  The left-trivialized velocity and its derivative are
finite products of dim x dim matrices (no finite differences).

Every time-dependent method takes a scalar t or a 1-D array of T times.
An array gives the same formulas with a leading time axis: (T, d, d)
Ad-exponentials from one product per factor, (T, d) velocities and a
(T, n, n) stack of lift matrices, so a whole t-grid is one pass.  The
Ad-exponentials, which the velocity and the defects share, are cached per
scalar t and per grid.
"""

from __future__ import annotations

import numpy as np

from . import accel
from .catalog import ReductiveDecomposition
from .core import ContextMismatchError, GroupElement


def along_time(t, x):
    """A copy of the vector x, repeated along the time axis of an array t;
    a curve with a single factor has no Ad-exponential to carry that axis."""
    return np.tile(x, (len(t), 1)) if accel.is_grid(t) else x.copy()


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
        self._ad_mats = [ctx.ad_matrix(f.coeffs) for f in self.factors[1:]]
        L, L_inv = ctx.killing_chol, ctx.killing_chol_inv
        self._spectra = [accel.exp_factors(A, L, L_inv) for A in self._ad_mats]
        self._amb_spectra = None  # built on the first evaluate
        # Ad-exponentials per scalar t (float key) or per grid (its bytes)
        self._ad_cache: dict = {}

    @property
    def context(self):
        return self.dec.context

    def _exps(self, spectra, t, size, sign):
        # (size, size) exponentials at a scalar t, (T, size, size) stacks at T times
        return [
            np.broadcast_to(np.eye(size), np.shape(t) + (size, size)) if sp is None
            else accel.spectral_exp(*sp, sign * t)
            for sp in spectra
        ]

    def ad_exps(self, t) -> list:
        """Coefficient-space matrices of Ad(exp(-t X_i)) for i = 2, ..., r:
        (d, d) each at a scalar t, (T, d, d) stacks at T times; cached."""
        key = t.tobytes() if accel.is_grid(t) else t
        exps = self._ad_cache.get(key)
        if exps is None:
            exps = self._ad_cache[key] = self._exps(self._spectra, t, self.context.dim, 1.0)
        return exps

    def evaluate(self, t):
        """Lift a(t) = exp(t X_1) ... exp(t X_r) in the ambient group: a
        GroupElement at a scalar t, a (T, n, n) array of lift matrices at a
        1-D array of T times."""
        if self._amb_spectra is None:
            self._amb_spectra = [accel.exp_factors(f.matrix) for f in self.factors]
        # the factors give exp(-s M), so exp(t M) is their value at s = -t
        M, *rest = self._exps(self._amb_spectra, t, self.context.ambient_size, -1.0)
        for E in rest:
            M = M @ E
        return M if accel.is_grid(t) else GroupElement(self.context, M)

    def body_velocity(self, t):
        """(w, w_dot) coefficient vectors of a^-1 a_dot and its t-derivative,
        or (T, d) stacks of them at a 1-D array of T times.

        w(t) = sum_i Ad(exp(-t X_r) ... exp(-t X_{i+1})) X_i; differentiating
        each Ad factor with d/dt Ad(exp(-t F)) = -ad(F) Ad(exp(-t F)) gives
        w_dot exactly.
        """
        # w_q = A_q w_{q-1} + X_q with A_q = Ad(exp(-t X_q)); as ad(X_q)
        # commutes with A_q, d/dt w_q = A_q d/dt w_{q-1} - ad(X_q) A_q w_{q-1}
        w = along_time(t, self.factors[0].coeffs)
        wdot = np.zeros(w.shape)
        for f, A, ad in zip(self.factors[1:], self.ad_exps(t), self._ad_mats):
            Aw = accel.apply(A, w)
            wdot = accel.apply(A, wdot) - accel.apply(ad, Aw)
            w = Aw + f.coeffs
        return w, wdot
