"""Product-of-exponential curves and their body velocities.

A curve t -> exp(t X_1) ... exp(t X_r) . o is evaluated in the ambient
group, while velocities are computed exactly in coordinates through the
adjoint representation: Ad(exp(-t F)) acts on coefficient vectors as
exp(-t ad F).  The curve owns both kinds of exponential.  ad F is skew in
a -B-orthonormal frame and the ambient factors are skew matrices, so one
eigendecomposition per factor gives its exponential at any t as one matrix
product, cached per t.  The Ad spectra are taken at construction; the
ambient ones on the first ``evaluate``, so a defect sweep that never
evaluates pays nothing for them.  The left-trivialized velocity and its
derivative are finite products of dim x dim matrices (no finite
differences).
"""

from __future__ import annotations

import numpy as np

from . import accel
from .catalog import ReductiveDecomposition
from .core import AlgebraElement, ContextMismatchError, GroupElement


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
                raise ContextMismatchError(
                    "curve factors must live in the decomposition's context"
                )
        # Ad(exp(-t X_1)) enters neither the velocity nor the defects, so
        # only the later factors get an ad matrix and a spectrum
        self._ad_mats = [ctx.ad_matrix(f.coeffs) for f in self.factors[1:]]
        L, L_inv = ctx.killing_chol, ctx.killing_chol_inv
        self._spectra = [accel.exp_factors(A, L, L_inv) for A in self._ad_mats]
        self._eye = np.eye(ctx.dim)
        self._amb_spectra = None  # built on the first evaluate
        # per-t caches of factor exponentials, reused across grid sweeps
        self._amb_cache: dict[float, list] = {}
        self._ad_cache: dict[float, list] = {}

    @property
    def context(self):
        return self.dec.context

    def _ambient_exps(self, t: float):
        exps = self._amb_cache.get(t)
        if exps is None:
            if self._amb_spectra is None:
                self._amb_spectra = [accel.exp_factors(f.matrix) for f in self.factors]
            # the factors give exp(-s M), so exp(t M) is their value at s = -t
            exps = [
                np.eye(self.context.ambient_size) if sp is None else accel.spectral_exp(*sp, -t)
                for sp in self._amb_spectra
            ]
            self._amb_cache[t] = exps
        return exps

    def ad_exps(self, t: float) -> list:
        """Coefficient-space matrices of Ad(exp(-t X_i)) for i = 2, ..., r."""
        exps = self._ad_cache.get(t)
        if exps is None:
            exps = [
                self._eye if sp is None else accel.spectral_exp(*sp, t)
                for sp in self._spectra
            ]
            self._ad_cache[t] = exps
        return exps

    def evaluate(self, t: float) -> GroupElement:
        """Lift a(t) = exp(t X_1) ... exp(t X_r) in the ambient group."""
        exps = self._ambient_exps(t)
        M = exps[0]
        for E in exps[1:]:
            M = M @ E
        return GroupElement(self.context, M)

    def body_velocity(self, t: float):
        """(w, w_dot) coefficient vectors of a^-1 a_dot and its t-derivative.

        w(t) = sum_i Ad(exp(-t X_r) ... exp(-t X_{i+1})) X_i; differentiating
        each Ad factor with d/dt Ad(exp(-t F)) = -ad(F) Ad(exp(-t F)) gives
        w_dot exactly.
        """
        # w_q = A_q w_{q-1} + X_q with A_q = Ad(exp(-t X_q)); as ad(X_q)
        # commutes with A_q, d/dt w_q = A_q d/dt w_{q-1} - ad(X_q) A_q w_{q-1}
        w = self.factors[0].coeffs.copy()
        wdot = np.zeros(self.context.dim)
        for f, A, ad in zip(self.factors[1:], self.ad_exps(t), self._ad_mats):
            Aw = A @ w
            wdot = A @ wdot - ad @ Aw
            w = Aw + f.coeffs
        return w, wdot

    def initial_velocity(self) -> AlgebraElement:
        """gamma_dot(0) pulled back to m: the m-part of the factor sum."""
        total = sum((f.coeffs for f in self.factors), np.zeros(self.context.dim))
        return AlgebraElement(self.context, total * self.dec.part_masks["m"])
