"""Hot numerical kernels: spectral exponentials of skew matrices, the
logarithm of an orthogonal matrix and structure-constant contractions.

``AlgebraContext`` admits only compact algebras with skew basis matrices,
so ambient generators are skew, and so is ad F in a -B-orthonormal frame.
One Hermitian eigendecomposition per generator (``exp_factors``) gives its
exponential at every t to rounding accuracy (``spectral_exp``; Moler & Van
Loan, "Nineteen dubious ways to compute the exponential of a matrix, 25
years later", 2003): the package's only matrix exponential.  ``logm``
inverts it through one symmetric eigendecomposition.
"""

import numpy as np


def logm(A, sym_eigh=None):
    """Principal logarithm of a real orthogonal A with no eigenvalue -1.

    The symmetric and skew parts S = (A + A^T)/2 and K = (A - A^T)/2 of a
    normal A commute, and K = i sin(theta) where S = cos(theta), so
    log A = K V diag(theta / sin theta) V^T with (cos theta, V) = eigh(S)
    (Higham, "Functions of Matrices", 2008, ch. 11).  theta / sin theta is
    1 / sinc(theta / pi), exact at theta = 0.  A caller that has already
    formed eigh(S) passes it as ``sym_eigh``.
    """
    A = np.asarray(A, dtype=np.float64)
    cos_theta, V = np.linalg.eigh(0.5 * (A + A.T)) if sym_eigh is None else sym_eigh
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    return (0.5 * (A - A.T)) @ (V / np.sinc(theta / np.pi)) @ V.T


def skew_eigh(S):
    """(lam, V) with exp(-t S) = V diag(exp(i lam t)) V^H for a real skew S.

    One eigendecomposition of the Hermitian matrix i S; S is antisymmetrized
    first so rounding in its assembly cannot break the Hermitian symmetry.
    """
    return np.linalg.eigh(0.5j * (S - S.T))


def spectral_exp(P, lam, Q, t):
    """Re(P diag(exp(i lam t)) Q): a matrix exponential at t from its
    spectral factors, one complex matrix product."""
    return ((P * np.exp(1j * t * lam)) @ Q).real


def exp_factors(A, L=None, L_inv=None):
    """(P, lam, Q) with exp(-t A) = ``spectral_exp(P, lam, Q, t)``, or None
    when A = 0.  A is skew, or, given the Cholesky factor L of -B,
    S = L^T A L^-T is skew and exp(-t A) = L^-T exp(-t S) L^T."""
    if not A.any():
        return None
    if L is None:
        lam, V = skew_eigh(A)
        return V, lam, V.conj().T
    lam, V = skew_eigh(L.T @ A @ L_inv.T)
    return L_inv.T @ V, lam, V.conj().T @ L.T


def bracket_coeffs(c, x, y):
    """Coefficients of [x, y] from the structure-constant tensor:
    (x (x) y) against c viewed as a d^2 x d matrix, one matrix-vector product."""
    return (x[:, None] * y).ravel() @ c.reshape(-1, c.shape[-1])


def ad_matrix(c, x):
    """Matrix of ad(x) in the basis: (ad x)[k, j] = sum_i x_i c[i, j, k]."""
    return np.einsum("i,ijk->kj", x, c)
