"""Hot numerical kernels: spectral exponentials of skew matrices, the
logarithm of an orthogonal matrix and the two contractions of the
structure constants, brackets and ad matrices, each one ``bincount`` over
c's listed nonzero entries, so neither does d^3 work.

``AlgebraContext`` admits only compact algebras with skew basis matrices,
so ambient generators are skew, and so is ad F in a -B-orthonormal frame.
One Hermitian eigendecomposition per generator (``exp_factors``) gives its
exponential at every t to rounding accuracy (``spectral_exp``; Moler & Van
Loan, "Nineteen dubious ways to compute the exponential of a matrix, 25
years later", 2003): the package's only matrix exponential.  Where only a
few vectors are needed, ``spectral_apply`` applies it to them in O(d^2)
each without forming it.  ``logm`` inverts it through one symmetric
eigendecomposition.
"""

import numpy as np


def logm(A, sym_eigh=None):
    """Principal logarithm of a real orthogonal A with no eigenvalue -1, or
    of each matrix in a (T, n, n) stack.

    The symmetric and skew parts S = (A + A^T)/2 and K = (A - A^T)/2 of a
    normal A commute, and K = i sin(theta) where S = cos(theta), so
    log A = K V diag(theta / sin theta) V^T with (cos theta, V) = eigh(S)
    (Higham, "Functions of Matrices", 2008, ch. 11).  theta / sin theta is
    1 / sinc(theta / pi), exact at theta = 0.  A caller that has already
    formed eigh(S) passes it as ``sym_eigh``.
    """
    A = np.asarray(A, dtype=np.float64)
    At = np.swapaxes(A, -1, -2)
    cos_theta, V = np.linalg.eigh(0.5 * (A + At)) if sym_eigh is None else sym_eigh
    theta = np.arccos(np.clip(cos_theta, -1.0, 1.0))
    return (0.5 * (A - At)) @ (V / np.sinc(theta / np.pi)[..., None, :]) @ np.swapaxes(V, -1, -2)


def skew_eigh(S):
    """(lam, V) with exp(-t S) = V diag(exp(i lam t)) V^H for a real skew S.

    One eigendecomposition of the Hermitian matrix i S; S is antisymmetrized
    first so rounding in its assembly cannot break the Hermitian symmetry.
    """
    return np.linalg.eigh(0.5j * (S - S.T))


def spectral_exp(P, lam, Q, t):
    """Re(P diag(exp(i lam t)) Q): a matrix exponential at t from its spectral
    factors, one complex product (a (T, d, d) stack at T times)."""
    return ((P * np.exp(1j * np.multiply.outer(t, lam))[..., None, :]) @ Q).real


def spectral_apply(P, lam, Q, t, V):
    """exp(-t A) v = Re(P (exp(i lam t) * Q v)) for each row v of the
    (..., k, d) array V, from the factors of A: O(d^2) per vector and t,
    where ``spectral_exp`` forms the d x d matrix at O(d^3).  At a 1-D array
    of T times V is (T, k, d), or broadcasts to it."""
    return (((V @ Q.T) * np.exp(1j * np.multiply.outer(t, lam))[..., None, :]) @ P.T).real


def exp_factors(A, L=None, L_inv=None):
    """(P, lam, Q) with exp(-t A) = ``spectral_exp(P, lam, Q, t)``; a zero A
    gets the identity's (P = Q = I, lam = 0), complex like any other's.  A
    is skew, or, given the Cholesky factor L of -B, S = L^T A L^-T is skew
    and exp(-t A) = L^-T exp(-t S) L^T."""
    if not A.any():
        eye = np.eye(len(A), dtype=complex)
        return eye, np.zeros(len(A)), eye
    if L is None:
        lam, V = skew_eigh(A)
        return V, lam, V.conj().T
    lam, V = skew_eigh(L.T @ A @ L_inv.T)
    return L_inv.T @ V, lam, V.conj().T @ L.T


def is_grid(t) -> bool:
    """Whether t is a 1-D array of times rather than a scalar time."""
    return isinstance(t, np.ndarray) and t.ndim > 0


def contract(flat, table, values):
    """A sparse bilinear map (``catalog.ContractionTable``) with the given
    entry values on a flat vector, or on each row of a (T, n) stack: both
    factors taken from it, one product per entry and one sum per output
    run."""
    v = flat.take(table.ab, axis=-1)
    prod = v[..., 0, :] * v[..., 1, :]
    prod *= values
    return np.add.reduceat(prod, table.starts, axis=-1)


def bracket_coeffs(entries, x, y):
    """Coefficients of [x, y], sum x_i y_j c[i, j, l] over c's entries listed
    as (i, j, l, c) (``AlgebraContext.structure_entries``): one ``bincount``."""
    i, j, l, c = entries
    return np.bincount(l, weights=x[i] * y[j] * c, minlength=len(x))


def ad_matrix(entries, x):
    """Matrix of ad(x), (ad x)[l, j] = sum_i x_i c[i, j, l]: one ``bincount``."""
    (i, j, l, c), d = entries, len(x)
    return np.bincount(l * d + j, weights=x[i] * c, minlength=d * d).reshape(d, d)
