"""Hot numerical kernels: matrix exp/log, spectral exponentials of skew
matrices and structure-constant contractions.

Every group this package builds is orthogonal: ambient basis matrices are
skew, and coefficient-space Ad-exponentials exp(-t ad F) of a compact
algebra are exponentials of skew matrices in a -B-orthonormal frame.  One
Hermitian eigendecomposition per generator (``skew_eigh``) therefore gives
its exponential at every t to rounding accuracy (``spectral_exp``; Moler &
Van Loan, "Nineteen dubious ways to compute the exponential of a matrix,
25 years later", 2003), and ``logm`` inverts it through one symmetric
eigendecomposition.  ``expm`` is Pade-13 scaling and squaring for general
input; it serves ``matrix_exp``, ``twist`` and ``identity_checks``.
"""

import math

import numpy as np

# Pade-13 coefficients for the scaling-and-squaring exponential (Higham 2005).
_PADE13_B = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm(A):
    """exp(A) by scaling and squaring with a degree-13 Pade core; relative
    accuracy ~1e-15 for the skew/orthogonal-type inputs this package produces."""
    A = np.asarray(A, dtype=np.float64)
    n = A.shape[0]
    norm1 = np.abs(A).sum(axis=0).max()
    s = 0
    if norm1 > _THETA13:
        s = int(math.ceil(math.log2(norm1 / _THETA13)))
    As = A / (2.0**s)
    I = np.eye(n)
    A2 = As @ As
    A4 = A2 @ A2
    A6 = A2 @ A4
    b = _PADE13_B
    U = As @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * I
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * I
    )
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


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


def bracket_coeffs(c, x, y):
    """Coefficients of [x, y] from the structure-constant tensor:
    (x (x) y) against c viewed as a d^2 x d matrix, one matrix-vector product."""
    return (x[:, None] * y).ravel() @ c.reshape(-1, c.shape[-1])


def ad_matrix(c, x):
    """Matrix of ad(x) in the basis: (ad x)[k, j] = sum_i x_i c[i, j, k]."""
    return np.einsum("i,ijk->kj", x, c)
