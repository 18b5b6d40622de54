"""Algebra kernel tests against independent series-based oracles."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from wallach_geo import (
    AlgebraContext,
    ContextMismatchError,
    NotInAlgebraError,
    ReductiveDecomposition,
    SpaceDefinitionError,
    StructureError,
    SubspaceSelectorError,
    adjoint,
    bracket,
    build_so_blocks,
    killing_norm,
    matrix_exp,
)
from wallach_geo import accel
from wallach_geo.core import _jacobi_check, _nonzero_entries
from .conftest import dense_c, make_rng


def _spectral_expm(A):
    """exp(A) for a skew A from the package's spectral helper."""
    return accel.spectral_exp(*accel.exp_factors(A), -1.0)


def _expm_series(A, terms=30):
    """Plain Taylor series with scaling, an oracle independent of the
    spectral implementation."""
    s = 0
    norm = np.abs(A).sum(axis=0).max()
    while norm / 2**s > 0.5:
        s += 1
    B = A / 2**s
    out = np.eye(A.shape[0])
    P = np.eye(A.shape[0])
    for k in range(1, terms):
        P = P @ B / k
        out = out + P
    for _ in range(s):
        out = out @ out
    return out


def _random_skew(rng, n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M - M.T)


def test_expm_matches_taylor_series_oracle():
    rng = make_rng(1)
    for _ in range(10):
        A = _random_skew(rng, 6)
        assert np.abs(_spectral_expm(A) - _expm_series(A)).max() < 1e-13


def test_expm_flow_property():
    rng = make_rng(2)
    for _ in range(5):
        A = _random_skew(rng, 5)
        A /= np.linalg.norm(A, 2)
        s, t = rng.uniform(-5, 5, 2)
        lhs = _spectral_expm((s + t) * A)
        rhs = _spectral_expm(s * A) @ _spectral_expm(t * A)
        assert np.abs(lhs - rhs).max() < 1e-11


def test_logm_inverts_expm():
    rng = make_rng(3)
    for scale in (0.1, 1.0, 1.5):
        A = scale * _random_skew(rng, 5)
        assert np.abs(accel.logm(expm(A)) - A).max() < 1e-12 * max(1.0, scale)


def test_logm_recovers_skew_logarithms(spaces):
    """logm(expm(A)) = A for skew A of 2-norm 1e-9 ... 2: random n x n
    matrices for n = 3..9 and random elements of every suite algebra."""
    rng = make_rng(4)
    draws = [_random_skew(rng, n) for n in range(3, 10)]
    for dec in spaces.values():
        draws.append(dec.context.element(rng.standard_normal(dec.context.dim)).matrix)
    for S in draws:
        for norm in (1e-9, 1e-4, 0.1, 1.0, 2.0):
            A = S * (norm / np.linalg.norm(S, 2))
            err = np.linalg.norm(accel.logm(expm(A)) - A, 2)
            assert err <= 1e-14 * max(1.0, norm), (A.shape, norm, err)


def test_matrix_exp_matches_scipy_on_suite_spaces(spaces):
    """exp(tX) from one eigendecomposition agrees with scipy's Pade
    exponential to 1e-13 max(1, ||tX||_2) on every suite space."""
    rng = make_rng(13)
    for dec in spaces.values():
        X = dec.context.element(rng.standard_normal(dec.context.dim))
        for t in (1e-3, 0.4, 2.5):
            A = t * X.matrix
            err = np.abs(matrix_exp(X, t).matrix - expm(A)).max()
            assert err <= 1e-13 * max(1.0, np.linalg.norm(A, 2)), (dec.name, t, err)


def test_matrix_exp_at_zero_is_identity(stiefel3):
    X = stiefel3.random_module_vector("m1", make_rng(0))
    g = matrix_exp(X, 0.0)
    assert np.array_equal(g.matrix, np.eye(stiefel3.context.ambient_size))


def test_exp_of_zero_element_is_identity(stiefel3):
    g = matrix_exp(stiefel3.context.zero(), 1.7)
    assert np.abs(g.matrix - np.eye(stiefel3.context.ambient_size)).max() < 1e-15


def test_bracket_matches_ambient_commutator(spaces):
    rng = make_rng(4)
    for dec in spaces.values():
        ctx = dec.context
        x, y = rng.standard_normal((2, ctx.dim))
        X, Y = ctx.element(x), ctx.element(y)
        C = X.matrix @ Y.matrix - Y.matrix @ X.matrix
        assert np.abs(bracket(X, Y).matrix - C).max() < 1e-10


def test_adjoint_matches_ad_series(stiefel3):
    """Ad(exp(sX))Y against the exponential series of ad(X)."""
    ctx = stiefel3.context
    rng = make_rng(5)
    s = 0.3
    X = ctx.element(rng.standard_normal(ctx.dim))
    Y = ctx.element(rng.standard_normal(ctx.dim))
    term = Y
    acc = Y
    for k in range(1, 21):
        term = bracket(X, term) * (s / k)
        acc = acc + term
    got = adjoint(matrix_exp(X, s), Y)
    assert np.abs(got.coeffs - acc.coeffs).max() < 1e-12


def test_adjoint_of_identity_is_identity_map(su3):
    ctx = su3.context
    X = ctx.element(make_rng(6).standard_normal(ctx.dim))
    got = adjoint(ctx.identity(), X)
    assert np.abs(got.coeffs - X.coeffs).max() < 1e-12


def test_adjoint_is_an_automorphism(spaces):
    rng = make_rng(7)
    for dec in spaces.values():
        ctx = dec.context
        x, y, z = rng.standard_normal((3, ctx.dim))
        X, Y, Z = ctx.element(x), ctx.element(y), ctx.element(z)
        g = matrix_exp(Z, 0.4)
        lhs = adjoint(g, bracket(X, Y))
        rhs = bracket(adjoint(g, X), adjoint(g, Y))
        assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-10


def test_killing_form_so_n_trace_identity(spaces):
    """On so(N) the trace-form Killing identity is B(X,Y) = (N-2) tr(XY)."""
    for name in ("so-blocks(2,2,2)", "stiefel(3)"):
        dec = spaces[name]
        ctx = dec.context
        N = ctx.ambient_size
        rng = make_rng(8)
        X = ctx.element(rng.standard_normal(ctx.dim))
        Y = ctx.element(rng.standard_normal(ctx.dim))
        expect = (N - 2) * np.trace(X.matrix @ Y.matrix)
        got = X.coeffs @ ctx.killing @ Y.coeffs
        assert abs(got - expect) <= 1e-10 * abs(expect)


def test_killing_form_su3_trace_identity(su3):
    """In the realified embedding of su(3): B(X,Y) = 3 tr(XY) (real trace)."""
    ctx = su3.context
    rng = make_rng(9)
    X = ctx.element(rng.standard_normal(ctx.dim))
    Y = ctx.element(rng.standard_normal(ctx.dim))
    expect = 3.0 * np.trace(X.matrix @ Y.matrix)
    got = X.coeffs @ ctx.killing @ Y.coeffs
    assert abs(got - expect) <= 1e-10 * abs(expect)


def test_killing_norm_so3_generator(spaces):
    """Frozen value: a standard rotation generator of so(3) has B(L,L) = -2."""
    killing = spaces["so-blocks(1,1,1)"].context.killing
    assert killing[0, 0] == pytest.approx(-2.0, abs=1e-13)


def test_a_zero_norm_is_positive_zero(spaces):
    """killing_norm and norm_b of a zero vector, +0.0 or -0.0 in each
    coordinate, are +0.0, never -0.0, both for one vector and row by row for
    a stack; norm_b returns a Python float."""
    for dec in spaces.values():
        ctx = dec.context
        for zero in (np.zeros(ctx.dim), -np.zeros(ctx.dim)):
            norm = killing_norm(ctx, zero)
            assert norm == 0.0 and not np.signbit(norm)
            stacked = killing_norm(ctx, np.array([zero, zero, np.ones(ctx.dim)]))
            assert stacked.shape == (3,) and not np.signbit(stacked).any()
            assert not stacked[:2].any() and stacked[2] > 0.0
            norm = ctx.element(zero).norm_b()
            assert type(norm) is float and norm == 0.0 and not np.signbit(norm)


def test_quarter_turn_rotation_entries(spaces):
    """Frozen value: exp((pi/2) L) is the quarter-turn permutation matrix."""
    ctx = spaces["so-blocks(1,1,1)"].context
    L = ctx.element(np.eye(ctx.dim)[0])  # rotation in the (0, 1) plane
    R = matrix_exp(L, np.pi / 2).matrix
    expect = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(R - expect).max() < 1e-15


def test_coefficients_round_trip(su3):
    ctx = su3.context
    x = make_rng(10).standard_normal(ctx.dim)
    X = ctx.element(x)
    assert np.abs(ctx.coefficients_of(X.matrix) - x).max() < 1e-12


def test_matrix_outside_algebra_rejected(stiefel3):
    ctx = stiefel3.context
    sym = np.eye(ctx.ambient_size)  # symmetric, not in so(n+2)
    with pytest.raises(NotInAlgebraError):
        ctx.coefficients_of(sym)


def test_non_closed_basis_rejected():
    def skew(a, b):
        M = np.zeros((3, 3))
        M[a, b], M[b, a] = 1.0, -1.0
        return M

    with pytest.raises(StructureError):
        AlgebraContext("not-closed", [skew(0, 1), skew(0, 2)])


def test_dependent_basis_rejected():
    M = np.zeros((3, 3))
    M[0, 1], M[1, 0] = 1.0, -1.0
    with pytest.raises(StructureError):
        AlgebraContext("dependent", [M, 2.0 * M])


def test_bare_context_with_non_skew_basis_rejected():
    """so(3) conjugated by diag(1, 2, 3) is compact, but its basis is not
    skew: the context itself refuses it, so no exponential ever meets a
    non-orthogonal group."""
    D = np.diag([1.0, 2.0, 3.0])
    basis = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        E = np.zeros((3, 3))
        E[a, b], E[b, a] = 1.0, -1.0
        basis.append(D @ E @ np.linalg.inv(D))
    with pytest.raises(SpaceDefinitionError, match="skew-symmetric"):
        AlgebraContext("so3-conjugated", basis)


def _conjugated_basis(dec, seed):
    """The basis of dec conjugated by a random orthogonal matrix: the same
    algebra, whose structure constants carry rounding noise in every entry."""
    n = dec.context.ambient_size
    Q = np.linalg.qr(make_rng(seed).standard_normal((n, n)))[0]
    return np.einsum("ab,ibc,dc->iad", Q, dec.context.basis, Q)


def test_context_construction_memory_is_bounded():
    """The Jacobi check multiplies only pairs of nonzero structure constants,
    in blocks, and drops rounding noise first, and the constructor frees each
    d^2 n^2 product once its check has read it: building the so-blocks(3,3,4)
    context (d = 45, n = 10), whose d^4 tensor alone would take 31 MiB and
    each d^2 n^2 product 1.5 MiB, peaks at 3.8 MiB traced (bound 6 MiB), and
    at 6.2 MiB (bound 9 MiB) on a conjugated basis whose c has 89,100 nonzero
    entries of which 720 are genuine.  The live context holds c only as its
    entry list: beyond the list, it retains at most 0.5 MiB."""
    dec = build_so_blocks(3, 3, 4)
    for basis, bound in ((dec.context.basis, 6), (_conjugated_basis(dec, 16), 9)):
        tracemalloc.start()
        try:
            ctx = AlgebraContext("so-blocks(3,3,4)", basis)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * 2**20, peak
        listed = sum(a.nbytes for a in ctx.structure_entries)
        assert retained <= listed + 2**19, (retained, listed)


def _chunked_jacobi(c, chunk=2**17):
    """max|J| and max|T| by three GEMMs over each chunk of the first index,
    a dense reference for the sparse Jacobi check."""
    d = c.shape[0]
    rows = max(1, chunk // d**3)
    residual = t_max = 0.0
    for s in range(0, d, rows):
        ix = slice(s, s + rows)
        T = (c[ix].reshape(-1, d) @ c.reshape(d, -1)).reshape(-1, d, d, d)
        T_kij = (c[:, ix].reshape(-1, d) @ c.reshape(d, -1)).reshape(d, -1, d, d)
        T_jki = (c.reshape(-1, d) @ c[:, ix].reshape(d, -1)).reshape(d, d, -1, d)
        jac = T + T_kij.transpose(1, 2, 0, 3) + T_jki.transpose(2, 0, 1, 3)
        residual = max(residual, float(np.abs(jac).max()))
        t_max = max(t_max, float(np.abs(T).max()))
    return residual, t_max


def _jacobi(c, tol):
    """The Jacobi check of a bare array c, through its listed nonzero entries."""
    return _jacobi_check(_nonzero_entries(c), len(c), tol)


def test_jacobi_check_matches_the_dense_formula(spaces):
    """On catalog c every product is exact, so both checks read a residual of
    0.0 and the same max|T|; with five entries moved by 1e-3 both read the same
    residual, and the check fails.  A zero c passes at tol 0."""
    rng = make_rng(15)
    for name, dec in spaces.items():
        c = dense_c(dec.context)
        assert _jacobi(c, 1e-12) == (0.0, _chunked_jacobi(c)[1], True), name
        bent = c.copy()
        bent.ravel()[rng.choice(c.size, 5, replace=False)] += 1e-3
        residual, t_max, ok = _jacobi(bent, 1e-12)
        assert np.allclose((residual, t_max), _chunked_jacobi(bent), rtol=1e-12, atol=0), name
        assert residual >= 1e-3 and not ok, name
    assert _jacobi(np.zeros((2, 2, 2)), 0.0) == (0.0, 0.0, True)


def test_jacobi_check_matches_the_dense_formula_on_dense_input():
    """Random c, with no zeros, no antisymmetry and nonzero c[i, i, l]: the
    pass runs over more than 20 blocks and still reads the dense values."""
    c = make_rng(17).standard_normal((20, 20, 20))
    residual, t_max, ok = _jacobi(c, 1e-12)
    assert np.allclose((residual, t_max), _chunked_jacobi(c), rtol=1e-12, atol=0)
    assert not ok


def test_jacobi_check_bounds_the_dropped_noise():
    """On a conjugated so(5) basis the check drops the noise entries of c (900
    nonzero, 60 genuine) and charges their bound, which stays under a tenth of
    the threshold: never below the dense residual, nor far above it."""
    basis = _conjugated_basis(build_so_blocks(1, 2, 2), 13)
    c = dense_c(AlgebraContext("so5-conjugated", basis))
    assert np.count_nonzero(c) == 900
    residual, t_max, ok = _jacobi(c, 1e-12)
    want_residual, want_t_max = _chunked_jacobi(c)
    # dropping entries of size <= noise moves each T entry by at most charge
    noise = np.abs(c[np.abs(c) < 1e-8]).max()
    charge = c.shape[0] * noise * (2 * np.abs(c).max() + noise)
    bound = 0.1 * 1e-12
    assert ok and 3 * charge <= bound
    assert max(want_residual, 3 * charge) <= residual <= want_residual + bound
    assert want_t_max - bound <= t_max <= want_t_max


def test_projection_selectors(stiefel3):
    ctx = stiefel3.context
    rng = make_rng(11)
    X = ctx.element(rng.standard_normal(ctx.dim))
    parts = [stiefel3.project(X, p) for p in ("k", "m1", "m2", "m3")]
    total = sum(parts[1:], parts[0])
    assert np.abs(total.coeffs - X.coeffs).max() == 0.0
    with pytest.raises(SubspaceSelectorError):
        stiefel3.project(X, "m7")


def test_projection_belongs_to_its_decomposition(spaces):
    """Each decomposition projects with its own parts, whatever other
    decomposition shares its context, and refuses an element of another
    context."""
    stiefel3, su3 = spaces["stiefel(3)"], spaces["su3-flag"]
    ctx = stiefel3.context
    X = ctx.element(make_rng(14).standard_normal(ctx.dim))
    want = stiefel3.project(X, "m1").coeffs
    # the same basis, split with k and m1 exchanged
    parts = {**stiefel3.part_indices, "k": stiefel3.part_indices["m1"],
             "m1": stiefel3.part_indices["k"]}
    other = ReductiveDecomposition(ctx, {p: parts[p] for p in ("k", "m1", "m2", "m3")},
                                   verify=False)
    assert np.array_equal(other.project(X, "k").coeffs, want)
    assert np.array_equal(stiefel3.project(X, "m1").coeffs, want)
    with pytest.raises(ContextMismatchError):
        su3.project(X, "m")


def test_group_element_orthogonality_drift(stiefel3):
    X = stiefel3.random_module_vector("m1", make_rng(12))
    M = matrix_exp(X, 1.3).matrix
    assert np.abs(M.T @ M - np.eye(M.shape[0])).max() < 1e-13


def _einsum_context(basis):
    """Structure constants, Killing matrix and its Cholesky factor by the
    plain einsum formulas, a reference for the GEMM construction."""
    gram_inv = np.linalg.inv(np.einsum("aij,bij->ab", basis, basis))
    comms = np.einsum("aij,bjk->abik", basis, basis)
    comms = comms - np.transpose(comms, (1, 0, 2, 3))
    c = np.einsum("cij,abij->abc", basis, comms) @ gram_inv.T
    ad = np.transpose(c, (0, 2, 1))
    killing = np.einsum("ikl,jlk->ij", ad, ad)
    return c, killing, np.linalg.cholesky(-killing)


def test_context_matches_einsum_formulas(spaces):
    """On the catalog bases every product is exact, so the GEMMs give the
    einsum values bit for bit; on a conjugated so(5) basis they agree to
    rounding."""
    for name, dec in spaces.items():
        ctx = dec.context
        for got, want in zip(
            (dense_c(ctx), ctx.killing, ctx.killing_chol), _einsum_context(ctx.basis)
        ):
            assert np.array_equal(got, want), name
    basis = _conjugated_basis(build_so_blocks(1, 2, 2), 13)
    ctx = AlgebraContext("so5-conjugated", basis)
    for got, want in zip(
        (dense_c(ctx), ctx.killing, ctx.killing_chol), _einsum_context(basis)
    ):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _so3_skew(a, b):
    M = np.zeros((3, 3))
    M[a, b], M[b, a] = 1.0, -1.0
    return M


_D = np.diag([1.0, 2.0, 3.0])
_CONJUGATED = [_D @ _so3_skew(a, b) @ np.linalg.inv(_D) for a, b in ((0, 1), (0, 2), (1, 2))]
# [E_01, E_12] = E_02 with E_02 central: no nonzero c[i, j, l] meets a nonzero
# c[l, k, m], so the Jacobi check has no pair to sum
_HEISENBERG = [np.outer(np.eye(3)[a], np.eye(3)[b]) for a, b in ((0, 1), (1, 2), (0, 2))]
_BOOSTS = [np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]]), np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]])]


@pytest.mark.parametrize(
    "name, basis, error, message",
    [
        ("dependent", [_so3_skew(0, 1), 2.0 * _so3_skew(0, 1)], StructureError,
         "dependent: basis matrices are linearly dependent"),
        ("not-closed", [_so3_skew(0, 1), _so3_skew(0, 2)], StructureError,
         r"not-closed: commutators leave the basis span \(residual 1\.000e\+00\)"),
        ("non-skew", _CONJUGATED, SpaceDefinitionError,
         r"non-skew: ambient basis matrices are not skew-symmetric \("),
        ("so(2,1)", [_so3_skew(0, 1)] + _BOOSTS, SpaceDefinitionError,
         r"so\(2,1\): -B is not positive definite \(g is not compact semisimple\)"),
        ("heisenberg", _HEISENBERG, SpaceDefinitionError,
         r"heisenberg: -B is not positive definite \(g is not compact semisimple\)"),
    ],
)
def test_context_errors_keep_their_messages(name, basis, error, message):
    with pytest.raises(error, match=f"^{message}"):
        AlgebraContext(name, basis)
