"""Catalog builders, structural verification and the grouped views."""

import json
import tracemalloc

import numpy as np
import pytest

from wallach_geo import (
    AlgebraContext,
    AlgebraElement,
    DegenerateSpaceError,
    DiagonalMetric,
    GroupingInvalidError,
    ProductExpCurve,
    ReductiveDecomposition,
    SpaceDefinitionError,
    TwoSummandView,
    build_product_spheres,
    build_so_blocks,
    build_stiefel,
    connection_defect,
    load_space_json,
    verify_fibration,
    verify_structure,
)
from wallach_geo import accel
from .conftest import counterexample_swapped, dense_c, make_rng, rotated, sheared

EXPECTED_DIMS = {
    "so-blocks(1,1,1)": (1, 1, 1),
    "so-blocks(2,2,2)": (4, 4, 4),
    "so-blocks(2,3,4)": (6, 8, 12),
    "stiefel(2)": (2, 2, 1),
    "stiefel(3)": (3, 3, 1),
    "su3-flag": (2, 2, 2),
    "product-spheres": (2, 2, 2),
}


def test_module_dimensions_frozen(spaces):
    for name, dec in spaces.items():
        assert dec.module_dims() == EXPECTED_DIMS[name]


def test_parts_partition_the_algebra(spaces):
    for dec in spaces.values():
        total = sum(len(dec.part_indices[p]) for p in ("k", "m1", "m2", "m3"))
        assert total == dec.context.dim
        proj_sum = sum(np.diag(dec.part_masks[p]) for p in ("k", "m1", "m2", "m3"))
        assert np.abs(proj_sum - np.eye(dec.context.dim)).max() <= 1e-12


def test_structure_relations_hold(spaces):
    for dec in spaces.values():
        report = verify_structure(dec)
        assert report.verdict, [c.name for c in report.checks if not c.passed]
        assert report.max_residual() <= 1e-12


def test_so_blocks_555_builds_and_verifies():
    """A mid-size space (d = 105) builds with the sparse Jacobi check, passes
    every structure relation and keeps an exact Jacobi residual of 0.0."""
    dec = build_so_blocks(5, 5, 5)
    assert dec.context.dim == 105
    report = verify_structure(dec)
    assert report.verdict, [c.name for c in report.checks if not c.passed]
    assert dec.context._jacobi_residual == 0.0


def test_verify_structure_is_idempotent(stiefel3):
    r1 = verify_structure(stiefel3)
    r2 = verify_structure(stiefel3)
    assert [c.max_residual for c in r1.checks] == [c.max_residual for c in r2.checks]


def test_cross_module_bracket_lands_in_third_module(stiefel3):
    rng = make_rng(0)
    X1 = stiefel3.random_module_vector("m1", rng)
    X2 = stiefel3.random_module_vector("m2", rng)
    B = accel.bracket_coeffs(stiefel3.context.structure_entries, X1.coeffs, X2.coeffs)
    outside = np.abs(B * (1.0 - stiefel3.part_masks["m3"])).max()
    assert outside <= 1e-12 * max(1.0, np.abs(B).max())


def test_fibrations_pass_for_all_spaces(spaces):
    for dec in spaces.values():
        for i in (1, 2, 3):
            report = verify_fibration(dec, i)
            assert report.verdict, (dec.name, i)
            assert report.max_residual() <= 1e-12


def test_commuting_pairs_flags(spaces):
    assert spaces["product-spheres"].commuting_pairs == {(1, 2), (1, 3), (2, 3)}
    assert spaces["stiefel(3)"].commuting_pairs == frozenset()
    assert spaces["so-blocks(2,3,4)"].commuting_pairs == frozenset()


def test_equivalence_note_on_stiefel(spaces):
    assert spaces["stiefel(3)"].equivalence_note
    assert spaces["so-blocks(2,2,2)"].equivalence_note == ""


def test_two_summand_view_valid_groupings(spaces):
    view = TwoSummandView(spaces["stiefel(3)"], 3)
    assert view.M2_part == "m3"
    for i in (1, 2, 3):
        TwoSummandView(spaces["product-spheres"], i)


def test_two_summand_view_valid_for_any_module(spaces):
    # the defining bracket relations make every grouping admissible
    for i in (1, 2, 3):
        view = TwoSummandView(spaces["so-blocks(2,2,2)"], i)
        assert view.M2_part == f"m{i}"


def test_two_summand_view_invalid_grouping():
    # a corrupted decomposition leaks brackets outside the grouped summands
    bad = counterexample_swapped()
    with pytest.raises(GroupingInvalidError):
        TwoSummandView(bad, 1)


def test_degenerate_dimensions_rejected():
    with pytest.raises(DegenerateSpaceError):
        build_so_blocks(0, 2, 2)
    with pytest.raises(DegenerateSpaceError):
        build_stiefel(1)


def test_random_module_vector_is_unit_norm(su3):
    v = su3.random_module_vector("m2", make_rng(3))
    assert v.norm_b() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(v.coeffs * su3.part_masks["m2"], v.coeffs)


def test_json_space_round_trip(tmp_path, so222):
    data = {
        "name": "round-trip",
        "ambient_size": so222.context.ambient_size,
        "basis": [M.tolist() for M in so222.context.basis],
        "parts": {p: [int(i) for i in so222.part_indices[p]] for p in ("k", "m1", "m2", "m3")},
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    dec = load_space_json(path)
    assert dec.module_dims() == so222.module_dims()
    assert verify_structure(dec).verdict


def test_json_space_schema_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x"}))
    with pytest.raises(SpaceDefinitionError):
        load_space_json(path)
    path.write_text("not json at all")
    with pytest.raises(SpaceDefinitionError):
        load_space_json(path)


def test_corrupted_decomposition_fails_verification():
    bad = counterexample_swapped()
    report = verify_structure(bad)
    assert not report.verdict
    assert report.max_residual() > 0.1


def _inclusion_residual(dec, part_a, part_b, allowed):
    """Largest coefficient of [part_a, part_b] outside the allowed parts, by a
    scan of every basis pair: the reference for the part-block table."""
    c = dense_c(dec.context)
    ia, ib = dec.part_indices[part_a], dec.part_indices[part_b]
    if len(ia) == 0 or len(ib) == 0:
        return 0.0
    mask = np.zeros(dec.context.dim)
    for p in allowed:
        mask = np.maximum(mask, dec.part_masks[p])
    return float(np.abs(c[np.ix_(ia, ib)] * (1.0 - mask)).max())


def _pairs_residual(dec, parts_a, parts_b, allowed):
    return max(_inclusion_residual(dec, a, b, allowed) for a in parts_a for b in parts_b)


PARTS = ("k", "m1", "m2", "m3")


def _scattered(dec, seed):
    """The same split with its basis in a random order, so that no part is
    a contiguous index range."""
    perm = make_rng(seed).permutation(dec.context.dim)
    where = np.argsort(perm)  # new position of each old basis index
    ctx = AlgebraContext(dec.name + " (scattered)", dec.context.basis[perm])
    parts = {p: sorted(where[dec.part_indices[p]].tolist()) for p in PARTS}
    return ReductiveDecomposition(ctx, parts, verify=False)


def test_part_block_residuals_match_basis_pair_scan(spaces):
    """Every residual read from the part-block table equals the basis-pair
    scan exactly, on contiguous parts and on scattered (gathered) ones."""
    swapped = counterexample_swapped()
    scattered = [_scattered(spaces["so-blocks(2,3,4)"], 1), _scattered(swapped, 2)]
    for dec in [*spaces.values(), swapped, *scattered]:
        for a in PARTS:
            for b in PARTS:
                for n in range(16):
                    allowed = tuple(p for q, p in enumerate(PARTS) if n >> q & 1)
                    got = dec.bracket_residual((a,), (b,), allowed)
                    assert got == _inclusion_residual(dec, a, b, allowed), (dec.name, a, b, allowed)

        tol = dec.context.tol_structural
        want = [_inclusion_residual(dec, "k", m, (m,)) for m in PARTS[1:]]
        want += [_inclusion_residual(dec, m, m, ("k",)) for m in PARTS[1:]]
        want += [_inclusion_residual(dec, a, b, (c,))
                 for a, b, c in (("m1", "m2", "m3"), ("m1", "m3", "m2"), ("m2", "m3", "m1"))]
        want.append(_inclusion_residual(dec, "k", "k", ("k",)))
        assert [c.max_residual for c in verify_structure(dec).checks[1:]] == want, dec.name
        pairs = {(i, j) for i, j in ((1, 2), (1, 3), (2, 3))
                 if _inclusion_residual(dec, f"m{i}", f"m{j}", ()) <= tol}
        assert dec.commuting_pairs == pairs, dec.name

        for i in (1, 2, 3):
            gi = ("k", f"m{i}")
            mprime = tuple(f"m{q}" for q in (1, 2, 3) if q != i)
            want = [_pairs_residual(dec, gi, gi, gi), _pairs_residual(dec, mprime, mprime, gi),
                    _pairs_residual(dec, gi, mprime, mprime)]
            assert [c.max_residual for c in verify_fibration(dec, i).checks[:3]] == want
            M1, M2 = mprime, (f"m{i}",)
            view = [
                ("[M2, M2] in k", _pairs_residual(dec, M2, M2, ("k",))),
                ("[M1, M1] in k+M2", _pairs_residual(dec, M1, M1, ("k",) + M2)),
                ("[M1, M2] in M1", _pairs_residual(dec, M1, M2, M1)),
                ("[k, M1] in M1", _pairs_residual(dec, ("k",), M1, M1)),
                ("[k, M2] in M2", _pairs_residual(dec, ("k",), M2, M2)),
            ]
            failed = [(name, res) for name, res in view if res > tol]
            if not failed:
                assert TwoSummandView(dec, i).M2_part == f"m{i}"
                continue
            name, res = failed[0]
            with pytest.raises(GroupingInvalidError) as info:
                TwoSummandView(dec, i)
            assert str(info.value).endswith(f"violates {name} (residual {res:.3e})")


def test_part_tables_match_their_gathered_definitions(spaces):
    """module_killing and the B-orthogonality residual equal, bit for bit,
    the np.ix_ gathers that define them: on every catalog space
    (so-blocks(1,1,1) has an empty k), on scattered parts and on parts that
    are not B-orthogonal."""
    swapped = counterexample_swapped()
    scattered = [_scattered(spaces["so-blocks(2,3,4)"], 1), _scattered(swapped, 2)]
    ix = spaces["so-blocks(2,2,2)"].part_indices
    basis = spaces["so-blocks(2,2,2)"].context.basis.copy()
    basis[ix["m1"][0]] += 0.5 * basis[ix["m2"][0]]
    basis[ix["k"][0]] += 0.25 * basis[ix["m3"][1]]
    leaked = ReductiveDecomposition(AlgebraContext("leaked", basis), {p: ix[p] for p in PARTS},
                                    verify=False)
    assert verify_structure(leaked).checks[0].max_residual > 0.1
    for dec in [*spaces.values(), swapped, *scattered, leaked]:
        ctx, ix = dec.context, dec.part_indices
        K = ctx.killing
        module_killing = np.zeros((ctx.dim, ctx.dim))
        for p in PARTS[1:]:
            module_killing[np.ix_(ix[p], ix[p])] = -K[np.ix_(ix[p], ix[p])]
        assert dec.module_killing.tobytes() == module_killing.tobytes(), dec.name
        ortho = max((np.abs(K[np.ix_(ix[a], ix[b])]).max()
                     for q, a in enumerate(PARTS) for b in PARTS[q + 1:]
                     if len(ix[a]) and len(ix[b])), default=0.0)
        assert verify_structure(dec).checks[0].max_residual == ortho, dec.name


def _lie_triple_reference(dec, i):
    """The largest coefficient outside m_i of any [[e_a, e_b], e_e] with a, b,
    e in m_i, from the dense c by one BLAS product."""
    c = dense_c(dec.context)
    ix = dec.part_indices[f"m{i}"]
    if not len(ix):
        return 0.0
    inner = c[np.ix_(ix, ix)]  # (a, b, dim) coefficients of [e_a, e_b]
    triple = np.tensordot(inner, c[:, ix, :], axes=(2, 0))
    return float(np.abs(triple * (1.0 - dec.part_masks[f"m{i}"])).max())


def _lie_triple(dec, i):
    return verify_fibration(dec, i).checks[3].max_residual


def test_lie_triple_residual_matches_the_dense_product(spaces):
    """The Lie-triple residual, summed over pairs of listed entries, equals
    the dense product's: 0.0 on the suite spaces, the same on scattered
    bases, 1.0 (failing) for m1 and m2 of the swapped split, and within
    1e-12 on so-blocks(2,2,2) in a rotated basis (dense c) and a sheared one."""
    swapped = counterexample_swapped()
    for dec in spaces.values():
        assert [_lie_triple(dec, i) for i in (1, 2, 3)] == [0.0] * 3, dec.name
        assert [_lie_triple_reference(dec, i) for i in (1, 2, 3)] == [0.0] * 3, dec.name
    for dec in (swapped, _scattered(spaces["so-blocks(2,3,4)"], 1), _scattered(swapped, 2)):
        for i in (1, 2, 3):
            assert _lie_triple(dec, i) == _lie_triple_reference(dec, i), (dec.name, i)
    assert [_lie_triple(swapped, i) for i in (1, 2)] == [1.0, 1.0]
    assert [verify_fibration(swapped, i).checks[3].passed for i in (1, 2)] == [False, False]
    so222 = spaces["so-blocks(2,2,2)"]
    for dec in (rotated(so222, 160), sheared(so222)):
        top = max(1.0, float(np.abs(dense_c(dec.context)).max()) ** 2)
        for i in (1, 2, 3):
            assert abs(_lie_triple(dec, i) - _lie_triple_reference(dec, i)) <= 1e-12 * top


def test_defect_table_and_fibrations_form_no_dense_array():
    """On so-blocks(6,6,6) (d = 153; c holds 3.6 million entries, 28 MiB
    dense, of which 4,896 are nonzero), the defect table and the three
    fibration checks read only c's listed entries: together they peak at
    1.3 MiB traced, where a dense cK product and its scans took 105 MiB."""
    dec = build_so_blocks(6, 6, 6)
    tracemalloc.start()
    try:
        dec.defect_table
        for i in (1, 2, 3):
            assert verify_fibration(dec, i).verdict
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, peak


def _split_so3(spaces):
    """so(3) split as k = span(e_1, e_2), m1 = span(e_3): k is not a
    subalgebra, and no c[i, m_j, m_l] is nonzero."""
    ix = spaces["so-blocks(1,1,1)"].part_indices
    ctx = spaces["so-blocks(1,1,1)"].context
    return ReductiveDecomposition(
        ctx, {"k": [*ix["m1"], *ix["m2"]], "m1": ix["m3"], "m2": [], "m3": []}, verify=False
    )


def test_connection_output_with_no_entry_is_w_dot(spaces):
    """so(3) split as k = span(e_1, e_2), m1 = span(e_3) (k is not a
    subalgebra) has no c[i, m_j, m_l] != 0: each connection output of the
    defect table gets one zero entry, and D_m is w_dot_m."""
    split = _split_so3(spaces)
    ctx = split.context
    table = split.defect_table  # G_W's one output, then D's three
    assert table.base[table.starts[1]:].tolist() == [0.0] * 3
    rng = make_rng(21)
    curve = ProductExpCurve(split, [AlgebraElement(ctx, rng.standard_normal(3)) for _ in range(2)])
    D = connection_defect(curve, DiagonalMetric(split, (1.0, 2.0, 3.0)), 0.4)
    assert np.array_equal(D.coeffs, curve.body_velocity(0.4)[1] * split.part_masks["m"])


def _reference_table(out, ab, base, scale, n_out):
    """(ab, base, scale, starts) of entries sorted by output; an output with
    no entry gets one (0, 0) entry of base 0 and scale 0."""
    counts = np.bincount(out, minlength=n_out)
    at = np.searchsorted(out, np.flatnonzero(counts == 0))
    ab = np.insert(ab, at, 0, axis=1)
    base, scale = np.insert(base, at, 0.0), np.insert(scale, at, 0)
    counts = np.maximum(counts, 1)
    return ab, base, scale, counts.cumsum() - counts


def _dense_reference_tables(dec):
    """The G_W and connection tables, each found by a scan of a dense
    metric-free operator: cK = c K by one GEMM (K the module_killing),
    G_W's H0[w, 0, j, l] = cK[m_w, j, l] and H0[w, 1, i, j] = cK[i, j, m_w],
    and R0[l, i, j] = c[i, m_j, m_l] with its outputs l over m."""
    c, d, K = dense_c(dec.context), dec.context.dim, dec.module_killing
    m, part = dec.part_indices["m"], dec.part_of
    dm = len(m)
    cK = c.reshape(d * d, d).dot(K).reshape(d, d, d)
    H0 = np.stack((cK[m], cK[..., m].transpose(2, 0, 1)), axis=1)
    w, p, x, y = np.nonzero(H0)
    row = p * d
    gw = _reference_table(w, np.array((row + x, 2 * row + y)), H0[w, p, x, y],
                          part[np.where(p, m[w], y)], dm)
    R0 = c.transpose(2, 0, 1)[m][:, :, m]
    l, i, j = np.nonzero(R0)
    pm = part[m]
    connection = _reference_table(l, np.array((i, m[j])), R0[l, i, j],
                                  (pm[j] + 4 * pm[l]) * (part[i] > 0), dm)
    return gw, connection


def _runs(table):
    """Each output's (ab, base, scale) entries, one tuple per output."""
    ab, base, scale, starts = table
    ends = [*starts[1:], len(base)]
    return [(ab[:, a:b], base[a:b], scale[a:b]) for a, b in zip(starts, ends)]


def _check_table_against_dense_reference(dec, tol):
    """The table's outputs are G_W's, then D's over the whole basis: G_W's
    and D's on m hold the reference's entries in its order (ab and scale
    exactly, the bases within ``tol`` relative), and each k output one
    entry of base 0."""
    table = dec.defect_table
    gw, connection = (_runs(t) for t in _dense_reference_tables(dec))
    m, d = dec.part_indices["m"], dec.context.dim
    want = gw + [None] * d
    for l, o in enumerate(m):
        want[len(m) + o] = connection[l]
    got = _runs(table)
    assert len(got) == len(want) == len(table.starts), dec.name
    top = max(np.abs(table.base).max(initial=0.0), 1.0)
    for o, (run, ref) in enumerate(zip(got, want)):
        if ref is None:  # an output on k
            assert run[1].tolist() == [0.0], (dec.name, o)
            continue
        assert run[0].tolist() == ref[0].tolist(), (dec.name, o)
        assert run[2].tolist() == ref[2].tolist(), (dec.name, o)
        assert len(run[1]) == len(ref[1]), (dec.name, o)
        assert np.abs(run[1] - ref[1]).max() <= tol * top, (dec.name, o)


def test_defect_table_matches_the_dense_reference(spaces):
    """The one defect table holds the two tables of separate dense scans,
    G_W's then D's: entry for entry on the suite spaces, the split so(3)
    and a basis whose m is out of basis order, within 1e-12 on
    so-blocks(2,2,2) in a rotated basis (dense c) and a sheared one."""
    scattered = _scattered(spaces["so-blocks(2,3,4)"], 1)
    assert (np.diff(scattered.part_indices["m"]) < 0).any()
    for dec in [*spaces.values(), _split_so3(spaces), scattered]:
        _check_table_against_dense_reference(dec, 0.0)
    so222 = spaces["so-blocks(2,2,2)"]
    for dec in (rotated(so222, 160), sheared(so222)):
        _check_table_against_dense_reference(dec, 1e-12)


def _skew(N, a, b):
    M = np.zeros((N, N))
    M[a, b], M[b, a] = 1.0, -1.0
    return M


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stiefel_basis_matches_its_explicit_construction(n):
    """build_stiefel(n), relabelled from so-blocks(1, 1, n), keeps the
    explicit Stiefel basis and order bit for bit."""
    N = n + 2
    entries = [("k", _skew(N, a, b)) for a in range(2, N) for b in range(a + 1, N)]
    entries += [("m1", _skew(N, 0, b)) for b in range(2, N)]
    entries += [("m2", _skew(N, 1, b)) for b in range(2, N)]
    entries.append(("m3", _skew(N, 1, 0)))
    dec = build_stiefel(n)
    assert dec.context.basis.tobytes() == np.array([M for _, M in entries]).tobytes()
    for p in ("k", "m1", "m2", "m3"):
        want = [q for q, (part, _) in enumerate(entries) if part == p]
        assert dec.part_indices[p].tolist() == want
    assert dec.name == f"stiefel({n})"
    assert dec.equivalence_note == "m1 and m2 are equivalent K-modules"
