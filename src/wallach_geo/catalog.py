"""Catalog of generalized Wallach spaces as adapted basis decompositions.

Each builder assembles an ordered basis (k first, then the three modules),
constructs the algebra context and verifies the defining bracket relations
before returning.  The module labeling convention is fixed: for block
constructions the (1,2) off-diagonal block is m1, (1,3) is m2, (2,3) is m3.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    AlgebraContext,
    AlgebraElement,
    DegenerateSpaceError,
    GroupingInvalidError,
    SpaceDefinitionError,
    StructureError,
    _sum_runs,
)

_MODULES = ("m1", "m2", "m3")
_PARTS = ("k",) + _MODULES


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_residual: float


@dataclass
class StructureReport:
    """Per-relation residuals for one decomposition."""

    checks: list[CheckResult] = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, tol: float) -> None:
        self.checks.append(CheckResult(name, residual <= tol, float(residual)))

    def max_residual(self) -> float:
        return max((c.max_residual for c in self.checks), default=0.0)


class ReductiveDecomposition:
    """Adapted partition g = k + m1 + m2 + m3 with part masks and flags.

    Compactness and orthogonality are gated by ``AlgebraContext``; this
    checks the partition and, unless ``verify`` is false, that each module
    has a basis vector and the generalized Wallach relations hold.
    """

    def __init__(
        self,
        context: AlgebraContext,
        part_indices: dict,
        equivalence_note: str = "",
        verify: bool = True,
    ):
        self.context = context
        self.part_indices = {p: np.asarray(ix, dtype=np.intp) for p, ix in part_indices.items()}
        all_ix = np.concatenate([self.part_indices[p] for p in _PARTS])
        if not np.array_equal(np.sort(all_ix), np.arange(context.dim)):
            raise SpaceDefinitionError(
                f"{context.name}: parts must partition the basis index range"
            )
        # part_of[i] is the position in _PARTS of the part holding basis vector i
        self.part_of = np.empty(context.dim, dtype=np.intp)
        self.part_of[all_ix] = np.repeat(np.arange(4), [len(self.part_indices[p]) for p in _PARTS])
        self.part_indices["m"] = np.concatenate([self.part_indices[p] for p in _MODULES])
        self.part_masks = {}
        for p, ix in self.part_indices.items():
            mask = np.zeros(context.dim)
            mask[ix] = 1.0
            self.part_masks[p] = mask
        # row i - 1 is 1 off module m_i and 0 on it
        self.module_outside = 1.0 - np.array([self.part_masks[p] for p in _MODULES])
        self.equivalence_note = equivalence_note

        # -B on the blocks of m1, m2 and m3, zero elsewhere: a diagonal metric rescales it
        same_module = (self.part_of[:, None] == self.part_of) & (self.part_of > 0)
        self.module_killing = np.where(same_module, -context.killing, 0.0)
        # block_max[p][q][r] = max |c[i, j, l]| over i in part p, j in q, l in r
        i, j, l, v = context.structure_entries
        block = np.zeros(64)
        np.maximum.at(block, (self.part_of[i] * 4 + self.part_of[j]) * 4 + self.part_of[l], abs(v))
        self.block_max = block.reshape(4, 4, 4).tolist()
        self.commuting_pairs = _find_commuting_pairs(self)
        if not verify:
            return
        for p in _MODULES:
            if not len(self.part_indices[p]):
                raise StructureError(f"{context.name}: module {p} has no basis vector")
        report = verify_structure(self)
        if not report.verdict:
            failed = [c.name for c in report.checks if not c.passed]
            raise StructureError(f"{context.name}: structure verification failed: {failed}")

    @property
    def name(self) -> str:
        return self.context.name

    def module_dims(self) -> tuple:
        return tuple(len(self.part_indices[p]) for p in _MODULES)

    def module_vector(self, part: str, values) -> AlgebraElement:
        ix = self.part_indices[part]
        coeffs = np.zeros(self.context.dim)
        coeffs[ix] = np.asarray(values, dtype=np.float64)
        return AlgebraElement(self.context, coeffs)

    def random_module_vector(self, part: str, rng) -> AlgebraElement:
        """Standard-normal coordinates in a module, normalized in -B."""
        v = self.module_vector(part, rng.standard_normal(len(self.part_indices[part])))
        n = v.norm_b()
        return v * (1.0 / n) if n > 0 else v

    @functools.cached_property
    def defect_table(self) -> ContractionTable:
        """The sparse table of both geodesic defects: its first d_m outputs
        are G_W over the m-basis (``geodesics``), its last d the connection
        defect D less w_dot_m over the whole basis (``oracle``), 0 on k;
        built on first use."""
        return _defect_table(self)

    @functools.cached_property
    def u_pairs(self) -> tuple:
        """(at, flat, A, B): the ``defect_table`` entries at ``at`` are its
        U(w_m, w_m) terms, the D entries with a coefficient (i in m); each
        adds to S.ravel()[flat] = S[l, p] for its output m_l and the pair p
        of m-positions (A[p] <= B[p]) of (a, b) or (b, a); built on first use."""
        table, m = self.defect_table, self.part_indices["m"]
        dm, lo = len(m), table.starts[len(m)]
        at = lo + table.scale[lo:].nonzero()[0]
        pos = np.empty_like(self.part_of)  # the m-position of each index in m
        pos[m] = np.arange(dm)
        a, b = pos[table.ab[:, at]]
        key = np.minimum(a, b) * dm + np.maximum(a, b)
        hit = np.zeros(dm * dm, np.intp)
        hit[key] = 1
        A, B = np.divmod(hit.nonzero()[0], dm)
        out = pos[table.starts.searchsorted(at, "right") - (dm + 1)]
        return at, out * len(A) + hit.cumsum()[key] - 1, A, B

    def bracket_residual(self, parts_a, parts_b, allowed) -> float:
        """Largest |c[i, j, l]| over i in parts_a, j in parts_b and l outside
        the allowed parts: how far [parts_a, parts_b] leaves the allowed span."""
        B, ix = self.block_max, _PARTS.index
        out = [r for r, p in enumerate(_PARTS) if p not in allowed]
        return max((B[ix(p)][ix(q)][r] for p in parts_a for q in parts_b for r in out), default=0.0)


class ContractionTable(NamedTuple):
    """A sparse bilinear map of a flat vector v (the flattened rows of
    ``ProductExpCurve.defect_rows``): output o sums value[e] v[ab[0, e]]
    v[ab[1, e]] over its run of entries e from starts[o] to starts[o + 1].
    A metric's value[e] is base[e] sigma_p / sigma_q with scale[e] =
    p + 4 q, where p and q are the parts (``_PARTS`` positions) of the
    basis indices whose module coefficients sigma scale the entry, and
    part 0 (k) stands for no coefficient: sigma_0 = 1.  Every output has
    at least one entry, as each run of ``np.add.reduceat`` must hold one;
    an output with nothing to sum has one entry of base 0."""

    ab: np.ndarray
    base: np.ndarray
    scale: np.ndarray
    starts: np.ndarray


def _pairs(last, first) -> tuple:
    """(a, b): every pair of positions with last[a] == first[b], for a
    sorted ``last``, in order of b."""
    lo = last.searchsorted(first)
    count = last.searchsorted(first, "right") - lo
    b = np.repeat(np.arange(len(first)), count)
    return np.arange(len(b)) + np.repeat(lo - count.cumsum() + count, count), b


def _defect_table(dec) -> ContractionTable:
    """The table of ``geodesics.gw_defect_all`` and ``oracle.connection_defect``
    from the listed nonzero structure constants (``structure_entries``).
    Write cK[i, j, y] = sum_l c[i, j, l] K[l, y] with K the ``module_killing``,
    so that a metric's Gram matrix is K diag(sigma).  The rows of
    ``defect_rows`` are s, p, q and w_dot, so v[r d + i] is coordinate i of
    row r.  Each output's entries run in order of the index pairs below.

    - output w < d_m: G_W[w] = sum cK[m_w, j, y] sigma_y s_j s_y
      + sum cK[i, j, m_w] sigma_{m_w} p_i q_j;
    - output d_m + m_l: D_m[l] - w_dot_m[l] = sum c[i, m_j, m_l] w_i w_{m_j}
      over i in k, which is [w_k, w_m]_m, plus the same sum over i in m
      times sigma_{m_j} / sigma_{m_l}, which is U(w_m, w_m);
    - output d_m + i for i in k, or any with nothing to sum: one entry of
      base 0 at (0, 0), as each run of ``np.add.reduceat`` must hold one."""
    ctx, K = dec.context, dec.module_killing
    d, m, part = ctx.dim, dec.part_indices["m"], dec.part_of
    dm = len(m)
    pos = np.zeros_like(part)  # the m-position of each index in m
    pos[m] = np.arange(dm)
    i, j, l, v = ctx.structure_entries
    # cK's entries: each c[i, j, l] times each nonzero K[l, y] of its row,
    # summed per (i, j, y), exact zeros dropped
    kl, ky = K.nonzero()
    kx, at = _pairs(kl, l)
    key, cK = _sum_runs((i * d + j)[at] * d + ky[kx], v[at] * K[kl, ky][kx])
    ci, cj, y = np.unravel_index(key[cK != 0], (d, d, d))
    cK = cK[cK != 0]
    left, on_m = part[ci] > 0, (part[j] > 0) & (part[l] > 0)
    # per entry: its output, its rank there, the two coordinates and the scale
    cols = np.concatenate((
        # G_W's first sum, over the cK[m_w, j, y]: s_j s_y
        np.array((pos[ci], cj * d + y, cj, y, part[y]))[:, left],
        # its second, over the cK[i, j, m_w]: p_i q_j
        np.array((pos[y], (d + ci) * d + cj, d + ci, 2 * d + cj, part[y])),
        # D's, over the c[i, m_j, m_l]: w_i w_{m_j}, no coefficient on [w_k, w_m]
        np.array((dm + l, i * dm + pos[j], i, j, (part[j] + 4 * part[l]) * (part[i] > 0)))[:, on_m],
    ), axis=1)
    # an output with no entry gets one, of rank, coordinates, scale and base 0
    counts = np.bincount(cols[0], minlength=dm + d)
    none = np.flatnonzero(counts == 0)
    cols = np.concatenate((cols, np.zeros((5, len(none)), cols.dtype)), axis=1)
    cols[0, cols.shape[1] - len(none):] = none
    base = np.concatenate((cK[left], cK, v[on_m], np.zeros(len(none))))
    order = np.argsort(cols[0] * 2 * d * d + cols[1], kind="stable")
    cols, counts = cols.take(order, axis=1), np.maximum(counts, 1)
    return ContractionTable(cols[2:4], base[order], cols[4], counts.cumsum() - counts)


def _find_commuting_pairs(dec) -> frozenset:
    tol = dec.context.tol_structural
    pairs = set()
    for i, j in ((1, 2), (1, 3), (2, 3)):
        # with nothing allowed, the residual is the largest bracket coefficient
        if dec.bracket_residual((f"m{i}",), (f"m{j}",), ()) <= tol:
            pairs.add((i, j))
    return frozenset(pairs)


def verify_structure(dec: ReductiveDecomposition) -> StructureReport:
    """Exhaustive basis-pair check of the generalized Wallach relations."""
    tol = dec.context.tol_structural
    K = dec.context.killing
    report = StructureReport()

    # the largest |B[i, j]| over i and j in two different parts
    ortho = np.abs(K)[dec.part_of[:, None] < dec.part_of].max(initial=0.0)
    report.add("B-orthogonality of parts", ortho, tol * max(1.0, np.abs(K).max()))

    k = ("k",)
    for mi in _MODULES:
        report.add(f"reductivity [k, {mi}] in {mi}", dec.bracket_residual(k, (mi,), (mi,)), tol)
    for mi in _MODULES:
        report.add(f"Wallach [{mi}, {mi}] in k", dec.bracket_residual((mi,), (mi,), k), tol)
    for mi, mj, mk in (("m1", "m2", "m3"), ("m1", "m3", "m2"), ("m2", "m3", "m1")):
        report.add(f"derived [{mi}, {mj}] in {mk}", dec.bracket_residual((mi,), (mj,), (mk,)), tol)
    report.add("k is a subalgebra", dec.bracket_residual(k, k, k), tol)
    return report


def verify_fibration(dec: ReductiveDecomposition, i: int) -> StructureReport:
    """Symmetric-pair and Lie-triple-system checks for g_i = k + m_i."""
    tol = dec.context.tol_structural
    gi = ("k", f"m{i}")
    mprime = tuple(p for p in _MODULES if p != f"m{i}")
    report = StructureReport()

    report.add(f"g{i} = k+m{i} is a subalgebra", dec.bracket_residual(gi, gi, gi), tol)
    report.add(f"[m', m'] in g{i}", dec.bracket_residual(mprime, mprime, gi), tol)
    report.add(f"[g{i}, m'] in m'", dec.bracket_residual(gi, mprime, mprime), tol)

    # [[m_i, m_i], m_i] subset m_i: Lie triple system.  Sum c[a, b, l] c[l, e, n]
    # over l, for a, b, e in m_i and n outside it, from the entries' pairs
    d, (first, second, last, v) = dec.context.dim, dec.context.structure_entries
    on = dec.part_of == i
    inner, outer = on[first] & on[second], on[second] & ~on[last]
    a, b = _pairs(last[inner], first[outer])
    ab = first[inner][a] * d + second[inner][a]
    triple = _sum_runs((ab * d + second[outer][b]) * d + last[outer][b],
                       v[inner][a] * v[outer][b])[1]
    report.add(f"m{i} is a Lie triple system", float(np.abs(triple).max(initial=0.0)), tol)
    return report


class TwoSummandView:
    """Grouped view M1 = m_j + m_k, M2 = m_i satisfying the two-summand
    geodesic hypotheses, verified on basis pairs at construction."""

    def __init__(self, parent: ReductiveDecomposition, i: int):
        if i not in (1, 2, 3):
            raise ValueError("module index must be 1, 2 or 3")
        self.parent = parent
        self.i = i
        self.M2_part = f"m{i}"
        self.M1_parts = tuple(p for p in _MODULES if p != self.M2_part)
        M1, M2 = self.M1_parts, (self.M2_part,)
        # 1 off M1 (first row) and off M2 (second row), 0 on them
        masks = parent.part_masks
        self.outside = 1.0 - np.array([masks[M1[0]] + masks[M1[1]], masks[self.M2_part]])
        checks = [
            ("[M2, M2] in k", parent.bracket_residual(M2, M2, ("k",))),
            ("[M1, M1] in k+M2", parent.bracket_residual(M1, M1, ("k",) + M2)),
            ("[M1, M2] in M1", parent.bracket_residual(M1, M2, M1)),
            ("[k, M1] in M1", parent.bracket_residual(("k",), M1, M1)),
            ("[k, M2] in M2", parent.bracket_residual(("k",), M2, M2)),
        ]
        for name, res in checks:
            if res > parent.context.tol_structural:
                raise GroupingInvalidError(
                    f"{parent.name}: grouping M2=m{i} violates {name} (residual {res:.3e})"
                )


def _skew(n: int, a: int, b: int) -> np.ndarray:
    M = np.zeros((n, n))
    M[a, b] = 1.0
    M[b, a] = -1.0
    return M


def _adapted(name: str, blocks, tol_structural: float, note: str = "") -> ReductiveDecomposition:
    """Verified decomposition from each part's basis matrices, in _PARTS order."""
    ends = np.cumsum([len(blocks[p]) for p in _PARTS])
    parts = {p: range(end - len(blocks[p]), end) for p, end in zip(_PARTS, ends)}
    ctx = AlgebraContext(name, [M for p in _PARTS for M in blocks[p]], tol_structural)
    return ReductiveDecomposition(ctx, parts, equivalence_note=note)


def _so_blocks(l: int, m: int, n: int) -> dict:
    """The basis matrices of ``build_so_blocks`` by part."""
    N = l + m + n
    ranges = [range(0, l), range(l, l + m), range(l + m, N)]
    blocks = {"k": [_skew(N, a, b) for r in ranges for a in r for b in r if a < b]}
    for part, (ra, rb) in (("m1", (0, 1)), ("m2", (0, 2)), ("m3", (1, 2))):
        blocks[part] = [_skew(N, a, b) for a in ranges[ra] for b in ranges[rb]]
    return blocks


def build_so_blocks(l: int, m: int, n: int, tol_structural: float = 1e-12) -> ReductiveDecomposition:
    """so(l+m+n) with k the block-diagonal so(l)+so(m)+so(n); off-diagonal
    blocks (1,2) -> m1, (1,3) -> m2, (2,3) -> m3."""
    if l < 1 or m < 1 or n < 1 or l + m + n < 3:
        raise DegenerateSpaceError("need l, m, n >= 1 and l+m+n >= 3")
    return _adapted(f"so-blocks({l},{m},{n})", _so_blocks(l, m, n), tol_structural)


def build_stiefel(n: int, tol_structural: float = 1e-12) -> ReductiveDecomposition:
    """so(n+2) with k = so(n) in the lower-right block; m1 and m2 are the
    first two rows against the last n columns, m3 is the (1,2) rotation:
    the so-blocks(1, 1, n) basis with its modules relabelled."""
    if n < 2:
        raise DegenerateSpaceError("need n >= 2; use build_so_blocks(1, 1, 1) for n = 1")
    b = _so_blocks(1, 1, n)
    # its m2, m3 become m1, m2 and its m1 rotation, negated, m3: the transpose
    # negates a skew matrix exactly, with no -0.0 entries
    blocks = {"k": b["k"], "m1": b["m2"], "m2": b["m3"], "m3": [b["m1"][0].T]}
    return _adapted(f"stiefel({n})", blocks, tol_structural, "m1 and m2 are equivalent K-modules")


def _realify(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Real 2n x 2n embedding of the complex matrix A + iB."""
    n = A.shape[0]
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = A
    M[n:, n:] = A
    M[:n, n:] = -B
    M[n:, :n] = B
    return M


def build_su3_flag(tol_structural: float = 1e-12) -> ReductiveDecomposition:
    """Realified su(3) with k the diagonal torus and the three root-pair
    planes (1,2) -> m1, (1,3) -> m2, (2,3) -> m3."""
    Z = np.zeros((3, 3))
    blocks = {"k": [_realify(Z, np.diag(h)) for h in ([1.0, -1.0, 0.0], [0.0, 1.0, -1.0])]}
    for part, (j, k) in (("m1", (0, 1)), ("m2", (0, 2)), ("m3", (1, 2))):
        E = np.zeros((3, 3))
        E[j, k] = 1.0
        blocks[part] = [_realify(E - E.T, Z), _realify(Z, E + E.T)]
    return _adapted("su3-flag", blocks, tol_structural)


def build_product_spheres(tol_structural: float = 1e-12) -> ReductiveDecomposition:
    """so(3)+so(3)+so(3) block-diagonal in 9x9; k takes one rotation
    generator per factor, m_i the remaining two generators of factor i."""
    blocks = {"k": [_skew(9, 3 * f + 1, 3 * f) for f in range(3)]}
    for f, part in enumerate(_MODULES):
        blocks[part] = [_skew(9, 3 * f + 2, 3 * f + 1), _skew(9, 3 * f, 3 * f + 2)]
    return _adapted("product-spheres", blocks, tol_structural)


def load_space_json(path, tol_structural: float = 1e-12) -> ReductiveDecomposition:
    """Load a space definition { name, ambient_size, basis, parts } and
    verify its structure before use."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpaceDefinitionError(f"cannot read space definition: {exc}") from exc
    if not isinstance(data, dict):
        raise SpaceDefinitionError("space definition must be a JSON object")
    for key in ("name", "ambient_size", "basis", "parts"):
        if key not in data:
            raise SpaceDefinitionError(f"space definition missing field {key!r}")
    n = data["ambient_size"]
    if type(n) is not int or n < 1:
        raise SpaceDefinitionError("ambient_size must be a positive integer")
    try:
        basis = np.asarray(
            [np.asarray(row, dtype=np.float64).reshape(n, n) for row in data["basis"]]
        )
    except (ValueError, TypeError) as exc:
        raise SpaceDefinitionError(f"basis rows must be {n * n} reals (row-major)") from exc
    if len(basis) == 0 or not np.isfinite(basis).all():
        raise SpaceDefinitionError("basis must hold at least one matrix of finite reals")
    parts = data["parts"]
    for p in ("k", "m1", "m2", "m3"):
        ix = parts.get(p) if isinstance(parts, dict) else None
        if not isinstance(ix, list) or any(type(i) is not int for i in ix):
            raise SpaceDefinitionError(f"parts must map {p!r} to a list of basis indices")
    try:
        ctx = AlgebraContext(str(data["name"]), basis, tol_structural)
        return ReductiveDecomposition(ctx, {p: parts[p] for p in _PARTS})
    except StructureError as exc:
        raise SpaceDefinitionError(str(exc)) from exc

