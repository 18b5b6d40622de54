"""Command-line surface: catalog listing, structural verification,
geodesic generation/verification, restriction-system exploration and
homogeneous-geodesic checks.

Exit codes: 0 pass, 1 verification failure, 2 unknown space,
3 input/schema error, 4 metric/case mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys

import numpy as np

from .catalog import (
    build_product_spheres,
    build_so_blocks,
    build_stiefel,
    build_su3_flag,
    load_space_json,
    verify_fibration,
    verify_structure,
)
from .core import (
    DegenerateSpaceError,
    HypothesisViolatedError,
    InvalidMetricError,
    SpaceDefinitionError,
    StructureError,
    WallachGeoError,
    require_positive_finite,
)
from .geodesics import (
    applicable_families,
    certify_nonexistence,
    closed_form_geodesic,
    gw_defect_all,
    homogeneous_geodesic,
    match_case,
    restriction_residual,
    solution_families,
)
from .metrics import DiagonalMetric
from .oracle import connection_defect, coset_distance, identity_checks, shoot_geodesic

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN_SPACE = 2
EXIT_INPUT = 3
EXIT_METRIC = 4

DEFAULT_TOL = {"gw": 1e-9, "defect": 1e-9, "coset": 1e-6, "structural": 1e-12}
GRID_POINTS = 21
MAX_COUNT = 100_000  # largest --trials and --steps


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered fields, 17-significant-digit
    floats, no whitespace variability across platforms."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_dump_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_dump_json(v, indent) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            # a bare inf/nan is not JSON; only extreme inputs overflow like this
            raise UsageError(f"a report value is {obj}: the inputs are out of floating-point range")
        return _fmt_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _structural_tol() -> float:
    raw = os.environ.get("WALLACH_GEO_TOL")
    if raw is None:
        return DEFAULT_TOL["structural"]
    try:
        tol = float(raw)
    except ValueError:
        tol = np.nan
    # a tolerance of 0, below 0, inf or nan would fail or pass every check
    if not (np.isfinite(tol) and tol > 0):
        raise UsageError(f"WALLACH_GEO_TOL must be a finite number > 0, got {raw!r}")
    return tol


class UnknownSpaceError(WallachGeoError):
    pass


class UsageError(WallachGeoError):
    """A command-line value is out of its documented range."""


def _ranged(convert, rule: str, ok):
    """An argparse type: ``convert`` the text, then refuse a value that
    ``ok`` rejects with a message that states ``rule``."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    parse.__name__ = convert.__name__  # "invalid int value: 'x'" for malformed text
    return parse


# a zero count checks nothing and still reports a pass; a huge one never ends
# (shooting keeps every step); a non-finite value would reach the report as a
# bare inf/nan, which is not JSON; a negative tolerance fails every check
COUNT = _ranged(int, f"between 1 and {MAX_COUNT}", lambda n: 1 <= n <= MAX_COUNT)
FINITE = _ranged(float, "finite", np.isfinite)
SEED = _ranged(int, "non-negative", lambda n: n >= 0)
TOLERANCE = _ranged(float, "finite and >= 0", lambda x: np.isfinite(x) and x >= 0)

# family name -> (builder, what its size arguments must be, the sizes
# `catalog` lists); a name takes as many sizes as it lists, and the
# one-letter words of the wording name them in the listing
CATALOG = {
    "so-blocks": (build_so_blocks, "three positive integers l m n", (2, 2, 2)),
    "stiefel": (build_stiefel, "one integer n >= 2", (3,)),
    "su3-flag": (build_su3_flag, None, ()),
    "product-spheres": (build_product_spheres, None, ()),
}


def resolve_space(tokens):
    """Resolve a space spec: catalog name (with optional size arguments,
    attached or separate) or a path to a JSON definition."""
    if isinstance(tokens, str):
        tokens = [tokens]
    joined = " ".join(str(t) for t in tokens).strip()
    tol = _structural_tol()
    if joined.endswith(".json"):
        return load_space_json(joined, tol_structural=tol)
    norm = re.sub(r"[(),]", " ", joined).strip().lower()
    name, digits = re.fullmatch(r"(.*?)([\d\s-]*)", norm, re.S).groups()
    # a "-" after a space is a minus sign, one after a digit or the name a separator
    sizes = [int(q) for q in re.findall(r"(?:(?<=\s)-)?\d+", digits)]
    build, needs, listed = CATALOG.get(name, (None, None, ()))
    if build and len(sizes) == len(listed):
        return build(*sizes, tol_structural=tol)
    raise UnknownSpaceError(f"{name} needs {needs}" if needs else f"unknown space {joined!r}")


def cmd_catalog(args) -> int:
    print(f"{'space':24s} {'dim g':>6s} {'module dims':>14s}  flags")
    for name, (build, needs, listed) in CATALOG.items():
        dec = build(*listed)
        flags = []
        if dec.equivalence_note:
            flags.append("equivalent modules")
        if dec.commuting_pairs:
            pairs = ",".join(f"{i}{j}" for i, j in sorted(dec.commuting_pairs))
            flags.append(f"commuting pairs {{{pairs}}}")
        dims = ",".join(str(d) for d in dec.module_dims())
        label = " ".join([name, *re.findall(r"\b[a-z]\b", needs or "")])
        note = f" [{dec.name}]" if listed else ""
        print(f"{label:24s} {dec.context.dim:6d} {'(' + dims + ')':>14s}  {'; '.join(flags)}{note}")
    return EXIT_PASS


def _report_checks(report) -> list:
    return [dataclasses.asdict(c) for c in report.checks]


def cmd_verify_space(args) -> int:
    dec = resolve_space(args.space)
    structure = verify_structure(dec)
    fibrations = [verify_fibration(dec, i) for i in (1, 2, 3)]
    identities = identity_checks(dec, seed=args.seed)
    ok = structure.verdict and all(f.verdict for f in fibrations) and identities.verdict
    out = {
        "space": dec.name,
        "module_dims": list(dec.module_dims()),
        "structure": _report_checks(structure),
        "fibrations": {f"i={i}": _report_checks(f) for i, f in zip((1, 2, 3), fibrations)},
        "identities": _report_checks(identities),
        "commuting_pairs": [f"{i}{j}" for i, j in sorted(dec.commuting_pairs)],
        "verdict": ok,
    }
    print(_dump_json(out))
    return EXIT_PASS if ok else EXIT_FAIL


def _metric_norm(g: DiagonalMetric, D: np.ndarray) -> np.ndarray:
    """sqrt(D^T G D) per row of a (T, d) stack: -B would weigh a module whose
    coefficient is tiny or huge as if it were 1."""
    return np.sqrt(np.maximum(((D @ g.gram_full) * D).sum(axis=1), 0.0))


def cmd_geodesic(args) -> int:
    if args.t1 == args.t0:
        # the grid would be one point and the shot zero time: nothing is checked
        raise UsageError(f"--t1 must differ from --t0, got {args.t1} for both")
    dec = resolve_space(args.space)
    metric = tuple(args.metric)
    require_positive_finite("metric coefficients", *metric)
    case, c = match_case(metric, args.case)
    created = False
    if args.out:
        # refuse an unwritable path before any trial runs; appending truncates nothing
        created = not os.path.lexists(args.out)
        try:
            open(args.out, "a").close()
        except OSError as exc:
            raise UsageError(f"--out {args.out!r} cannot be written: {exc.strerror}") from None
    try:
        return _geodesic_report(args, dec, metric, case, c)
    except BaseException:
        # a file made by the check above must not outlive a run that failed
        if created:
            os.remove(args.out)
        raise


def _geodesic_report(args, dec, metric, case: int, c: float) -> int:
    """Run the trials of ``geodesic``, print the report and write ``--out``."""
    tols = {
        "gw": args.tol_gw,
        "defect": args.tol_defect,
        "coset": args.tol_coset,
        "structural": _structural_tol(),
    }
    rng = np.random.default_rng(np.random.Philox(args.seed))
    steps = args.steps
    if steps % (GRID_POINTS - 1):
        steps += (GRID_POINTS - 1) - steps % (GRID_POINTS - 1)
    stride = steps // (GRID_POINTS - 1)
    grid = np.linspace(args.t0, args.t1, GRID_POINTS)
    notes = []
    compare_shot = args.t0 == 0.0
    if not compare_shot:
        notes.append("shooting comparison skipped (grid does not start at t = 0)")
    per_t = np.zeros((GRID_POINTS, 3))  # defect, gw, coset maxima per grid point
    for _ in range(args.trials):
        draws = [dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")]
        curve, g = closed_form_geodesic(dec, case, *draws, c)
        cd = np.zeros(GRID_POINTS)
        if compare_shot:
            shot = shoot_geodesic(dec, g, draws[0] + draws[1] + draws[2], args.t1, steps)
            cd = coset_distance(shot.points[::stride], curve.evaluate(grid), dec)
        # one call each for the whole grid: per-t arrays
        gw = np.abs(gw_defect_all(curve, g, grid)).max(axis=1)
        dn = _metric_norm(g, connection_defect(curve, g, grid))
        per_t = np.maximum(per_t, np.column_stack((dn, gw, cd)))
    max_defect, max_gw, max_coset = per_t.max(axis=0)
    verdict = max_gw <= tols["gw"] and max_defect <= tols["defect"] and max_coset <= tols["coset"]
    report = {
        "space": dec.name,
        "metric": list(metric),
        "case": case,
        "trials": args.trials,
        "grid": {"t0": args.t0, "t1": args.t1, "steps": steps},
        "max_abs_gw": max_gw,
        "max_defect_norm": max_defect,
        "max_coset_dist": max_coset,
        "verdict": "pass" if verdict else "fail",
        "tolerances": tols,
        "seed": args.seed,
        "notes": notes,
    }
    text = _dump_json(report)
    if args.out:
        # write before printing: a failed write (say, a full disk) prints no report
        try:
            with open(args.out, "w") as f:
                if args.format == "json":
                    f.write(text + "\n")
                else:
                    f.write("t,defect_norm,max_abs_gw,coset_dist\n")
                    for k, t in enumerate(grid):
                        f.write(
                            f"{_fmt_float(t)},{_fmt_float(per_t[k, 0])},"
                            f"{_fmt_float(per_t[k, 1])},{_fmt_float(per_t[k, 2])}\n"
                        )
        except OSError as exc:
            raise UsageError(f"--out {args.out!r} cannot be written: {exc.strerror}") from None
    print(text)
    return EXIT_PASS if verdict else EXIT_FAIL


def cmd_restriction(args) -> int:
    l2, l3 = args.lambda2, args.lambda3
    applicable, lam = applicable_families(l2, l3)
    if applicable:
        rows = []
        for extra in (0.2, -0.4, 0.75):
            for sol in solution_families(lam, extra):
                if sol.family in applicable:
                    res = float(np.abs(restriction_residual(sol, sol.lambda2, sol.lambda3)).max())
                    rows.append({**dataclasses.asdict(sol), "max_abs_residual": res})
        out = {
            "lambda2": l2,
            "lambda3": l3,
            "mode": "families",
            "families": applicable,
            "solutions": rows,
        }
        print(_dump_json(out))
        return EXIT_PASS
    # off the loci E != 0, and each of its factors is a difference of two
    # distinct floats: nonzero, and finite where E itself would overflow
    proved = certify_nonexistence(l2, l3)
    out = {
        "lambda2": l2,
        "lambda3": l3,
        "mode": "certificate",
        "differences": [l2 - 1, l3 - 1, l2 - l3],
        "proved": proved,
        "statement": "sum_i Q_i r_i = ((lambda2-1)(lambda3-1)(lambda2-lambda3))^2 != 0 "
        "exactly at this metric, so the nine restriction equations have no common "
        "zero: no three-factor geodesic exp(tX)exp(tY)exp(tZ).o exists",
    }
    print(_dump_json(out))
    return EXIT_PASS if proved else EXIT_FAIL


def cmd_go_check(args) -> int:
    dec = resolve_space(args.space)
    rng = np.random.default_rng(np.random.Philox(args.seed))
    grid = np.linspace(0.0, 2.0, GRID_POINTS)
    worst = 0.0
    for _ in range(args.trials):
        lambdas = rng.uniform(0.25, 4.0, 3)
        g = DiagonalMetric(dec, lambdas)
        X = sum(
            (dec.random_module_vector(p, rng) for p in ("m1", "m2", "m3")),
            dec.context.zero(),
        )
        try:
            curve = homogeneous_geodesic(dec, g, X)
        except HypothesisViolatedError:
            print(_dump_json({"space": dec.name, "result": "hypothesis not met",
                              "note": "no commuting module pair"}))
            return EXIT_PASS
        defect = _metric_norm(g, connection_defect(curve, g, grid))
        # np.max, unlike max, carries a nan through to the report
        worst = np.max([worst, defect.max(), np.abs(gw_defect_all(curve, g, grid)).max()])
    ok = worst <= args.tol_defect
    print(
        _dump_json(
            {
                "space": dec.name,
                "result": "pass" if ok else "fail",
                "trials": args.trials,
                "max_defect": worst,
                "tolerance": args.tol_defect,
                "seed": args.seed,
            }
        )
    )
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_identities(args) -> int:
    dec = resolve_space(args.space)
    report = identity_checks(dec, seed=args.seed)
    out = {"space": dec.name, "checks": _report_checks(report), "verdict": report.verdict}
    print(_dump_json(out))
    return EXIT_PASS if report.verdict else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a malformed command line is an input error: exit 3 with one line
        raise UsageError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then shared: parsing
    leaves it unchanged, and building it costs more than a short command."""
    p = _Parser(
        prog="wallach-geo",
        description="Geodesics on generalized Wallach spaces: catalog, "
        "verification and restriction-system tools.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list catalog spaces").set_defaults(func=cmd_catalog)

    def add_space(sp):
        sp.add_argument("space", nargs="+", help="catalog name (e.g. stiefel 3) or JSON path")
        sp.add_argument("--seed", type=SEED, default=0)

    sp = sub.add_parser("verify-space", help="structural + fibration + identity checks")
    add_space(sp)
    sp.set_defaults(func=cmd_verify_space)

    sp = sub.add_parser("geodesic", help="build and verify closed-form geodesics")
    sp.add_argument("--space", required=True)
    sp.add_argument("--metric", type=FINITE, nargs=3, required=True, metavar=("L1", "L2", "L3"))
    sp.add_argument("--case", default="auto", choices=["auto", "1", "2", "3"])
    sp.add_argument("--trials", type=COUNT, default=5)
    sp.add_argument("--seed", type=SEED, default=0)
    sp.add_argument("--t0", type=FINITE, default=0.0)
    sp.add_argument("--t1", type=FINITE, default=2.0)
    sp.add_argument("--steps", type=COUNT, default=1000)
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", default="json", choices=["json", "csv"])
    sp.add_argument("--tol-gw", type=TOLERANCE, default=DEFAULT_TOL["gw"])
    sp.add_argument("--tol-defect", type=TOLERANCE, default=DEFAULT_TOL["defect"])
    sp.add_argument("--tol-coset", type=TOLERANCE, default=DEFAULT_TOL["coset"])
    sp.set_defaults(func=cmd_geodesic)

    sp = sub.add_parser(
        "restriction", help="solution families on a locus / exact nonexistence certificate off them"
    )
    sp.add_argument("--lambda2", type=FINITE, required=True)
    sp.add_argument("--lambda3", type=FINITE, required=True)
    sp.set_defaults(func=cmd_restriction)

    sp = sub.add_parser("go-check", help="homogeneous-geodesic check (commuting modules)")
    add_space(sp)
    sp.add_argument("--trials", type=COUNT, default=10)
    sp.add_argument("--tol-defect", type=TOLERANCE, default=DEFAULT_TOL["defect"])
    sp.set_defaults(func=cmd_go_check)

    sp = sub.add_parser("identities", help="finite-difference lemma checks")
    add_space(sp)
    sp.set_defaults(func=cmd_identities)
    return p


# the first matching entry gives an error's exit code
_EXIT_CODES = (
    (UnknownSpaceError, EXIT_UNKNOWN_SPACE),
    ((DegenerateSpaceError, SpaceDefinitionError, StructureError, UsageError), EXIT_INPUT),
    (InvalidMetricError, EXIT_METRIC),
    (WallachGeoError, EXIT_FAIL),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # extreme inputs can overflow; the report then holds a non-finite value,
        # which _dump_json turns into a one-line error instead of numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (WallachGeoError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # numpy's names the allocation that failed
            exc = UsageError(f"out of memory: {exc}" if str(exc) else "out of memory")
        # a control character (say, a newline in a JSON space name) would split the line
        message = re.sub(r"[\x00-\x1f\x7f]", lambda m: repr(m.group())[1:-1], str(exc))
        print(f"error: {message}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`): point it at devnull so that
        # the interpreter's last flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
