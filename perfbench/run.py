#!/usr/bin/env python3
"""Benchmark for wallach-geo: three closed-loop workloads, timed end to end
and, in a separate traced run, per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` next
to this directory and only its public API is called: the ``wallach_geo``
exports, ``accel.expm``/``accel.logm`` and ``cli.main``.

Each workload is one process with one unit of work in flight at a time.
``--seed`` draws one round of units (see ``plan.json`` for what a unit and
a round are); the run repeats that same round while another repeat is
expected to end within ``--seconds`` and times every unit each time.  A
unit's time is its best over the repeats, which discounts the repeats
slowed by other work on a shared machine.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` repeats the
round, alternately untraced and traced, and prints the per-layer
metrics; the spans are written to ``.perfbench/`` when the run ends.  The
last line of standard output is the result object; the line before it
holds provenance, sample counts and the metrics under their per-workload
aliases.
"""

import os
import sys

# The BLAS and OpenMP pools read these when numpy loads, so they are set
# before the numpy import below; child processes inherit them.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
if __name__ == "__main__":
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import platform
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402

GATE_TOL = 1e-9  # max |G_W| and max connection defect per sweep curve
GRID = np.linspace(0.0, 2.0, 21)
C_VALUES = (0.25, 0.5, 1.0, 1.5, 2.0)

# (builder, arguments): the seven catalog spaces of the test suite, d = 3..36
SWEEP_SPACES = (
    ("build_so_blocks", (1, 1, 1)),
    ("build_so_blocks", (2, 2, 2)),
    ("build_so_blocks", (2, 3, 4)),
    ("build_stiefel", (2,)),
    ("build_stiefel", (3,)),
    ("build_su3_flag", ()),
    ("build_product_spheres", ()),
)
# (CLI space name, metric, builder): one space per closed-form case 1, 2, 3
GEODESIC_CALLS = (
    ("stiefel3", ("1", "1", "0.5"), ("build_stiefel", (3,))),
    ("su3-flag", ("1", "0.7", "1"), ("build_su3_flag", ())),
    ("so-blocks 2 2 2", ("0.6", "1", "1"), ("build_so_blocks", (2, 2, 2))),
)
# Units are kept short, so that a run repeats each of them many times and
# its best time is one that nothing else on the machine slowed: a call
# lasting a few milliseconds often runs clear of other work, one lasting
# a tenth of a second seldom does.  One trial of 40 RK4 steps (the default
# is 1000) makes a call of 20-35 ms whose coset distance, about 3e-8, still
# passes the 1e-6 gate; so-blocks 2 2 2 stands for case 3 because the CLI
# rebuilds its space on every call, and so-blocks 2 3 4 takes 100 ms to
# rebuild.
GEODESIC_TRIALS = 1
GEODESIC_STEPS = 40
SETUP_REPEATS = 11

END_TO_END_UNITS = {"setup_s": "s", "verified_per_s": "1/s", "unit_ms_p50": "ms"}

# Runs in a fresh interpreter: import, then build and verify the spaces.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wallach_geo, wallach_geo.cli
ok = True
for builder, args in json.loads(sys.argv[2]):
    ok = wallach_geo.verify_structure(getattr(wallach_geo, builder)(*args)).verdict and ok
print(json.dumps({"setup_s": time.perf_counter() - t0, "verified": ok}))
"""


@dataclass
class Unit:
    """One unit of work: ``run()`` returns whether its output passed."""

    label: str
    run: Callable[[], bool]
    work: dict  # counts of points / trials it verifies


# -- workloads --------------------------------------------------------------

def setup_spaces(workload):
    if workload == "closed_form_sweep":
        return SWEEP_SPACES
    return tuple(spec for _, _, spec in GEODESIC_CALLS)


def build_space(wg, spec):
    builder, args = spec
    return getattr(wg, builder)(*args)


def draw_module_vector(dec, part, rng):
    """Standard-normal coordinates in one module, normalized in -B."""
    n = len(dec.part_indices[part])
    v = dec.module_vector(part, rng.standard_normal(n))
    return v * (1.0 / v.norm_b())


def run_cli(cli, argv):
    """(exit code, parsed JSON report or None) of an in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        print(f"exit code {code}: {err.getvalue().strip()}", file=sys.stderr)
        return code, None
    return code, json.loads(out.getvalue())


def sweep_round(wg, cli, spaces, rng):
    units = []
    for dec in spaces:
        for case in (1, 2, 3):
            for c in C_VALUES:
                draws = [draw_module_vector(dec, p, rng) for p in ("m1", "m2", "m3")]

                def run(dec=dec, case=case, c=c, draws=draws):
                    curve, g = wg.closed_form_geodesic(dec, case, *draws, c)
                    worst_gw = worst_defect = 0.0
                    for t in GRID:
                        worst_gw = max(worst_gw, float(np.abs(wg.gw_defect_all(curve, g, t)).max()))
                        worst_defect = max(worst_defect, wg.connection_defect(curve, g, t).norm_b())
                    return worst_gw <= GATE_TOL and worst_defect <= GATE_TOL

                units.append(Unit(f"{dec.name} case {case} c={c}", run, {"points": len(GRID)}))
    return units


def geodesic_round(wg, cli, spaces, rng):
    units = []
    for space, metric, _ in GEODESIC_CALLS:
        argv = ["geodesic", "--space", space, "--metric", *metric,
                "--trials", str(GEODESIC_TRIALS), "--steps", str(GEODESIC_STEPS),
                "--seed", str(int(rng.integers(2**31)))]

        def run(argv=argv):
            code, report = run_cli(cli, argv)
            return code == 0 and report["verdict"] == "pass"

        units.append(Unit(" ".join(argv), run,
                          {"trials": GEODESIC_TRIALS, "points": GEODESIC_TRIALS * len(GRID)}))
    return units


ROUNDS = {"closed_form_sweep": sweep_round, "geodesic_cli": geodesic_round}
ITEM = {"closed_form_sweep": "points", "geodesic_cli": "trials"}


def make_round(workload, wg, cli, spaces, rng):
    """The run's round of units, drawn from ``rng``."""
    units = ROUNDS[workload](wg, cli, spaces, rng)
    if not units:
        raise RuntimeError("a round holds no units of work; nothing was measured")
    return units


# -- measurement -------------------------------------------------------------

class Tally:
    """Unit outcomes of a run: failures and verified work."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.work = {"points": 0, "trials": 0}

    def run(self, unit, tracer=None):
        """Run one unit, count it and return its wall time in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok = unit.run()
            else:
                with tracer.unit(unit.label):
                    ok = unit.run()
        except (Exception, SystemExit):
            traceback.print_exc(file=sys.stderr)
            ok = False
        dt = time.perf_counter() - t0
        if ok:
            for k, v in unit.work.items():
                self.work[k] += v
        else:
            self.failed += 1
            print(f"unit failed: {unit.label}", file=sys.stderr)
        return dt


def measure_setup(workload):
    """Seconds a fresh interpreter takes to import the package and build
    and verify the workload's spaces."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(setup_spaces(workload))],
        capture_output=True, text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    rec = json.loads(proc.stdout.splitlines()[-1])
    if not rec["verified"]:
        raise RuntimeError("a space failed structural verification during set-up")
    return rec["setup_s"]


def run_untraced(units, seconds, setup):
    """Repeat ``units`` while another repeat is expected to end within
    ``seconds``, and call ``setup`` ``SETUP_REPEATS`` times spread evenly
    over the run, so that set-up is timed under the same conditions as the
    units.  Return the tally, each unit's best time, the set-up times and
    the number of repeats."""
    tally = Tally()
    best = [float("inf")] * len(units)
    setup_samples = []
    repeats = 0
    t0 = time.perf_counter()
    while True:
        for i, unit in enumerate(units):
            best[i] = min(best[i], tally.run(unit))
        repeats += 1
        elapsed = time.perf_counter() - t0
        done = elapsed + elapsed / repeats > seconds
        due = SETUP_REPEATS if done else int(SETUP_REPEATS * elapsed / seconds) + 1
        while len(setup_samples) < min(due, SETUP_REPEATS):
            setup_samples.append(setup())
        if done:
            return tally, best, setup_samples, repeats, time.perf_counter() - t0


def run_traced(sample, seconds, plan):
    """Alternate untraced and traced passes over ``sample``; spans are kept
    for the first traced pass only, statistics for all of them."""
    targets = {layer["name"]: [tuple(t) for t in layer["targets"]] for layer in plan["layers"]}
    leaves = [layer["name"] for layer in plan["layers"] if layer.get("leaf")]
    tally = Tally()
    passes = []
    t0 = time.perf_counter()
    while True:
        untraced_s = sum(tally.run(unit) for unit in sample)
        tracer = Tracer(targets, leaves, keep_spans=not passes)
        before = dict(tally.work)
        with tracer.installed():
            for unit in sample:
                tally.run(unit, tracer)
        work = {k: tally.work[k] - before[k] for k in before}
        passes.append({"untraced_s": untraced_s, "tracer": tracer, "work": work})
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    return tally, passes


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_statistics(best, items_per_round):
    """Statistics of the units' best times over a run's repeats.

    The best of many repeats of the same work is the time it takes when
    nothing else slows it; on a shared machine a run's median drifts with
    the other work there, its best much less.  ``unit_ms_p90`` is reported
    beside the result, not in it: it rests on a round's few slowest units."""
    return {
        "verified_per_s": items_per_round / sum(best),
        "unit_ms_p50": 1e3 * statistics.median(best),
        "unit_ms_p90": 1e3 * quantile(best, 90),
    }


def per_layer_metrics(passes, plan):
    root_s = sum(p["tracer"].root_s for p in passes)
    first = passes[0]["tracer"]
    metrics = {}
    self_total = 0.0
    for layer in plan["layers"]:
        name = layer["name"]
        self_s = sum(p["tracer"].stats[name].self_s for p in passes)
        self_total += self_s
        metrics[f"{name}.calls"] = (first.stats[name].calls, "count")
        metrics[f"{name}.self_pct"] = (100.0 * self_s / root_s, "%")
        if layer["raises"]:
            metrics[f"{name}.errors"] = (first.stats[name].errors, "count")
    work = passes[0]["work"]
    for ratio in plan["ratios"]:
        per = work[ratio["per"]]
        calls = first.stats[ratio["calls"]].calls
        metrics[ratio["name"]] = (calls / per if per else 0.0, f"calls/{ratio['per'][:-1]}")
    remainder_s = sum(p["tracer"].remainder_s for p in passes)
    metrics["trace.remainder_pct"] = (100.0 * remainder_s / root_s, "%")
    metrics["trace.accounted_pct"] = (100.0 * (self_total + remainder_s) / root_s, "%")
    metrics["trace.wall_s"] = (root_s / len(passes), "s")
    metrics["trace_overhead"] = (root_s / sum(p["untraced_s"] for p in passes), "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# -- provenance --------------------------------------------------------------

def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info():
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return None


def version_of(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(args, wg):
    accel = sys.modules.get("wallach_geo.accel")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version_of("scipy"),
        "wallach_geo": getattr(wg, "__version__", None),
        "accel.USE_NUMBA": getattr(accel, "USE_NUMBA", None),
        "blas": blas_info(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- entry point ---------------------------------------------------------------

def load_plan():
    return json.loads((HERE / "plan.json").read_text())


def load_package():
    if not (SRC / "wallach_geo" / "__init__.py").is_file():
        raise FileNotFoundError(f"no wallach_geo package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wg = importlib.import_module("wallach_geo")
    cli = importlib.import_module("wallach_geo.cli")
    if Path(wg.__file__).resolve().parent != (SRC / "wallach_geo").resolve():
        raise ImportError(f"wallach_geo was imported from {wg.__file__}, not from {SRC}")
    return wg, cli


def run(args, plan):
    """Run one workload; return (info record, result object)."""
    wg, cli = load_package()
    spaces = [build_space(wg, spec) for spec in setup_spaces(args.workload)]
    rng = np.random.default_rng(np.random.Philox(args.seed))
    units = make_round(args.workload, wg, cli, spaces, rng)
    info = {"provenance": provenance(args, wg)}
    if args.trace:
        tally, passes = run_traced(units, args.seconds, plan)
        metrics = per_layer_metrics(passes, plan)
        info["samples"] = {"trace_passes": len(passes), "units_per_pass": len(units)}
        write_trace(args, info, passes)
    else:
        tally, best, setup_samples, repeats, elapsed = run_untraced(
            units, args.seconds, lambda: measure_setup(args.workload))
        info["setup_samples_s"] = setup_samples
        items_per_round = tally.work[ITEM[args.workload]] / repeats
        stats = {"setup_s": statistics.median(setup_samples),
                 **best_statistics(best, items_per_round)}
        metrics = {k: {"value": stats[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        info["samples"] = {"units": tally.attempted, "repeats": repeats,
                           "units_per_round": len(units),
                           "setup": len(setup_samples), "elapsed_s": elapsed}
        names = plan["workloads"][args.workload]["aliases"]
        info["named"] = {name: scale * stats[k] for k, (name, scale) in names.items()}
        info["unit_ms_p90"] = stats["unit_ms_p90"]
    info["failed_frac"] = tally.failed / tally.attempted
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return info, result


def write_trace(args, info, passes):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    record = {
        "provenance": info["provenance"],
        "passes": [
            {
                "untraced_s": p["untraced_s"],
                "traced_s": p["tracer"].root_s,
                "work": p["work"],
                "stats": {n: {"calls": s.calls, "self_s": s.self_s, "errors": s.errors}
                          for n, s in p["tracer"].stats.items()},
                "spans": p["tracer"].spans,
            }
            for p in passes
        ],
    }
    path.write_text(json.dumps(record, separators=(",", ":")))
    info["trace_file"] = str(path)


def parse_args(argv, plan):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(ROUNDS))
    p.add_argument("--seed", type=int, default=plan["default_seed"])
    p.add_argument("--seconds", type=int, default=55)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    plan = load_plan()
    args = parse_args(argv, plan)
    try:
        info, result = run(args, plan)
    except (ImportError, FileNotFoundError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
