"""Tests of the benchmark itself, at minimal size.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


@pytest.fixture
def minimal(monkeypatch, tmp_path):
    """Shrink every workload to a few small units; keep the trace files out
    of the repository."""
    monkeypatch.setattr(bench, "SWEEP_SPACES", (("build_so_blocks", (1, 1, 1)),))
    monkeypatch.setattr(bench, "C_VALUES", (0.5,))
    monkeypatch.setattr(bench, "GEODESIC_CALLS",
                        (("stiefel 2", ("1", "1", "0.5"), ("build_stiefel", (2,))),))
    monkeypatch.setattr(bench, "GEODESIC_TRIALS", 1)
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    return bench


def _run(capsys, workload, trace, seed=3):
    code = bench.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


def _expected(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(minimal, capsys, workload, trace, kind):
    code, lines = _run(capsys, workload, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _expected(kind)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_calls_repeat_exactly(minimal, capsys, workload):
    runs = []
    for _ in range(2):
        code, lines = _run(capsys, workload, 1, seed=5)
        assert code == 0
        metrics = json.loads(lines[-1])["metrics"]
        runs.append({k: v["value"] for k, v in metrics.items() if k.endswith(".calls")})
    assert runs[0] == runs[1]
    assert sum(runs[0].values()) > 0


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_trace_accounts_for_wall_time(minimal, capsys, workload):
    _, lines = _run(capsys, workload, 1)
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    shares = sum(v for k, v in metrics.items() if k.endswith(".self_pct"))
    assert shares + metrics["trace.remainder_pct"] == pytest.approx(100.0, abs=1e-6)
    assert metrics["trace.accounted_pct"] == pytest.approx(100.0, abs=1e-6)


def test_expm_per_point_on_the_sweep(minimal, capsys):
    _, lines = _run(capsys, "closed_form_sweep", 1)
    metrics = json.loads(lines[-1])["metrics"]
    assert metrics["accel.expm.per_point"]["value"] == 4.0


def test_failed_gate_is_counted(minimal, monkeypatch, capsys):
    monkeypatch.setattr(bench, "GATE_TOL", -1.0)
    code, lines = _run(capsys, "closed_form_sweep", 0)
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_zero_units_is_a_failure(minimal, monkeypatch, capsys):
    monkeypatch.setattr(bench, "GEODESIC_CALLS", ())
    code, lines = _run(capsys, "geodesic_cli", 0)
    assert code != 0
    assert lines == []


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
