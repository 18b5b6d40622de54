"""Command-line interface: exit codes, report schema and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wallach_geo
from wallach_geo import build_so_blocks
from wallach_geo.cli import build_parser, main

GEO_ARGS = [
    "geodesic",
    "--space",
    "stiefel3",
    "--metric",
    "1",
    "1",
    "0.5",
    "--trials",
    "2",
    "--steps",
    "100",
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_all_entries(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    for token in ("so-blocks l m n", "stiefel n", "su3-flag", "product-spheres"):
        assert token in out
    assert "commuting pairs {12,13,23}" in out


def test_verify_space_passes(capsys):
    code, out, _ = run(capsys, "verify-space", "so-blocks", "2", "2", "2")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert report["module_dims"] == [4, 4, 4]


def test_unknown_space_exit_code(capsys):
    code, _, err = run(capsys, "verify-space", "nosuch-space")
    assert code == 2
    assert "unknown space" in err


def test_geodesic_report_schema(capsys):
    code, out, _ = run(capsys, *GEO_ARGS)
    assert code == 0
    report = json.loads(out)
    assert list(report.keys()) == [
        "space",
        "metric",
        "case",
        "trials",
        "grid",
        "max_abs_gw",
        "max_defect_norm",
        "max_coset_dist",
        "verdict",
        "tolerances",
        "seed",
        "notes",
    ]
    assert report["case"] == 1
    assert report["verdict"] == "pass"
    assert report["max_abs_gw"] <= 1e-9
    assert report["max_coset_dist"] <= 1e-6


def test_geodesic_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, *GEO_ARGS)
    _, out2, _ = run(capsys, *GEO_ARGS)
    assert out1 == out2


def test_geodesic_seed_changes_report(capsys):
    _, out1, _ = run(capsys, *GEO_ARGS)
    _, out2, _ = run(capsys, *GEO_ARGS, "--seed", "1")
    assert json.loads(out1)["seed"] != json.loads(out2)["seed"]


def test_geodesic_csv_output(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, _, _ = run(capsys, *GEO_ARGS, "--out", str(path), "--format", "csv")
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,defect_norm,max_abs_gw,coset_dist"
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts == sorted(ts) and len(set(ts)) == len(ts)
    assert len(ts) == 21


def test_case_mismatch_exit_code(capsys):
    code, _, err = run(
        capsys, "geodesic", "--space", "stiefel3", "--metric", "1", "1", "0.5", "--case", "2"
    )
    assert code == 4
    assert "case-2" in err


def test_generic_metric_has_no_case(capsys):
    code, _, err = run(
        capsys, "geodesic", "--space", "stiefel3", "--metric", "1", "1.3", "0.7"
    )
    assert code == 4
    assert "restriction" in err


def test_case_auto_prefers_case_one_on_ties(capsys):
    code, out, _ = run(
        capsys,
        "geodesic",
        "--space",
        "su3-flag",
        "--metric",
        "1",
        "1",
        "1",
        "--trials",
        "1",
        "--steps",
        "100",
    )
    assert code == 0
    assert json.loads(out)["case"] == 1


def test_restriction_family_mode(capsys):
    code, out, _ = run(capsys, "restriction", "--lambda2", "1", "--lambda3", "0.7")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "families"
    assert report["families"] == ["s1", "s2"]
    assert all(s["max_abs_residual"] <= 1e-12 for s in report["solutions"])


def test_restriction_probe_mode(capsys):
    code, out, _ = run(
        capsys, "restriction", "--lambda2", "1.3", "--lambda3", "0.7", "--trials", "20"
    )
    assert code == 0
    report = json.loads(out)
    assert "best-effort" in report["mode"]
    assert report["best_residual_norm"] > 1e-4


@pytest.mark.parametrize("l2, l3", [("1.01", "0.7"), ("1.3", "1.04"), ("0.7", "0.71")])
def test_restriction_near_a_family_locus_exit_code(capsys, l2, l3):
    """Between the 1e-12 family match and the 0.05 probe gap no family
    applies and the probe is not run: exit 4 with one true line."""
    code, out, err = run(capsys, "restriction", "--lambda2", l2, "--lambda3", l3)
    assert code == 4
    assert out == ""
    assert err.count("\n") == 1 and "within 0.05 of a solution-family locus" in err


def test_restriction_invalid_metric_exit_code(capsys):
    code, _, _ = run(capsys, "restriction", "--lambda2", "-1", "--lambda3", "0.7")
    assert code == 4


def test_go_check_commuting_space(capsys):
    code, out, _ = run(capsys, "go-check", "product-spheres", "--trials", "2")
    assert code == 0
    assert json.loads(out)["result"] == "pass"


def test_go_check_reports_unmet_hypothesis(capsys):
    code, out, _ = run(capsys, "go-check", "stiefel3")
    assert code == 0
    assert json.loads(out)["result"] == "hypothesis not met"


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "su3-flag")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_json_space_definition_accepted(capsys, tmp_path):
    from wallach_geo import build_so_blocks

    dec = build_so_blocks(1, 1, 1)
    data = {
        "name": "tiny",
        "ambient_size": 3,
        "basis": [M.tolist() for M in dec.context.basis],
        "parts": {p: [int(i) for i in dec.part_indices[p]] for p in ("k", "m1", "m2", "m3")},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify-space", str(path))
    assert code == 0
    assert json.loads(out)["space"] == "tiny"


def test_bad_json_space_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{}")
    code, _, _ = run(capsys, "verify-space", str(path))
    assert code == 3


def test_non_compact_json_space_is_rejected(capsys, tmp_path):
    """so(2,1) satisfies every bracket relation, but -B is indefinite on it:
    no invariant metric comes from -B, so the space is an input error."""
    rotation = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    boost1 = [[0, 0, 1], [0, 0, 0], [1, 0, 0]]
    boost2 = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]
    data = {
        "name": "so(2,1)",
        "ambient_size": 3,
        "basis": [rotation, boost1, boost2],
        "parts": {"k": [], "m1": [0], "m2": [1], "m3": [2]},
    }
    path = tmp_path / "so21.json"
    path.write_text(json.dumps(data))
    for argv in (
        ("verify-space", str(path)),
        ("geodesic", "--space", str(path), "--metric", "1", "1", "0.5", "--trials", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "positive definite" in err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_geodesic_rejects_nonpositive_trials(capsys, trials):
    argv = GEO_ARGS[:GEO_ARGS.index("--trials") + 1] + [trials, "--steps", "100"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "--trials" in err


def test_go_check_rejects_nonpositive_trials(capsys):
    code, out, err = run(capsys, "go-check", "product-spheres", "--trials", "0")
    assert code == 3
    assert out == ""
    assert "--trials" in err


def test_bad_structural_tol_env(capsys, monkeypatch):
    """A tolerance that is not a finite number > 0 is a one-line usage error."""
    for value in ("not-a-number", "nan", "inf", "-1", "0"):
        for argv in (["verify-space", "stiefel", "2"], GEO_ARGS):
            monkeypatch.setenv("WALLACH_GEO_TOL", value)
            code, out, err = run(capsys, *argv)
            assert code == 3, (value, argv)
            assert out == ""
            assert err.count("\n") == 1 and "WALLACH_GEO_TOL" in err


def test_structural_tol_env_applied(capsys, monkeypatch):
    monkeypatch.setenv("WALLACH_GEO_TOL", "1e-10")
    code, out, _ = run(capsys, "verify-space", "stiefel", "2")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_non_orthogonal_json_space_is_rejected(capsys, tmp_path):
    """so(3) conjugated by diag(1, 2, 3) is compact, but its basis is not
    skew, so its group is not orthogonal: an input error on both commands."""
    D = np.diag([1.0, 2.0, 3.0])
    basis = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        E = np.zeros((3, 3))
        E[a, b], E[b, a] = 1.0, -1.0
        basis.append((D @ E @ np.linalg.inv(D)).tolist())
    data = {
        "name": "so(3) conjugated",
        "ambient_size": 3,
        "basis": basis,
        "parts": {"k": [], "m1": [0], "m2": [1], "m3": [2]},
    }
    path = tmp_path / "so3_conjugated.json"
    path.write_text(json.dumps(data))
    for argv in (
        ("verify-space", str(path)),
        ("geodesic", "--space", str(path), "--metric", "1", "1", "0.5", "--trials", "1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "skew-symmetric" in err


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_geodesic_rejects_nonpositive_steps(capsys, steps):
    argv = GEO_ARGS[:GEO_ARGS.index("--steps") + 1] + [steps]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "--steps" in err


def test_restriction_rejects_nonpositive_trials(capsys):
    code, out, err = run(capsys, "restriction", "--lambda2", "1.3", "--lambda3", "0.7",
                         "--trials", "0")
    assert code == 3
    assert out == ""
    assert "--trials" in err


@pytest.mark.parametrize(
    "argv",
    [
        GEO_ARGS + ["--tol-gw", "inf"],
        GEO_ARGS + ["--tol-defect", "nan"],
        GEO_ARGS + ["--tol-coset=-inf"],
        GEO_ARGS + ["--t1", "inf"],
        ["geodesic", "--space", "stiefel3", "--metric", "inf", "1", "1", "--trials", "1"],
        ["go-check", "product-spheres", "--trials", "1", "--tol-defect", "inf"],
        ["restriction", "--lambda2", "nan", "--lambda3", "0.7", "--trials", "2"],
    ],
)
def test_non_finite_values_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-space", "so-blocks", "0", "1", "2"],
        ["verify-space", "stiefel", "1"],
        ["go-check", "so-blocks", "1", "1", "0"],
    ],
)
def test_degenerate_space_is_an_input_error(capsys, argv):
    """A catalog family asked for a space it cannot build is bad input."""
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: need ")


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "argv",
    [
        GEO_ARGS,
        ["go-check", "product-spheres", "--trials", "2"],
        ["restriction", "--lambda2", "1", "--lambda3", "0.7"],
        ["restriction", "--lambda2", "1.3", "--lambda3", "0.7", "--trials", "1"],
    ],
)
def test_reports_are_strict_json(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert isinstance(_strict_json(out), dict)


def _fresh_process(argv):
    """One command run in a new interpreter, its output captured."""
    src = str(Path(wallach_geo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys; from wallach_geo.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)


def _fresh_call(argv):
    """(exit code, stdout) of one command in a new interpreter."""
    proc = _fresh_process(argv)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["geodesic", "--space", "su3-flag", "--metric", "1", "1e100", "1", "--trials", "1",
          "--steps", "40"], "state overflow at step 1; reduce the step size"),
        (["geodesic", "--space", "stiefel3", "--metric", "1", "1", "0.5", "--trials", "1",
          "--t1", "20", "--steps", "20"], "energy drift 3.998e-05 exceeds 1e-6; reduce the step size"),
    ],
    ids=["overflow", "energy-drift"],
)
def test_shooting_failure_is_one_error_line(argv, message):
    """A shot that overflows or drifts ends the process with exit code 1 and
    one stderr line, no traceback or numpy warning."""
    proc = _fresh_process(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


def test_parser_is_shared_and_calls_match_fresh_interpreters(capsys):
    """One parser serves every call of a process, and a call after others,
    a malformed one among them, prints what it prints as a process's first."""
    sequence = [
        ["geodesic", "--space", "su3-flag", "--metric", "1", "0.7", "1", "--trials", "1",
         "--steps", "40"],
        ["geodesic", "--space", "su3-flag", "--case", "7"],
        ["restriction", "--lambda2", "1", "--lambda3", "0.7"],
        ["verify-space", "stiefel", "3"],
        ["geodesic", "--space", "stiefel3", "--metric", "1", "1", "0.5", "--trials", "1",
         "--steps", "40"],
    ]
    assert build_parser() is build_parser()
    in_process = []
    for argv in sequence:
        code, out, _ = run(capsys, *argv)
        in_process.append((code, out))
    assert [code for code, _ in in_process] == [0, 3, 0, 0, 0]
    assert in_process == [_fresh_call(argv) for argv in sequence]


def _write_space(path, name, basis, dec):
    data = {
        "name": name,
        "ambient_size": dec.context.ambient_size,
        "basis": [M.tolist() for M in basis],
        "parts": {p: [int(i) for i in dec.part_indices[p]] for p in ("k", "m1", "m2", "m3")},
    }
    path.write_text(json.dumps(data))
    return str(path)


def test_structural_tol_env_applies_to_json_spaces(capsys, monkeypatch, tmp_path):
    """so-blocks(1,1,2) with 1e-9 of an m2 vector leaked into an m1 vector
    fails at the default tolerance and passes at 1e-6."""
    dec = build_so_blocks(1, 1, 2)
    basis = dec.context.basis.copy()
    basis[dec.part_indices["m1"][0]] += 1e-9 * basis[dec.part_indices["m2"][0]]
    path = _write_space(tmp_path / "leaky.json", "leaky", basis, dec)
    code, out, err = run(capsys, "verify-space", path)
    assert code == 3 and out == "" and "structure verification failed" in err
    monkeypatch.setenv("WALLACH_GEO_TOL", "1e-6")
    code, out, _ = run(capsys, "verify-space", path)
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_control_characters_in_names_are_escaped(capsys, tmp_path):
    """A space name with a newline, tab, quote or non-ASCII characters gives
    ASCII reports that parse back to that name, and errors on one line."""
    name = 'two\nlines\t"quoted" \\ ünïcødé ∑'
    dec = build_so_blocks(1, 1, 1)
    path = _write_space(tmp_path / "named.json", name, dec.context.basis, dec)
    for argv in (
        ("verify-space", path),
        ("geodesic", "--space", path, "--metric", "1", "1", "0.5", "--trials", "1"),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.isascii() and json.loads(out)["space"] == name
    path = _write_space(tmp_path / "flat.json", name, 0.0 * dec.context.basis, dec)
    code, out, err = run(capsys, "verify-space", path)
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and "two\\nlines\\t" in err
