"""Command-line interface: exit codes, report schema and determinism."""

import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wallach_geo
from wallach_geo import build_so_blocks, cli, geodesics
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


@pytest.mark.parametrize(
    "space, message",
    [
        (["so-blocks", "1", "2"], "so-blocks needs three positive integers l m n"),
        (["stiefel"], "stiefel needs one integer n >= 2"),
        (["su3-flag", "2"], "unknown space 'su3-flag 2'"),
    ],
)
def test_wrong_number_of_sizes_is_an_unknown_space(capsys, space, message):
    """A family given the wrong number of sizes says what it needs; one that
    takes no sizes treats any as part of an unknown name."""
    assert run(capsys, "verify-space", *space) == (2, "", f"error: {message}\n")


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


def test_geodesic_json_output_equals_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    path.write_text("stale " * 1000)
    code, out, _ = run(capsys, *GEO_ARGS, "--out", str(path), "--format", "json")
    assert code == 0
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "target, reason", [("missing/r.json", "No such file or directory"), (".", "Is a directory")]
)
def test_unwritable_out_is_refused_before_any_trial(capsys, monkeypatch, tmp_path, target, reason):
    monkeypatch.setattr(cli, "closed_form_geodesic", None)  # a trial would raise TypeError
    code, out, err = run(capsys, *GEO_ARGS, "--out", str(tmp_path / target))
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "--out" in err and reason in err


def test_failed_run_leaves_no_out_file_it_created(capsys, tmp_path):
    """A run that ends in an error removes the --out file it created and
    leaves an existing one untouched."""
    failing = ["geodesic", "--space", "stiefel3", "--metric", "1", "1", "0.5",
               "--trials", "1", "--t1", "20", "--steps", "20"]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("kept")
    for path in (new, old):
        code, out, err = run(capsys, *failing, "--out", str(path))
        assert (code, out) == (1, "") and "energy drift" in err
    assert not new.exists()
    assert old.read_text() == "kept"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_out_on_a_full_device_ends_in_one_line(capsys):
    """/dev/full accepts the open but fails the write: exit 3, one line
    naming --out and the OS reason, and no report on stdout."""
    code, out, err = run(capsys, *GEO_ARGS, "--out", "/dev/full")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "--out" in err and "No space left on device" in err


def test_failed_out_write_removes_the_file_it_created(capsys, monkeypatch, tmp_path):
    """A write that fails after the trials prints no report, exits 3 with
    one line, and removes the --out file the run created."""
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    # the check before the trials opens the file to append, the report write truncates
    monkeypatch.setattr(cli, "open", lambda f, mode: Full() if mode == "w" else open(f, mode),
                        raising=False)
    path = tmp_path / "new.csv"
    code, out, err = run(capsys, *GEO_ARGS, "--out", str(path), "--format", "csv")
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "--out" in err and "No space left on device" in err
    assert not path.exists()


@pytest.mark.parametrize("message", ["Unable to allocate 9.74 GiB for an array", ""])
def test_a_space_too_large_for_memory_ends_in_one_line(capsys, monkeypatch, message):
    """A MemoryError (as numpy raises for a space such as stiefel 40) exits
    3 with one line on stderr; no test attempts the real allocation."""
    def too_large(*sizes, tol_structural):
        raise MemoryError(message)

    monkeypatch.setitem(cli.CATALOG, "stiefel", (too_large, *cli.CATALOG["stiefel"][1:]))
    code, out, err = run(capsys, "verify-space", "stiefel", "40")
    assert (code, out) == (3, "")
    assert err == f"error: out of memory{': ' * bool(message)}{message}\n"


@pytest.mark.parametrize("metric", [["1", "1", "1e-9"], ["1e-9", "1", "1"], ["1", "1e-9", "1"]])
def test_defect_is_measured_in_the_metric_norm(capsys, metric):
    """A module weighed 1e-9 does not inflate the defect: in the metric's
    own norm these closed forms pass the 1e-9 gate (in -B they read 2e-8
    to 7e-8)."""
    code, out, _ = run(capsys, "geodesic", "--space", "stiefel3", "--metric", *metric,
                       "--trials", "2", "--steps", "40")
    report = json.loads(out)
    assert (code, report["verdict"]) == (0, "pass")
    assert report["max_defect_norm"] <= 1e-9


@pytest.mark.parametrize("times", [["--t1", "0"], ["--t0", "1.5", "--t1", "1.5"]])
def test_geodesic_over_zero_time_is_refused(capsys, times):
    """A grid of one point and a shot over zero time check nothing."""
    code, out, err = run(capsys, *GEO_ARGS, *times)
    assert (code, out) == (3, "")
    assert err.count("\n") == 1 and "--t1 must differ from --t0" in err


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
    """Off every locus the restriction command reports the exact certificate."""
    code, out, _ = run(capsys, "restriction", "--lambda2", "1.3", "--lambda3", "0.7")
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "certificate"
    assert report["proved"] is True
    assert report["differences"] == [1.3 - 1, 0.7 - 1, 1.3 - 0.7]
    assert "no common zero" in report["statement"]


@pytest.mark.parametrize("l2, l3", [("1.01", "0.7"), ("1.3", "1.04"), ("0.7", "0.71"),
                                    ("1.0000000000000002", "0.7")])
def test_restriction_near_a_family_locus_exit_code(capsys, l2, l3):
    """Next to a locus, as anywhere off one, no family applies and the
    certificate proves nonexistence: exit 0."""
    code, out, err = run(capsys, "restriction", "--lambda2", l2, "--lambda3", l3)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert (report["mode"], report["proved"]) == ("certificate", True)


@pytest.mark.parametrize("l2, l3", [("1e300", "1e-300"), ("5e-324", "1.7e308")])
def test_restriction_proves_at_extreme_metrics(capsys, l2, l3):
    """The differences in the report stay finite where E would overflow."""
    code, out, err = run(capsys, "restriction", "--lambda2", l2, "--lambda3", l3)
    assert (code, err) == (0, "")
    assert _strict_json(out)["proved"] is True


def test_restriction_with_a_wrong_cofactor_fails(capsys, monkeypatch):
    """Negative control: a perturbed cofactor proves nothing, and exit 1."""
    cofactors = geodesics._cofactors
    monkeypatch.setattr(geodesics, "_cofactors", lambda p, l2, l3: cofactors(p, l2, l3) * 2)
    code, out, _ = run(capsys, "restriction", "--lambda2", "1.3", "--lambda3", "0.7")
    assert code == 1
    assert json.loads(out)["proved"] is False


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


@pytest.mark.parametrize("space", ["so3", "product-spheres"])
def test_json_space_with_an_empty_module_is_rejected(capsys, tmp_path, space):
    """A verified space needs a basis vector in each of m1, m2 and m3: so(3)
    with every basis vector in k, and product-spheres with m3 moved into k
    (still a subalgebra there), are input errors on every command."""
    from wallach_geo import build_product_spheres, build_so_blocks

    if space == "so3":
        dec = build_so_blocks(1, 1, 1)
        parts = {"k": [0, 1, 2], "m1": [], "m2": [], "m3": []}
    else:
        dec = build_product_spheres()
        parts = {p: [int(i) for i in dec.part_indices[p]] for p in ("k", "m1", "m2", "m3")}
        parts["k"] += parts["m3"]
        parts["m3"] = []
    data = {
        "name": space,
        "ambient_size": dec.context.ambient_size,
        "basis": [M.tolist() for M in dec.context.basis],
        "parts": parts,
    }
    path = tmp_path / "empty_module.json"
    path.write_text(json.dumps(data))
    for argv in (
        ("verify-space", str(path)),
        ("geodesic", "--space", str(path), "--metric", "1", "1", "0.5", "--trials", "1"),
        ("go-check", str(path)),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "no basis vector" in err and "Traceback" not in err


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
    """The certificate takes no trials: --trials is an unknown option."""
    for trials in ("0", "5"):
        code, out, err = run(capsys, "restriction", "--lambda2", "1.3", "--lambda3", "0.7",
                             "--trials", trials)
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and "unrecognized arguments: --trials" in err


@pytest.mark.parametrize(
    "argv",
    [
        GEO_ARGS + ["--tol-gw", "inf"],
        GEO_ARGS + ["--tol-defect", "nan"],
        GEO_ARGS + ["--tol-coset=-inf"],
        GEO_ARGS + ["--t1", "inf"],
        ["geodesic", "--space", "stiefel3", "--metric", "inf", "1", "1", "--trials", "1"],
        ["go-check", "product-spheres", "--trials", "1", "--tol-defect", "inf"],
        ["restriction", "--lambda2", "nan", "--lambda3", "0.7"],
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
        GEO_ARGS + ["--tol-gw", "-1"],
        GEO_ARGS + ["--tol-defect=-1e-300"],
        GEO_ARGS + ["--tol-coset=-0.5"],
        ["go-check", "product-spheres", "--trials", "1", "--tol-defect", "-1"],
    ],
)
def test_negative_tolerances_are_rejected(capsys, argv):
    """A negative tolerance fails every check before any runs."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    flag = next(a for a in argv if a.startswith("--tol")).split("=")[0]
    assert err.count("\n") == 1 and f"argument {flag}: must be finite and >= 0" in err


def test_zero_tolerance_is_legal(capsys):
    code, out, _ = run(capsys, "go-check", "product-spheres", "--trials", "2", "--tol-defect", "0")
    assert code == 0
    report = json.loads(out)
    assert (report["result"], report["max_defect"], report["tolerance"]) == ("pass", 0, 0)


def test_every_numeric_option_has_a_checked_type():
    """An int or float option, typed or with a numeric default, carries one
    of the range-checked types, so no new option can skip its rule."""
    checked = {cli.COUNT, cli.FINITE, cli.SEED, cli.TOLERANCE}
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, parser in commands.choices.items():
        for action in parser._actions:
            numeric = isinstance(action.default, (int, float)) and not isinstance(action.default, bool)
            if action.type is not None or numeric:
                assert action.type in checked, (name, action.option_strings)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-space", "so-blocks", "0", "1", "2"],
        ["verify-space", "stiefel", "1"],
        ["go-check", "so-blocks", "1", "1", "0"],
        ["verify-space", "stiefel", "-3"],
        ["verify-space", "so-blocks", "2", "-2", "2"],
        ["verify-space", "so-blocks(2,-2,2)"],
        ["geodesic", "--space", "stiefel -3", "--metric", "1", "1", "0.5"],
    ],
)
def test_degenerate_space_is_an_input_error(capsys, argv):
    """A catalog family asked for a space it cannot build is bad input; a
    size written with a minus sign reaches the builder signed."""
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: need ")


@pytest.mark.parametrize(
    "spec, name",
    [
        ("so-blocks 1-1-3", "so-blocks(1,1,3)"),
        ("stiefel-3", "stiefel(3)"),
        ("stiefel - 3", "stiefel(3)"),
    ],
)
def test_a_dash_after_a_digit_or_the_name_separates(spec, name):
    """A "-" is a minus sign only after a space, "(" or ","."""
    assert cli.resolve_space(spec).name == name


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
        ["restriction", "--lambda2", "1.3", "--lambda3", "0.7"],
    ],
)
def test_reports_are_strict_json(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert isinstance(_strict_json(out), dict)


def _fresh_process(argv, stdout=subprocess.PIPE):
    """One command run in a new interpreter, its stderr (and by default its
    stdout) captured."""
    src = str(Path(wallach_geo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys; from wallach_geo.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


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


def test_closed_stdout_ends_quietly():
    """A reader that has closed its end of the pipe (as `| head` does) ends
    the command with exit code 1 and nothing on stderr, not a traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _fresh_process(["verify-space", "so-blocks", "2", "2", "2"], stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


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
        # the space of the call before once more, with another draw
        ["geodesic", "--space", "Stiefel(3)", "--metric", "1", "1", "0.5", "--trials", "1",
         "--steps", "40", "--seed", "3"],
    ]
    assert build_parser() is build_parser()
    in_process = []
    for argv in sequence:
        code, out, _ = run(capsys, *argv)
        in_process.append((code, out))
    assert [code for code, _ in in_process] == [0, 3, 0, 0, 0, 0]
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


@pytest.mark.parametrize(
    "metric, t1, message",
    [
        (["1", "1", "0.5"], "100", "energy drift 4.808e-01 exceeds 1e-6; reduce the step size"),
        (["1", "1", "1"], "1000", "polar factor did not converge at step 1; reduce the step size"),
    ],
    ids=["energy-drift", "polar"],
)
def test_shot_with_too_large_a_step_is_one_error_line(metric, t1, message):
    """The energy drift is reported before a polar step that does not
    converge (with a bi-invariant metric the drift is zero): exit code 1,
    one stderr line, no traceback or numpy warning."""
    proc = _fresh_process(["geodesic", "--space", "stiefel3", "--metric", *metric,
                           "--trials", "1", "--steps", "20", "--t1", t1])
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
