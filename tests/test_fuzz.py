"""Fuzzing of the command line and the JSON space loader: every input ends
in a documented exit code (0-4) with at most one line on stderr, and a
report on stdout is strict JSON."""

import json
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wallach_geo import build_so_blocks
from wallach_geo.cli import main

FUZZ = settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

EXTREME_FLOATS = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e8, 1e300, 1.7e308, -1e308, math.inf, -math.inf, math.nan]
EXTREME_INTS = [-(2**63), -5, -1, 0, 10**12, 2**64]

floats = st.one_of(st.sampled_from(EXTREME_FLOATS), st.floats(-5.0, 5.0))
counts = st.one_of(st.sampled_from(EXTREME_INTS), st.integers(1, 3))
spaces = st.sampled_from(["stiefel3", "su3-flag", "so-blocks 1 1 1", "product-spheres"])


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _run(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be more lines on stderr
        code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3, 4), (argv, code)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)
    if out:
        assert isinstance(_strict_json(out), dict), (argv, out)
    else:
        assert code != 0 and err, (argv, code, err)
    return code


@st.composite
def _options(draw, valid, numeric):
    """``valid`` option values with up to two of the ``numeric`` options
    replaced by drawn values (extremes among them), as ``--name=value``
    tokens; ``valid`` maps an option to a value or a strategy."""
    values = {k: draw(v) if isinstance(v, st.SearchStrategy) else v for k, v in valid.items()}
    for name, value in draw(st.lists(st.sampled_from(sorted(numeric.items())), max_size=2)):
        values[name] = draw(value)
    return [f"--{k}={v}" for k, v in values.items()]


# mostly moderate positive values, sometimes an extreme one
scales = st.one_of(st.floats(0.1, 3.0), st.floats(0.1, 3.0), floats)
# metrics of the form (x, x, c) and its permutations match a closed-form case
case_metrics = st.tuples(scales, scales, st.integers(0, 2)).map(
    lambda m: [m[0] if q != m[2] else m[1] for q in range(3)]
)


@settings(FUZZ, max_examples=100)
@given(
    space=spaces,
    metric=st.one_of(case_metrics, st.lists(floats, min_size=3, max_size=3)),
    options=_options(
        {"trials": st.integers(1, 2), "steps": st.sampled_from([10, 40]), "seed": st.integers(0, 9),
         "t0": st.sampled_from([0.0, 0.5]), "t1": scales},
        {"trials": counts, "steps": counts, "seed": counts, "t0": floats, "t1": floats,
         "tol-gw": floats, "tol-defect": floats, "tol-coset": floats},
    ),
)
def test_fuzz_geodesic(capsys, space, metric, options):
    _run(capsys, ["geodesic", "--space", space, "--metric", *metric, *options])


@FUZZ
@given(
    space=spaces,
    options=_options({"trials": st.integers(1, 3), "seed": st.integers(0, 9)},
                     {"trials": counts, "seed": counts, "tol-defect": floats}),
)
def test_fuzz_go_check(capsys, space, options):
    _run(capsys, ["go-check", space, *options])


# a locus value and its float neighbours: on a locus, or off it by one ulp
locus_scales = st.one_of(
    scales, st.sampled_from([1.0, float(np.nextafter(1.0, 0.0)), float(np.nextafter(1.0, 2.0))])
)


@FUZZ
@given(
    # lambda2 = lambda3 puts the metric on the s5/s6 family locus, and a
    # neighbour of lambda2 next to it one ulp off that locus
    lambdas=st.one_of(
        st.tuples(locus_scales, locus_scales), scales.map(lambda x: (x, x)),
        st.floats(0.1, 3.0).map(lambda x: (x, float(np.nextafter(x, 4.0)))),
    ),
)
def test_fuzz_restriction(capsys, lambdas):
    _run(capsys, ["restriction", f"--lambda2={lambdas[0]}", f"--lambda3={lambdas[1]}"])


_VALID = {
    "name": "tiny",
    "ambient_size": 3,
    "basis": [M.tolist() for M in build_so_blocks(1, 1, 1).context.basis],
    "parts": {"k": [], "m1": [0], "m2": [1], "m3": [2]},
}
_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.sampled_from(EXTREME_FLOATS),
    st.text(max_size=3), st.lists(st.integers(-1, 4), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# names that a report must escape: control characters, quotes, non-ASCII
_names = st.one_of(
    _junk,
    st.sampled_from(["two\nlines", "tab\there", 'say "so"', "back\\slash", "ünïcødé ∑"]),
    st.text(max_size=6),
)
_rows = st.lists(st.one_of(floats, _junk), max_size=10)
_bases = st.one_of(
    _junk,
    st.lists(_rows, max_size=4),  # ragged or wrong-length rows
    st.lists(st.lists(st.lists(floats, min_size=3, max_size=3), min_size=3, max_size=3), max_size=4),
)
_parts = st.one_of(
    _junk,
    st.dictionaries(
        st.sampled_from(["k", "m1", "m2", "m3", "m"]),
        st.one_of(_junk, st.lists(st.one_of(st.integers(-2, 4), _junk), max_size=3)),
    ),
)


@st.composite
def _definitions(draw):
    """The valid so(3) definition with some fields dropped or replaced."""
    data = dict(_VALID)
    for key, values in (("name", _names), ("ambient_size", _junk), ("basis", _bases), ("parts", _parts)):
        action = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
        if action == "drop":
            del data[key]
        elif action == "replace":
            data[key] = draw(values)
    return draw(st.one_of(st.just(data), st.just(data), _junk))


@FUZZ
@given(data=_definitions(), command=st.sampled_from(["verify-space", "geodesic"]))
@example(data={**_VALID, "name": 'two\nlines\t"ü"'}, command="verify-space")
@example(data={**_VALID, "name": "two\nlines", "basis": [[[0.0] * 3] * 3]}, command="geodesic")
def test_fuzz_json_space_definitions(capsys, tmp_path, data, command):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(data))
    if command == "verify-space":
        _run(capsys, ["verify-space", path])
    else:
        _run(capsys, ["geodesic", "--space", path, "--metric", 1, 1, 0.5, "--trials=1", "--steps=20"])
