"""Golden reports: fixed-seed CLI output that must stay byte for byte.

Each expected text is the full standard output of one command, with exit
code 0 and nothing on standard error.  The catalog's su3-flag line ends in
two spaces: its flags column is empty.
"""

import pytest

from wallach_geo.cli import main

CATALOG = """\
space                     dim g    module dims  flags
so-blocks l m n              15        (4,4,4)   [so-blocks(2,2,2)]
stiefel n                    10        (3,3,1)  equivalent modules [stiefel(3)]
su3-flag                      8        (2,2,2)  
product-spheres               9        (2,2,2)  commuting pairs {12,13,23}
"""

FAMILY_L2_1 = """\
{
  "lambda2": 1,
  "lambda3": 0.69999999999999996,
  "mode": "families",
  "families": ["s1", "s2"],
  "solutions": [{
    "family": "s1",
    "a": [0, 0, 0.20000000000000001],
    "b": [0, 0, 0.10000000000000009],
    "lambda2": 1,
    "lambda3": 0.69999999999999996,
    "free": {
      "lambda3": 0.69999999999999996,
      "a3": 0.20000000000000001
    },
    "max_abs_residual": 5.5511151231257827e-17
  }, {
    "family": "s2",
    "a": [0, 0, 0.30000000000000004],
    "b": [0.20000000000000001, 0.20000000000000001, 0.13999999999999999],
    "lambda2": 1,
    "lambda3": 0.69999999999999996,
    "free": {
      "lambda3": 0.69999999999999996,
      "b2": 0.20000000000000001
    },
    "max_abs_residual": 6.9388939039072284e-18
  }, {
    "family": "s1",
    "a": [0, 0, -0.40000000000000002],
    "b": [0, 0, 0.69999999999999996],
    "lambda2": 1,
    "lambda3": 0.69999999999999996,
    "free": {
      "lambda3": 0.69999999999999996,
      "a3": -0.40000000000000002
    },
    "max_abs_residual": 1.1102230246251565e-16
  }, {
    "family": "s2",
    "a": [0, 0, 0.30000000000000004],
    "b": [-0.40000000000000002, -0.40000000000000002, -0.27999999999999997],
    "lambda2": 1,
    "lambda3": 0.69999999999999996,
    "free": {
      "lambda3": 0.69999999999999996,
      "b2": -0.40000000000000002
    },
    "max_abs_residual": 1.3877787807814457e-17
  }, {
    "family": "s1",
    "a": [0, 0, 0.75],
    "b": [0, 0, -0.44999999999999996],
    "lambda2": 1,
    "lambda3": 0.69999999999999996,
    "free": {
      "lambda3": 0.69999999999999996,
      "a3": 0.75
    },
    "max_abs_residual": 5.5511151231257827e-17
  }, {
    "family": "s2",
    "a": [0, 0, 0.30000000000000004],
    "b": [0.75, 0.75, 0.52499999999999991],
    "lambda2": 1,
    "lambda3": 0.69999999999999996,
    "free": {
      "lambda3": 0.69999999999999996,
      "b2": 0.75
    },
    "max_abs_residual": 5.5511151231257827e-17
  }]
}
"""

FAMILY_L3_1 = """\
{
  "lambda2": 1.3,
  "lambda3": 1,
  "mode": "families",
  "families": ["s3", "s4"],
  "solutions": [{
    "family": "s3",
    "a": [0, 0.20000000000000001, 0],
    "b": [0, -0.5, 0],
    "lambda2": 1.3,
    "lambda3": 1,
    "free": {
      "lambda2": 1.3,
      "a2": 0.20000000000000001
    },
    "max_abs_residual": 5.5511151231257827e-17
  }, {
    "family": "s4",
    "a": [0, -0.30000000000000004, 0],
    "b": [0.15384615384615385, 0.20000000000000001, 0.15384615384615385],
    "lambda2": 1.3,
    "lambda3": 1,
    "free": {
      "lambda2": 1.3,
      "b2": 0.20000000000000001
    },
    "max_abs_residual": 0
  }, {
    "family": "s3",
    "a": [0, -0.40000000000000002, 0],
    "b": [0, 0.099999999999999867, 0],
    "lambda2": 1.3,
    "lambda3": 1,
    "free": {
      "lambda2": 1.3,
      "a2": -0.40000000000000002
    },
    "max_abs_residual": 1.1102230246251565e-16
  }, {
    "family": "s4",
    "a": [0, -0.30000000000000004, 0],
    "b": [-0.30769230769230771, -0.40000000000000002, -0.30769230769230771],
    "lambda2": 1.3,
    "lambda3": 1,
    "free": {
      "lambda2": 1.3,
      "b2": -0.40000000000000002
    },
    "max_abs_residual": 2.7755575615628914e-17
  }, {
    "family": "s3",
    "a": [0, 0.75, 0],
    "b": [0, -1.05, 0],
    "lambda2": 1.3,
    "lambda3": 1,
    "free": {
      "lambda2": 1.3,
      "a2": 0.75
    },
    "max_abs_residual": 5.5511151231257827e-17
  }, {
    "family": "s4",
    "a": [0, -0.30000000000000004, 0],
    "b": [0.57692307692307687, 0.75, 0.57692307692307687],
    "lambda2": 1.3,
    "lambda3": 1,
    "free": {
      "lambda2": 1.3,
      "b2": 0.75
    },
    "max_abs_residual": 0
  }]
}
"""

FAMILY_L2_EQ_L3 = """\
{
  "lambda2": 0.80000000000000004,
  "lambda3": 0.80000000000000004,
  "mode": "families",
  "families": ["s5", "s6"],
  "solutions": [{
    "family": "s5",
    "a": [-0.24999999999999994, 0, 0],
    "b": [0.20000000000000001, 0.16000000000000003, 0.16000000000000003],
    "lambda2": 0.80000000000000004,
    "lambda3": 0.80000000000000004,
    "free": {
      "lambda3": 0.80000000000000004,
      "b1": 0.20000000000000001
    },
    "max_abs_residual": 2.7755575615628914e-17
  }, {
    "family": "s6",
    "a": [0.20000000000000001, 0, 0],
    "b": [-0.44999999999999996, 0, 0],
    "lambda2": 0.80000000000000004,
    "lambda3": 0.80000000000000004,
    "free": {
      "lambda3": 0.80000000000000004,
      "a1": 0.20000000000000001
    },
    "max_abs_residual": 1.3877787807814457e-17
  }, {
    "family": "s5",
    "a": [-0.24999999999999994, 0, 0],
    "b": [-0.40000000000000002, -0.32000000000000006, -0.32000000000000006],
    "lambda2": 0.80000000000000004,
    "lambda3": 0.80000000000000004,
    "free": {
      "lambda3": 0.80000000000000004,
      "b1": -0.40000000000000002
    },
    "max_abs_residual": 5.5511151231257827e-17
  }, {
    "family": "s6",
    "a": [-0.40000000000000002, 0, 0],
    "b": [0.15000000000000013, 0, 0],
    "lambda2": 0.80000000000000004,
    "lambda3": 0.80000000000000004,
    "free": {
      "lambda3": 0.80000000000000004,
      "a1": -0.40000000000000002
    },
    "max_abs_residual": 5.5511151231257827e-17
  }, {
    "family": "s5",
    "a": [-0.24999999999999994, 0, 0],
    "b": [0.75, 0.60000000000000009, 0.60000000000000009],
    "lambda2": 0.80000000000000004,
    "lambda3": 0.80000000000000004,
    "free": {
      "lambda3": 0.80000000000000004,
      "b1": 0.75
    },
    "max_abs_residual": 1.6653345369377348e-16
  }, {
    "family": "s6",
    "a": [0.75, 0, 0],
    "b": [-1, 0, 0],
    "lambda2": 0.80000000000000004,
    "lambda3": 0.80000000000000004,
    "free": {
      "lambda3": 0.80000000000000004,
      "a1": 0.75
    },
    "max_abs_residual": 5.5511151231257827e-17
  }]
}
"""

GO_CHECK_STIEFEL3 = """\
{
  "space": "stiefel(3)",
  "result": "hypothesis not met",
  "note": "no commuting module pair"
}
"""

GO_CHECK_PRODUCT_SPHERES = """\
{
  "space": "product-spheres",
  "result": "pass",
  "trials": 10,
  "max_defect": 0,
  "tolerance": 1.0000000000000001e-09,
  "seed": 0
}
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["catalog"], CATALOG),
        (["restriction", "--lambda2", "1", "--lambda3", "0.7"], FAMILY_L2_1),
        (["restriction", "--lambda2", "1.3", "--lambda3", "1"], FAMILY_L3_1),
        (["restriction", "--lambda2", "0.8", "--lambda3", "0.8"], FAMILY_L2_EQ_L3),
        (["go-check", "stiefel3"], GO_CHECK_STIEFEL3),
        (["go-check", "product-spheres"], GO_CHECK_PRODUCT_SPHERES),
    ],
)
def test_report_is_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
