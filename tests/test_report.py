"""report.jsonable: the one serializer of the result classes."""

import numpy as np
import pytest

from robustcert.convexity import ConvexityWitness, Verdict
from robustcert.efficiency import EfficiencyReport
from robustcert.kkt import CqReport, KktCertificate
from robustcert.problem_io import BUNDLED_FIXTURES, load_problem
from robustcert.report import build_report, jsonable

COMMANDS = ("check", "cq", "kkt", "efficiency", "convexity", "dual", "report")
ANCHORS = {"ex2_2": [0.0, -2.0], "ex2_3": [0.0, -2.0],
           "ex3_2": [0.0, 1.0], "ex3_3": [0.0, 1.0]}
PLAIN = (str, int, float, bool, type(None))


def _leaves(obj, path="report"):
    if type(obj) is dict:
        for key, value in obj.items():
            assert type(key) is str, path
            yield from _leaves(value, f"{path}.{key}")
    elif type(obj) is list:
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, obj


@pytest.mark.parametrize("name", BUNDLED_FIXTURES)
def test_every_report_leaf_is_a_plain_value(name):
    P = load_problem(name)
    for command in COMMANDS:
        report = build_report(P, command, ANCHORS[name])
        for path, leaf in _leaves(report):
            # exact types: numpy's float64 is a float subclass, but prints
            # as np.float64(...) in the text rendering
            assert type(leaf) in PLAIN, (command, path, type(leaf))


def test_unrefuted_verdict_has_no_witness_key():
    assert jsonable(Verdict("not-refuted", 2000, 24)) == {
        "status": "not-refuted", "samples_used": 2000, "resolution": 24}


def test_quasi_witness_writes_null_weights():
    witness = ConvexityWitness(np.array([0.5, 1.0]), None, "constraint 1",
                               -0.25, 0.125, 7)
    out = jsonable(Verdict("refuted", 8, 24, witness))
    assert out["witness"] == {"z": [0.5, 1.0], "y": None,
                              "part": "constraint 1", "delta": -0.25,
                              "support": 0.125, "sample_index": 7}


def test_unset_optional_fields_are_left_out():
    out = jsonable(EfficiencyReport("weak", True, 101, 42))
    assert out == {"concept": "weak", "certified": True, "grid": 101,
                   "feasible_points": 42}
    out = jsonable(EfficiencyReport("proper", False, 101, 0,
                                    notes=("not feasible",)))
    assert out["notes"] == ["not feasible"]


def test_false_flags_stay():
    cert = KktCertificate(np.array([1.0, 0.0]), np.array([0.0]), [[]], 0.0,
                          "outer")
    out = jsonable(cert)
    assert out["fritz_john"] is False
    assert out["fritz_john_also"] is False
    assert out["witnesses"] == [[]]


def test_numpy_scalars_become_python_scalars():
    out = jsonable(CqReport(np.bool_(True), np.float64(0.5),
                            [np.int64(1)], np.bool_(False)))
    assert out == {"satisfied": True, "distance": 0.5, "active_indices": [1],
                   "trivial": False}
    assert [type(out[k]) for k in ("satisfied", "distance", "trivial")] \
        == [bool, float, bool]
    assert type(out["active_indices"][0]) is int
