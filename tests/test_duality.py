"""Tests for dual triples, feasibility readings, and duality diagnostics."""

import json

import numpy as np
import pytest

from robustcert.constraints import ProblemFormatError
from robustcert.duality import (
    DualTriple,
    converse_duality_check,
    is_dual_feasible,
    strong_duality_construct,
    weak_duality_test,
)
from robustcert.kkt import find_kkt_certificate
from robustcert.problem_io import load_problem
from robustcert.report import build_report, jsonable

Z32 = np.array([0.0, 1.0])
Z22 = np.array([0.0, -2.0])


@pytest.fixture(scope="module")
def ex3_2():
    return load_problem("ex3_2")


@pytest.fixture(scope="module")
def ex2_2():
    return load_problem("ex2_2")


@pytest.fixture(scope="module")
def strong_triple(ex3_2):
    cert = find_kkt_certificate(ex3_2, Z32)
    return strong_duality_construct(ex3_2, Z32, cert)


# ---------------------------------------------------------------------------
# feasibility readings
# ---------------------------------------------------------------------------


class TestDualFeasibility:
    def test_default_reading_accepts_strong_triple(self, ex3_2, strong_triple):
        rep = is_dual_feasible(ex3_2, strong_triple, "default")
        assert rep.feasible
        assert all(rep.checks.values())
        assert rep.stationarity_distance <= 1e-8
        assert rep.sign_values == [0.0, 0.0]

    def test_strict_reading_rejects_strong_triple(self, ex3_2, strong_triple):
        # the binding constraint dips to -2 away from its worst case, so the
        # all-realizations product becomes 0.5 * (-2) = -1
        rep = is_dual_feasible(ex3_2, strong_triple, "strict")
        assert not rep.feasible
        assert not rep.checks["sign"]
        assert rep.checks["stationarity"]
        assert rep.sign_values[0] == pytest.approx(-1.0, abs=1e-9)
        assert rep.sign_values[1] == 0.0

    def test_zero_weights_rejected(self, ex3_2, strong_triple):
        bad = DualTriple(strong_triple.point, np.zeros(3),
                         strong_triple.multipliers)
        rep = is_dual_feasible(ex3_2, bad)
        assert not rep.feasible
        assert not rep.checks["weights_nonzero"]

    def test_negative_multiplier_rejected(self, ex3_2, strong_triple):
        bad = DualTriple(strong_triple.point, strong_triple.weights,
                         np.array([0.5, -0.2]))
        rep = is_dual_feasible(ex3_2, bad)
        assert not rep.feasible
        assert not rep.checks["mu_nonnegative"]

    def test_broken_stationarity_detected(self, ex3_2, strong_triple):
        bad = DualTriple(strong_triple.point, strong_triple.weights,
                         np.array([0.1, 0.0]))
        rep = is_dual_feasible(ex3_2, bad)
        assert not rep.feasible
        assert not rep.checks["stationarity"]
        assert rep.stationarity_distance > 0.1

    def test_mode_validated(self, ex3_2, strong_triple):
        with pytest.raises(ValueError):
            is_dual_feasible(ex3_2, strong_triple, mode="bogus")


def test_min_over_uncertainty_helper(ex3_2):
    # min over u in [-1,1] of u^2 - 3|u| at the anchor point is -2 (at |u|=1);
    # with unit multiplier the strict sign value is that minimum
    triple = DualTriple(Z32, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0]))
    rep = is_dual_feasible(ex3_2, triple, "strict", grid=1001)
    assert rep.sign_values[0] == pytest.approx(-2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# weak duality scans
# ---------------------------------------------------------------------------


class TestWeakDuality:
    def test_holds_for_strong_triple_both_kinds(self, ex3_2, strong_triple):
        r1 = weak_duality_test(ex3_2, strong_triple, "typeI")
        r2 = weak_duality_test(ex3_2, strong_triple, "typeII")
        assert r1.holds and r2.holds
        assert r1.checked_points == 7231
        assert r1.first_violation is None

    def test_detects_dominated_dual_point(self, ex2_2):
        triple = DualTriple(Z22, np.array([0.3, 0.3, 0.4]), np.zeros(2))
        rep = weak_duality_test(ex2_2, triple, "typeI")
        assert not rep.holds
        np.testing.assert_allclose(rep.first_violation, [-0.2, -5.0],
                                   atol=1e-12)
        np.testing.assert_allclose(rep.violation_values, [-0.2, -8.9, -0.7],
                                   atol=1e-9)

    def test_kind_validated(self, ex3_2, strong_triple):
        with pytest.raises(ValueError):
            weak_duality_test(ex3_2, strong_triple, kind="typeIII")

    def test_serialization(self, ex2_2):
        triple = DualTriple(Z22, np.array([0.3, 0.3, 0.4]), np.zeros(2))
        rep = weak_duality_test(ex2_2, triple, "typeI")
        blob = json.loads(json.dumps(jsonable(rep)))
        assert blob["holds"] is False
        assert blob["kind"] == "typeI"
        assert blob["first_violation"] == pytest.approx([-0.2, -5.0],
                                                        abs=1e-12)


# ---------------------------------------------------------------------------
# strong and converse duality
# ---------------------------------------------------------------------------


def test_strong_triple_serialization(strong_triple):
    blob = strong_triple.to_jsonable()
    assert set(blob) == {"y", "y_star", "mu"}
    assert blob["y"] == [0.0, 1.0]
    assert blob["y_star"] == pytest.approx(
        [np.sqrt(2) / 4, 0.0, np.sqrt(2) / 4], abs=1e-9
    )
    assert blob["mu"] == pytest.approx([0.5, 0.0], abs=1e-9)
    back = DualTriple.from_jsonable(json.loads(json.dumps(blob)))
    np.testing.assert_allclose(back.point, strong_triple.point)
    np.testing.assert_allclose(back.weights, strong_triple.weights)
    np.testing.assert_allclose(back.multipliers, strong_triple.multipliers)


@pytest.mark.parametrize("data", [
    # a boolean, which numpy would read as 1.0
    {"y": [0, True], "y_star": [0.35, 0, 0.35], "mu": [0.5, 0]},
    # a nested list, which would give a (2, 1) point
    {"y": [[0], [1]], "y_star": [0.35, 0, 0.35], "mu": [0.5, 0]},
    {"y": [0, 1], "y_star": [0.35, 0, 0.35], "mu": [0.5, float("nan")]},
    {"y": [0, 1], "y_star": [0.35, 0, 0.35]},
    [[0, 1], [0.35, 0, 0.35], [0.5, 0]],
])
def test_triple_from_jsonable_refuses_malformed_fields(data):
    with pytest.raises(ProblemFormatError):
        DualTriple.from_jsonable(data)


def test_converse_check_reads_dual_feasibility_at_the_report_tol(ex3_2):
    # stationarity distance 1.65e-5: feasible at tol 1e-3, not at the
    # default 1e-8, so both verdicts must come from the same tolerance
    triple = DualTriple.from_jsonable(
        {"y": [0, 1], "y_star": [0.35355339, 0, 0.35355339],
         "mu": [0.8839, 0]})
    duality = build_report(ex3_2, "dual", triple.point, tol=1e-3,
                           triple=triple)["duality"]
    assert duality["feasibility"]["feasible"]
    assert duality["converse"]["feasibility"] == duality["feasibility"]
    assert duality["converse"]["applicable"]


def test_converse_duality_consistent(ex3_2, strong_triple):
    rep = converse_duality_check(ex3_2, strong_triple)
    assert rep.applicable
    assert rep.weakly_efficient
    assert rep.consistent
    assert rep.feasibility.feasible


def test_converse_duality_not_applicable_for_infeasible_triple(ex3_2):
    triple = DualTriple(Z32, np.zeros(3), np.zeros(2))
    rep = converse_duality_check(ex3_2, triple)
    assert not rep.applicable
    assert rep.consistent  # vacuously
