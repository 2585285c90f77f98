"""Shared point data: one analysis per point, the same answers as without it.

The call counts below pin the sharing: a ``report`` computes the worst-case
values at its point once for all sections (plus the independent recomputations
of ``verify_certificate`` and the converse duality check) and builds the
feasible decision grid once; the convexity scan evaluates each constraint once
per sample chunk, and not again while the chunk is memoized.
"""

import importlib
import pkgutil
from collections import Counter

import numpy as np
import pytest

import robustcert
from robustcert import constraints, convexity, duality, efficiency
from robustcert.constraints import (
    PointAnalysis,
    active_uncertainty,
    analyze_point,
    worst_case_subdiff,
)
from robustcert.convexity import check_pseudo_convex, classify_type
from robustcert.kkt import KktOptions, check_cq, find_kkt_certificate
from robustcert.problem_io import load_problem
from robustcert.report import build_report

ANCHORS = {"ex2_2": [0.0, -2.0], "ex2_3": [0.0, -2.0],
           "ex3_2": [0.0, 1.0], "ex3_3": [0.0, 1.0]}
COUNTED = (
    (constraints, "constraint_values"),
    (constraints, "active_uncertainty"),
    (constraints, "worst_case_subdiff"),
    (constraints, "worst_case_values_batch"),
    (efficiency, "_build_grid_context"),
    (duality, "is_dual_feasible"),
)


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the COUNTED functions through every module binding them."""
    counts: Counter = Counter()
    modules = [importlib.import_module(f"robustcert.{info.name}")
               for info in pkgutil.iter_modules(robustcert.__path__)]
    for home, name in COUNTED:
        orig = getattr(home, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


def test_report_with_certificate_computes_the_point_once(calls):
    efficiency._contexts.clear()
    build_report(load_problem("ex3_2"), "report", [0.0, 1.0])
    # the analysis, verify_certificate and the converse duality check
    assert calls["constraint_values"] <= 3
    assert calls["_build_grid_context"] == 1


def test_report_checks_dual_feasibility_once(calls):
    # the converse duality check reads the duality section's default-mode
    # feasibility report instead of recomputing it
    report = build_report(load_problem("ex3_2"), "report", [0.0, 1.0])
    assert report["duality"]["converse"]["feasibility"] == \
        report["duality"]["feasibility"]
    assert calls["is_dual_feasible"] == 1


def test_report_without_certificate_computes_the_point_once(calls):
    report = build_report(load_problem("ex2_2"), "report", [0.0, -2.0])
    assert not report["kkt"]["found"]
    assert calls["constraint_values"] == 1
    # one search for attaining realizations per constraint
    assert calls["active_uncertainty"] == 2


def test_check_computes_worst_cases_once(calls):
    build_report(load_problem("ex3_2"), "check", [0.0, 1.0])
    assert calls["constraint_values"] == 1


@pytest.mark.parametrize("name", sorted(ANCHORS))
def test_analysis_matches_direct_computation(name):
    P = load_problem(name)
    z = np.asarray(ANCHORS[name])
    a = analyze_point(P, z)
    assert isinstance(a, PointAnalysis)
    for i, g in enumerate(P.constraints):
        reals = active_uncertainty(g, z, P.uncertainty)
        assert [r.point.tolist() for r in a.realizations(i)] == \
            [r.point.tolist() for r in reals]
        assert a.constraint_subdiff(i).to_jsonable() == \
            worst_case_subdiff(g, z, P.uncertainty).to_jsonable()
        assert a.hull(i) is a.hull(i)
    np.testing.assert_array_equal(a.objective_values, P.objective_values(z))


def test_passed_analysis_gives_the_same_answers():
    P = load_problem("ex3_2")
    z = ANCHORS["ex3_2"]
    a = analyze_point(P, z)
    assert check_cq(P, z, analysis=a).to_jsonable() == \
        check_cq(P, z).to_jsonable()
    for mode in ("outer", "exact"):
        opts = KktOptions(mode=mode)
        assert find_kkt_certificate(P, z, opts, analysis=a).to_jsonable() == \
            find_kkt_certificate(P, z, opts).to_jsonable()
    assert classify_type(P, z, samples=300, analysis=a).to_jsonable() == \
        classify_type(P, z, samples=300).to_jsonable()


def test_convexity_scan_evaluates_each_constraint_once_per_chunk(calls):
    # two constraints x two chunks of 1000 samples; the quasi-convexity
    # premise reads the feasibility pass's values for the binding constraint
    convexity._streams.clear()
    classify_type(load_problem("ex3_2"), [0.0, 1.0])
    assert calls["worst_case_values_batch"] == 4
    # a second call reads the memoized sample stream
    classify_type(load_problem("ex3_2"), [0.0, 1.0])
    assert calls["worst_case_values_batch"] == 4


def test_convexity_scan_stops_after_the_chunk_that_refutes_every_kind(calls):
    # pseudo-convexity fails at the first sample, so only the first chunk of
    # the 2000-sample budget is evaluated, once per constraint
    convexity._streams.clear()
    verdict = check_pseudo_convex(load_problem("ex3_2"), [0.0, 1.0])
    assert verdict.samples_used == 1
    assert calls["worst_case_values_batch"] == 2
