"""Shared point data: one analysis per point, the same answers as without it.

The call counts below pin the sharing: a ``report`` runs in one
``memo.shared_points()`` block, so it builds one ``PointAnalysis``, sweeps
each constraint's uncertainty grid once for all sections in the analysis's
``WorstCase`` (plus once for the independent checks, which share their own
worst cases and stationarity distance), runs the efficiency guard and the
dual feasibility check once, and builds the feasible decision grid once;
outside a block every call computes afresh.  The convexity scan evaluates each constraint once per
sample chunk, and not again while the chunk is memoized.
"""

import importlib
import pkgutil
from collections import Counter

import numpy as np
import pytest

import robustcert
from robustcert import constraints, convexity, duality, efficiency, kkt
from robustcert.constraints import (
    PointAnalysis,
    WorstCase,
    active_uncertainty,
    analyze_point,
    constraint_values,
    worst_case_subdiff,
)
from robustcert.convexity import (STRICT, ConvexityWitness,
                                  check_pseudo_convex, classify_type,
                                  revalidate_witness)
from robustcert.duality import DualTriple, is_dual_feasible
from robustcert.efficiency import certify_weak
from robustcert.kkt import check_cq, find_kkt_certificate
from robustcert.memo import shared_points
from robustcert.problem_io import (BUNDLED_FIXTURES, load_problem,
                                   problem_from_dict)
from robustcert.report import build_report, jsonable
from test_polish import BOX_P2

SQ2_4 = float(np.sqrt(2) / 4)
ANCHORS = {"ex2_2": [0.0, -2.0], "ex2_3": [0.0, -2.0],
           "ex3_2": [0.0, 1.0], "ex3_3": [0.0, 1.0]}
COUNTED = (
    (constraints, "grid_sweep"),
    (constraints, "constraint_values"),
    (constraints, "active_uncertainty"),
    (constraints, "worst_case_subdiff"),
    (constraints, "worst_case_values_batch"),
    (efficiency, "_build_grid_context"),
    (duality, "_dual_feasibility"),
    (kkt, "_stationarity_distance"),
    (kkt, "_stationarity_union"),
)


@pytest.fixture
def calls(monkeypatch):
    """Count calls of the COUNTED functions through every module binding them,
    and ``PointAnalysis`` constructions."""
    counts: Counter = Counter()
    init = PointAnalysis.__init__

    def counted_init(self, *args, **kwargs):
        counts["PointAnalysis"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PointAnalysis, "__init__", counted_init)
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
    # only verify_certificate recomputes the worst-case values
    assert calls["constraint_values"] == 1
    assert calls["_build_grid_context"] == 1


def test_report_checks_dual_feasibility_once(calls):
    # the converse duality check asks for the duality section's default-mode
    # feasibility report, and the report's block hands it the same one
    report = build_report(load_problem("ex3_2"), "report", [0.0, 1.0])
    assert report["duality"]["converse"]["feasibility"] == \
        report["duality"]["feasibility"]
    assert calls["_dual_feasibility"] == 1


@pytest.mark.parametrize("name, sweeps, duals", [("ex3_2", 4, 1),
                                                 ("ex2_2", 2, 0)])
def test_warm_report_shares_one_scope(calls, name, sweeps, duals):
    P = load_problem(name)
    z = ANCHORS[name]
    build_report(P, "report", z)  # fills the per-process memos
    calls.clear()
    report = build_report(P, "report", z)
    assert report["kkt"]["found"] == bool(duals)
    assert calls["PointAnalysis"] == 1
    # the analysis's sweep per constraint, and at ex3_2, which has a
    # certificate, one more per constraint for the checks: verify_certificate
    # and is_dual_feasible share their worst cases and stationarity distance
    # with each other, never with the analysis
    assert calls["grid_sweep"] == sweeps
    # the one-row efficiency guard at z, shared by the efficiency section
    # and the converse duality check
    assert calls["worst_case_values_batch"] == P.n_constraints
    assert calls["_dual_feasibility"] == duals


def test_strict_dual_report_reads_the_checks_sweep(calls):
    # the strict sign check takes each grid minimum from the worst case the
    # other checks share, so --strict-dual adds no sweep
    P = load_problem("ex3_2")
    z = ANCHORS["ex3_2"]
    build_report(P, "report", z, strict_dual=True)  # fills the memos
    for strict_dual in (False, True):
        calls.clear()
        report = build_report(P, "report", z, strict_dual=strict_dual)
        assert report["duality"]["feasibility"]["mode"] == \
            ("strict" if strict_dual else "default")
        assert calls["grid_sweep"] == 4


def test_checks_build_one_stationarity_union_per_report(calls):
    P = load_problem("ex3_2")
    report = build_report(P, "report", ANCHORS["ex3_2"])
    assert report["kkt"]["found"]
    assert report["kkt"]["verification"]["stationarity_distance"] == \
        report["duality"]["feasibility"]["stationarity_distance"]
    # verify_certificate and is_dual_feasible ask for the distance at the
    # same triple and share it; the search's own residual, read from the
    # analysis, builds the other union
    assert calls["_stationarity_distance"] == 1
    assert calls["_stationarity_union"] == 2


def test_worst_cases_are_shared_only_inside_a_block(calls):
    P = load_problem("ex3_2")
    g, z, U = P.constraints[0], ANCHORS["ex3_2"], P.uncertainty
    assert constraints.worst_case_value(g, z, U) == \
        constraints.worst_case_value(g, z, U)
    assert calls["grid_sweep"] == 2
    calls.clear()
    with shared_points():
        value = constraints.worst_case_value(g, z, U)
        assert constraints.active_uncertainty(g, z, U)[0].value == value
        constraints.worst_case_subdiff(g, z, U)
        # another grid is another worst case
        constraints.worst_case_value(g, z, U, 101)
    assert calls["grid_sweep"] == 2


def test_no_check_reads_a_worst_case_of_the_analysis(monkeypatch):
    held, handed = [], []
    init = PointAnalysis.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        held.extend(self.worst_cases)

    worst_case = constraints._worst_case

    def recording(*args, **kwargs):
        w = worst_case(*args, **kwargs)
        handed.append(w)
        return w

    monkeypatch.setattr(PointAnalysis, "__init__", recording_init)
    monkeypatch.setattr(constraints, "_worst_case", recording)
    P = load_problem("ex3_2")
    assert build_report(P, "report", ANCHORS["ex3_2"])["kkt"]["found"]
    assert len(held) == P.n_constraints
    # the checks share one worst case per constraint among themselves
    assert len({id(w) for w in handed}) == P.n_constraints < len(handed)
    assert not any(w is h for w in handed for h in held)


def test_every_call_outside_a_block_computes_afresh(calls):
    P = load_problem("ex3_2")
    z = ANCHORS["ex3_2"]
    triple = DualTriple(np.asarray(z), np.array([SQ2_4, 0.0, SQ2_4]),
                        np.array([0.5, 0.0]))

    def call_twice():
        first = (analyze_point(P, z), jsonable(certify_weak(P, z)),
                 jsonable(is_dual_feasible(P, triple)))
        second = (analyze_point(P, z), jsonable(certify_weak(P, z)),
                  jsonable(is_dual_feasible(P, triple)))
        assert first[1:] == second[1:]
        return first[0] is second[0]

    certify_weak(P, z)  # builds the feasible grid before counting
    calls.clear()
    assert not call_twice()
    assert calls["PointAnalysis"] == 2 and calls["_dual_feasibility"] == 2
    assert calls["worst_case_values_batch"] == 2 * P.n_constraints
    calls.clear()
    with shared_points():
        assert call_twice()
    assert calls["PointAnalysis"] == 1 and calls["_dual_feasibility"] == 1
    assert calls["worst_case_values_batch"] == P.n_constraints


def test_revalidation_builds_its_own_analysis_inside_a_block(calls):
    P = load_problem("ex2_2")
    z = ANCHORS["ex2_2"]
    witness = ConvexityWitness(
        z=np.array([1.0, -3.0]), y=np.array([0.0, 1.4, 1.0]),
        part="objectives", delta=0.0, support=0.0, sample_index=-1,
    )
    with shared_points():
        assert analyze_point(P, z) is analyze_point(P, z)
        revalidate_witness(P, z, witness, STRICT)
    assert calls["PointAnalysis"] == 2


def test_report_without_certificate_computes_the_point_once(calls):
    P = load_problem("ex2_2")
    report = build_report(P, "report", [0.0, -2.0])
    assert not report["kkt"]["found"]
    # one sweep per constraint, shared by the values, the attaining
    # realizations and the subdifferentials
    assert calls["grid_sweep"] == P.n_constraints == 2
    assert calls["constraint_values"] == calls["active_uncertainty"] == 0


def test_check_computes_worst_cases_once(calls):
    P = load_problem("ex3_2")
    build_report(P, "check", [0.0, 1.0])
    # the values and the realizations read one sweep per constraint
    assert calls["grid_sweep"] == P.n_constraints == 2
    assert calls["constraint_values"] == calls["active_uncertainty"] == 0


FINITE_U = problem_from_dict({
    "decision_dim": 2, "uncertainty_dim": 2,
    "objectives": ["z1 + abs(z2)", "z2 - z1"],
    "constraints": ["u1*z1 + abs(u2 - z2) - 1", "max(u1*z2, u2) - abs(z1)"],
    "uncertainty": {"type": "finite",
                    "points": [[-1, 0], [1, 0], [0.5, 1], [1, 1]]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-2, -2], "upper": [2, 2]},
})
NO_U = problem_from_dict({
    "decision_dim": 2, "uncertainty_dim": 0,
    "objectives": ["z1", "abs(z2) - z1"],
    "constraints": ["abs(z1) + z2 - 1", "max(z1, -z2)"],
    "uncertainty": {"type": "finite", "points": [[]]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-2, -2], "upper": [2, 2]},
})


def _equivalence_cases():
    """Every fixture at its anchor (id: the fixture) and two seeded points,
    then a p = 2 box, a finite U and an empty U at the origin and three
    seeded points, each as (problem, point, grid)."""
    rng = np.random.default_rng(3)
    cases = []
    for name in BUNDLED_FIXTURES:
        P = load_problem(name)
        cases.append(pytest.param(P, np.asarray(ANCHORS[name]), 1001,
                                  id=name))
        for k, z in enumerate(rng.uniform(P.box_lower, P.box_upper,
                                          size=(2, 2))):
            cases.append(pytest.param(P, z, 1001, id=f"{name}-seeded{k}"))
    for label, P, grid in (("box_p2", BOX_P2, 101), ("finite", FINITE_U, 0),
                           ("no_u", NO_U, 1001)):
        # at the origin two points of FINITE_U tie for each worst case
        cases.append(pytest.param(P, np.zeros(2), grid, id=f"{label}-origin"))
        for k, z in enumerate(rng.uniform(P.box_lower, P.box_upper,
                                          size=(3, 2))):
            cases.append(pytest.param(P, z, grid, id=f"{label}-seeded{k}"))
    return cases


@pytest.mark.parametrize("P, z, grid", _equivalence_cases())
def test_analysis_matches_direct_computation(P, z, grid):
    a = analyze_point(P, z, grid)
    assert isinstance(a, PointAnalysis)
    U = P.uncertainty
    np.testing.assert_array_equal(a.psi, constraint_values(P, z, grid))
    for w, g in zip(a.worst_cases, P.constraints):
        reals = active_uncertainty(g, z, U, grid=grid)
        assert [(r.point.tolist(), r.value, r.extent, r.lower.tolist(),
                 r.upper.tolist()) for r in w.realizations] == \
            [(r.point.tolist(), r.value, r.extent, r.lower.tolist(),
              r.upper.tolist()) for r in reals]
        direct = worst_case_subdiff(g, z, U, grid=grid)
        assert w.subdiff.to_jsonable() == direct.to_jsonable()
        assert w.hull.to_jsonable() == direct.hull().to_jsonable()
        assert w.hull is w.hull
    np.testing.assert_array_equal(a.objective_values, P.objective_values(z))


def test_finite_and_empty_uncertainty_ignore_the_grid():
    # a finite set has no grid; an empty one is not swept at all
    z = np.array([0.5, -0.25])
    for P in (FINITE_U, NO_U):
        want = analyze_point(P, z)
        for grid in (0, 1):
            got = analyze_point(P, z, grid)
            np.testing.assert_array_equal(got.psi, want.psi)
            assert [r.point.tolist()
                    for r in got.worst_cases[0].realizations] == \
                [r.point.tolist() for r in want.worst_cases[0].realizations]


def test_worst_case_sweeps_once_and_keeps_each_quantity(calls):
    P = load_problem("ex3_2")
    w = WorstCase(P.constraints[0], ANCHORS["ex3_2"], P.uncertainty)
    assert calls["grid_sweep"] == 1
    assert w.realizations is w.realizations
    assert w.subdiff is w.subdiff and w.hull is w.hull
    assert w.value == w.realizations[0].value
    assert calls["grid_sweep"] == 1
    # an empty uncertainty set is evaluated without a sweep
    WorstCase(NO_U.constraints[0], [0.0, 0.0], NO_U.uncertainty).value
    assert calls["grid_sweep"] == 1


def test_shared_analysis_gives_the_same_answers(calls):
    P = load_problem("ex3_2")
    z = ANCHORS["ex3_2"]

    def answers():
        return [jsonable(check_cq(P, z)),
                *(jsonable(find_kkt_certificate(P, z, mode=mode))
                  for mode in ("outer", "exact")),
                jsonable(classify_type(P, z, samples=300))]

    apart = answers()
    assert calls["PointAnalysis"] == 4
    with shared_points():
        assert answers() == apart
    assert calls["PointAnalysis"] == 5


def test_convexity_scan_evaluates_each_constraint_once_per_chunk(calls):
    # two constraints x two chunks of 1000 samples; the quasi-convexity
    # premise reads the feasibility pass's values for the binding constraint
    convexity._chunks.clear()
    classify_type(load_problem("ex3_2"), [0.0, 1.0])
    assert calls["worst_case_values_batch"] == 4
    # a second call reads the memoized sample stream
    classify_type(load_problem("ex3_2"), [0.0, 1.0])
    assert calls["worst_case_values_batch"] == 4


def test_convexity_scan_stops_after_the_chunk_that_refutes_every_kind(calls):
    # pseudo-convexity fails at the first sample, so only the first chunk of
    # the 2000-sample budget is evaluated, once per constraint
    convexity._chunks.clear()
    verdict = check_pseudo_convex(load_problem("ex3_2"), [0.0, 1.0])
    assert verdict.samples_used == 1
    assert calls["worst_case_values_batch"] == 2
