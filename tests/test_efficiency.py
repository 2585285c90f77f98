"""Tests for grid-based efficiency certification and sufficiency rules."""

import dataclasses
import itertools
import json
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcert import constraints, efficiency
from robustcert.constraints import ConeSpec, analyze_point
from robustcert.convexity import classify_type
from robustcert.efficiency import (
    certify_efficient,
    certify_proper,
    certify_weak,
    grid_context,
    sufficient_conditions,
)
from robustcert.expr import BinOp, Lit, parse_expr
from robustcert.kkt import find_kkt_certificate, verify_certificate
from robustcert.memo import LruMemo, shared_points
from robustcert.problem_io import (
    BUNDLED_FIXTURES,
    fixture_path,
    load_problem,
    problem_from_dict,
)
from robustcert.report import (build_report, efficiency_section, jsonable,
                               render_json)

from oracles import (dominator_mask, dominators_reference,
                     proper_lp_reference, proper_weights_reference)

DATA = Path(__file__).resolve().parent / "data"
Z32 = np.array([0.0, 1.0])
Z22 = np.array([0.0, -2.0])


@pytest.fixture(scope="module")
def ex3_2():
    return load_problem("ex3_2")


@pytest.fixture(scope="module")
def ex2_2():
    return load_problem("ex2_2")


@pytest.fixture(scope="module")
def ex2_3():
    return load_problem("ex2_3")


@pytest.fixture(scope="module")
def ctx32(ex3_2):
    return grid_context(ex3_2)


# ---------------------------------------------------------------------------
# fixture certifications
# ---------------------------------------------------------------------------


class TestFixtureCertifications:
    def test_anchor_point_passes_all_three(self, ex3_2, ctx32):
        w = certify_weak(ex3_2, Z32)
        e = certify_efficient(ex3_2, Z32)
        p = certify_proper(ex3_2, Z32)
        assert w.certified and e.certified and p.certified
        assert w.counterexample is None
        assert len(ctx32.Z) == 7231  # feasible grid points
        # witness weights satisfy the interior margin
        assert np.all(p.witness_y >= 1e-3 - 1e-12)

    def test_piecewise_linear_point_strictly_dominated(self, ex2_2):
        w = certify_weak(ex2_2, Z22)
        assert not w.certified
        np.testing.assert_allclose(w.counterexample, [-0.2, -5.0], atol=1e-12)
        np.testing.assert_allclose(
            w.counterexample_values, [-0.2, -8.9, -0.7], atol=1e-9
        )

    def test_piecewise_linear_point_dominated_with_tie(self, ex2_2):
        e = certify_efficient(ex2_2, Z22)
        assert not e.certified
        # earlier grid column: first objective ties exactly, others drop
        np.testing.assert_allclose(e.counterexample, [-0.24, -5.0], atol=1e-12)
        np.testing.assert_allclose(
            e.counterexample_values, [0.0, -8.88, -0.54], atol=1e-9
        )

    def test_piecewise_linear_point_not_proper(self, ex2_2):
        p = certify_proper(ex2_2, Z22)
        assert not p.certified
        assert p.witness_y is None
        assert any("no interior weight" in n for n in p.notes)

    def test_quadratic_point_dominated_on_axis(self, ex2_3):
        w = certify_weak(ex2_3, Z22)
        e = certify_efficient(ex2_3, Z22)
        assert not w.certified and not e.certified
        np.testing.assert_allclose(w.counterexample, [0.0, -2.48], atol=1e-12)
        np.testing.assert_allclose(
            w.counterexample_values, [-0.00768, -0.0576, -0.0096], atol=1e-9
        )


def test_context_and_direct_paths_agree(ex3_2, ctx32):
    # every certifier scans the grid that grid_context returns
    for rep in (certify_weak(ex3_2, Z32), certify_efficient(ex3_2, Z32),
                certify_proper(ex3_2, Z32)):
        assert rep.grid == 101
        assert rep.feasible_points == len(ctx32.Z)


def test_infeasible_point_is_rejected_up_front(ex3_2):
    rep = certify_weak(ex3_2, [0.5, 0.0])
    assert not rep.certified
    assert rep.notes == ("point is not robust feasible",)
    assert rep.counterexample is None


# ---------------------------------------------------------------------------
# cone geometry changes what counts as domination
# ---------------------------------------------------------------------------


def test_generator_cone_blocks_componentwise_domination():
    base = {
        "decision_dim": 1,
        "uncertainty_dim": 1,
        "objectives": ["z1", "2*z1"],
        "constraints": ["0*z1*u1 - 1"],
        "uncertainty": {"type": "box", "lower": [-1], "upper": [1]},
        "box": {"lower": [0.0], "upper": [1.0]},
    }
    gen = problem_from_dict(
        {**base, "cone": {"type": "generators",
                          "rays": [[1.0, 0.0], [1.0, 1.0]]}}
    )
    orth = problem_from_dict({**base, "cone": {"type": "orthant"}})
    # moving left shrinks both objective values, but the drop direction
    # (1, 2) lies outside the generated cone, so no domination is recorded
    assert certify_weak(gen, [1.0], grid=11).certified
    assert certify_efficient(gen, [1.0], grid=11).certified
    rep = certify_weak(orth, [1.0], grid=11)
    assert not rep.certified
    np.testing.assert_allclose(rep.counterexample, [0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# one dominance test for every cone: dual-ray margins, an LP only in the band
# ---------------------------------------------------------------------------

DOMINANCE_CONES = {
    "orthant-2": ConeSpec.orthant(2),
    "orthant-3": ConeSpec.orthant(3),
    "two-rays": ConeSpec.from_rays([[1.0, 0.0], [1.0, 1.0]]),
    "one-ray": ConeSpec.from_rays([[1.0, 2.0]]),
    "three-rays": ConeSpec.from_rays([[1, 0, 0], [1, 1, 0], [0, 1, 1]]),
    "four-rays": ConeSpec.from_rays([[1, 0, 0], [0, 1, 0], [1, 0, 1],
                                     [0, 1, 1]]),
    "plane": ConeSpec.from_rays([[1, 0, 0], [0, 1, 1]]),
}


def _dominance_rows(cone, rng):
    """Drops of every kind the margin test must get right, negated into
    objective changes: anywhere, inside K, exactly on a facet, one
    ``BAND_TOL`` either side of a facet, and ties."""
    R = cone.generating_rays()
    Y = cone.dual_rays()
    m = cone.dim
    band = efficiency.BAND_TOL
    drops = [rng.uniform(-1, 1, (6, m)) * rng.choice([1e-3, 1.0, 10.0],
                                                     (6, 1)),
             rng.uniform(0, 1, (4, len(R))) @ R]
    for _ in range(4):
        y = Y[rng.integers(len(Y))]
        facet = R[np.abs(R @ y) <= 1e-12]
        on = rng.uniform(0.1, 1, len(facet)) @ facet
        drops.append(np.array([on, on + band * y, on - band * y]))
    drops.append(rng.uniform(-efficiency.DOMINANCE_TOL,
                             efficiency.DOMINANCE_TOL, (2, m)))
    drops.append(np.zeros((1, m)))
    drops.append(2 * efficiency.DOMINANCE_TOL * R[:1])
    return -np.vstack(drops)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dominators_match_the_replaced_tests(seed):
    rng = np.random.default_rng(seed)
    for cone in DOMINANCE_CONES.values():
        P = SimpleNamespace(cone=cone)
        D = _dominance_rows(cone, rng)
        for strict in (True, False):
            for rows in (D, D[:0]):
                np.testing.assert_array_equal(
                    dominator_mask(P, rows, strict),
                    dominators_reference(cone, rows, strict))


def test_dominance_rows_reach_both_sides_of_the_band():
    # the rows the property test draws are not all decided by the sign
    rng = np.random.default_rng(0)
    for cone in DOMINANCE_CONES.values():
        D = _dominance_rows(cone, rng)
        low = np.min(-D @ cone.dual_rays().T, axis=1)
        assert np.any(np.abs(low) < efficiency.BAND_TOL)
        assert np.any(low < -efficiency.BAND_TOL)


THREE_RAYS = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]


@pytest.fixture(scope="module")
def three_rays():
    data = json.loads(fixture_path("ex3_2").read_text())
    data["cone"] = {"type": "generators", "rays": THREE_RAYS}
    return problem_from_dict(data)


def test_generator_cone_solves_few_membership_lps(three_rays, monkeypatch):
    # one membership LP per feasible grid row before the margin test
    calls = []
    min_residual = constraints.lp.min_residual

    def counting(*args, **kwargs):
        calls.append(1)
        return min_residual(*args, **kwargs)

    monkeypatch.setattr(constraints.lp, "min_residual", counting)
    rep = certify_efficient(three_rays, Z32)
    assert rep.certified and rep.feasible_points > 7000
    assert len(calls) <= 5


def test_dominance_scan_stops_at_the_first_dominator(monkeypatch):
    # every feasible grid row below z = 0.5 lies in the margin band; the
    # first, z = 0, already dominates, so the scan solves one membership LP
    # where the full mask solved five
    from test_lp import GENERATOR_CONE

    P = problem_from_dict(GENERATOR_CONE)
    calls = []
    min_residual = constraints.lp.min_residual

    def counting(*args, **kwargs):
        calls.append(1)
        return min_residual(*args, **kwargs)

    monkeypatch.setattr(constraints.lp, "min_residual", counting)
    rep = certify_efficient(P, [0.5], grid=11)
    assert not rep.certified
    assert rep.counterexample.tolist() == [0.0]
    assert len(calls) == 1


# recorded from the per-row membership LP scan that the margin test
# replaced, with tests/data/ex3_2_three_rays.json's keys as commands and
# points; only the generated_at timestamp is left out
@pytest.mark.parametrize("key", ["efficiency 0,1", "report 0,1",
                                 "efficiency -1,1", "report -1,1",
                                 "efficiency 0,-1", "report 0,-1"])
def test_generator_cone_reports_match_the_recorded_ones(three_rays, key):
    want = json.loads((DATA / "ex3_2_three_rays.json").read_text())[key]
    command, point = key.split()
    got = build_report(three_rays, command,
                       [float(v) for v in point.split(",")],
                       problem_path="ex3_2-three-rays", point_text=point)
    del got["provenance"]["generated_at"]
    assert render_json(got) == render_json(want)


# ---------------------------------------------------------------------------
# implication chain: proper => efficient => weak
# ---------------------------------------------------------------------------


def test_implication_chain_on_fixture_grid(ex3_2, ex2_2, ex2_3):
    rng = np.random.default_rng(7)
    cases = []
    for P, anchor in ((ex3_2, Z32), (ex2_2, Z22), (ex2_3, Z22)):
        cases.append((P, anchor))
        for _ in range(5):
            z = P.box_lower + (P.box_upper - P.box_lower) * rng.uniform(size=2)
            cases.append((P, z))
    for P, z in cases:
        w = certify_weak(P, z)
        e = certify_efficient(P, z)
        p = certify_proper(P, z)
        assert (not p.certified) or e.certified
        assert (not e.certified) or w.certified


def test_proper_witness_satisfies_lp_conditions(ex3_2, ctx32):
    p = certify_proper(ex3_2, Z32)
    y = p.witness_y
    assert np.all(y >= 1e-3 - 1e-12)
    assert np.sum(y) == pytest.approx(1.0, abs=1e-9)
    D = ctx32.F - ex3_2.objective_values(Z32)[None, :]
    assert np.min(D @ y) >= -1e-9


# ---------------------------------------------------------------------------
# two-stage proper-efficiency LP
# ---------------------------------------------------------------------------

ANCHORS = {"ex2_2": Z22, "ex2_3": Z22, "ex3_2": Z32, "ex3_3": Z32}


def _half_integer_points(P):
    axes = [np.arange(lo, hi + 0.25, 0.5)
            for lo, hi in zip(P.box_lower, P.box_upper)]
    return [np.array(z) for z in itertools.product(*axes)]


def _assert_matches_full_lp(P, z, **kw):
    assert jsonable(certify_proper(P, z, **kw)) == \
        jsonable(proper_lp_reference(P, z, **kw)), z


@pytest.mark.parametrize("name", BUNDLED_FIXTURES)
def test_two_stage_lp_matches_one_full_lp(name):
    P = load_problem(name)
    rng = np.random.default_rng(11)
    uniform = P.box_lower + (P.box_upper - P.box_lower) * rng.uniform(
        size=(20, P.decision_dim))
    for z in [ANCHORS[name], *_half_integer_points(P), *uniform]:
        _assert_matches_full_lp(P, z)


def _line_problem(constraint, cone):
    return problem_from_dict({
        "decision_dim": 1,
        "uncertainty_dim": 1,
        "objectives": ["z1", "2*z1"],
        "constraints": [constraint],
        "uncertainty": {"type": "box", "lower": [-1], "upper": [1]},
        "cone": cone,
        "box": {"lower": [0.0], "upper": [1.0]},
    })


GENERATORS = {"type": "generators", "rays": [[1.0, 0.0], [1.0, 1.0]]}


@pytest.mark.parametrize("eps", [1e-3, 0.2, 0.6])
@pytest.mark.parametrize("cone", [GENERATORS, {"type": "orthant"}])
def test_two_stage_lp_matches_on_small_cones(cone, eps):
    # eps = 0.6 leaves the weight polytope empty (m * eps > 1 on the orthant)
    P = _line_problem("0*z1*u1 - 1", cone)
    F = grid_context(P, 11).F
    R = P.cone.generating_rays()
    for z in np.linspace(0.0, 1.0, 11):
        D = F - P.objective_values([z])[None, :]
        got = efficiency._proper_weights(D, R, eps)
        want = proper_weights_reference(D, R, eps)
        assert (got is None) == (want is None), z
        if want is not None:
            np.testing.assert_array_equal(got, want)


def test_two_stage_lp_matches_without_feasible_grid_rows():
    # z = 0.123 is feasible but no point of the 11-point grid is
    P = _line_problem("abs(z1 - 0.123) - 0.001 + 0*u1", GENERATORS)
    assert len(grid_context(P, 11).Z) == 0
    rep = certify_proper(P, [0.123], grid=11)
    assert rep.certified
    assert jsonable(rep) == \
        jsonable(proper_lp_reference(P, [0.123], grid=11))


def _count_lps(monkeypatch):
    """Record the row count of each LP that ``efficiency`` solves."""
    calls = []
    solve = efficiency.linprog

    def counting(c, A_ub, *args, **kwargs):
        calls.append(A_ub.shape[0])
        return solve(c, A_ub, *args, **kwargs)

    monkeypatch.setattr(efficiency, "linprog", counting)
    return calls


def test_refuted_point_solves_only_the_small_lp(ex2_2, monkeypatch):
    calls = _count_lps(monkeypatch)
    assert not certify_proper(ex2_2, Z22).certified
    m = ex2_2.n_objectives
    assert len(calls) == 1
    assert calls[0] - m <= m + 1  # grid rows after the m orthant rays


def test_certified_point_solves_the_full_lp_second(ex3_2, ctx32, monkeypatch):
    calls = _count_lps(monkeypatch)
    assert certify_proper(ex3_2, Z32).certified
    m = ex3_2.n_objectives
    assert len(calls) == 2
    assert calls[0] - m <= m + 1
    assert calls[1] == len(ctx32.Z) + m


@pytest.mark.parametrize("name,z", [("ex3_2", Z32), ("ex2_2", Z22),
                                    ("ex3_2", [0.5, 3.5])])
def test_efficiency_section_guards_each_point_once(name, z, monkeypatch):
    P = load_problem(name)
    grid_context(P)  # the grid's own sweeps are not guards
    apart = {concept: jsonable(certify(P, z)) for concept, certify in (
        ("weak", certify_weak), ("efficient", certify_efficient),
        ("proper", certify_proper))}
    sweeps = []
    real = efficiency.worst_case_matrix

    def counting(P, Z, grid):
        sweeps.append(len(Z))
        return real(P, Z, grid)

    monkeypatch.setattr(efficiency, "worst_case_matrix", counting)
    with shared_points():
        section = efficiency_section(P, z)
        assert sweeps == [1]
        certify_weak(P, z)  # the block's later certifiers reuse the guard
        assert sweeps == [1]
    assert {k: section[k] for k in apart} == apart
    certify_weak(P, z)  # outside a block every call guards afresh
    certify_weak(P, z)
    assert sweeps == [1, 1, 1]


def test_shared_guard_tells_problems_apart():
    # each problem is dropped before the next is built, as in a loop over
    # problem files; the block keeps every problem it checked alive, so no
    # later problem can take over its id and its verdict or analysis
    verdicts, refs = [], []
    with shared_points():
        for bound in (2.0, 0.5):
            P = _line_problem(f"z1 - {bound}", {"type": "orthant"})
            verdicts.append((certify_weak(P, [1.0], grid=11).notes,
                             analyze_point(P, [1.0], 11).feasible()))
            refs.append(weakref.ref(P))
            del P
        assert all(ref() is not None for ref in refs)
    assert verdicts == [((), True), (("point is not robust feasible",), False)]
    # nothing the block held outlives it
    assert all(ref() is None for ref in refs)


def test_orthant_weight_vertices():
    eps = 1e-3
    V = efficiency._weight_vertices(np.eye(3), eps)
    expected = eps + (1 - 3 * eps) * np.eye(3)
    np.testing.assert_allclose(sorted(V.tolist()), sorted(expected.tolist()),
                               atol=1e-15)


def test_generator_cone_weight_vertices():
    eps = 1e-3
    R = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                  [1.0, 1.0, 1.0]])
    V = efficiency._weight_vertices(R, eps)
    assert len(V) == 3
    for v in V:
        assert np.all(R @ v >= eps - 1e-12)
        assert R.sum(axis=0) @ v == pytest.approx(1.0, abs=1e-12)
    V2 = efficiency._weight_vertices(np.array(GENERATORS["rays"]), eps)
    assert len(V2) == 2


def test_weight_vertices_are_kept_per_rays_and_eps():
    R = np.array([[1.0, 0.0], [1.0, 1.0]])
    V = efficiency._weight_vertices(R, 1e-3)
    assert not V.flags.writeable
    assert efficiency._weight_vertices(R.copy(), 1e-3) is V
    assert efficiency._weight_vertices(R, 2e-3) is not V


def test_rank_deficient_rays_have_no_weight_vertex():
    R = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    assert efficiency._weight_vertices(R, 1e-3).shape == (0, 3)
    assert efficiency._weight_vertices(np.eye(2), 0.6).shape == (0, 2)


# ---------------------------------------------------------------------------
# sufficiency rules
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def convex_toy():
    return problem_from_dict(
        {
            "decision_dim": 1,
            "uncertainty_dim": 1,
            "objectives": ["abs(z1)", "z1^2 + 1"],
            "constraints": ["0*z1*u1 - 1"],
            "uncertainty": {"type": "box", "lower": [-1], "upper": [1]},
            "cone": {"type": "orthant"},
            "box": {"lower": [-2.0], "upper": [2.0]},
        }
    )


class TestSufficiencyRules:
    def test_convex_problem_fires_weak_and_efficient(self, convex_toy):
        z = np.array([0.0])
        cert = find_kkt_certificate(convex_toy, z, y_grid=25)
        ver = verify_certificate(convex_toy, z, cert)
        assert ver.ok
        cls = classify_type(convex_toy, z, samples=500)
        assert not cls.type_i.refuted and not cls.type_ii.refuted
        rep = sufficient_conditions(convex_toy, cert, ver, cls)
        assert rep.weak and rep.efficient
        assert not rep.proper  # weights sit on the dual cone boundary
        assert any("weakly efficient" in r for r in rep.reasons)
        assert any("boundary" in r for r in rep.reasons)
        # claims are consistent with the brute-force certifiers
        assert certify_weak(convex_toy, z, grid=41).certified
        assert certify_efficient(convex_toy, z, grid=41).certified

    def test_refuted_premises_block_rules(self, ex3_2):
        cert = find_kkt_certificate(ex3_2, Z32)
        ver = verify_certificate(ex3_2, Z32, cert)
        assert ver.ok
        cls = classify_type(ex3_2, Z32, samples=500)
        assert cls.type_i.refuted
        rep = sufficient_conditions(ex3_2, cert, ver, cls)
        assert not rep.weak and not rep.efficient and not rep.proper
        assert any("refuted" in r for r in rep.reasons)

    def test_degenerate_certificate_blocks_rules(self):
        toy = problem_from_dict(
            {
                "decision_dim": 1,
                "uncertainty_dim": 1,
                "objectives": ["z1"],
                "constraints": ["0*z1*u1"],
                "uncertainty": {"type": "box", "lower": [-1], "upper": [1]},
                "cone": {"type": "orthant"},
                "box": {"lower": [-2.0], "upper": [2.0]},
            }
        )
        z = np.array([0.0])
        cert = find_kkt_certificate(toy, z, y_grid=25)
        assert cert.fritz_john
        ver = verify_certificate(toy, z, cert)
        assert ver.ok
        cls = classify_type(toy, z, samples=200)
        rep = sufficient_conditions(toy, cert, ver, cls)
        assert not (rep.weak or rep.efficient or rep.proper)
        assert any("degenerate" in r for r in rep.reasons)


def test_report_serialization(ex2_2, ex3_2):
    w = certify_weak(ex2_2, Z22)
    blob = json.loads(json.dumps(jsonable(w)))
    assert blob["certified"] is False
    assert blob["counterexample"] == pytest.approx([-0.2, -5.0], abs=1e-12)
    p = certify_proper(ex3_2, Z32)
    blob = json.loads(json.dumps(jsonable(p)))
    assert blob["certified"] is True
    assert len(blob["witness_y"]) == 3


# ---------------------------------------------------------------------------
# per-process memo of the feasible grid
# ---------------------------------------------------------------------------


@pytest.fixture
def empty_memo():
    """Start and leave the grid-context memo empty, whatever ran before."""
    efficiency._contexts.clear()
    yield
    efficiency._contexts.clear()


def _cold(P, grid=101, ugrid=1001):
    return efficiency._build_grid_context(P, grid, ugrid)


def _assert_same_context(a, b):
    np.testing.assert_array_equal(a.Z, b.Z)
    np.testing.assert_array_equal(a.F, b.F)


def _with_constraint(P, i, source):
    cons = list(P.constraints)
    cons[i] = parse_expr(source, P.decision_dim, P.uncertainty_dim)
    return dataclasses.replace(P, constraints=tuple(cons))


def test_second_call_reuses_the_grid(ex3_2, empty_memo, monkeypatch):
    first = grid_context(ex3_2)
    calls = []
    monkeypatch.setattr(efficiency, "worst_case_matrix",
                        lambda *a, **k: calls.append(a))
    assert grid_context(load_problem("ex3_2")) is first
    assert calls == []


def test_changed_content_or_grid_is_computed_afresh(ex3_2, empty_memo):
    base = grid_context(ex3_2)
    changed = _with_constraint(ex3_2, 1, "-3*abs(z1) + u1*z2 - 1")
    assert changed.label == ex3_2.label
    ctx = grid_context(changed)
    assert len(ctx.Z) != len(base.Z)
    _assert_same_context(ctx, _cold(changed))
    for grid, ugrid in ((51, 1001), (101, 101)):
        ctx = grid_context(ex3_2, grid, ugrid)
        assert ctx is not base
        _assert_same_context(ctx, _cold(ex3_2, grid, ugrid))


def test_negative_zero_literal_is_other_content(ex3_2, empty_memo):
    def shifted(zero):
        g = BinOp("+", ex3_2.constraints[0], Lit(zero))
        return dataclasses.replace(ex3_2, constraints=(g,))

    assert grid_context(shifted(-0.0), 11, 11) is not \
        grid_context(shifted(0.0), 11, 11)


def test_memo_keeps_a_fixed_number_of_entries(ex3_2, empty_memo):
    # the decision-grid size is part of the key, so each call adds an entry
    for grid in range(2, 2 + 2 * efficiency.GRID_CONTEXT_ENTRIES):
        grid_context(ex3_2, grid, 11)
    assert len(efficiency._contexts) == efficiency.GRID_CONTEXT_ENTRIES


def test_shared_arrays_are_read_only(ex2_2, empty_memo):
    ctx = grid_context(ex2_2)
    with pytest.raises(ValueError):
        ctx.Z[0, 0] = 1.0
    with pytest.raises(ValueError):
        ctx.F[0, 0] = 1.0
    # a counterexample is a view into the shared grid
    w = certify_weak(ex2_2, Z22)
    with pytest.raises(ValueError):
        w.counterexample[0] = 1.0


def _without_timestamp(text):
    return [line for line in text.splitlines() if "generated_at" not in line]


def test_report_on_a_memoized_grid_matches_a_cold_report(ex3_2, empty_memo):
    build_report(ex3_2, "report", [0.0, 1.0])
    warm = render_json(build_report(ex3_2, "report", [0.0, -1.0]))
    efficiency._contexts.clear()
    cold = render_json(build_report(ex3_2, "report", [0.0, -1.0]))
    assert _without_timestamp(warm) == _without_timestamp(cold)


def test_concurrent_callers_get_correct_contexts(ex3_2, empty_memo,
                                                 monkeypatch):
    # more problems than entries, so threads evict while others look up
    monkeypatch.setattr(efficiency, "_contexts", LruMemo(2))
    problems = [_with_constraint(ex3_2, 1, f"-3*abs(z1) + u1*z2 - {k}")
                for k in range(4)]
    expected = [_cold(P, 9, 11) for P in problems]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(grid_context, problems[k % 4], 9, 11)
                       for k in range(200)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, ctx in enumerate(results):
        _assert_same_context(ctx, expected[k % 4])
    assert len(efficiency._contexts) <= 2
