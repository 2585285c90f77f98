"""The uncertainty-grid sweep against the per-point reference, bit for bit.

The bundled fixtures all have one box uncertainty variable, so finite sets,
problems without uncertainty and two-variable boxes are checked here: every
consumer of ``grid_sweep`` must give exactly the floats that the reference
sweep in ``oracles`` gives, whatever the block size of the sweep.  The
memory a sweep and a point's worst cases hold is bounded here too.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_point_sweep, per_point_worst_case
from robustcert import constraints, efficiency
from robustcert.constraints import (
    active_uncertainty,
    analyze_point,
    constraint_values,
    grid_sweep,
    worst_case_value,
    worst_case_values_batch,
)
from robustcert.duality import DualTriple, is_dual_feasible
from robustcert.expr import DomainError, parse_expr
from robustcert.memo import shared_points
from robustcert.problem_io import load_problem, problem_from_dict


def _problem(p, constraint_sources, uncertainty, label):
    return problem_from_dict({
        "decision_dim": 2,
        "uncertainty_dim": p,
        "objectives": ["z1 + abs(z2)", "z2 - z1"],
        "constraints": constraint_sources,
        "uncertainty": uncertainty,
        "cone": {"type": "orthant"},
        "box": {"lower": [-2, -2], "upper": [2, 2]},
        "label": label,
    })


FINITE_POINTS = [[-1, 0.5], [0, 0], [0.5, -1], [1, 1], [0.25, 0.5]]
# (problem, uncertainty grid): a 101-point grid keeps p = 2 at 10^4 points
CASES = {
    "finite": (_problem(
        2, ["u1*z1 + abs(z2 - u2) - 1", "max(z1*u1, z2) - u2^2"],
        {"type": "finite", "points": FINITE_POINTS}, "finite"), 1001),
    "p0": (_problem(
        0, ["z1^2 + abs(z2) - 1", "max(z1, -z2) - 0.5"],
        {"type": "box", "lower": [], "upper": []}, "p0"), 1001),
    "box_p2": (_problem(
        2, ["u1*z1 + u2*z2 - abs(u1 - u2)",
            "u1^2*abs(z2) + max(z1, 2*z1*u2) - 3*abs(u1)"],
        {"type": "box", "lower": [-1, -0.5], "upper": [1, 1]},
        "box_p2"), 101),
}

POINTS = np.array([[0.0, 0.0], [0.5, -1.0], [-1.25, 0.75], [1.0, 1.0],
                   [0.0, 0.5], [-0.3, -1.7]])


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_worst_case_value_matches_reference(case):
    P, grid = case
    for z in POINTS:
        for g in P.constraints:
            got = worst_case_value(g, z, P.uncertainty, grid)
            assert np.array_equal(
                got, per_point_worst_case(g, z, P.uncertainty, grid))


def _fields(reps):
    return [(r.point, r.value, r.extent, r.lower, r.upper) for r in reps]


def test_active_uncertainty_matches_reference(case, monkeypatch):
    P, grid = case
    got = [_fields(active_uncertainty(g, z, P.uncertainty, grid=grid))
           for z in POINTS for g in P.constraints]
    monkeypatch.setattr(constraints, "grid_sweep", per_point_sweep)
    ref = [_fields(active_uncertainty(g, z, P.uncertainty, grid=grid))
           for z in POINTS for g in P.constraints]
    assert len(got) == len(ref)
    for reps, ref_reps in zip(got, ref):
        assert len(reps) == len(ref_reps)
        for fields, ref_fields in zip(reps, ref_reps):
            assert all(np.array_equal(a, b)
                       for a, b in zip(fields, ref_fields))


def test_strict_sign_values_match_reference(case):
    P, grid = case
    mu = np.array([0.75, 1.5])
    for z in POINTS:
        triple = DualTriple(z, np.array([0.5, 0.5]), mu)
        rep = is_dual_feasible(P, triple, "strict", grid=grid)
        ref = [float(m * float(per_point_sweep(g, z, P.uncertainty,
                                               grid)[1].min()))
               for m, g in zip(mu, P.constraints)]
        assert np.array_equal(rep.sign_values, ref)


def test_batch_matches_reference_row_maxima(case):
    P, grid = case
    Z = np.vstack([POINTS, np.random.default_rng(11).uniform(
        P.box_lower, P.box_upper, size=(40, 2))])
    for g in P.constraints:
        ref = [per_point_sweep(g, z, P.uncertainty, grid)[1].max() for z in Z]
        assert np.array_equal(
            worst_case_values_batch(g, Z, P.uncertainty, grid), ref)


# ---------------------------------------------------------------------------
# blocked sweeps
# ---------------------------------------------------------------------------

# every node kind, with kinks, a negative power and a three-way max; the
# p = 2 pair also reads u2
BLOCK_SOURCES = ["u1^2*abs(z2) + max(z1, 2*z1*u1, -u1) - 3*abs(u1)",
                 "sqrt(abs(z1 - u1)) - min(z2, u1)/(u1^2 + 1) + (u1 + 3)^-2"]
BLOCK_SOURCES_P2 = ["u1^2*abs(u2 - z2) + max(z1, 2*z1*u2, -u1) - 3*abs(u1)",
                    "sqrt(abs(z1 - u2)) - min(z2, u1)/(u2^2 + 1) "
                    "+ (u1 + 3)^-2"]
# (problem, uncertainty grid): small grids, so that a block of one element
# stays quick
BLOCK_CASES = {
    "p0": CASES["p0"],
    "p1": (_problem(1, BLOCK_SOURCES,
                    {"type": "box", "lower": [-1], "upper": [1]}, "p1"), 101),
    "box_p2": (_problem(2, BLOCK_SOURCES_P2,
                        {"type": "box", "lower": [-1, -0.5], "upper": [1, 1]},
                        "p2"), 21),
    "finite": (_problem(2, BLOCK_SOURCES_P2,
                        {"type": "finite", "points": FINITE_POINTS},
                        "finite_blocks"), 0),
}


def _block_sizes(M):
    """The block sizes to try against a grid of M points."""
    return sorted({n for n in (1, 7, M - 1, M, M + 1) if n >= 1})


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(BLOCK_CASES)), data=st.data())
def test_blocked_sweeps_match_the_reference(name, data):
    P, grid = BLOCK_CASES[name]
    U = P.uncertainty
    M = len(U.grid_points(grid))
    Z = np.array(data.draw(st.lists(st.tuples(
        *(st.floats(lo, hi) for lo, hi in zip(P.box_lower, P.box_upper))),
        min_size=1, max_size=4)))
    size = data.draw(st.sampled_from(_block_sizes(M)))
    saved = constraints.CHUNK_ELEMENTS
    constraints.CHUNK_ELEMENTS = size
    try:
        for g in P.constraints:
            for z in Z:
                pts, vals = grid_sweep(g, z, U, grid)
                ref_pts, ref_vals = per_point_sweep(g, z, U, grid)
                assert pts.tobytes() == ref_pts.tobytes()
                assert vals.tobytes() == np.ascontiguousarray(
                    ref_vals).tobytes()
            assert np.array_equal(
                worst_case_values_batch(g, Z, U, grid),
                [per_point_sweep(g, z, U, grid)[1].max() for z in Z])
    finally:
        constraints.CHUNK_ELEMENTS = saved


@pytest.mark.parametrize("name", ["p1", "box_p2"])
def test_blocked_sweeps_raise_the_reference_domain_error(name, monkeypatch):
    # u1 = 0 is a grid point of both boxes, so one block divides by zero
    P, grid = BLOCK_CASES[name]
    U = P.uncertainty
    g = parse_expr("z1/u1", 2, U.dim)
    z = np.array([0.5, -0.5])
    with pytest.raises(DomainError) as ref:
        per_point_sweep(g, z, U, grid)
    for size in _block_sizes(len(U.grid_points(grid))):
        monkeypatch.setattr(constraints, "CHUNK_ELEMENTS", size)
        for sweep in (lambda: grid_sweep(g, z, U, grid),
                      lambda: worst_case_values_batch(g, z[None], U, grid)):
            with pytest.raises(DomainError) as got:
                sweep()
            assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

MiB = 2**20


def _traced(fn):
    """(memory held after ``fn()``, peak during it), in bytes, counted
    from the call on."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_cold_grid_context_peaks_below_4_mib():
    # the 101^2 decision grid against U's 1001 points, a block at a time;
    # sweeping whole 2000-row chunks peaked at 31 MiB
    P = load_problem("ex3_2")
    efficiency._contexts.clear()
    constraints._lattices.clear()
    _, peak = _traced(lambda: efficiency.grid_context(P))
    assert peak < 4 * MiB


def test_point_block_at_p2_holds_one_lattice():
    # two constraints, each with a WorstCase for the analysis and one for
    # the checks: four 8 MiB value arrays beside one 16 MiB lattice of U;
    # with a lattice per WorstCase the block held 92 MiB
    P = problem_from_dict({
        "decision_dim": 2, "uncertainty_dim": 2,
        "objectives": ["z1", "z2"],
        "constraints": ["z1*u1 + z2*u2 - 1", "u1*z2 - abs(u2 - z1) - 1"],
        "uncertainty": {"type": "box", "lower": [-1, -1], "upper": [1, 1]},
        "cone": {"type": "orthant"},
        "box": {"lower": [-2, -2], "upper": [2, 2]},
    })
    z = np.array([0.3, 0.2])
    constraints._lattices.clear()

    def block():
        with shared_points():
            a = analyze_point(P, z)
            assert [len(w.realizations) for w in a.worst_cases] == [1, 1]
            np.testing.assert_array_equal(constraint_values(P, z), a.psi)
            for g in P.constraints:
                active_uncertainty(g, z, P.uncertainty)
            held.append(tracemalloc.get_traced_memory()[0])

    held = []
    _traced(block)
    assert held[0] < 50 * MiB
