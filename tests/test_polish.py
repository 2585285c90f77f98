"""The per-axis polish runs each line search once and gives the same floats.

``_refine_box_max`` skips a line search when no other coordinate has moved
since that axis was last searched, and a ``WorstCase`` shares polishes
between ``value`` and ``realizations``.  The reference in ``oracles`` runs
every line search of both passes; every (u, value) must equal its own bit for
bit.
"""

import numpy as np
import pytest

from oracles import two_pass_refine_box_max
from robustcert import constraints
from robustcert.constraints import (
    WorstCase,
    _refine_box_max,
    active_uncertainty,
    analyze_point,
    constraint_values,
    grid_sweep,
)
from robustcert.problem_io import BUNDLED_FIXTURES, load_problem, problem_from_dict
from robustcert.report import build_report

ANCHORS = {"ex2_2": [0.0, -2.0], "ex2_3": [0.0, -2.0],
           "ex3_2": [0.0, 1.0], "ex3_3": [0.0, 1.0]}


def _problem(constraint_sources, lower, upper):
    return problem_from_dict({
        "decision_dim": 2,
        "uncertainty_dim": len(lower),
        "objectives": ["z1 + abs(z2)", "z2 - z1"],
        "constraints": constraint_sources,
        "uncertainty": {"type": "box", "lower": lower, "upper": upper},
        "cone": {"type": "orthant"},
        "box": {"lower": [-2, -2], "upper": [2, 2]},
    })


# two uncertainty axes with kinks in u, so a move along one axis often
# changes the best point along the other
BOX_P2 = _problem(["u1*z1 + u2*z2 - abs(u1 - u2)",
                   "u1^2*abs(z2) + max(z1, 2*z1*u2) - 3*abs(u1)",
                   "max(u1*z2, -u2^2) - abs(u1 + z1*u2) + u1*u2",
                   "z1 - abs(u1 - 0.25) - abs(u2 - 0.5)"],
                  [-1, -0.5], [1, 1])
# both ends of U attain the worst case, in two clusters
TWO_ENDS = _problem(["u1^2 + z1 - 1"], [-1], [1])


def _assert_same(got, ref):
    assert np.array_equal(got[0], ref[0])
    assert np.array_equal(got[1], ref[1])


@pytest.fixture
def line_searches(monkeypatch):
    """Count the polish's line searches."""
    calls = []
    orig = constraints.minimize_scalar

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(constraints, "minimize_scalar", counted)
    return calls


@pytest.mark.parametrize("name", BUNDLED_FIXTURES)
def test_polish_matches_reference_on_fixtures(name):
    P = load_problem(name)
    U = P.uncertainty
    rng = np.random.default_rng(5)
    Z = np.vstack([ANCHORS[name],
                   rng.uniform(P.box_lower, P.box_upper, size=(8, 2))])
    for z in Z:
        for g in P.constraints:
            pts, vals = grid_sweep(g, z, U)
            starts = np.vstack([pts[int(np.argmax(vals))],
                                rng.uniform(U.lower, U.upper, size=(3, 1))])
            for u0 in starts:
                _assert_same(_refine_box_max(g, z, u0, U),
                             two_pass_refine_box_max(g, z, u0, U))


def test_polish_matches_reference_on_two_axes():
    U = BOX_P2.uncertainty
    rng = np.random.default_rng(11)
    pairs = second_pass_moves = 0
    for _ in range(70):
        z = rng.uniform(BOX_P2.box_lower, BOX_P2.box_upper)
        for g in BOX_P2.constraints:
            pts, vals = grid_sweep(g, z, U, 101)
            for u0 in (pts[int(np.argmax(vals))],
                       rng.uniform(U.lower, U.upper)):
                ref = two_pass_refine_box_max(g, z, u0, U)
                _assert_same(_refine_box_max(g, z, u0, U), ref)
                pairs += 1
                one_pass = two_pass_refine_box_max(g, z, u0, U, passes=1)
                second_pass_moves += not np.array_equal(one_pass[0], ref[0])
    assert pairs >= 200
    # starts where the first pass moved a coordinate and the second pass
    # then found a better point along another axis
    assert second_pass_moves >= 10


def test_polish_skips_only_unchanged_line_searches(line_searches):
    U = BOX_P2.uncertainty
    g = BOX_P2.constraints[3]
    # from the corner (-1, -0.5) the first pass moves both coordinates to
    # the separable maximizer (0.25, 0.5); the second pass searches axis 1
    # again, since axis 2 moved after it, and then skips axis 2
    u, _ = _refine_box_max(g, np.zeros(2), np.array([-1.0, -0.5]), U)
    np.testing.assert_allclose(u, [0.25, 0.5], atol=1e-8)
    assert len(line_searches) == 3


def test_check_makes_one_line_search_per_constraint(line_searches):
    P = load_problem("ex3_2")
    build_report(P, "check", [0.0, 1.0])
    assert len(line_searches) == P.n_constraints


def test_realizations_reuse_the_polish_of_psi(line_searches):
    P = load_problem("ex3_2")
    z = np.array(ANCHORS["ex3_2"])
    a = analyze_point(P, z)
    assert len(line_searches) == P.n_constraints
    # each constraint has one cluster, which starts at psi's grid maximizer
    reps = [w.realizations for w in a.worst_cases]
    assert len(line_searches) == P.n_constraints
    for g, got in zip(P.constraints, reps):
        ref = active_uncertainty(g, z, P.uncertainty)
        assert len(got) == len(ref) == 1
        assert np.array_equal(got[0].point, ref[0].point)
        assert got[0].value == ref[0].value
    assert np.array_equal(a.psi, constraint_values(P, z))


def test_realizations_polish_a_cluster_that_starts_elsewhere(line_searches):
    z = np.array([0.0, 0.0])
    a = analyze_point(TWO_ENDS, z)
    before = len(line_searches)
    reps = a.worst_cases[0].realizations
    # psi polished from u = -1; the cluster at u = 1 needs its own polish
    assert len(line_searches) == before + 1
    ref = active_uncertainty(TWO_ENDS.constraints[0], z,
                             TWO_ENDS.uncertainty)
    assert [(r.point.tolist(), r.value, r.extent) for r in reps] == \
        [(r.point.tolist(), r.value, r.extent) for r in ref]
    assert len(reps) == 2


def test_shared_polish_hands_out_copies(line_searches):
    P = load_problem("ex3_2")
    w = WorstCase(P.constraints[0], ANCHORS["ex3_2"], P.uncertainty)
    start = w.pts[int(np.argmax(w.vals))]
    w.value
    assert len(line_searches) == 1
    # the cluster starts at the grid maximizer, so it reads value's polish
    w.realizations[0].point[:] = 7.0
    assert len(line_searches) == 1
    u, _ = w._polish(start)
    assert len(line_searches) == 1
    assert np.all(u != 7.0)
    assert w._polish(start)[0] is not u
