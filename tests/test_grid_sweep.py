"""The uncertainty-grid sweep against the per-point reference, bit for bit.

The bundled fixtures all have one box uncertainty variable, so finite sets,
problems without uncertainty and two-variable boxes are checked here: every
consumer of ``grid_sweep`` must give exactly the floats that the reference
sweep in ``oracles`` gives.
"""

import numpy as np
import pytest

from oracles import per_point_sweep, per_point_worst_case
from robustcert import constraints
from robustcert.constraints import (
    active_uncertainty,
    worst_case_value,
    worst_case_values_batch,
)
from robustcert.duality import DualTriple, is_dual_feasible
from robustcert.problem_io import problem_from_dict


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


# (problem, uncertainty grid): a 101-point grid keeps p = 2 at 10^4 points
CASES = {
    "finite": (_problem(
        2, ["u1*z1 + abs(z2 - u2) - 1", "max(z1*u1, z2) - u2^2"],
        {"type": "finite",
         "points": [[-1, 0.5], [0, 0], [0.5, -1], [1, 1], [0.25, 0.5]]},
        "finite"), 1001),
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
