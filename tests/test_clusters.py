"""The attaining clusters of a worst case, labelled in linear time.

``grid_clusters`` labels the grid candidates as 8-connected components of
U's index lattice.  It must give the clusters of the breadth-first search it
replaced (``oracles.breadth_first_clusters``), in the same order, and
``WorstCase.realizations`` must polish each cluster from the same grid point
wherever the cluster's maximum is unique or sits at its first member, and
always at p = 1.  The one declared difference: at p >= 2 a cluster whose
maximum is an exact tie that misses its first member is polished from the
first tied point in row-major order, where the search took the first tied
point it reached.
"""

import json
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import breadth_first_clusters
from robustcert.cli import main
from robustcert.constraints import (ACTIVE_TOL, UncertaintySet, WorstCase,
                                    grid_clusters)
from robustcert.expr import parse_expr


def _reference(U, n, pts, vals):
    """The search's clusters (sorted flat indices, in its order) and the
    flat index each was polished from."""
    steps = np.where(U.upper > U.lower, (U.upper - U.lower) / (n - 1), 1.0)
    cand = np.flatnonzero(vals >= np.max(vals) - ACTIVE_TOL)
    found = [cand[m] for m in breadth_first_clusters(pts[cand], steps)]
    return ([np.sort(c) for c in found],
            [int(c[np.argmax(vals[c])]) for c in found])


def _worst_case(lower, upper, n, vals):
    """A ``WorstCase`` over the box whose grid values are ``vals``, with a
    polish that records the flat index it starts from and stays there."""
    U = UncertaintySet.box(lower, upper)
    w = WorstCase(parse_expr("u1", 1, U.dim), [0.0], U, n)
    w.vals = np.asarray(vals, dtype=float)
    starts = []

    def polish(u0):
        starts.append(int(np.flatnonzero(np.all(w.pts == u0, axis=1))[0]))
        return u0.copy(), float(np.max(w.vals))

    w._polish = polish
    return w, starts


def _check_against_search(lower, upper, n, vals):
    """Assert the clusters and polish starts against the search; return the
    number of clusters whose start differs by the declared tie rule."""
    w, starts = _worst_case(lower, upper, n, vals)
    shape = [1 if lo == hi else n for lo, hi in zip(w.U.lower, w.U.upper)]
    got = grid_clusters(w.vals >= np.max(w.vals) - ACTIVE_TOL, shape)
    want, want_starts = _reference(w.U, n, w.pts, w.vals)
    assert [c.tolist() for c in got] == [c.tolist() for c in want]
    w.realizations
    assert len(starts) == len(got)
    declared = 0
    for members, start, want_start in zip(got, starts, want_starts):
        top = np.max(w.vals[members])
        assert start == members[np.argmax(w.vals[members])]
        unique = np.sum(w.vals[members] == top) == 1
        if unique or w.vals[members[0]] == top or sum(s > 1 for s in shape) < 2:
            assert start == want_start
        else:
            declared += start != want_start
    return declared


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2]),
       st.integers(2, 9), st.booleans(), st.integers(1, 4))
def test_labelling_matches_the_search_on_random_masks(seed, p, n, flat,
                                                      levels):
    # few value levels make plateaus and exact ties; the jitter, on some
    # draws, makes near-ties with a unique maximum inside ACTIVE_TOL
    rng = np.random.default_rng(seed)
    lower, upper = [-1.0] * p, [1.0] * p
    if flat and p == 2:
        lower[1] = upper[1] = 0.25
    size = n ** sum(lo != hi for lo, hi in zip(lower, upper))
    vals = rng.integers(0, levels, size) * 1.0
    if rng.integers(2):
        vals = vals + rng.uniform(0, 0.5 * ACTIVE_TOL, size)
    _check_against_search(lower, upper, n, vals)


def test_a_zero_width_axis_keeps_one_point():
    vals = np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1], dtype=float)
    for lower, upper in (([-1, 0.5], [1, 0.5]), ([0.5, -1], [0.5, 1]),
                         ([-1], [1])):
        assert _check_against_search(lower, upper, 10, vals) == 0
    assert [c.tolist() for c in grid_clusters(vals == 1, [10, 1])] == \
        [[1, 2], [4], [7, 8, 9]]


def test_a_full_plateau_is_one_cluster():
    for lower, upper, n in (([-1], [1], 50), ([-1, -1], [1, 1], 20)):
        size = n ** len(lower)
        assert _check_against_search(lower, upper, n, np.zeros(size)) == 0
        clusters = grid_clusters(np.ones(size, dtype=bool), [n] * len(lower))
        assert [c.tolist() for c in clusters] == [list(range(size))]


def test_a_tied_ridge_that_misses_the_first_member():
    # a 3 x 3 plateau whose maximum ties at (0, 2) and (1, 0); the search
    # from (0, 0) reaches (1, 0) first, the row-major order (0, 2)
    vals = np.zeros(9)
    vals[[2, 3]] = 0.5 * ACTIVE_TOL
    assert _check_against_search([-1, -1], [1, 1], 3, vals) == 1
    w, starts = _worst_case([-1, -1], [1, 1], 3, vals)
    w.realizations
    assert starts == [2]
    assert _reference(w.U, 3, w.pts, w.vals)[1] == [3]


def test_clusters_come_in_order_of_their_first_member():
    mask = np.zeros((5, 5), dtype=bool)
    mask[0, 4] = mask[1, 3] = True   # joined diagonally
    mask[0, 0] = mask[4, 4] = mask[2, 0] = True
    assert [c.tolist() for c in grid_clusters(mask.ravel(), [5, 5])] == \
        [[0], [4, 8], [10], [24]]
    assert grid_clusters(np.zeros(4, dtype=bool), [4]) == []


P2_PLANE = {
    "decision_dim": 2, "uncertainty_dim": 2,
    "objectives": ["z1", "z2"],
    "constraints": ["z1*u1 + z2*u2 - 1"],
    "uncertainty": {"type": "box", "lower": [-1, -1], "upper": [1, 1]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-2, -2], "upper": [2, 2]},
}


def test_check_at_p2_on_the_default_grid_is_quick(tmp_path, capsys):
    # at z = (0, 0) the constraint does not depend on u, so all 1001^2 grid
    # points attain its worst case and form one cluster; the breadth-first
    # search took 83 s at --ugrid 201
    path = tmp_path / "p2.json"
    path.write_text(json.dumps(P2_PLANE))
    start = time.perf_counter()
    assert main(["check", "--problem", str(path), "--point=0,0",
                 "--ugrid", "1001", "--json"]) == 0
    assert time.perf_counter() - start < 10.0
    report = json.loads(capsys.readouterr().out)
    assert report["feasibility"]["feasible"] is True
    assert report["feasibility"]["psi"] == [-1.0]
