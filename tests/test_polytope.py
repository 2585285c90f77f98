"""Geometry tests: min-norm point, membership, reduction, Minkowski sums."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_contains, hull_distance_lp
from robustcert.polytope import (
    Polytope,
    PolytopeUnion,
    dedup_pieces,
    dedup_rows,
    extreme_points,
    min_norm_point,
    singleton,
)

GEOM_TOL = 1e-9


# ---------------------------------------------------------------------------
# min-norm point / distance / contains
# ---------------------------------------------------------------------------


def test_min_norm_point_segment_through_origin():
    x = min_norm_point(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    assert np.linalg.norm(x) <= GEOM_TOL


def test_min_norm_point_offset_segment():
    x = min_norm_point(np.array([[1.0, 1.0], [2.0, 1.0]]))
    assert np.allclose(x, [1.0, 1.0], atol=GEOM_TOL)


def test_min_norm_point_triangle_interior_origin():
    V = np.array([[-1.0, -1.0], [2.0, -1.0], [0.0, 2.0]])
    assert np.linalg.norm(min_norm_point(V)) <= GEOM_TOL


def test_min_norm_point_projection_onto_edge():
    # nearest point of conv{(1,0),(0,1)} to the origin is (1/2,1/2)
    x = min_norm_point(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(x, [0.5, 0.5], atol=1e-8)


def test_distance_matches_nnls_oracle():
    rng = np.random.default_rng(5)
    for _ in range(30):
        V = rng.uniform(-2, 2, size=(rng.integers(1, 7), 3))
        x = rng.uniform(-2, 2, size=3)
        p = Polytope(V)
        assert p.distance(x) == pytest.approx(
            hull_distance_lp(V, x), abs=5e-6
        )


def test_contains_square():
    p = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    assert p.contains([0.5, 0.5])
    assert p.contains([1.0, 1.0])
    assert p.contains([0.5, 1.0 + 5e-9])  # within default slack
    assert not p.contains([0.5, 1.1])
    assert not p.contains([1.2, 0.0])


def test_contains_agrees_with_brute_force():
    rng = np.random.default_rng(9)
    for _ in range(6):
        V = rng.uniform(-1, 1, size=(4, 2))
        p = Polytope(V)
        # a genuine convex combination is inside by both routes (the coarse
        # barycentric grid displaces points by well under 0.15 here)
        inside = rng.dirichlet(np.ones(4)) @ V
        assert p.contains(inside, 1e-9)
        assert brute_contains([V], inside, steps=41, tol=0.15)
        # a point beyond the bounding box is outside by both routes
        far = V.max(axis=0) + 0.5
        assert not p.contains(far)
        assert not brute_contains([V], far, steps=21, tol=0.2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 10_000),
)
def test_min_norm_point_is_feasible_and_minimal(vertices, seed):
    V = np.array(vertices, dtype=float)
    x = min_norm_point(V)
    # feasibility: x lies in the hull
    assert hull_distance_lp(V, x) <= 1e-6
    # minimality against sampled hull points
    rng = np.random.default_rng(seed)
    W = rng.dirichlet(np.ones(len(V)), size=64)
    sampled = W @ V
    assert np.linalg.norm(x) <= np.linalg.norm(sampled, axis=1).min() + 1e-7


# ---------------------------------------------------------------------------
# extreme-point reduction
# ---------------------------------------------------------------------------


def test_extreme_points_collinear():
    pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5]])
    red = extreme_points(pts)
    assert sorted(map(tuple, red)) == [(0.0, 0.0), (2.0, 2.0)]


def test_extreme_points_square_with_interior():
    pts = np.array(
        [[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5], [0.25, 0.75]], dtype=float
    )
    red = extreme_points(pts)
    assert sorted(map(tuple, red)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_extreme_points_degenerate():
    assert len(extreme_points(np.array([[1.0, 2.0], [1.0, 2.0]]))) == 1


def test_extreme_points_segment_in_3d():
    pts = np.array([[0, 0, 0], [1, 2, 3], [0.5, 1, 1.5], [0.25, 0.5, 0.75]])
    red = extreme_points(pts)
    assert sorted(map(tuple, red)) == [(0, 0, 0), (1, 2, 3)]


def test_extreme_points_cube_with_center():
    corners = np.array(
        [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float
    )
    pts = np.vstack([corners, [[0.5, 0.5, 0.5]]])
    red = extreme_points(pts)
    assert len(red) == 8


# ---------------------------------------------------------------------------
# algebra: scale, Minkowski, hulls, unions
# ---------------------------------------------------------------------------


def test_scale_negative_reflects():
    p = Polytope([[1.0, 2.0], [3.0, 4.0]]).scale(-1.0)
    assert sorted(map(tuple, p.vertices)) == [(-3.0, -4.0), (-1.0, -2.0)]


def test_minkowski_sum_of_squares():
    sq = Polytope([[0, 0], [1, 0], [0, 1], [1, 1]])
    s = sq.minkowski_sum(sq)
    assert sorted(map(tuple, s.vertices)) == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_union_minkowski_pair_plus_segment():
    # {-1} ∪ {1} plus [0, 1] gives [-1, 0] ∪ [1, 2]
    pair = PolytopeUnion([Polytope([[-1.0]]), Polytope([[1.0]])])
    seg = PolytopeUnion([Polytope([[0.0], [1.0]])])
    out = pair.minkowski_sum(seg)
    rendered = sorted(sorted(map(tuple, p.vertices)) for p in out.pieces)
    assert rendered == [[(-1.0,), (0.0,)], [(1.0,), (2.0,)]]
    assert out.contains([-0.5]) and out.contains([1.5])
    assert not out.contains([0.5])


def test_union_support_and_hull():
    u = PolytopeUnion([Polytope([[0.0, 0.0]]), Polytope([[2.0, 1.0]])])
    assert u.support([1.0, 0.0]) == pytest.approx(2.0)
    hull = u.hull()
    assert hull.contains([1.0, 0.5])


def test_dedup_pieces_absorbs_subsets():
    big = Polytope([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    small = Polytope([[0.5, 0.5], [1.0, 0.2]])
    outside = Polytope([[5.0, 5.0]])
    kept = dedup_pieces([small, big, outside])
    assert len(kept) == 2


def _dedup_rows_loop(rows, tol):
    """Reference: greedy first-kept dedup, one kept row at a time."""
    out = []
    for row in rows:
        if not any(np.max(np.abs(row - q), initial=0.0) <= tol for q in out):
            out.append(row)
    return np.array(out).reshape(len(out), rows.shape[1])


@pytest.mark.parametrize("tol", [1e-12, 1e-9])
@pytest.mark.parametrize("d", [0, 1, 3])
def test_dedup_rows_matches_greedy_loop(tol, d):
    rng = np.random.default_rng(d)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        base = rng.integers(-2, 3, size=(n, d)).astype(float)
        jitter = rng.choice([0.0, 1e-13, 5e-13, 1e-10, 2e-9], size=(n, d))
        rows = base + jitter * rng.choice([-1.0, 1.0], size=(n, d))
        np.testing.assert_array_equal(dedup_rows(rows, tol),
                                      _dedup_rows_loop(rows, tol))


def test_singleton_helper():
    s = singleton([1.0, -2.0])
    assert s.contains([1.0, -2.0]) and not s.contains([1.0, -1.9])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_serialization_sorted_and_deterministic():
    a = PolytopeUnion(
        [Polytope([[1.0, 0.0], [0.0, 1.0]]), Polytope([[-1.0, 0.0]])]
    )
    b = PolytopeUnion(
        [Polytope([[-1.0, 0.0]]), Polytope([[0.0, 1.0], [1.0, 0.0]])]
    )
    assert json.dumps(a.to_jsonable()) == json.dumps(b.to_jsonable())
    data = a.to_jsonable()
    assert data["pieces"][0]["vertices"] == [[-1.0, 0.0]]
    assert data["pieces"][1]["vertices"] == [[0.0, 1.0], [1.0, 0.0]]
    assert "outer_estimate" not in data


def test_serialization_round_trip_with_outer_flag():
    u = PolytopeUnion(
        [Polytope([[0.0], [1.0]])], outer_estimate=True, notes=("hull fallback",)
    )
    again = PolytopeUnion.from_jsonable(u.to_jsonable())
    assert again.outer_estimate
    assert again.notes == ("hull fallback",)
    assert np.allclose(again.pieces[0].vertices, u.pieces[0].vertices)
