"""Worst-case constraint, cone, and problem-loading tests.

Frozen expected values (worst-case values, attaining realizations, and
subdifferential pieces) were derived by hand and cross-checked with the dense
grid oracle in ``oracles`` before the implementation ran.
"""

import dataclasses

import numpy as np
import pytest

from oracles import grid_worst_case
from robustcert import constraints
from robustcert.constraints import (
    CHUNK_ELEMENTS,
    ConeSpec,
    LatticeTooLarge,
    ProblemFormatError,
    UncertaintySet,
    active_uncertainty,
    analyze_point,
    constraint_values,
    worst_case_subdiff,
    worst_case_value,
    worst_case_values_batch,
)
from robustcert.expr import BufferPool, eval_broadcast, parse_expr
from robustcert.memo import content_key
from robustcert.problem_io import fixture_path, load_problem, problem_from_dict

VALUE_TOL = 1e-12
GRID_ORACLE_TOL = 1e-6

G1 = "u1^2*abs(z2) + max(z1, 2*z1) - 3*abs(u1)"
G2 = "-3*abs(z1) + u1*z2 - 2"
UBOX = UncertaintySet.box([-1.0], [1.0])


def closed_form_psi1(z):
    return max(z[0], 2 * z[0]) + max(0.0, abs(z[1]) - 3.0)


def closed_form_psi2(z):
    return -3.0 * abs(z[0]) + abs(z[1]) - 2.0


# ---------------------------------------------------------------------------
# uncertainty sets
# ---------------------------------------------------------------------------


def test_box_grid_points_include_endpoints_and_center():
    pts = UBOX.grid_points(1001)
    assert pts.shape == (1001, 1)
    assert pts[0, 0] == -1.0 and pts[-1, 0] == 1.0
    assert 0.0 in pts[:, 0]


def test_box_lattice_is_built_once_and_shared_read_only():
    U = UncertaintySet.box([-1.0, 0.0], [1.0, 0.5])
    pts = U.grid_points(11)
    assert pts.shape == (121, 2) and not pts.flags.writeable
    # one lattice per box and grid, whichever set object asks
    assert U.grid_points(11) is pts
    assert UncertaintySet.box([-1.0, 0.0], [1.0, 0.5]).grid_points(11) is pts
    assert U.grid_points(12) is not pts
    with pytest.raises(ValueError, match="read-only"):
        pts[0, 0] = 2.0


def test_oversized_box_lattice_is_refused_before_allocating():
    # 10^5 points on each of two axes: 10^10 rows; a zero-width axis adds none
    with pytest.raises(LatticeTooLarge):
        constraints.box_lattice([0.0, 0.0], [1.0, 1.0], 10**5)
    assert constraints.box_lattice_rows([0.0, 0.0], [0.0, 1.0], 10**5) == 10**5


@pytest.mark.parametrize("grid", [0, 1])
def test_box_grid_below_two_points_is_refused(grid):
    # one point per axis has no grid step and no points cannot be maximized
    P = load_problem("ex3_2")
    g, z = P.constraints[0], np.array([0.0, 1.0])
    for call in (lambda: worst_case_value(g, z, P.uncertainty, grid),
                 lambda: active_uncertainty(g, z, P.uncertainty, grid=grid),
                 lambda: worst_case_values_batch(g, z[None], P.uncertainty,
                                                 grid),
                 lambda: analyze_point(P, z, grid)):
        with pytest.raises(ValueError, match="at least 2 points per axis"):
            call()


def test_box_contains():
    assert UBOX.contains([0.3]) and not UBOX.contains([1.2])


def test_finite_set():
    U = UncertaintySet.finite([[-1.0], [0.0], [1.0]])
    assert U.dim == 1
    assert U.contains([0.0]) and not U.contains([0.5])
    # the one point of a set with no uncertain parameter contains itself
    assert UncertaintySet.finite([[]]).contains([])
    # a finite set has no grid, so any grid size gives its points
    for n in (0, 1, 1001):
        np.testing.assert_array_equal(U.grid_points(n), U.points)


def test_bad_uncertainty_bounds():
    with pytest.raises(ProblemFormatError):
        UncertaintySet.box([1.0], [0.0])


# ---------------------------------------------------------------------------
# worst-case values
# ---------------------------------------------------------------------------


def test_frozen_worst_case_values():
    g1 = parse_expr(G1, 2, 1)
    g2 = parse_expr(G2, 2, 1)
    # at (-1, 0) the second constraint's worst case is -3*1 + 0 - 2 = -5
    assert worst_case_value(g2, [-1.0, 0.0], UBOX) == pytest.approx(-5.0, abs=VALUE_TOL)
    # at (0.5, 0) the first constraint's worst case is max(0.5, 1) = 1
    assert worst_case_value(g1, [0.5, 0.0], UBOX) == pytest.approx(1.0, abs=VALUE_TOL)


def test_worst_case_matches_closed_forms():
    g1 = parse_expr(G1, 2, 1)
    g2 = parse_expr(G2, 2, 1)
    rng = np.random.default_rng(13)
    for _ in range(25):
        z = rng.uniform([-4, -5], [1, 5])
        assert worst_case_value(g1, z, UBOX) == pytest.approx(
            closed_form_psi1(z), abs=1e-9
        )
        assert worst_case_value(g2, z, UBOX) == pytest.approx(
            closed_form_psi2(z), abs=1e-9
        )


def test_worst_case_matches_dense_grid_oracle():
    e = parse_expr("u1^3*z1 - u1^2 + z2*u1", 2, 1)
    for z in ([0.5, -1.0], [2.0, 3.0], [-1.5, 0.25]):
        assert worst_case_value(e, z, UBOX) == pytest.approx(
            grid_worst_case(e, z, [-1.0], [1.0]), abs=GRID_ORACLE_TOL
        )


def test_refinement_recovers_off_grid_maximizer():
    e = parse_expr("-(u1 - 0.123456789)^2", 1, 1)
    U = UncertaintySet.box([0.0], [1.0])
    # the coarse grid misses the peak; the per-axis polish recovers it
    assert worst_case_value(e, [0.0], U, grid=101) >= -1e-12
    reps = active_uncertainty(e, [0.0], U, grid=101)
    assert len(reps) == 1
    assert reps[0].point[0] == pytest.approx(0.123456789, abs=1e-8)


def test_batch_values_match_pointwise(monkeypatch):
    g1 = parse_expr(G1, 2, 1)
    rng = np.random.default_rng(17)
    Z = rng.uniform([-4, -5], [1, 5], size=(20, 2))
    # 7 rows per chunk against the 1001-point grid: the last chunk is partial
    monkeypatch.setattr(constraints, "CHUNK_ELEMENTS", 7 * 1001)
    batch = worst_case_values_batch(g1, Z, UBOX)
    for i, z in enumerate(Z):
        assert batch[i] == pytest.approx(closed_form_psi1(z), abs=1e-9)


@pytest.fixture
def block_sizes(monkeypatch):
    """Sizes of the arrays a sweep allocates: the block values
    eval_broadcast hands to the sweep, and the buffers its pool lends (by
    identity, so a buffer lent again counts once)."""
    sizes = {"values": [], "buffers": {}}
    take = BufferPool.take

    def recording(*args, **kwargs):
        out = eval_broadcast(*args, **kwargs)
        sizes["values"].append(int(np.size(out)))
        return out

    def recording_take(self, shape):
        buf = take(self, shape)
        sizes["buffers"][id(buf)] = buf
        return buf

    monkeypatch.setattr(constraints, "eval_broadcast", recording)
    monkeypatch.setattr(BufferPool, "take", recording_take)
    return sizes


def test_batch_blocks_fit_the_budget_on_one_uncertainty_axis(block_sizes,
                                                             monkeypatch):
    g1 = parse_expr(G1, 2, 1)
    Z = np.random.default_rng(5).uniform([-4, -5], [1, 5], size=(2001, 2))
    batch = worst_case_values_batch(g1, Z, UBOX)
    # 65 rows of 1001 points a block: 30 full blocks and one of 51 rows
    assert block_sizes["values"] == [65 * 1001] * 30 + [51 * 1001]
    buffers = block_sizes["buffers"].values()
    assert max(buf.size for buf in buffers) <= CHUNK_ELEMENTS
    # the pool reuses its buffers: the 31 blocks allocate what 2 would
    allocated = len(buffers)
    block_sizes["buffers"].clear()
    worst_case_values_batch(g1, Z[-65 - 51:], UBOX)
    assert len(block_sizes["buffers"]) == allocated
    # one row a block, in two spans of U's grid: 1000 points and 1
    monkeypatch.setattr(constraints, "CHUNK_ELEMENTS", 1000)
    assert np.array_equal(batch, worst_case_values_batch(g1, Z, UBOX))


def test_batch_chunks_fit_the_budget_on_two_uncertainty_axes(block_sizes,
                                                             monkeypatch):
    # 1001^2 u-points per row: one row a block, U's grid split in 16 spans
    e = parse_expr("u1*z1 + u2*z2 - abs(u1 - u2)", 2, 2)
    U = UncertaintySet.box([-1.0, -1.0], [1.0, 1.0])
    Z = np.array([[0.5, -1.0], [2.0, 0.25], [-1.5, 1.0]])
    batch = worst_case_values_batch(e, Z, U)
    assert block_sizes["values"] == 3 * ([CHUNK_ELEMENTS] * 15 + [18961])
    assert max(buf.size for buf in block_sizes["buffers"].values()) \
        <= CHUNK_ELEMENTS
    # spans that end inside a row of U's lattice
    monkeypatch.setattr(constraints, "CHUNK_ELEMENTS", 7 * 1001 + 3)
    assert np.array_equal(batch, worst_case_values_batch(e, Z, U))


def test_finite_uncertainty_exact():
    U = UncertaintySet.finite([[-1.0], [0.0], [1.0]])
    e = parse_expr("u1*z2", 2, 1)
    assert worst_case_value(e, [0.0, 2.0], U) == pytest.approx(2.0, abs=VALUE_TOL)
    reps = active_uncertainty(e, [0.0, 2.0], U)
    assert len(reps) == 1 and reps[0].point[0] == 1.0


# ---------------------------------------------------------------------------
# attaining realizations
# ---------------------------------------------------------------------------


def test_active_uncertainty_unique_interior():
    g1 = parse_expr(G1, 2, 1)
    reps = active_uncertainty(g1, [0.0, 2.0], UBOX)
    assert len(reps) == 1
    assert reps[0].point[0] == pytest.approx(0.0, abs=1e-9)
    assert reps[0].value == pytest.approx(0.0, abs=VALUE_TOL)
    assert reps[0].extent <= 1e-6


def test_active_uncertainty_two_endpoints():
    g1 = parse_expr(G1, 2, 1)
    reps = active_uncertainty(g1, [0.0, 4.0], UBOX)
    assert [r.point[0] for r in reps] == pytest.approx([-1.0, 1.0])
    for r in reps:
        assert r.value == pytest.approx(1.0, abs=VALUE_TOL)


def test_active_uncertainty_three_isolated():
    g1 = parse_expr(G1, 2, 1)
    reps = active_uncertainty(g1, [0.0, 3.0], UBOX)
    assert [r.point[0] for r in reps] == pytest.approx([-1.0, 0.0, 1.0])


def test_active_uncertainty_plateau():
    e = parse_expr("z1 + u1 - u1", 1, 1)
    reps = active_uncertainty(e, [0.7], UBOX)
    assert len(reps) == 1
    assert reps[0].extent > 0.5  # the whole box attains


def test_clusters_that_polish_to_one_point_are_merged():
    # the grid has clusters at u = -0.548 and u = 0.548; the bounded line
    # search spans the whole box, so both polish to u = -sqrt(0.3), and the
    # merged realization spans both clusters
    e = parse_expr("z1*u1 - (u1^2 - 0.3)^2", 1, 1)
    reps = active_uncertainty(e, [0.0], UBOX)
    assert len(reps) == 1
    assert reps[0].point[0] == pytest.approx(-np.sqrt(0.3), abs=1e-6)
    assert reps[0].extent == pytest.approx(1.0957, abs=1e-4)
    assert reps[0].lower[0] == pytest.approx(-0.548, abs=1e-12)
    assert reps[0].upper[0] == pytest.approx(0.548, abs=1e-12)
    s = worst_case_subdiff(e, [0.0], UBOX)
    assert s.outer_estimate
    assert len(s.pieces) == 1
    v = sorted(map(tuple, np.round(s.pieces[0].vertices, 9)))
    assert v == [(-0.548,), (0.548,)]


# ---------------------------------------------------------------------------
# worst-case subdifferentials
# ---------------------------------------------------------------------------


def test_worst_case_subdiff_hull_piece():
    g1 = parse_expr(G1, 2, 1)
    s = worst_case_subdiff(g1, [0.0, 1.0], UBOX)
    assert not s.outer_estimate
    assert len(s.pieces) == 1
    v = sorted(map(tuple, np.round(s.pieces[0].vertices, 9)))
    assert v == [(1.0, 0.0), (2.0, 0.0)]


def test_worst_case_subdiff_concave_pair():
    g2 = parse_expr(G2, 2, 1)
    s = worst_case_subdiff(g2, [0.0, 1.0], UBOX)
    assert not s.outer_estimate
    rendered = sorted(
        sorted(map(tuple, np.round(p.vertices, 9))) for p in s.pieces
    )
    assert rendered == [[(-3.0, 1.0)], [(3.0, 1.0)]]


def test_worst_case_subdiff_plateau_is_outer():
    e = parse_expr("abs(z1) + u1 - u1", 1, 1)
    s = worst_case_subdiff(e, [0.0], UBOX)
    assert s.outer_estimate
    assert s.contains([1.0]) and s.contains([-1.0])


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def test_orthant_cone():
    K = ConeSpec.orthant(3)
    assert K.contains([1.0, 0.0, 2.0])
    assert not K.contains([-0.1, 1.0, 1.0])
    assert K.dual_contains([0.5, 0.5, 0.0])
    assert K.dual_margin([0.2, 0.3, 0.5]) == pytest.approx(0.2)
    assert np.allclose(K.dual_rays(), np.eye(3))


def test_generator_cone_membership():
    K = ConeSpec.from_rays([[1.0, 0.0], [1.0, 1.0]])
    assert K.contains([2.0, 1.0])
    assert K.contains([1.0, 1.0])
    assert not K.contains([-0.1, 0.0])
    assert not K.contains([0.0, 1.0])


@pytest.mark.parametrize("distance", [5e-10, 2e-9, 5e-8])
def test_generator_cone_membership_matches_the_orthant(distance):
    # the cone generated by the unit vectors is the orthant, so both decide
    # membership at MEMBER_TOL, far below the LP's feasibility tolerance
    K, orthant = ConeSpec.from_rays(np.eye(2)), ConeSpec.orthant(2)
    for x in ([-distance, 0.0], [-distance, 1.0], [0.5, -distance],
              [-distance, -distance]):
        assert K.contains(x) == orthant.contains(x), x


def test_generator_cone_zero_ray_dropped():
    K = ConeSpec.from_rays([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    assert len(K.rays) == 2


def test_non_pointed_cone_rejected():
    with pytest.raises(ProblemFormatError, match="pointed"):
        ConeSpec.from_rays([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(ProblemFormatError, match="pointed"):
        ConeSpec.from_rays([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])


def test_generator_dual_rays_2d():
    K = ConeSpec.from_rays([[1.0, 0.0], [1.0, 1.0]])
    rays = K.dual_rays()
    expected = sorted([(0.0, 1.0), (1 / np.sqrt(2), -1 / np.sqrt(2))])
    assert np.allclose(sorted(map(tuple, rays)), expected, atol=1e-9)


def test_generator_dual_rays_3d_orthant():
    # the orthant is self-dual: the dual rays are the standard basis vectors
    K = ConeSpec.from_rays(np.eye(3))
    rays = K.dual_rays()
    assert np.allclose(
        sorted(map(tuple, rays)),
        [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
        atol=1e-9,
    )


# generator cones at m = 2 and 3: full rank, and rank 1 and 2 (rays that do
# not span R^m, where K+ also holds the span's orthogonal complement)
DUAL_RAY_CONES = {
    "m2-rank2": [[1, 0], [1, 1]],
    "m2-rank1": [[1, 2]],
    "m3-rank3": [[1, 0, 0], [1, 1, 0], [0, 1, 1]],
    "m3-rank2-plane": [[1, 0, 0], [0, 1, 1]],
    "m3-rank2-three": [[1, 0, 0], [1, 1, 0], [2, 1, 0]],
    "m3-rank1": [[1, 1, 1], [2, 2, 2]],
}


def test_dual_rays_of_a_plane_cone_include_its_in_plane_duals():
    # K generated by (1,0,0), (0,1,1): (1,0,0) and (0,1,1)/sqrt(2) are dual
    # within the plane, and the plane's normal enters with both signs
    rays = ConeSpec.from_rays([[1, 0, 0], [0, 1, 1]]).dual_rays()
    h = round(1 / np.sqrt(2), 9)
    assert sorted(map(tuple, np.round(rays, 9) + 0.0)) == \
        [(0, -h, h), (0, h, -h), (0, h, h), (1, 0, 0)]


@pytest.mark.parametrize("rays", DUAL_RAY_CONES.values(),
                         ids=DUAL_RAY_CONES.keys())
def test_dual_rays_are_unit_members_of_the_dual_cone(rays):
    K = ConeSpec.from_rays(rays)
    D = K.dual_rays()
    assert np.all(K.rays @ D.T >= -1e-9)
    np.testing.assert_allclose(np.linalg.norm(D, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("rays", DUAL_RAY_CONES.values(),
                         ids=DUAL_RAY_CONES.keys())
def test_dual_rays_generate_the_dual_cone(rays):
    from scipy.optimize import nnls

    K = ConeSpec.from_rays(rays)
    D = K.dual_rays()
    rng = np.random.default_rng(7)
    Y = rng.normal(size=(400, K.dim))
    members = Y[np.all(K.rays @ Y.T >= 0, axis=0)]
    assert len(members) >= 20
    for y in members:
        weights, residual = nnls(D.T, y)
        assert residual <= 1e-9, y


# ---------------------------------------------------------------------------
# problem loading
# ---------------------------------------------------------------------------


def test_problem_is_frozen_and_keyed_once():
    P = load_problem("ex3_2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.label = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.uncertainty.lower = np.zeros(1)
    for a in (P.box_lower, P.box_upper, P.uncertainty.lower,
              P.uncertainty.upper):
        assert not a.flags.writeable
    # the content key is built once per problem object; a changed copy
    # gets its own
    assert content_key(P) is content_key(P)
    other = dataclasses.replace(P, box_upper=P.box_upper + 1.0)
    assert not other.box_upper.flags.writeable
    assert content_key(other) != content_key(P)
    assert content_key(load_problem("ex3_2")) == content_key(P)


def test_load_fixture():
    P = load_problem("ex3_2")
    assert P.decision_dim == 2 and P.uncertainty_dim == 1
    assert P.n_objectives == 3 and P.n_constraints == 2
    assert P.cone.kind == "orthant"
    assert P.label == "ex3_2"
    assert np.allclose(P.box_lower, [-4, -5]) and np.allclose(P.box_upper, [1, 5])
    # the reference point maps to the origin in objective space
    assert np.allclose(P.objective_values([0.0, 1.0]), 0.0, atol=VALUE_TOL)


def test_load_fixture_by_path():
    P = load_problem(str(fixture_path("ex3_3")))
    assert P.label == "ex3_3"
    assert np.allclose(P.objective_values([0.0, 1.0]), 0.0, atol=VALUE_TOL)


def test_objective_values_batch_matches_loop():
    P = load_problem("ex3_2")
    rng = np.random.default_rng(23)
    Z = rng.uniform([-4, -5], [1, 5], size=(15, 2))
    batch = P.objective_values_batch(Z)
    for i, z in enumerate(Z):
        assert np.allclose(batch[i], P.objective_values(z), atol=1e-12)


def test_box_grid_contains_reference_point():
    P = load_problem("ex3_2")
    grid = P.box_grid(101)
    assert grid.shape == (101 * 101, 2)
    assert any(np.allclose(row, [0.0, 1.0], atol=0) for row in grid)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("objectives"), "objectives"),
        (lambda d: d.update(objectives=["zz + 1"]), "objective 1"),
        # objectives are certain, so u1 is unknown in them
        (lambda d: d.update(objectives=["z1 + u1", "-z1"]),
         "objective 1: unknown variable 'u1'"),
        (lambda d: d.update(constraints=["u2*z1"]), "constraint 1"),
        (lambda d: d["uncertainty"].update(type="ball"), "ball"),
        (lambda d: d["box"].update(lower=[0.0]), "length"),
        (
            lambda d: d.update(cone={"type": "generators", "rays": [[1, 0], [0, 1]]}),
            "cone dimension",
        ),
        # json.loads reads NaN and Infinity, so the loader must reject them
        (lambda d: d["box"].update(lower=[-INF, -5]), "finite"),
        (lambda d: d["box"].update(upper=[1, INF]), "finite"),
        (lambda d: d["uncertainty"].update(lower=[NAN]), "finite"),
        (lambda d: d["uncertainty"].update(upper=[INF]), "finite"),
        (
            lambda d: d.update(uncertainty={"type": "finite",
                                            "points": [[0.5], [NAN]]}),
            "finite",
        ),
        (
            lambda d: d.update(cone={"type": "generators",
                                     "rays": [[1, 0, 0], [0, 1, 0], [0, 0, INF]]}),
            "finite",
        ),
    ],
)
def test_problem_format_errors(mutate, message):
    import json

    data = json.loads(fixture_path("ex3_2").read_text())
    mutate(data)
    with pytest.raises(ProblemFormatError, match=message):
        problem_from_dict(data)


# ---------------------------------------------------------------------------
# feasibility and activity
# ---------------------------------------------------------------------------


def test_feasibility_examples():
    P = load_problem("ex3_2")
    assert analyze_point(P, [0.0, 1.0]).feasible()
    assert analyze_point(P, [-1.0, 0.0]).feasible()
    assert not analyze_point(P, [0.5, 0.0]).feasible()
    vals = constraint_values(P, [-1.0, 0.0])
    assert vals == pytest.approx([-1.0, -5.0], abs=1e-9)


def test_activity_sets():
    P = load_problem("ex3_2")
    assert analyze_point(P, [0.0, 1.0]).active_max == [0]
    assert analyze_point(P, [0.0, 1.0]).binding == [0]
    P22 = load_problem("ex2_2")
    # both constraints bind at the ex2_2 reference point (0, -2)
    assert analyze_point(P22, [0.0, -2.0]).binding == [0, 1]
    assert analyze_point(P22, [0.0, -2.0]).active_max == [0, 1]
