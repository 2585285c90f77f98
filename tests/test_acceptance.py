"""Acceptance gate: every headline claim re-checked at its stated tolerance.

Each test below covers one shipped acceptance criterion end to end, so
``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Tolerances and budgets are pinned in the assertions; nothing is
recomputed from the implementation under test without an independent anchor.
"""

from time import perf_counter

import numpy as np
import pytest

from oracles import brute_contains, hull_distance_lp, limit_gradients

from robustcert.constraints import (FEAS_TOL, active_uncertainty,
                                    constraint_values, worst_case_subdiff,
                                    worst_case_values_batch)
from robustcert.convexity import (STRICT, ConvexityWitness, classify_type,
                                  revalidate_witness)
from robustcert.duality import (converse_duality_check, is_dual_feasible,
                                strong_duality_construct, weak_duality_test)
from robustcert.efficiency import (certify_efficient, certify_proper,
                                   certify_weak, check_proper_necessary)
from robustcert.expr import ActiveKinkError, Point, evaluate, grad_smooth
from robustcert.kkt import (KktCertificate, check_cq, find_kkt_certificate,
                            verify_certificate)
from robustcert.polytope import Polytope
from robustcert.problem_io import load_problem
from robustcert.subdiff import limiting_subdiff, scalarized_subdiff

FIXTURES = ("ex2_2", "ex2_3", "ex3_2", "ex3_3")
ANCHORS = {
    "ex2_2": np.array([0.0, -2.0]),
    "ex2_3": np.array([0.0, -2.0]),
    "ex3_2": np.array([0.0, 1.0]),
    "ex3_3": np.array([0.0, 1.0]),
}
SQRT2 = float(np.sqrt(2.0))


@pytest.fixture(scope="module")
def problems():
    return {name: load_problem(name) for name in FIXTURES}


def sorted_vertices(union):
    return sorted(tuple(round(c, 9) for c in v) for v in union.all_vertices())


# ---------------------------------------------------------------------------
# criterion 1 — first worked example reproduced end to end in under 10 s
# ---------------------------------------------------------------------------


def test_criterion_1_worked_example_reproduction(problems):
    start = perf_counter()
    P = problems["ex3_2"]
    z = ANCHORS["ex3_2"]

    psi = constraint_values(P, z)
    assert psi == pytest.approx([0.0, -1.0], abs=1e-9)

    reals_1 = active_uncertainty(P.constraints[0], z, P.uncertainty)
    reals_2 = active_uncertainty(P.constraints[1], z, P.uncertainty)
    assert len(reals_1) == 1 and len(reals_2) == 1
    np.testing.assert_allclose(reals_1[0].point, [0.0], atol=1e-6)
    np.testing.assert_allclose(reals_2[0].point, [1.0], atol=1e-6)

    wcs_1 = worst_case_subdiff(P.constraints[0], z, P.uncertainty)
    wcs_2 = worst_case_subdiff(P.constraints[1], z, P.uncertainty)
    assert sorted_vertices(wcs_1) == [(1.0, 0.0), (2.0, 0.0)]
    assert sorted_vertices(wcs_2) == [(-3.0, 1.0), (3.0, 1.0)]

    cq = check_cq(P, z)
    assert cq.satisfied and not cq.trivial
    assert cq.distance == pytest.approx(1.0, abs=1e-9)

    cert = find_kkt_certificate(P, z)
    assert cert.residual <= 1e-8
    assert not cert.fritz_john
    assert cert.y_star == pytest.approx([SQRT2 / 4, 0.0, SQRT2 / 4],
                                        abs=1e-6)
    assert cert.mu == pytest.approx([0.5, 0.0], abs=1e-6)
    norm_sum = np.linalg.norm(cert.y_star) + np.linalg.norm(cert.mu)
    assert abs(norm_sum - 1.0) <= 1e-9

    assert perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# criterion 2 — feasible region verdicts on a 201x201 grid match closed forms
# ---------------------------------------------------------------------------


def test_criterion_2_feasible_region_grid(problems):
    P = problems["ex3_2"]
    Z = P.box_grid(201)
    assert Z.shape == (201 * 201, 2)
    np.testing.assert_allclose(Z.min(axis=0), [-4.0, -5.0])
    np.testing.assert_allclose(Z.max(axis=0), [1.0, 5.0])

    psi_1 = worst_case_values_batch(P.constraints[0], Z, P.uncertainty)
    psi_2 = worst_case_values_batch(P.constraints[1], Z, P.uncertainty)
    closed_1 = (np.maximum(Z[:, 0], 2 * Z[:, 0])
                + np.maximum(0.0, np.abs(Z[:, 1]) - 3.0))
    closed_2 = -3.0 * np.abs(Z[:, 0]) + np.abs(Z[:, 1]) - 2.0

    assert np.max(np.abs(psi_1 - closed_1)) <= 1e-9
    assert np.max(np.abs(psi_2 - closed_2)) <= 1e-9

    verdicts = (psi_1 <= FEAS_TOL) & (psi_2 <= FEAS_TOL)
    closed_verdicts = (closed_1 <= FEAS_TOL) & (closed_2 <= FEAS_TOL)
    assert np.array_equal(verdicts, closed_verdicts)
    assert 0 < verdicts.sum() < len(verdicts)

    # the same region in its two-branch form: a wedge bounded by
    # |z2| <= -3 z1 + 2 near the origin and |z2| <= -z1 + 3 further left
    # (boundary inequalities carry the same 1e-9 slack as the psi threshold)
    z1, z2 = Z[:, 0], Z[:, 1]
    region = (
        ((-0.5 <= z1) & (z1 <= FEAS_TOL)
         & (np.abs(z2) <= -3.0 * z1 + 2.0 + FEAS_TOL))
        | ((z1 <= -0.5) & (np.abs(z2) <= -z1 + 3.0 + FEAS_TOL))
    )
    assert np.array_equal(verdicts, region)


# ---------------------------------------------------------------------------
# criterion 3 — second worked example: supplied certificate and proper checks
# ---------------------------------------------------------------------------


def test_criterion_3_second_worked_example(problems):
    start = perf_counter()
    P = problems["ex3_3"]
    z = ANCHORS["ex3_3"]

    witnesses = [
        [r.point for r in
         active_uncertainty(P.constraints[0], z, P.uncertainty)],
        [],
    ]
    cert = KktCertificate(
        y_star=np.array([0.2, 0.2, SQRT2 / 5]),
        mu=np.array([0.6, 0.0]),
        witnesses=witnesses, residual=0.0, mode="outer",
    )
    report = verify_certificate(P, z, cert)
    assert report.ok, report.checks
    assert report.stationarity_distance <= 1e-8

    comp = np.max(np.abs(cert.mu * constraint_values(P, z)))
    assert comp <= 1e-8

    necessary = check_proper_necessary(P, z, cert.y_star, grid=101)
    assert necessary.ok
    assert necessary.interior_margin > 0
    assert necessary.min_value == pytest.approx(0.0, abs=1e-9)

    proper = certify_proper(P, z, grid=101)
    assert proper.certified
    assert np.min(proper.witness_y) >= 1e-3 - 1e-12

    assert perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# criterion 4 — sampling verdicts and the supplied refutation witness
# ---------------------------------------------------------------------------


def test_criterion_4_first_sampling_problem_verdicts(problems):
    P = problems["ex2_2"]
    z = ANCHORS["ex2_2"]
    cls = classify_type(P, z, samples=10_000, seed=0)

    assert cls.type_i.status == "not-refuted"
    assert cls.type_i.samples_used == 10_000
    assert cls.type_ii.status == "refuted"
    assert cls.type_ii.witness is not None

    # an externally supplied witness must survive re-validation: the weighted
    # value change vanishes while a subgradient of the weighted objective is
    # orthogonal to the step, so the strict decrease conclusion fails
    supplied = ConvexityWitness(
        z=np.array([1.0, -3.0]), y=np.array([0.0, 7.0 / 5.0, 1.0]),
        part="objectives", delta=0.0, support=0.0, sample_index=-1,
    )
    revalidate_witness(P, z, supplied, STRICT)

    v_star = np.array([47.0 / 10.0, 47.0 / 10.0])
    combined = scalarized_subdiff(supplied.y, P.objectives, Point.of(z))
    assert combined.best.contains(v_star, 1e-9)
    assert float(v_star @ (supplied.z - z)) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# criterion 5 — second sampling problem survives the same budget
# ---------------------------------------------------------------------------


def test_criterion_5_second_sampling_problem_verdict(problems):
    P = problems["ex2_3"]
    cls = classify_type(P, ANCHORS["ex2_3"], samples=10_000, seed=0)
    assert cls.type_ii.status == "not-refuted"
    assert cls.type_ii.samples_used == 10_000


# ---------------------------------------------------------------------------
# criterion 6 — duality suite at the certified point
# ---------------------------------------------------------------------------


def test_criterion_6_duality_suite(problems):
    P = problems["ex3_2"]
    z = ANCHORS["ex3_2"]
    cert = find_kkt_certificate(P, z)
    triple = strong_duality_construct(P, z, cert)

    feas = is_dual_feasible(P, triple, mode="default", tol=1e-8)
    assert feas.feasible, feas.checks

    weak = weak_duality_test(P, triple, kind="typeI", grid=101)
    assert weak.holds
    assert weak.first_violation is None
    assert weak.checked_points == 7231

    converse = converse_duality_check(P, triple, grid=101)
    assert converse.applicable
    assert converse.weakly_efficient
    assert converse.consistent


# ---------------------------------------------------------------------------
# criterion 7 — subdifferential property suite, zero failures over seeds
# ---------------------------------------------------------------------------


def _all_fixture_exprs(problems):
    for P in problems.values():
        for f in P.objectives:
            yield f, P, None
        for g in P.constraints:
            for u in (-1.0, -0.5, 0.7):
                if P.uncertainty.contains([u]):
                    yield g, P, np.array([u])


def test_criterion_7_subdifferential_properties(problems):
    rng = np.random.default_rng(1234)

    # (a) gradient-limit soundness: gradients observed at stable nearby
    # points always land inside the computed union
    checked = 0
    for expr, P, u in _all_fixture_exprs(problems):
        z = ANCHORS[P.label]
        union = limiting_subdiff(expr, Point.of(z, u))
        for g in limit_gradients(expr, z, u):
            assert union.contains(g, 5e-3), (P.label, g)
            checked += 1
    assert checked >= 40

    # (b) smooth consistency: wherever the forward gradient exists, the
    # subdifferential is that exact singleton (1e-9)
    smooth_checked = 0
    for expr, P, u in _all_fixture_exprs(problems):
        hits = 0
        while hits < 8:
            z = rng.uniform(P.box_lower, P.box_upper)
            pt = Point.of(z, u)
            try:
                grad = grad_smooth(expr, pt)
            except ActiveKinkError:
                continue
            union = limiting_subdiff(expr, pt)
            assert len(union.pieces) == 1
            assert len(union.pieces[0].vertices) == 1
            assert not union.outer_estimate
            assert np.max(np.abs(union.pieces[0].vertices[0] - grad)) <= 1e-9
            hits += 1
            smooth_checked += 1
    assert smooth_checked >= 100

    # (c) convex-kink exactness: for convex piecewise-linear objectives the
    # support function matches one-sided directional difference quotients
    convex_kinked = [
        (problems["ex2_2"], f) for f in problems["ex2_2"].objectives
    ] + [
        (problems["ex3_2"], problems["ex3_2"].objectives[0]),
        (problems["ex3_3"], problems["ex3_3"].objectives[0]),
    ]
    for P, expr in convex_kinked:
        z = ANCHORS[P.label]
        union = limiting_subdiff(expr, Point.of(z))
        assert not union.outer_estimate
        assert len(union.pieces) == 1  # convex kink: one hull piece
        f0 = evaluate(expr, Point.of(z))
        for _ in range(20):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            h = 1e-6
            quotient = (evaluate(expr, Point.of(z + h * d)) - f0) / h
            assert abs(quotient - union.support(d)) <= 1e-8

    # (d) hull membership: the solver's verdicts agree with independent
    # oracles on random polytopes with at most 6 vertices in dimension <= 3
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(1, 7))
        V = rng.uniform(-1, 1, size=(k, dim))
        poly = Polytope(V)
        inside = rng.dirichlet(np.ones(k)) @ V
        far = V.max(axis=0) + 0.5
        assert poly.contains(inside, 1e-8)
        assert hull_distance_lp(V, inside) <= 1e-9
        assert not poly.contains(far)
        assert hull_distance_lp(V, far) > 0.1
    for _ in range(6):
        k = int(rng.integers(2, 5))
        V = rng.uniform(-1, 1, size=(k, 2))
        poly = Polytope(V)
        inside = rng.dirichlet(np.ones(k)) @ V
        far = V.max(axis=0) + 0.5
        assert poly.contains(inside, 1e-8)
        assert brute_contains([V], inside, steps=41, tol=0.15)
        assert not brute_contains([V], far, steps=21, tol=0.2)

    # (e) exact scalarization stays inside the outer fold on all fixtures
    exact_seen = 0
    for P in problems.values():
        z0 = ANCHORS[P.label]
        pts = [z0, z0 + np.array([0.5, 0.0]), z0 + np.array([0.0, -1.0])]
        for _ in range(10):
            w = rng.uniform(0, 1, size=P.n_objectives)
            pt = pts[int(rng.integers(len(pts)))]
            res = scalarized_subdiff(w, P.objectives, Point.of(pt))
            if res.exact is None:
                continue
            exact_seen += 1
            for piece in res.exact.pieces:
                for v in piece.vertices:
                    assert res.outer.contains(v, 1e-7)
    assert exact_seen >= 20


# ---------------------------------------------------------------------------
# criterion 8 — grid verdicts respect proper => efficient => weak everywhere
# ---------------------------------------------------------------------------


def test_criterion_8_efficiency_hierarchy(problems):
    rng = np.random.default_rng(77)
    for P in problems.values():
        points = [ANCHORS[P.label]]
        while len(points) < 21:
            base = rng.uniform(P.box_lower, P.box_upper)
            points.append(base)
        for z in points:
            weak = certify_weak(P, z, 101).certified
            efficient = certify_efficient(P, z, 101).certified
            proper = certify_proper(P, z, 101).certified
            assert (not proper) or efficient, (P.label, z)
            assert (not efficient) or weak, (P.label, z)
