"""Tests for the generalized-convexity sampling classifiers."""

import dataclasses
import inspect
import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from robustcert import cli, convexity, report
from robustcert.constraints import ConeSpec, worst_case_matrix
from robustcert.convexity import (
    PSEUDO,
    STRICT,
    ConvexityWitness,
    check_generalized_quasi_convex,
    check_pseudo_convex,
    check_strictly_pseudo_convex,
    classify_type,
    dual_weight_grid,
    dyadic_lattice,
    revalidate_witness,
    _candidate_stream,
    _sample_chunks,
)
from robustcert.expr import Point, parse_expr
from robustcert.memo import LruMemo, content_key
from robustcert.problem_io import (BUNDLED_FIXTURES, load_problem,
                                   problem_from_dict)
from robustcert.subdiff import limiting_subdiff

from oracles import listed_dyadic_lattice

Z22 = np.array([0.0, -2.0])
Z32 = np.array([0.0, 1.0])


@pytest.fixture(scope="module")
def ex2_2():
    return load_problem("ex2_2")


@pytest.fixture(scope="module")
def ex2_3():
    return load_problem("ex2_3")


@pytest.fixture(scope="module")
def ex3_2():
    return load_problem("ex3_2")


@pytest.fixture(scope="module")
def ex3_3():
    return load_problem("ex3_3")


@pytest.fixture(scope="module")
def cls22(ex2_2):
    return classify_type(ex2_2, Z22, samples=2000)


# ---------------------------------------------------------------------------
# sample stream
# ---------------------------------------------------------------------------


class TestDyadicLattice:
    def test_integer_points_come_first_row_major(self, ex2_2):
        lat = dyadic_lattice(ex2_2.box_lower, ex2_2.box_upper)
        pts = [next(lat) for _ in range(36)]
        # box [-2,2] x [-5,1]: 5 x 7 = 35 integer points, first axis slowest
        np.testing.assert_allclose(pts[0], [-2.0, -5.0])
        np.testing.assert_allclose(pts[1], [-2.0, -4.0])
        np.testing.assert_allclose(pts[23], [1.0, -3.0])
        np.testing.assert_allclose(pts[34], [2.0, 1.0])
        # the first refinement point has a half-integer coordinate
        np.testing.assert_allclose(pts[35], [-2.0, -4.5])

    def test_no_repeats(self, ex2_2):
        lat = dyadic_lattice(ex2_2.box_lower, ex2_2.box_upper)
        pts = [tuple(next(lat)) for _ in range(150)]
        assert len(set(pts)) == len(pts)

    def test_degenerate_axis_stays_pinned(self):
        lat = dyadic_lattice([0.0, 0.0], [0.0, 1.0])
        pts = [next(lat) for _ in range(5)]
        assert all(p[0] == 0.0 for p in pts)
        assert len({tuple(p) for p in pts}) == 5

    def test_wide_box_streams_in_bounded_memory(self):
        # each level is enumerated lazily: listing the 2e9 + 1 integers of
        # an axis would take tens of gigabytes
        tracemalloc.start()
        try:
            lat = dyadic_lattice([-1e9, -1e9], [1e9, 1e9])
            pts = [next(lat) for _ in range(500)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        np.testing.assert_array_equal(pts[0], [-1e9, -1e9])
        np.testing.assert_array_equal(pts[499], [-1e9, -1e9 + 499])

    @pytest.mark.parametrize("name", BUNDLED_FIXTURES)
    def test_point_order_on_bundled_boxes(self, name):
        P = load_problem(name)
        lat = dyadic_lattice(P.box_lower, P.box_upper)
        np.testing.assert_array_equal(
            [next(lat) for _ in range(1000)],
            listed_dyadic_lattice(P.box_lower, P.box_upper, 1000))

    def test_stream_interleaves_lattice_every_fourth(self, ex2_2):
        stream = _candidate_stream(ex2_2, seed=0)
        cand = [next(stream) for _ in range(12)]
        np.testing.assert_allclose(cand[0], [-2.0, -5.0])
        np.testing.assert_allclose(cand[4], [-2.0, -4.0])
        np.testing.assert_allclose(cand[8], [-2.0, -3.0])
        for k in (1, 2, 3, 5, 6, 7):
            assert np.all(cand[k] >= ex2_2.box_lower - 1e-12)
            assert np.all(cand[k] <= ex2_2.box_upper + 1e-12)


def test_dual_weight_grid_orthant(ex2_2):
    Y = dual_weight_grid(ex2_2)
    assert Y.shape == (325, 3)  # compositions of 24 into 3 parts
    assert np.all(Y >= -1e-15)
    np.testing.assert_allclose(Y.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(Y[0], [0.0, 0.0, 1.0], atol=0)


# ---------------------------------------------------------------------------
# fixture classifications
# ---------------------------------------------------------------------------


class TestPiecewiseLinearFixture:
    def test_first_bundle_survives(self, cls22):
        assert cls22.type_i.status == "not-refuted"
        assert cls22.type_i.witness is None
        assert cls22.type_i.samples_used == 2000

    def test_second_bundle_refuted_by_weighted_tie(self, cls22):
        v = cls22.type_ii
        assert v.status == "refuted"
        w = v.witness
        np.testing.assert_allclose(w.z, [-2.0, -4.0], atol=0)
        np.testing.assert_allclose(w.y, [0.0, 7.0 / 12.0, 5.0 / 12.0],
                                   atol=1e-12)
        assert w.part == "objectives"
        assert abs(w.delta) <= 1e-12       # exact weighted tie
        assert w.support >= -1e-12         # yet no strict decrease direction
        assert w.sample_index == 4         # second lattice point in the stream
        assert v.samples_used == 5

    def test_witness_revalidates_from_scratch(self, ex2_2, cls22):
        w = cls22.type_ii.witness
        f_ref = ex2_2.objective_values(Z22)
        f_wit = ex2_2.objective_values(w.z)
        delta = float((f_wit - f_ref) @ w.y)
        assert abs(delta) <= 1e-12
        step = w.z - Z22
        support = 0.0
        for j, f in enumerate(ex2_2.objectives):
            union = limiting_subdiff(f, Point.of(Z22))
            V = np.vstack([p.vertices for p in union.pieces])
            support += w.y[j] * float(np.max(V @ step))
        assert support >= -1e-12

    def test_individual_checkers_agree(self, ex2_2, cls22):
        strict = check_strictly_pseudo_convex(ex2_2, Z22, samples=2000)
        assert strict.status == "refuted"
        np.testing.assert_allclose(strict.witness.z, cls22.type_ii.witness.z)
        pseudo = check_pseudo_convex(ex2_2, Z22, samples=2000)
        assert pseudo.status == "not-refuted"
        quasi = check_generalized_quasi_convex(ex2_2, Z22, samples=2000)
        assert quasi.status == "not-refuted"


class TestQuadraticFixture:
    def test_both_bundles_survive(self, ex2_3):
        cls = classify_type(ex2_3, Z22, samples=2000)
        assert cls.type_i.status == "not-refuted"
        assert cls.type_ii.status == "not-refuted"
        assert cls.type_i.witness is None
        assert cls.type_ii.witness is None
        assert cls.type_i.resolution == 24


def test_concave_kink_refutes_pseudo(ex3_2):
    # the third objective's negative kink in the second variable breaks
    # pseudo-convexity immediately at the first lattice corner
    v = check_pseudo_convex(ex3_2, Z32, samples=200)
    assert v.status == "refuted"
    w = v.witness
    np.testing.assert_allclose(w.z, [-4.0, -5.0], atol=0)
    np.testing.assert_allclose(w.y, [0.0, 0.0, 1.0], atol=0)
    assert w.sample_index == 0
    assert v.samples_used == 1
    assert w.delta == pytest.approx(1.0 / np.sqrt(5.0) - 7.0, abs=1e-12)
    assert w.support == pytest.approx(8.0, abs=1e-12)


def test_quasi_refuted_for_concave_binding_constraint():
    toy = problem_from_dict(
        {
            "decision_dim": 1,
            "uncertainty_dim": 1,
            "objectives": ["z1"],
            "constraints": ["-abs(z1) + 0*u1"],
            "uncertainty": {"type": "box", "lower": [-1], "upper": [1]},
            "cone": {"type": "orthant"},
            "box": {"lower": [-2], "upper": [2]},
        }
    )
    v = check_generalized_quasi_convex(toy, [0.0], samples=100)
    assert v.status == "refuted"
    w = v.witness
    assert w.part == "constraint 1"
    np.testing.assert_allclose(w.z, [-2.0], atol=0)
    assert w.delta == pytest.approx(-2.0, abs=1e-12)  # worst case decreased
    assert w.support == pytest.approx(2.0, abs=1e-12)  # hull still points up


def test_supplied_witness_revalidation(ex2_2):
    # an exact tie along the |z1| = -(z2 + 2) ray: joint value change is zero
    # while the weighted subgradients still reach the step direction
    good = ConvexityWitness(
        z=np.array([1.0, -3.0]), y=np.array([0.0, 1.4, 1.0]),
        part="objectives", delta=0.0, support=0.0, sample_index=-1,
    )
    revalidate_witness(ex2_2, Z22, good, STRICT)

    # the same point does not refute plain pseudo convexity (no strict
    # decrease in the premise), so the re-validation must reject it
    with pytest.raises(RuntimeError):
        revalidate_witness(ex2_2, Z22, good, PSEUDO)
    with pytest.raises(ValueError):
        revalidate_witness(ex2_2, Z22, good, "bogus")


def test_verdict_serialization_round_trip(cls22):
    blob = json.dumps(report.jsonable(cls22))
    back = json.loads(blob)
    assert back["type_i"]["status"] == "not-refuted"
    assert "witness" not in back["type_i"]
    wit = back["type_ii"]["witness"]
    assert wit["z"] == [-2.0, -4.0]
    assert wit["part"] == "objectives"
    assert back["type_ii"]["resolution"] == 24


# ---------------------------------------------------------------------------
# per-process memo of the sample stream and the weight grid
# ---------------------------------------------------------------------------

ANCHORS = {"ex2_2": Z22, "ex2_3": Z22, "ex3_2": Z32, "ex3_3": Z32}
# min(z1, -z1) is a union kink: its limiting subdifferential is two points
UNION_KINK = {
    "decision_dim": 2, "uncertainty_dim": 1,
    "objectives": ["min(z1, -z1) + z2^2", "z1 - z2"],
    "constraints": ["z1^2 + z2^2 + u1*z2 - 4"],
    "uncertainty": {"type": "box", "lower": [-0.5], "upper": [0.5]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-2, -2], "upper": [2, 2]},
}


@pytest.fixture
def empty_memo():
    """Start and leave both convexity memos empty, whatever ran before."""
    convexity._chunks.clear()
    convexity._weight_grids.clear()
    yield
    convexity._chunks.clear()
    convexity._weight_grids.clear()


def _text(cls):
    return json.dumps(report.jsonable(cls))


def _with_constraint(P, i, source):
    cons = list(P.constraints)
    cons[i] = parse_expr(source, P.decision_dim, P.uncertainty_dim)
    return dataclasses.replace(P, constraints=tuple(cons))


@pytest.mark.parametrize("name", sorted(ANCHORS) + ["union_kink"])
def test_warm_classification_equals_cold(name, empty_memo):
    if name == "union_kink":
        P, z = problem_from_dict(UNION_KINK), np.zeros(2)
    else:
        P, z = load_problem(name), ANCHORS[name]
    # another point fills the memo with the same stream
    classify_type(P, z + 0.5)
    warm = _text(classify_type(P, z))
    # the default 2000 samples are two chunks
    assert len(convexity._chunks) == 2
    convexity._chunks.clear()
    convexity._weight_grids.clear()
    assert warm == _text(classify_type(P, z))


def test_other_seed_ugrid_or_content_is_computed_afresh(ex3_2, empty_memo):
    changed = _with_constraint(ex3_2, 1, "-3*abs(z1) + u1*z2 - 1")
    assert changed.label == ex3_2.label
    classify_type(ex3_2, Z32, samples=300)
    cases = [(ex3_2, {"seed": 1}), (ex3_2, {"grid": 101}), (changed, {})]
    warm = [_text(classify_type(P, Z32, samples=300, **kw))
            for P, kw in cases]
    assert len(convexity._chunks) == 4
    for (P, kw), text in zip(cases, warm):
        convexity._chunks.clear()
        assert _text(classify_type(P, Z32, samples=300, **kw)) == text


def test_budget_change_on_a_warm_stream_equals_cold(ex2_3, empty_memo):
    # nothing is refuted here, so every sample of the budget is scanned
    cold = {}
    for samples in (300, 2000):
        convexity._chunks.clear()
        cold[samples] = _text(classify_type(ex2_3, Z22, samples=samples))
    convexity._chunks.clear()
    for samples in (2000, 300, 2000):
        assert _text(classify_type(ex2_3, Z22, samples=samples)) == \
            cold[samples]
    convexity._chunks.clear()
    classify_type(ex2_3, Z22, samples=300)
    assert _text(classify_type(ex2_3, Z22, samples=2000)) == cold[2000]


def test_memo_keeps_a_fixed_number_of_entries(ex2_2, empty_memo):
    # the seed and the cone are parts of the keys, so each call adds an entry
    for seed in range(2 * convexity.CHUNK_ENTRIES):
        classify_type(ex2_2, Z22, samples=5, seed=seed)
    assert len(convexity._chunks) == convexity.CHUNK_ENTRIES
    for k in range(1, 1 + 2 * convexity.WEIGHT_GRID_ENTRIES):
        cone = ConeSpec.from_rays(np.diag([1.0, 1.0, float(k)]))
        dual_weight_grid(dataclasses.replace(ex2_2, cone=cone))
    assert len(convexity._weight_grids) == convexity.WEIGHT_GRID_ENTRIES


def test_a_miss_after_a_hit_skips_the_rows_it_did_not_draw(ex2_2,
                                                           empty_memo):
    list(_sample_chunks(ex2_2, 42, 101, 2000))
    # chunk 0 is dropped, chunk 1 stays: chunk 0 is drawn and evaluated
    # again, chunk 1 is read, and chunk 2 must skip chunk 1's rows
    convexity._chunks._entries.pop((content_key(ex2_2), 42, 101, 0, 1000))
    stream = _candidate_stream(ex2_2, 42)
    Z = np.array([next(stream) for _ in range(3000)])
    chunks = list(_sample_chunks(ex2_2, 42, 101, 3000))
    assert [start for start, _ in chunks] == [0, 1000, 2000]
    np.testing.assert_array_equal(
        np.concatenate([rows.Z for _, rows in chunks]), Z)
    np.testing.assert_array_equal(
        np.concatenate([rows.psi for _, rows in chunks]),
        worst_case_matrix(ex2_2, Z, 101))
    assert len(convexity._chunks) == 3


@pytest.mark.parametrize("rows", [1, 3])
def test_row_blocks_find_the_same_first_violation(ex2_2, ex2_3, ex3_3,
                                                  monkeypatch, rows):
    # violations at samples 0, 22 and 44, and a scan that finds none: with
    # blocks of a few rows every block is reached in the same row order
    cases = [(ex2_2, Z22), (ex2_3, Z22), (ex3_3, np.array([-0.967, 2.295])),
             (ex3_3, np.array([-3.795, -4.835]))]
    default = [report.jsonable(classify_type(P, z)) for P, z in cases]
    monkeypatch.setattr(convexity, "PRODUCT_ELEMENTS",
                        rows * len(dual_weight_grid(ex2_2)))
    blocked = [report.jsonable(classify_type(P, z)) for P, z in cases]
    # the same violations; their values may differ in the last bit, since
    # a product of other shape may take another BLAS kernel
    for got, want in zip(blocked, default):
        for kind in ("type_i", "type_ii"):
            g, w = dict(got[kind]), dict(want[kind])
            gw, ww = g.pop("witness", None), w.pop("witness", None)
            assert g == w
            if ww is None:
                assert gw is None
                continue
            for key in ("delta", "support"):
                assert gw.pop(key) == pytest.approx(ww.pop(key), rel=1e-12)
            assert gw == ww


def test_weighted_products_stay_within_the_element_bound(ex2_3,
                                                          monkeypatch):
    # every block's value changes and supports (rows x weights) hold at
    # most PRODUCT_ELEMENTS elements, and a full block comes close to it;
    # the scan at this point finds no violation, so it reaches every block
    shapes = []
    first_hit = convexity._first_hit

    def recording(mask):
        shapes.append(mask.shape)
        return first_hit(mask)

    monkeypatch.setattr(convexity, "_first_hit", recording)
    n_y = len(dual_weight_grid(ex2_3))
    cls = classify_type(ex2_3, Z22)
    assert not cls.type_i.refuted and not cls.type_ii.refuted
    rows = [r for r, c in shapes if c == n_y]
    assert len(rows) > 1
    assert max(rows) * n_y <= convexity.PRODUCT_ELEMENTS
    assert max(rows) == convexity.PRODUCT_ELEMENTS // n_y


def test_shared_arrays_are_read_only(ex2_2, empty_memo):
    Y = dual_weight_grid(ex2_2)
    with pytest.raises(ValueError):
        Y[0, 0] = 1.0
    (_, rows), = _sample_chunks(ex2_2, 0, 101, 10)
    for a in (rows.Z, rows.psi, rows.feas, rows.F):
        with pytest.raises(ValueError):
            a[0] = 1
    before = classify_type(ex2_2, Z22)
    text = _text(before)
    w = before.type_ii.witness
    assert not np.shares_memory(w.y, Y)
    w.y[:] = 99.0
    w.z[:] = 99.0
    assert _text(classify_type(ex2_2, Z22)) == text


def test_concurrent_callers_get_correct_classifications(ex3_2, empty_memo,
                                                        monkeypatch):
    # more problems than entries, so threads evict while others scan
    monkeypatch.setattr(convexity, "_chunks", LruMemo(2))
    problems = [_with_constraint(ex3_2, 1, f"-3*abs(z1) + u1*z2 - {k}")
                for k in range(4)]
    expected = []
    for P in problems:
        convexity._chunks.clear()
        expected.append(_text(classify_type(P, Z32, samples=300)))
    convexity._chunks.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(classify_type, problems[k % 4], Z32, 300)
                       for k in range(40)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for k, cls in enumerate(results):
        assert _text(cls) == expected[k % 4]
    assert len(convexity._chunks) <= 2


def test_library_and_cli_share_one_default_seed():
    # a library call scans the same sample stream as `robustcert convexity`
    for f in (check_pseudo_convex, check_strictly_pseudo_convex,
              check_generalized_quasi_convex, classify_type,
              report.convexity_section, report.build_report):
        default = inspect.signature(f).parameters["seed"].default
        assert default == convexity.DEFAULT_SEED, f.__name__
    assert cli._build_parser().get_default("seed") == convexity.DEFAULT_SEED
