"""Tests for robust first-order certificates: search, verification, CQ."""

import itertools
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, linprog

from robustcert import constraints, kkt, lp
from robustcert.constraints import LatticeTooLarge, analyze_point
from robustcert.efficiency import check_proper_necessary
from robustcert.kkt import (
    DEFAULT_Y_GRID,
    KktCertificate,
    NotFoundAtResolution,
    _prefilter,
    _simplex_indices,
    check_cq,
    find_kkt_certificate,
    verify_certificate,
)
from robustcert.memo import LruMemo
from robustcert.polytope import Polytope, PolytopeUnion
from robustcert.problem_io import load_problem, problem_from_dict
from robustcert.report import jsonable

from oracles import (
    loop_chunk_corners,
    loop_simplex_indices,
    min_norm_in_sum,
    unpruned_kkt_search,
)

SQRT2 = np.sqrt(2.0)
Z_REF = np.array([0.0, 1.0])


@pytest.fixture(scope="module")
def ex3_2():
    return load_problem("ex3_2")


@pytest.fixture(scope="module")
def ex3_3():
    return load_problem("ex3_3")


@pytest.fixture(scope="module")
def ref_cert(ex3_2):
    return find_kkt_certificate(ex3_2, Z_REF)


def toy_problem(objective, constraint):
    return problem_from_dict(
        {
            "decision_dim": 1,
            "uncertainty_dim": 1,
            "objectives": [objective],
            "constraints": [constraint],
            "uncertainty": {"type": "box", "lower": [-1], "upper": [1]},
            "cone": {"type": "orthant"},
            "box": {"lower": [-2], "upper": [2]},
        }
    )


# ---------------------------------------------------------------------------
# constraint qualification
# ---------------------------------------------------------------------------


class TestConstraintQualification:
    def test_holds_at_reference_point(self, ex3_2):
        rep = check_cq(ex3_2, Z_REF)
        assert rep.satisfied
        assert not rep.trivial
        assert rep.active_indices == [0]
        # hull is the segment [1,2] x {0}; nearest point to the origin is (1,0)
        assert rep.distance == pytest.approx(1.0, abs=1e-9)

    def test_trivial_when_nothing_binds(self, ex3_2):
        rep = check_cq(ex3_2, np.array([-1.0, 0.0]))
        assert rep.satisfied
        assert rep.trivial
        assert rep.active_indices == []
        assert rep.distance == np.inf

    def test_fails_when_zero_enters_hull(self):
        toy = toy_problem("z1", "abs(z1) + 0*u1")
        rep = check_cq(toy, [0.0])
        assert not rep.satisfied
        assert rep.active_indices == [0]
        assert rep.distance <= 1e-12


# ---------------------------------------------------------------------------
# direction grid
# ---------------------------------------------------------------------------


class TestDirectionGrid:
    def test_three_weight_scan_order(self):
        rows = _simplex_indices(3, 4)
        assert np.all(rows.sum(axis=1) == 4)
        # the second index is the slowest coordinate, the first the fastest
        expected_prefix = [
            (0, 0, 4), (1, 0, 3), (2, 0, 2), (3, 0, 1), (4, 0, 0),
            (0, 1, 3), (1, 1, 2),
        ]
        assert [tuple(r) for r in rows[: len(expected_prefix)]] == expected_prefix

    def test_two_weight_scan_order(self):
        rows = _simplex_indices(2, 3)
        assert [tuple(r) for r in rows] == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_single_weight(self):
        assert [tuple(r) for r in _simplex_indices(1, 7)] == [(7,)]

    @pytest.mark.parametrize("m,edge", [
        (m, edge) for m in (1, 2, 3, 4) for edge in (1, 2, 5, 24)
    ] + [(3, 720)])
    def test_matches_loop(self, m, edge):
        rows = _simplex_indices(m, edge)
        ref = loop_simplex_indices(m, edge)
        assert rows.dtype == ref.dtype
        np.testing.assert_array_equal(rows, ref)

    def test_oversized_lattice_is_refused_before_allocating(self):
        # C(200001, 2), about 2 * 10^10 rows
        with pytest.raises(LatticeTooLarge):
            _simplex_indices(3, 200000)

    def test_scan_builds_only_the_chunks_it_visits(self, ex3_2,
                                                    monkeypatch):
        # the chunks that _chunk_may_pass keeps, in scan order, until a
        # direction passes; the next call builds them again
        built = []
        orig = kkt._chunk

        def counted(m, edge, chunk_no):
            built.append((m, edge, int(chunk_no)))
            return orig(m, edge, chunk_no)

        monkeypatch.setattr(kkt, "_chunk", counted)
        first = jsonable(find_kkt_certificate(ex3_2, Z_REF))
        visited = list(built)
        assert jsonable(find_kkt_certificate(ex3_2, Z_REF)) == first
        assert built == visited * 2
        corners = kkt._chunk_corners(3, 720)
        may = np.flatnonzero(kkt._chunk_may_pass(
            corners, kkt._filter_terms(analyze_point(ex3_2, Z_REF))))
        assert visited == [(3, 720, int(c)) for c in may[:len(visited)]]
        assert 0 < len(visited) < len(corners)

    def test_prefilter_blocks_small_first_weight(self, ex3_2):
        # with no weight on the second objective, the second coordinate of the
        # stationarity sum can only vanish when the first weight dominates the
        # third; the interval prefilter must discover this
        analysis = analyze_point(ex3_2, Z_REF)
        indices = _simplex_indices(3, 720)
        Y = indices.astype(float) / 720
        keep = _prefilter(Y, kkt._filter_terms(analysis))
        assert not keep[:360].any()
        assert keep[360]


# ---------------------------------------------------------------------------
# certificate search
# ---------------------------------------------------------------------------


class TestFindCertificate:
    def test_reproduces_reference_certificate(self, ref_cert):
        np.testing.assert_allclose(
            ref_cert.y_star, [SQRT2 / 4, 0.0, SQRT2 / 4], atol=1e-9
        )
        np.testing.assert_allclose(ref_cert.mu, [0.5, 0.0], atol=1e-9)
        assert ref_cert.residual <= 1e-8
        assert ref_cert.mode == "outer"
        assert not ref_cert.fritz_john
        assert not ref_cert.fritz_john_also

    def test_normalization_identity(self, ref_cert):
        total = np.linalg.norm(ref_cert.y_star) + np.linalg.norm(ref_cert.mu)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_witnesses_attached_to_binding_constraint(self, ref_cert):
        assert len(ref_cert.witnesses) == 2
        first = ref_cert.witnesses[0]
        assert len(first) == 1
        assert abs(first[0][0]) <= 1e-6  # worst case of g1 at u = 0
        assert ref_cert.witnesses[1] == []  # slack constraint carries none

    def test_exact_scalarization_mode_agrees(self, ex3_2, ref_cert):
        cert = find_kkt_certificate(ex3_2, Z_REF, mode="exact")
        assert cert.mode == "exact"
        np.testing.assert_allclose(cert.y_star, ref_cert.y_star, atol=1e-9)
        np.testing.assert_allclose(cert.mu, ref_cert.mu, atol=1e-9)
        assert cert.residual <= 1e-8

    def test_fritz_john_fallback(self, monkeypatch):
        # objective slope never cancels, but the flat constraint supports a
        # zero-weight combination
        toy = toy_problem("z1", "0*z1*u1")
        calls = []
        zero_in_hull = lp.zero_in_hull

        def counted(*args):
            calls.append(1)
            return zero_in_hull(*args)

        monkeypatch.setattr(lp, "zero_in_hull", counted)
        cert = find_kkt_certificate(toy, [0.0], y_grid=25)
        # the Fritz John LP that found the certificate also sets
        # fritz_john_also: it is not solved again
        assert len(calls) == 1
        assert cert.fritz_john and cert.fritz_john_also
        np.testing.assert_allclose(cert.y_star, [0.0], atol=1e-12)
        np.testing.assert_allclose(cert.mu, [1.0], atol=1e-9)
        assert cert.residual <= 1e-12
        rep = verify_certificate(toy, [0.0], cert)
        assert rep.ok

    def test_balance_fallback_keeps_the_first_feasible_point(
            self, ex3_2, ref_cert, monkeypatch):
        # with every min-residual LP failing, the lifted bound proves nothing
        # and no balance LP solves: the multipliers come from the first
        # piece selection that passes its feasibility LP
        monkeypatch.setattr(lp, "min_residual",
                            lambda *args: OptimizeResult(status=2))
        cert = find_kkt_certificate(ex3_2, Z_REF, y_grid=41)
        y = np.round(cert.y_star / cert.y_star.sum() * 40) / 40
        a = analyze_point(ex3_2, Z_REF)
        for piece_sets in kkt._direction_piece_sets(y, a):
            station, simplex = kkt._lp_blocks(piece_sets, a.binding_hulls)
            res = lp.solve(linprog, np.zeros(station.shape[1]),
                           A_eq=np.vstack([station, simplex]),
                           b_eq=np.r_[np.zeros(len(station)),
                                      np.ones(len(simplex))])
            if res.status == 0:
                break
        mu = kkt._extract_mu(a, res.x, sum(len(v) for _, v in piece_sets))
        kappa = 1.0 / (np.linalg.norm(y) + np.linalg.norm(mu))
        np.testing.assert_array_equal(cert.y_star, kappa * y)
        np.testing.assert_array_equal(cert.mu, kappa * mu)
        # the balanced multipliers differ, so the fallback is what decided
        assert np.abs(cert.mu - ref_cert.mu).max() > 1e-3

    def test_not_found_reports_nearest_direction(self, ex3_2):
        # interior smooth point: all subdifferentials are singletons and no
        # grid direction solves the stationarity system exactly
        with pytest.raises(NotFoundAtResolution) as exc:
            find_kkt_certificate(ex3_2, np.array([-1.0, 0.0]))
        err = exc.value
        assert 0.0 < err.best_residual < 0.1
        np.testing.assert_allclose(
            err.best_direction, np.array([2.0, 5.0, 17.0]) / 24.0, atol=1e-9
        )
        assert "721" in str(err)

    def test_lp_counts_on_the_not_found_path(self, monkeypatch):
        # the lifted LP proves that no direction passes, and its duals prune
        # the coarse scan: the plain search solves 326 and 325 LPs here
        calls = []
        orig = kkt.linprog

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(kkt, "linprog", counted)
        for name, z in (("ex2_2", [0.0, -2.0]), ("ex3_2", [-1.0, 0.0])):
            calls.clear()
            with pytest.raises(NotFoundAtResolution):
                find_kkt_certificate(load_problem(name), z)
            assert len(calls) <= 10, name

    def test_options_validated(self, ex3_2):
        with pytest.raises(ValueError):
            find_kkt_certificate(ex3_2, Z_REF, y_grid=1)
        with pytest.raises(ValueError):
            find_kkt_certificate(ex3_2, Z_REF, mode="bogus")


# the 4 fixtures at their anchor, a kink and a uniform point, and a union-type
# kink with two objectives; the ex3_2 kink and uniform points and the ex3_3
# kink point have a continuous certificate (lifted optimum zero) but none on
# the lattice, so their direction scans run in full
UNION_KINK = {
    "decision_dim": 2, "uncertainty_dim": 1,
    "objectives": ["min(z1, -z1) + z2^2", "z1 - z2"],
    "constraints": ["z1^2 + z2^2 + u1*z2 - 4"],
    "uncertainty": {"type": "box", "lower": [-0.5], "upper": [0.5]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-2, -2], "upper": [2, 2]},
}
PRUNING_CASES = [
    ("ex3_2", [0.0, 1.0], 721, "outer"),
    ("ex3_2", [0.0, 1.0], 41, "exact"),
    ("ex3_2", [-1.0, 1.0], 41, "outer"),
    ("ex3_2", [0.913927, 3.102172], 41, "outer"),
    ("ex2_2", [0.0, -2.0], 721, "outer"),
    ("ex2_2", [0.0, -2.0], 41, "exact"),
    ("ex2_2", [0.0, -3.0], 41, "outer"),
    ("ex2_2", [1.031818, -2.476571], 41, "outer"),
    ("ex3_3", [0.0, 1.0], 721, "exact"),
    ("ex3_3", [-2.0, 1.0], 41, "outer"),
    ("ex3_3", [-0.908155, -2.494937], 41, "exact"),
    ("ex2_3", [0.0, -2.0], 41, "outer"),
    ("ex2_3", [0.0, -3.5], 41, "exact"),
    ("ex2_3", [1.86186, -2.084434], 41, "outer"),
    ("union_kink", [0.0, 0.0], 41, "outer"),
    ("union_kink", [0.0, 1.0], 41, "exact"),
]


@pytest.mark.parametrize("name,z,y_grid,mode", PRUNING_CASES)
def test_pruned_search_matches_unpruned_scan(name, z, y_grid, mode):
    P = (problem_from_dict(UNION_KINK) if name == "union_kink"
         else load_problem(name))
    try:
        ref = unpruned_kkt_search(P, z, y_grid, mode)
    except NotFoundAtResolution as exc:
        with pytest.raises(NotFoundAtResolution) as got:
            find_kkt_certificate(P, z, y_grid, mode)
        assert str(got.value) == str(exc)
        assert got.value.best_residual == exc.best_residual
        np.testing.assert_array_equal(got.value.best_direction,
                                      exc.best_direction)
        return
    cert = find_kkt_certificate(P, z, y_grid, mode)
    assert json.dumps(jsonable(cert)) == json.dumps(jsonable(ref))


def test_exact_certificates_pass_the_lifted_gate():
    # exact mode skips its direction scan when the lifted optimum, over the
    # outer piece sets, exceeds SKIP_TOL: at every exact-mode case here the
    # scan finds no certificate that the gate would skip
    cases = [(name, z, y_grid) for name, z, y_grid, mode in PRUNING_CASES
             if mode == "exact"] + [("ex3_2", list(Z_REF), DEFAULT_Y_GRID)]
    found = 0
    for name, z, y_grid in cases:
        P = (problem_from_dict(UNION_KINK) if name == "union_kink"
             else load_problem(name))
        a = analyze_point(P, z)
        if kkt._scan(a, y_grid, "exact") is not None:
            found += 1
            assert kkt._lifted_lps(a)[0] <= kkt.SKIP_TOL, (name, z)
    assert found


@pytest.mark.parametrize("name,z", [
    ("ex2_2", [0.0, -2.0]), ("ex3_2", [-1.0, 0.0]), ("ex3_2", [0.0, 1.0]),
    ("ex3_3", [-2.0, 1.0]), ("union_kink", [0.0, 1.0]),
])
def test_dual_bounds_hold_on_every_direction(name, z):
    # every dual of the lifted and per-direction LPs bounds every direction's
    # residual from below, and each per-direction dual is tight at its own
    # direction when every subdifferential is one piece
    P = (problem_from_dict(UNION_KINK) if name == "union_kink"
         else load_problem(name))
    a = analyze_point(P, z)
    m = P.n_objectives
    Y = _simplex_indices(m, 6).astype(float) / 6
    one_piece = all(len(s.pieces) == 1 for s in a.objective_subdiffs)
    _, duals = kkt._lifted_lps(a)
    resid = np.full(len(Y), np.inf)
    for row, y in enumerate(Y):
        for piece_sets in kkt._direction_piece_sets(y, a):
            r, w = kkt._slack_lp(piece_sets, a.binding_hulls)
            resid[row] = min(resid[row], r)
            duals.append(w)
            if one_piece:
                own = kkt._dual_bound(a, w, Y)
                assert own[row] == pytest.approx(r, abs=1e-9)
    for w in duals:
        bound = kkt._dual_bound(a, w, Y)
        assert bound is not None
        assert np.all(bound <= resid + 1e-9)


# ---------------------------------------------------------------------------
# chunk skipping of the direction scan
# ---------------------------------------------------------------------------


# each fixture at its anchor, a kink and a uniform point, and the union kink
SKIP_POINTS = [
    ("ex2_2", [0.0, -2.0]), ("ex2_2", [0.0, -3.0]),
    ("ex2_2", [1.031818, -2.476571]),
    ("ex2_3", [0.0, -2.0]), ("ex2_3", [0.0, -3.5]),
    ("ex2_3", [1.86186, -2.084434]),
    ("ex3_2", [0.0, 1.0]), ("ex3_2", [-1.0, 1.0]),
    ("ex3_2", [0.913927, 3.102172]),
    ("ex3_3", [0.0, 1.0]), ("ex3_3", [-2.0, 1.0]), ("ex3_3", [0.0, 0.5]),
    ("ex3_3", [-0.908155, -2.494937]),
    ("union_kink", [0.0, 0.0]), ("union_kink", [0.0, 1.0]),
    ("union_kink", [0.7, -1.3]),
]


def _survivors_both_ways(terms, m, edge):
    """Prefilter survivors of the whole lattice: chunk by chunk over every
    row, and only in the chunks that ``_chunk_may_pass`` keeps, each built
    as the scan builds it."""
    Y = _simplex_indices(m, edge) / edge
    every = np.zeros(len(Y), dtype=bool)
    skipping = np.zeros(len(Y), dtype=bool)
    may = kkt._chunk_may_pass(kkt._chunk_corners(m, edge), terms)
    assert len(may) == -(-len(Y) // kkt.SCAN_CHUNK)
    for chunk_no, keep in enumerate(may):
        rows = slice(chunk_no * kkt.SCAN_CHUNK,
                     (chunk_no + 1) * kkt.SCAN_CHUNK)
        every[rows] = kkt._prefilter(Y[rows], terms)
        if keep:
            skipping[rows] = kkt._prefilter(kkt._chunk(m, edge, chunk_no),
                                            terms)
    return every, skipping, may


@pytest.mark.parametrize("y_grid", [41, 721])
@pytest.mark.parametrize("name,z", SKIP_POINTS)
def test_chunk_skipping_keeps_every_survivor(name, z, y_grid):
    P = (problem_from_dict(UNION_KINK) if name == "union_kink"
         else load_problem(name))
    terms = kkt._filter_terms(analyze_point(P, z))
    every, skipping, _ = _survivors_both_ways(terms, P.n_objectives,
                                              y_grid - 1)
    np.testing.assert_array_equal(skipping, every)


def test_chunk_skipping_skips_at_a_kink():
    # ex3_3 at (0, 0.5): the one direction tried sits in the last chunk
    P = load_problem("ex3_3")
    terms = kkt._filter_terms(analyze_point(P, [0.0, 0.5]))
    every, skipping, may = _survivors_both_ways(terms, 3, 720)
    np.testing.assert_array_equal(skipping, every)
    assert every.any() and may.sum() < len(may) // 2


def _one_survivor_analysis(t_star):
    """Two objectives in the plane whose only prefilter survivor is the
    direction (t*, 1 - t*), where both coordinate tests hold within 1e-15
    of ``FILTER_TOL``: at y = (t, 1 - t) the first coordinate's lower bound
    is c + t* - t and the second's upper bound is -c + t* - t."""
    c = kkt.FILTER_TOL - 1e-15
    first = Polytope([[c - (1 - t_star), -1.0], [1.0, -c - (1 - t_star)]])
    second = Polytope([[c + t_star, -1.0], [1.0, -c + t_star]])
    return SimpleNamespace(
        objective_subdiffs=[PolytopeUnion([first]), PolytopeUnion([second])],
        z=np.zeros(2), binding_hulls=[])


@pytest.mark.parametrize("row", [0, 4095, 4096, 8191])
def test_chunk_skipping_keeps_a_survivor_at_a_chunk_edge(row):
    # the survivor is the first or last row of a chunk, so it lies on a
    # corner of its chunk's slab, within the rounding margin of the bound
    edge = 2 * kkt.SCAN_CHUNK
    terms = kkt._filter_terms(_one_survivor_analysis(row / edge))
    every, skipping, may = _survivors_both_ways(terms, 2, edge)
    assert np.flatnonzero(every).tolist() == [row]
    np.testing.assert_array_equal(skipping, every)
    assert may.sum() == 1


SIZES = [(m, edge) for m in (1, 2, 3, 4, 5)
         for edge in (1, 2, 23, 40, 720, 2 * kkt.SCAN_CHUNK)]
# the sizes of at most 300,000 rows, the plain loop's reach: one chunk,
# several, and a last chunk of one row (m = 2, edge 8192: 8,193 rows); the
# others have over MAX_LATTICE_ROWS
STREAMED = [s for s in SIZES if kkt.simplex_rows(*s) <= 300_000]


@pytest.mark.parametrize("m,edge", STREAMED)
def test_streamed_chunks_match_the_lattice(m, edge):
    # each chunk is rows start:stop of the plain lattice, scaled, down to
    # the last bit, and the chunk corners are those of the whole lattice
    ref = loop_simplex_indices(m, edge)
    Y = ref.astype(float) / edge
    corners = kkt._chunk_corners(m, edge)
    np.testing.assert_array_equal(corners, loop_chunk_corners(m, edge))
    assert len(corners) == -(-len(ref) // kkt.SCAN_CHUNK)
    for chunk_no in range(len(corners)):
        start = chunk_no * kkt.SCAN_CHUNK
        stop = min(start + kkt.SCAN_CHUNK, len(ref))
        chunk = kkt._chunk(m, edge, chunk_no)
        assert chunk.tobytes() == Y[start:stop].tobytes()
        ends = _simplex_indices(m, edge, [start, stop - 1])
        np.testing.assert_array_equal(ends, ref[[start, stop - 1]])


@pytest.mark.parametrize("m,edge", [s for s in SIZES if s not in STREAMED])
def test_scan_refuses_an_oversized_lattice_first(m, edge):
    # refused before the chunk corners are allocated
    with pytest.raises(LatticeTooLarge):
        kkt._chunk_corners(m, edge)


def test_cold_search_peaks_below_2_mib(ex3_2):
    # the whole 260,281-row lattice was built per process: a 16 MiB peak
    constraints._lattices.clear()
    tracemalloc.start()
    try:
        find_kkt_certificate(ex3_2, Z_REF, y_grid=DEFAULT_Y_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_search_keeps_no_lattice_between_calls(ex3_2):
    # what the search allocated is gone when it returns: kkt has no memo,
    # and no array allocated in kkt.py outlives the call
    tracemalloc.start()
    try:
        find_kkt_certificate(ex3_2, Z_REF, y_grid=DEFAULT_Y_GRID)
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, kkt.__file__)])
    finally:
        tracemalloc.stop()
    assert sum(stat.size for stat in held.statistics("filename")) < 2**16
    assert not [name for name, value in vars(kkt).items()
                if isinstance(value, (np.ndarray, LruMemo))]


def _many_pieces_problem():
    """Three objectives of five pieces each at the origin: 125 piece
    selections, more than the prefilter takes one by one.  Every piece of
    the first has a positive first coordinate, of the second a negative
    one, and of the third a positive second coordinate."""
    return problem_from_dict(dict(UNION_KINK, objectives=[
        "min(z1, 2*z1 + z2, 3*z1 - z2, z1 + z2, 2*z1 - z2)",
        "min(-z1, -2*z1 + z2, -3*z1 - z2, -z1 + z2, -2*z1 - z2)",
        "min(z2, z1 + 2*z2, -z1 + 3*z2, z1 + z2, -z1 + 2*z2)",
    ]))


def test_union_wide_prefilter_drops_only_failing_directions():
    a = analyze_point(_many_pieces_problem(), np.zeros(2))
    assert [len(s.pieces) for s in a.objective_subdiffs] == [5, 5, 5]
    terms = kkt._filter_terms(a)
    assert len(terms.Pmin) == 1  # one union-wide range per objective
    Y = _simplex_indices(3, 10) / 10
    keep = _prefilter(Y, terms)
    assert keep.any() and not keep.all()
    for y in Y[~keep]:
        assert kkt._try_direction(a, y, "outer") is None, y


@pytest.mark.parametrize("budget", [1, 50])
def test_exhausted_lp_budget_matches_unpruned_scan(monkeypatch, budget):
    # the scan at this point tries 751 directions, none of which passes; a
    # smaller MAX_LP stops it after that many, and the search goes on to
    # the Fritz John form and the coarse residual scan
    P, z = load_problem("ex3_2"), [0.913927, 3.102172]
    monkeypatch.setattr(kkt, "MAX_LP", budget)
    with pytest.raises(NotFoundAtResolution) as want:
        unpruned_kkt_search(P, z, 41, "outer")
    tried = []
    try_direction = kkt._try_direction

    def counted(a, y, mode):
        tried.append(y)
        return try_direction(a, y, mode)

    monkeypatch.setattr(kkt, "_try_direction", counted)
    with pytest.raises(NotFoundAtResolution) as got:
        find_kkt_certificate(P, z, 41, "outer")
    assert len(tried) == budget
    assert str(got.value) == str(want.value)
    assert got.value.best_residual == want.value.best_residual
    np.testing.assert_array_equal(got.value.best_direction,
                                  want.value.best_direction)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


class TestVerifyCertificate:
    def test_accepts_found_certificate(self, ex3_2, ref_cert):
        rep = verify_certificate(ex3_2, Z_REF, ref_cert)
        assert rep.ok
        assert all(rep.checks.values())
        assert rep.stationarity_distance <= 1e-8

    def test_flags_broken_multiplier(self, ex3_2, ref_cert):
        bad = KktCertificate(
            ref_cert.y_star, np.array([0.1, 0.0]), ref_cert.witnesses,
            0.0, "outer",
        )
        rep = verify_certificate(ex3_2, Z_REF, bad)
        assert not rep.ok
        assert not rep.checks["stationarity"]
        assert not rep.checks["normalization"]
        # nearest stationarity gap: first coordinate misses by 3*sqrt(2)/8 - 0.2
        assert rep.stationarity_distance == pytest.approx(
            3 * SQRT2 / 8 - 0.2, abs=1e-9
        )

    def test_flags_false_complementarity(self, ex3_2, ref_cert):
        bad = KktCertificate(
            ref_cert.y_star, np.array([0.5, 0.15]), ref_cert.witnesses,
            0.0, "outer",
        )
        rep = verify_certificate(ex3_2, Z_REF, bad)
        assert not rep.ok
        # second constraint has worst case -1, so 0.15 * (-1) breaks it
        assert not rep.checks["complementarity"]
        assert not rep.checks["witnesses"]  # no witness for the new support

    def test_flags_non_attaining_witness(self, ex3_2, ref_cert):
        bad = KktCertificate(
            ref_cert.y_star, ref_cert.mu,
            [[np.array([0.9])], []], ref_cert.residual, "outer",
        )
        rep = verify_certificate(ex3_2, Z_REF, bad)
        assert not rep.ok
        assert not rep.checks["witnesses"]
        assert rep.checks["stationarity"]

    def test_flags_witness_outside_the_uncertainty_set(self, ex3_2,
                                                        ref_cert):
        # U is [-1, 1]
        bad = KktCertificate(
            ref_cert.y_star, ref_cert.mu,
            [[np.array([1.5])], []], ref_cert.residual, "outer",
        )
        rep = verify_certificate(ex3_2, Z_REF, bad)
        assert not rep.ok
        assert not rep.checks["witnesses"]
        assert rep.details["witnesses"] == \
            "witness outside the uncertainty set: [1.5]"
        assert rep.checks["stationarity"]

    def test_distance_matches_independent_oracle(self, ex3_2, ref_cert):
        # same quantity by a completely different route: SLSQP minimization of
        # the norm over explicit Minkowski-sum convex weights
        analysis = analyze_point(ex3_2, Z_REF)
        for mu1 in (0.5, 0.1):
            bad = KktCertificate(
                ref_cert.y_star, np.array([mu1, 0.0]), ref_cert.witnesses,
                0.0, "outer",
            )
            rep = verify_certificate(ex3_2, Z_REF, bad)
            best = np.inf
            piece_counts = [len(s.pieces) for s in analysis.objective_subdiffs]
            for sel in itertools.product(*(range(c) for c in piece_counts)):
                sets = [
                    ref_cert.y_star[j]
                    * analysis.objective_subdiffs[j].pieces[sel[j]].vertices
                    for j in range(3)
                    if ref_cert.y_star[j] > 0
                ]
                sets.append(mu1 * analysis.worst_cases[0].hull.vertices)
                best = min(best, min_norm_in_sum(sets))
            assert abs(best - rep.stationarity_distance) <= 1e-6


# ---------------------------------------------------------------------------
# set readings for disconnected attaining gradients
# ---------------------------------------------------------------------------


def test_convexified_and_union_readings_differ():
    # a pair of attaining gradients admits two readings: the union of the two
    # points and their convex hull; the multiplier combination uses the hull,
    # which strictly enlarges what stationarity can absorb
    pair = [Polytope([[-3.0, 1.0]]), Polytope([[3.0, 1.0]])]
    union = PolytopeUnion(pair)
    hull = union.hull()
    shift = np.array([0.0, -1.0])
    assert Polytope(hull.vertices + shift).contains(np.zeros(2))
    shifted_union = PolytopeUnion([Polytope(p.vertices + shift)
                                   for p in pair])
    assert shifted_union.distance(np.zeros(2)) == pytest.approx(3.0, abs=1e-9)


# ---------------------------------------------------------------------------
# certificate serialization
# ---------------------------------------------------------------------------


def test_certificate_json_round_trip(ref_cert):
    blob = json.dumps(jsonable(ref_cert))
    back = KktCertificate.from_jsonable(json.loads(blob))
    np.testing.assert_allclose(back.y_star, ref_cert.y_star, atol=0)
    np.testing.assert_allclose(back.mu, ref_cert.mu, atol=0)
    assert back.mode == ref_cert.mode
    assert back.fritz_john == ref_cert.fritz_john
    assert back.fritz_john_also == ref_cert.fritz_john_also
    assert back.residual == ref_cert.residual
    assert len(back.witnesses) == len(ref_cert.witnesses)
    np.testing.assert_allclose(back.witnesses[0][0], ref_cert.witnesses[0][0])


# ---------------------------------------------------------------------------
# necessary side of proper behavior (the check lives in efficiency, beside
# the feasible grid it scans)
# ---------------------------------------------------------------------------


class TestProperNecessary:
    def test_reference_weights_minimize_scalarization(self, ex3_3):
        y_star = np.array([0.2, 0.2, SQRT2 / 5])
        rep = check_proper_necessary(ex3_3, Z_REF, y_star, grid=41)
        assert rep.ok
        assert abs(rep.min_value) <= 1e-9  # attained at the point itself
        assert rep.interior_margin == pytest.approx(0.2, abs=1e-12)
        assert rep.feasible_points > 100

    def test_boundary_weights_rejected(self, ex3_3):
        rep = check_proper_necessary(ex3_3, Z_REF, [1.0, 0.0, 0.0], grid=21)
        assert not rep.ok
        assert rep.interior_margin == pytest.approx(0.0, abs=1e-12)
