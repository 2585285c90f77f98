"""Robust first-order (KKT-type) certificates.

A certificate at a feasible point consists of objective weights ``y_star`` in
the dual cone, constraint multipliers ``mu >= 0`` supported on binding
constraints, and attaining uncertainty witnesses, such that zero lies in

    sum_j y_j * (subdifferential of objective j)
  + sum_i mu_i * (hull of the attaining constraint subdifferentials),

with the Euclidean normalization |y|_2 + |mu|_2 = 1.  ``find_kkt_certificate``
scans a rational simplex grid of directions (interval prefilter, then small
feasibility LPs piece by piece); ``verify_certificate`` re-checks a given
certificate by an independent geometric route (min-norm-point distances).

The search prunes by weak duality and never changes its answer.  Writing
alpha_jk = y_j * lambda_jk turns every direction of the simplex into a point
of one lifted LP per piece selection (min |stationarity sum|_inf with the
alpha summing to one).  When every lifted optimum exceeds ``SKIP_TOL`` no
lattice direction can pass, in either mode (the exact scalarized
subdifferential lies inside the outer sum), and the scan is skipped.  The
duals w of the lifted LP and of every coarse-scan LP bound the residual of
all coarse directions at once, r(y) >= sum_j y_j min_{v in dF_j} w.v
(cutting planes after Kelley, J. SIAM 1960), so the coarse scan solves
directions lowest bound first and stops when no unsolved direction can
reach the best residual.  Certificates and the ``best_*`` diagnostics stay
defined by the lattice: the first passing direction in scan order, and the
first strictly smallest coarse residual in scan order.

The direction scan prefilters the lattice in chunks of ``SCAN_CHUNK`` rows.
Its interval test is linear in the direction, and each chunk lies in a slab
of the simplex bounded by the range of its first scan key, so the test's
bounds at the slab's corners decide which chunks can hold a survivor.  Only
those chunks are built, each from its row indices, and prefiltered row by
row, with the per-selection terms computed once per scan; the survivors, and
so every LP solved, are the same as when every chunk is prefiltered.  No
lattice is kept between calls: at the default ``y_grid`` with three
objectives the whole lattice would be 260,281 rows (6 MiB).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
# passed to lp.solve, so a wrapper installed on this binding sees every LP
from scipy.optimize import linprog

from . import lp
from .constraints import (
    ACTIVE_TOL,
    GRID_DEFAULT,
    PointAnalysis,
    Problem,
    analyze_point,
    check_lattice_rows,
    constraint_values,
    worst_case_subdiff,
)
from .expr import Point, evaluate
from .memo import shared
from .polytope import Polytope, PolytopeUnion, convex_hull_of
from .subdiff import UnsupportedComposition, limiting_subdiff, scalarized_subdiff

# default stationarity residual target for certificates
RESIDUAL_TOL = 1e-8
# prefilter slack: interval tests treat |value| <= this as touching zero
FILTER_TOL = 1e-9
# multipliers below this are treated as zero in reports
MU_ZERO_TOL = 1e-12
# coarse direction grid used when reporting the best residual on failure
COARSE_EDGE = 24
# the search gives up after this many directions that pass the prefilter
MAX_LP = 50_000
# lifted residual above which the direction scan is skipped: a direction that
# passes its feasibility LP lifts to a residual within HiGHS's primal
# feasibility tolerance (1e-7), far below this
SKIP_TOL = 1e-5
# the coarse scan stops once every unsolved direction's lower bound exceeds
# the best solved residual by this much, which covers HiGHS's optimality
# tolerance: a pruned direction can neither beat nor tie the answer
PRUNE_MARGIN = 1e-6
# a dual w with w.h below -CUT_TOL on some binding-hull vertex h gives no
# bound and is dropped; smaller violations stay far inside PRUNE_MARGIN
CUT_TOL = 1e-9
# lattice rows per prefilter chunk of the direction scan
SCAN_CHUNK = 4096
# points per simplex edge of the certificate search's direction grid
DEFAULT_Y_GRID = 721


@dataclass
class KktCertificate:
    y_star: np.ndarray
    mu: np.ndarray
    witnesses: List[List[np.ndarray]]
    residual: float
    mode: str
    fritz_john: bool = False
    fritz_john_also: bool = False

    @staticmethod
    def from_jsonable(data: dict) -> "KktCertificate":
        return KktCertificate(
            y_star=np.asarray(data["y_star"], dtype=float),
            mu=np.asarray(data["mu"], dtype=float),
            witnesses=[
                [np.asarray(u, dtype=float) for u in per_constraint]
                for per_constraint in data.get("witnesses", [])
            ],
            residual=float(data.get("residual", np.inf)),
            mode=data.get("mode", "outer"),
            fritz_john=bool(data.get("fritz_john", False)),
            fritz_john_also=bool(data.get("fritz_john_also", False)),
        )


class NotFoundAtResolution(Exception):
    """No certificate at the requested direction-grid resolution.

    ``best_residual``/``best_direction`` report the smallest stationarity
    residual observed on a coarse sweep, to guide refinement.
    """

    def __init__(self, message: str, best_residual: float,
                 best_direction: Optional[np.ndarray]):
        super().__init__(
            f"{message} (best residual observed: {best_residual:.3e})"
        )
        self.best_residual = best_residual
        self.best_direction = best_direction


# ---------------------------------------------------------------------------
# constraint qualification
# ---------------------------------------------------------------------------


@dataclass
class CqReport:
    satisfied: bool
    distance: float
    active_indices: List[int]
    trivial: bool  # no binding constraint, qualification holds vacuously


def check_cq(P: Problem, z, grid: int = GRID_DEFAULT) -> CqReport:
    """Qualification: zero avoids the hull of binding-constraint subdifferentials.

    Reads ``analyze_point(P, z, grid)``, shared inside
    ``memo.shared_points()``.
    """
    a = analyze_point(P, z, grid)
    if not a.binding:
        return CqReport(True, np.inf, [], True)
    pieces: List[Polytope] = []
    for i in a.active_max:
        pieces.extend(a.worst_cases[i].subdiff.pieces)
    hull = convex_hull_of(pieces)
    distance = hull.distance(np.zeros(P.decision_dim))
    return CqReport(distance > ACTIVE_TOL, float(distance), list(a.active_max),
                    False)


# ---------------------------------------------------------------------------
# direction grid
# ---------------------------------------------------------------------------


def simplex_rows(m: int, edge: int) -> int:
    """Rows of ``_simplex_indices(m, edge)``: compositions of edge into m parts."""
    return math.comb(int(edge) + m - 1, m - 1)


def _simplex_indices(m: int, edge: int,
                     ranks: Optional[np.ndarray] = None) -> np.ndarray:
    """Integer simplex directions in scan order: the rows at ``ranks``, or
    every row when ``ranks`` is None.

    Scan order is ascending lexicographic on (i_2, ..., i_{m-1}, i_1); the
    last index is determined by the total.  A row is found from its index
    one key at a time: with remaining total T and L key positions after the
    current one, C(T - v + L + 1, L + 1) rows of the block that shares the
    earlier keys have a current key of at least v.
    """
    rows = simplex_rows(m, edge)
    check_lattice_rows(rows)
    N = int(edge)
    r = (np.arange(rows, dtype=np.int64) if ranks is None
         else np.asarray(ranks, dtype=np.int64))
    out = np.empty((len(r), m), dtype=np.int64)
    # counts[L][s] = C(s + L + 1, L + 1), the rows of a block with total at
    # most s over L + 1 key positions (hockey stick: each a running sum)
    counts = [np.arange(1, N + 2, dtype=np.int64)]
    for _ in range(m - 2):
        counts.append(np.cumsum(counts[-1]))
    total = N  # what the keys so far left, per row after the first key
    for col in range(1, m - 1):  # keys i_2, ..., i_{m-1}
        count = counts[m - 1 - col]
        # rows from r to the end of r's block; the key leaves the smallest
        # total whose rows reach that far
        reach = count[total] - r
        left = np.searchsorted(count, reach)
        out[:, col] = total - left
        r = r - (count[total] - count[left])
        total = left
    out[:, 0] = r  # the last key, i_1, with one row per value
    out[:, m - 1] = total - r
    return out


def _chunk(m: int, edge: int, chunk_no: int) -> np.ndarray:
    """Chunk ``chunk_no`` of the scan: its ``SCAN_CHUNK`` rows of
    ``_simplex_indices(m, edge) / edge``, built from their indices."""
    start = chunk_no * SCAN_CHUNK
    stop = min(start + SCAN_CHUNK, simplex_rows(m, edge))
    return _simplex_indices(m, edge, np.arange(start, stop)) / edge


def _chunk_corners(m: int, edge: int) -> np.ndarray:
    """The corners of each scan chunk's slab, (chunks, 2(m-1), m).

    The rows of a ``SCAN_CHUNK`` chunk share the range [a, b] of the first
    scan key y_k, so they lie in the slab {y in the simplex : a <= y_k <= b},
    whose corners are t e_k + (1 - t) e_j for t in {a, b} and j != k.  The
    lattice's size is checked before anything is allocated.
    """
    rows = simplex_rows(m, edge)
    check_lattice_rows(rows)
    starts = np.arange(0, rows, SCAN_CHUNK)
    ends = np.minimum(starts + SCAN_CHUNK, rows) - 1
    bounds = np.column_stack([starts, ends]).ravel()
    Y = _simplex_indices(m, edge, bounds) / edge
    if m == 1:  # one direction, one chunk
        return Y[:1].reshape(1, 1, 1)
    key = 1 if m >= 3 else 0  # the first scan key: y_2, or y_1 when m = 2
    t = Y[:, key].reshape(len(starts), 2)
    others = [j for j in range(m) if j != key]
    corners = np.zeros((len(starts), 2, m - 1, m))
    corners[:, :, :, key] = t[:, :, None]
    corners[:, :, range(m - 1), others] = 1.0 - t[:, :, None]
    return corners.reshape(len(starts), 2 * (m - 1), m)


class _Filter(NamedTuple):
    """The prefilter's terms at one point.

    ``Pmin[s]`` and ``Pmax[s]`` (m x d) hold the coordinatewise minima and
    maxima of the objective pieces in selection s; ``cons_lo``/``cons_hi``
    are -inf/+inf where a binding constraint's hull reaches below/above zero
    in that coordinate, and 0 elsewhere.
    """

    Pmin: np.ndarray
    Pmax: np.ndarray
    cons_lo: np.ndarray
    cons_hi: np.ndarray


def _filter_terms(a: PointAnalysis) -> _Filter:
    """The ``_Filter`` of a point: one (Pmin, Pmax) per piece selection."""
    # per objective, (n_pieces, d) per-piece vertex-coordinate minima and maxima
    ranges = [(np.array([p.vertices.min(axis=0) for p in s.pieces]),
               np.array([p.vertices.max(axis=0) for p in s.pieces]))
              for s in a.objective_subdiffs]
    cons_lo = np.zeros(len(a.z))
    cons_hi = np.zeros(len(a.z))
    for verts in a.binding_hulls:
        cons_lo += np.where(verts.min(axis=0) < -FILTER_TOL, -np.inf, 0.0)
        cons_hi += np.where(verts.max(axis=0) > FILTER_TOL, np.inf, 0.0)
    counts = [len(mins) for mins, _ in ranges]
    if int(np.prod(counts)) > 64:
        # too many piece combinations: fall back to union-wide ranges (coarser
        # but still a sound necessary condition)
        selections = [tuple(0 for _ in counts)]
        ranges = [
            (mins.min(axis=0, keepdims=True), maxs.max(axis=0, keepdims=True))
            for mins, maxs in ranges
        ]
    else:
        selections = list(itertools.product(*(range(c) for c in counts)))
    Pmin = np.array([[ranges[j][0][k] for j, k in enumerate(sel)]
                     for sel in selections])
    Pmax = np.array([[ranges[j][1][k] for j, k in enumerate(sel)]
                     for sel in selections])
    return _Filter(Pmin, Pmax, cons_lo, cons_hi)


def _prefilter(Y: np.ndarray, terms: _Filter) -> np.ndarray:
    """Keep directions where some piece selection can reach zero coordinatewise."""
    survivors = np.zeros(len(Y), dtype=bool)
    for Pmin, Pmax in zip(terms.Pmin, terms.Pmax):
        lo = Y @ Pmin + terms.cons_lo
        hi = Y @ Pmax + terms.cons_hi
        ok = np.all(lo <= FILTER_TOL, axis=1) & np.all(hi >= -FILTER_TOL, axis=1)
        survivors |= ok
        if survivors.all():
            break
    return survivors


def _chunk_may_pass(corners: np.ndarray, terms: _Filter) -> np.ndarray:
    """Chunks in which some row may pass ``_prefilter``.

    A linear form's minimum and maximum over a slab are attained at its
    corners, so a chunk is skipped only when, for every selection, some
    coordinate's corner bound misses ``FILTER_TOL`` by more than the
    rounding margin 2 (m + 3) eps s, where s is the largest |coefficient|:
    a row's computed value and a corner's each carry at most m + 3
    roundings of at most eps s.
    """
    m = corners.shape[2]
    scale = max(np.abs(terms.Pmin).max(), np.abs(terms.Pmax).max())
    tol = FILTER_TOL + 2 * (m + 3) * np.finfo(float).eps * scale

    def corner_values(P):
        # (chunks, corners, selections, d), elementwise: no BLAS call
        out = corners[:, :, :1, None] * P[:, 0]
        for j in range(1, m):
            out = out + corners[:, :, j:j + 1, None] * P[:, j]
        return out

    lo = corner_values(terms.Pmin).min(axis=1) + terms.cons_lo
    hi = corner_values(terms.Pmax).max(axis=1) + terms.cons_hi
    ok = np.all(lo <= tol, axis=2) & np.all(hi >= -tol, axis=2)
    return ok.any(axis=1)


# ---------------------------------------------------------------------------
# per-direction linear programs
# ---------------------------------------------------------------------------


def _lp_blocks(piece_sets, hulls: List[np.ndarray], lifted: bool = False
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Stationarity matrix and simplex rows shared by the search LPs.

    Columns: the vertices of each selected objective piece scaled by its
    direction weight (convex weights lambda), then the vertices of each
    binding constraint hull (products beta = mu * weight).  The simplex rows
    pin each piece's lambda total to one, or, when ``lifted``, the total of
    all piece columns (alpha = y * lambda) to one.
    """
    blocks = [w * verts.T for w, verts in piece_sets]
    blocks += [verts.T for verts in hulls]
    station = np.hstack(blocks)
    sizes = [len(verts) for _, verts in piece_sets]
    simplex = np.zeros((1 if lifted else len(sizes), station.shape[1]))
    col = 0
    for row, n in enumerate(sizes):
        simplex[0 if lifted else row, col:col + n] = 1.0
        col += n
    return station, simplex


def _slack_lp(piece_sets, hulls: List[np.ndarray], lifted: bool = False
              ) -> Optional[Tuple[float, np.ndarray]]:
    """min |stationarity sum|_inf over the ``_lp_blocks`` variables.

    Returns the optimum and the dual direction w of the two-sided rows, or
    None when the LP fails.  w satisfies |w|_1 <= 1 and w.h >= 0 on every
    hull vertex h, which makes it a lower bound for any direction y:
    residual(y) >= sum_j y_j min_{v in piece j} w.v (weak duality).
    """
    station, simplex = _lp_blocks(piece_sets, hulls, lifted)
    d = len(station)
    res = lp.min_residual(linprog, station, np.zeros(d), simplex,
                          np.ones(len(simplex)))
    if res.status != 0:
        return None
    marginals = res.ineqlin.marginals
    return float(res.fun), marginals[d:] - marginals[:d]


def _extract_mu(a: PointAnalysis, x: np.ndarray, col: int) -> np.ndarray:
    """Multipliers from the binding-hull columns of x, from ``col`` on."""
    mu = np.zeros(a.problem.n_constraints)
    for i, verts in zip(a.binding, a.binding_hulls):
        mu[i] = float(np.sum(x[col:col + len(verts)]))
        col += len(verts)
    return mu


def _direction_piece_sets(y: np.ndarray, analysis: PointAnalysis):
    """Piece sets of direction y, one per selection of objective pieces."""
    active = [j for j in range(len(y)) if y[j] > 0]
    return [
        [(float(y[j]), piece.vertices) for j, piece in zip(active, selection)]
        for selection in itertools.product(
            *(analysis.objective_subdiffs[j].pieces for j in active))
    ]


# ---------------------------------------------------------------------------
# geometric residual (shared with verification)
# ---------------------------------------------------------------------------


def _stationarity_union(y: np.ndarray, obj_subdiffs: Sequence[PolytopeUnion],
                        mu: np.ndarray, hulls: Dict[int, Polytope],
                        d: int) -> PolytopeUnion:
    """Explicit union for  sum_j y_j dF_j + sum_i mu_i H_i."""
    out = PolytopeUnion([Polytope(np.zeros((1, d)))])
    for j, s in enumerate(obj_subdiffs):
        if abs(y[j]) <= MU_ZERO_TOL:
            continue
        out = out.minkowski_sum(s.scale(float(y[j])))
    for i, hull in hulls.items():
        if mu[i] <= MU_ZERO_TOL:
            continue
        out = out.minkowski_sum(PolytopeUnion([hull.scale(float(mu[i]))]))
    return out


def _residual(y, obj_subdiffs, mu, hulls, d) -> float:
    union = _stationarity_union(y, obj_subdiffs, mu, hulls, d)
    return float(union.distance(np.zeros(d)))


def stationarity_distance(P: Problem, z, y, mu, grid: int,
                          exact: bool) -> float:
    """Distance from zero to the weighted stationarity set at z, from scratch.

    Recomputes every subdifferential (no ``PointAnalysis``): the hull of the
    worst-case subdifferential of each constraint with a nonzero multiplier,
    and either each objective's limiting subdifferential or, when ``exact``,
    the scalarized subdifferential of the y-weighted objectives.  Inside
    ``memo.shared_points()`` one distance per (P, z, y, mu, grid, exact)
    serves every check: a certificate's verification and its triple's dual
    feasibility ask for the same one.
    """
    key = tuple(np.asarray(v, dtype=float).tobytes() for v in (z, y, mu))
    return shared("stationarity", P, (key, grid, bool(exact)),
                  lambda: _stationarity_distance(P, z, y, mu, grid, exact))


def _stationarity_distance(P: Problem, z, y, mu, grid: int,
                           exact: bool) -> float:
    pt = Point.of(z)
    hulls = {
        i: worst_case_subdiff(P.constraints[i], z, P.uncertainty, grid).hull()
        for i in range(P.n_constraints) if mu[i] > MU_ZERO_TOL
    }
    if exact:
        subdiffs = [scalarized_subdiff(y, P.objectives, pt).best]
        y = np.ones(1)
    else:
        subdiffs = [limiting_subdiff(f, pt) for f in P.objectives]
    return _residual(y, subdiffs, mu, hulls, P.decision_dim)


# ---------------------------------------------------------------------------
# certificate search
# ---------------------------------------------------------------------------


def find_kkt_certificate(P: Problem, z, y_grid: int = DEFAULT_Y_GRID,
                         mode: str = "outer", grid: int = GRID_DEFAULT
                         ) -> KktCertificate:
    """First certificate on the direction grid (see the module docstring).

    ``y_grid`` is points per simplex edge (>= 2); ``mode`` is 'outer' (one
    piece of each objective's subdifferential) or 'exact' (the scalarized
    subdifferential).  Reads ``analyze_point(P, z, grid)``, shared inside
    ``memo.shared_points()``.
    """
    if y_grid < 2:
        raise ValueError("y_grid must be at least 2 points per edge")
    if mode not in ("outer", "exact"):
        raise ValueError("mode must be 'outer' or 'exact'")
    a = analyze_point(P, z, grid)

    lifted, duals = _lifted_lps(a)
    if lifted <= SKIP_TOL:
        found = _scan(a, y_grid, mode)
        if found is not None:
            y, mu_hat, mode_used = found
            return _finalize(a, y, mu_hat, mode_used)

    # no weighted certificate: try the degenerate (zero-weight) form
    fj = _fritz_john(a)
    if fj is not None:
        return _finalize(a, np.zeros(P.n_objectives), fj, mode,
                         fritz_john=True)

    best_res, best_dir = _coarse_residual_scan(a, duals)
    raise NotFoundAtResolution(
        f"no certificate on the {y_grid}-point direction grid",
        best_res, best_dir,
    )


def _lifted_lps(a: PointAnalysis) -> Tuple[float, List[np.ndarray]]:
    """Smallest lifted residual over the full piece selections, and the duals.

    A direction y and selection that pass their feasibility LP give the
    lifted point alpha_jk = y_j * lambda_jk of residual zero, so the optimum
    bounds every direction's stationarity residual from below.
    """
    subdiffs = a.objective_subdiffs
    best, duals = np.inf, []
    for sel in itertools.product(*(range(len(s.pieces)) for s in subdiffs)):
        piece_sets = [(1.0, s.pieces[k].vertices)
                      for s, k in zip(subdiffs, sel)]
        out = _slack_lp(piece_sets, a.binding_hulls, lifted=True)
        if out is None:  # a failed solve proves nothing
            best = 0.0
            continue
        best = min(best, out[0])
        duals.append(out[1])
    return best, duals


def _scan(a: PointAnalysis, y_grid: int, mode: str):
    """First lattice direction that passes, in scan order: (y, mu, mode)."""
    m, edge = a.problem.n_objectives, y_grid - 1
    corners = _chunk_corners(m, edge)
    terms = _filter_terms(a)
    lp_budget = MAX_LP
    for chunk_no in np.flatnonzero(_chunk_may_pass(corners, terms)):
        chunk = _chunk(m, edge, chunk_no)
        for y in chunk[_prefilter(chunk, terms)]:
            found = _try_direction(a, y, mode)
            if found is not None:
                return (y, *found)
            lp_budget -= 1
            if lp_budget <= 0:
                return None
    return None


def _try_direction(a: PointAnalysis, y: np.ndarray, mode: str):
    """(mu, mode) when some piece selection at direction y passes its LP.

    Outer mode selects one piece of each weighted objective subdifferential;
    exact mode one piece of the scalarized subdifferential, when available.
    Each selection that passes its feasibility LP (a zero stationarity sum,
    each piece's lambda total one) then solves a balance LP: its canonical
    multipliers are those whose total is closest to |y|_2, and ties go to
    the first selection.  When no balance LP solves, the first passing
    selection's feasibility point gives the multipliers.
    """
    if mode == "exact":
        try:
            sc = scalarized_subdiff(y, a.problem.objectives, a.point)
        except UnsupportedComposition:
            return None
        mode_used = "exact" if sc.exact is not None else "outer"
        candidates = [[(1.0, piece.vertices)] for piece in sc.best.pieces]
    else:
        mode_used = "outer"
        candidates = _direction_piece_sets(y, a)
    target = np.array([np.linalg.norm(y)])
    first = best = None
    for piece_sets in candidates:
        station, simplex = _lp_blocks(piece_sets, a.binding_hulls)
        A_eq = np.vstack([station, simplex])
        b_eq = np.concatenate([np.zeros(len(station)), np.ones(len(simplex))])
        res = lp.solve(linprog, np.zeros(A_eq.shape[1]), A_eq=A_eq, b_eq=b_eq)
        if res.status != 0:
            continue
        col = sum(len(verts) for _, verts in piece_sets)
        if first is None:
            first = _extract_mu(a, res.x, col)
        beta = np.zeros((1, A_eq.shape[1]))
        beta[0, col:] = 1.0
        # minimize |sum(beta) - target| with the selection's equalities
        res = lp.min_residual(linprog, beta, target, A_eq, b_eq)
        if res.status == 0 and (best is None or res.fun < best[0] - 1e-12):
            best = (res.fun, _extract_mu(a, res.x, col))
    if first is None:
        return None
    return (first if best is None else best[1]), mode_used


def _fritz_john(a: PointAnalysis) -> Optional[np.ndarray]:
    """Multipliers of zero in the binding hulls alone, total weight one."""
    if not a.binding_hulls:
        return None
    x = lp.zero_in_hull(linprog, np.vstack(a.binding_hulls))
    return None if x is None else _extract_mu(a, x, 0)


def _finalize(a: PointAnalysis, y_hat, mu_hat, mode_used: str,
              fritz_john: bool = False) -> KktCertificate:
    norm_y = float(np.linalg.norm(y_hat))
    norm_mu = float(np.linalg.norm(mu_hat))
    if norm_y + norm_mu <= MU_ZERO_TOL:
        raise NotFoundAtResolution("degenerate certificate scale", np.inf, None)
    kappa = 1.0 / (norm_y + norm_mu)
    y_star = kappa * y_hat
    mu = kappa * mu_hat
    P = a.problem
    hulls = {i: a.worst_cases[i].hull for i in a.binding}
    witnesses = [[np.array(r.point, dtype=float)
                  for r in a.worst_cases[i].realizations]
                 if i in a.binding and mu[i] > MU_ZERO_TOL else []
                 for i in range(P.n_constraints)]
    if mode_used == "exact":
        subdiffs = [scalarized_subdiff(y_star, P.objectives, a.point).best]
        y_res = np.ones(1)
    else:
        subdiffs = a.objective_subdiffs
        y_res = y_star
    residual = _residual(y_res, subdiffs, mu, hulls, P.decision_dim)
    # the Fritz John form was found by the same LP when the search fell back
    fj_also = fritz_john or _fritz_john(a) is not None
    return KktCertificate(y_star=y_star, mu=mu, witnesses=witnesses,
                          residual=residual, mode=mode_used,
                          fritz_john=fritz_john, fritz_john_also=fj_also)


def _dual_bound(a: PointAnalysis, w: np.ndarray, Y: np.ndarray
                ) -> Optional[np.ndarray]:
    """Lower bounds on the residual of every direction in Y from one dual w.

    r(y) >= sum_j y_j min_{v in dF_j} w.v holds once |w|_1 <= 1 and w.h >= 0
    on every hull vertex h; None when w misses the latter by over CUT_TOL.
    """
    w = w / max(1.0, float(np.abs(w).sum()))
    if any(np.min(h @ w) < -CUT_TOL for h in a.binding_hulls):
        return None
    c = np.array([min(np.min(p.vertices @ w) for p in s.pieces)
                  for s in a.objective_subdiffs])
    return Y @ c


def _coarse_residual_scan(a: PointAnalysis, duals: List[np.ndarray]
                          ) -> Tuple[float, Optional[np.ndarray]]:
    """Smallest infinity-norm stationarity residual on a coarse direction grid.

    The answer is the plain scan's: the first strictly smallest residual in
    scan order.  Directions are solved lowest lower bound first (each dual
    in ``duals``, and of every LP solved here, bounds all directions), and
    solving stops once every unsolved bound exceeds the best residual by
    ``PRUNE_MARGIN``.
    """
    Y = _simplex_indices(a.problem.n_objectives, COARSE_EDGE) / COARSE_EDGE
    bound = np.zeros(len(Y))
    resid = np.full(len(Y), np.inf)
    unsolved = np.ones(len(Y), dtype=bool)

    def add_cuts(ws):
        for w in ws:
            b = _dual_bound(a, w, Y)
            if b is not None:
                np.maximum(bound, b, out=bound)

    add_cuts(duals)
    while unsolved.any():
        row = int(np.argmin(np.where(unsolved, bound, np.inf)))
        if bound[row] > resid.min() + PRUNE_MARGIN:
            break
        unsolved[row] = False
        for piece_sets in _direction_piece_sets(Y[row], a):
            out = _slack_lp(piece_sets, a.binding_hulls)
            if out is not None:
                resid[row] = min(resid[row], out[0])
                add_cuts([out[1]])
    row = int(np.argmin(resid))
    if not np.isfinite(resid[row]):
        return np.inf, None
    return float(resid[row]), Y[row].copy()


# ---------------------------------------------------------------------------
# certificate verification (independent geometric route)
# ---------------------------------------------------------------------------


@dataclass
class VerificationReport:
    ok: bool
    checks: Dict[str, bool]
    stationarity_distance: float
    details: Dict[str, str] = field(default_factory=dict)


def verify_certificate(P: Problem, z, cert: KktCertificate,
                       tol: float = RESIDUAL_TOL,
                       grid: int = GRID_DEFAULT) -> VerificationReport:
    z = np.asarray(z, dtype=float)
    checks: Dict[str, bool] = {}
    details: Dict[str, str] = {}
    y = np.asarray(cert.y_star, dtype=float)
    mu = np.asarray(cert.mu, dtype=float)

    psi_vals = constraint_values(P, z, grid)

    # stationarity by explicit geometry
    distance = stationarity_distance(P, z, y, mu, grid,
                                     exact=cert.mode == "exact")
    checks["stationarity"] = distance <= tol
    details["stationarity"] = f"distance {distance:.3e}"

    # complementarity
    comp = float(np.max(np.abs(mu * psi_vals), initial=0.0))
    checks["complementarity"] = comp <= tol
    details["complementarity"] = f"max |mu_i * worst_case_i| = {comp:.3e}"

    # witnesses attain the worst case and belong to the uncertainty set
    wit_ok = True
    for i in range(P.n_constraints):
        if mu[i] <= MU_ZERO_TOL:
            continue
        per = cert.witnesses[i] if i < len(cert.witnesses) else []
        if not per:
            wit_ok = False
            details.setdefault("witnesses", f"constraint {i + 1} has no witness")
            continue
        for u in per:
            if not P.uncertainty.contains(u):
                wit_ok = False
                details.setdefault(
                    "witnesses", f"witness outside the uncertainty set: {u}"
                )
                continue
            val = evaluate(P.constraints[i], Point.of(z, u))
            if val < psi_vals[i] - 1e-6:
                wit_ok = False
                details.setdefault(
                    "witnesses",
                    f"witness for constraint {i + 1} is not worst-case "
                    f"({val:.6g} < {psi_vals[i]:.6g})",
                )
    checks["witnesses"] = wit_ok

    # cone conditions
    checks["dual_cone"] = P.cone.dual_contains(y)
    checks["mu_nonnegative"] = bool(np.all(mu >= -MU_ZERO_TOL))

    # nondegeneracy and normalization
    checks["weights_nonzero"] = bool(
        np.max(np.abs(y), initial=0.0) > 1e-9 or cert.fritz_john
    )
    norm_sum = float(np.linalg.norm(y) + np.linalg.norm(mu))
    checks["normalization"] = abs(norm_sum - 1.0) <= 1e-9
    details["normalization"] = f"|y|_2 + |mu|_2 = {norm_sum:.12f}"

    ok = all(checks.values())
    return VerificationReport(ok, checks, float(distance), details)
