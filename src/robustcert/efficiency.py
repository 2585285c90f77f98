"""Brute-force certification of robust efficiency concepts on a box grid.

A feasible point is *weakly* efficient when no feasible competitor improves
every objective strictly (cone-interior domination), *efficient* when no
competitor improves the objective vector in the cone ordering without tying
it, and *properly* efficient when some uniformly interior dual weight vector
makes the point a scalar minimizer.  The certifiers here check these
statements exhaustively over a finite decision grid; "certified" therefore
always means "no counterexample at this resolution", not a continuum proof.

K is its own double dual, so every dominance test reads the smallest margin
of ``-d`` against K's unit dual rays (``eye(m)`` on the orthant); only rows
whose margin lies within ``BAND_TOL`` of zero solve the membership LP, and
the scan stops at the first dominating row.

The feasible grid (``grid_context``) depends only on the problem's content
and the two grid sizes, so each process builds it once per such combination
and shares it, read-only, with every later efficiency, duality and report
call on that problem.  Each certifier refuses a point that is not robust
feasible on the uncertainty grid; inside ``memo.shared_points()`` the
certifiers at one point share that check.

``certify_proper`` solves its LP in two stages.  An LP on a few candidate
grid rows, chosen from the vertices of the weight polytope, is a relaxation:
when HiGHS finds it infeasible the point is refuted, which is the common
case.  Only when it is feasible is the LP over every feasible grid row
solved, so a witness always comes from that full LP.

``sufficient_conditions`` combines a verified first-order certificate with
the sampling-based convexity classification to state which efficiency
concepts follow from the supported sufficiency rules.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np
# passed to lp.solve, so a wrapper installed on this binding sees every LP
from scipy.optimize import linprog

from . import lp
from .constraints import FEAS_TOL, GRID_DEFAULT, Problem, worst_case_matrix
from .convexity import TypeClassification
from .kkt import KktCertificate, VerificationReport
from .memo import LruMemo, content_key, shared

# strict dominance clears this dual-ray margin; a smaller change is a tie
DOMINANCE_TOL = 1e-9
# margins within this of zero go to the membership LP; outside, the sign is
# its answer: a point it accepts has no margin below -sqrt(m) * MEMBER_TOL,
# and one with every margin above this lies deeper in K than its rounding
BAND_TOL = 1e-6
# interior weight floor for the proper-efficiency scalarization
PROPER_EPS = 1e-3

EFFICIENCY_GRID = 101
# feasible grids kept per process; the least recently used is dropped first
# (one entry is about 0.4 MB for two decision variables at grid 101)
GRID_CONTEXT_ENTRIES = 8


@dataclass(frozen=True)
class EfficiencyContext:
    """The robust-feasible rows of one problem's decision grid.

    Shared between callers, so ``Z`` and ``F`` are read-only.
    """

    Z: np.ndarray                # feasible grid rows
    F: np.ndarray                # objective values at those rows


_contexts = LruMemo(GRID_CONTEXT_ENTRIES)
# weight-polytope vertices per (rays, eps); a few rows each
_vertices = LruMemo(8)


def _build_grid_context(P: Problem, grid: int, ugrid: int) -> EfficiencyContext:
    Z = P.box_grid(grid)
    Zf = Z[np.all(worst_case_matrix(P, Z, ugrid) <= FEAS_TOL, axis=1)]
    F = P.objective_values_batch(Zf)
    Zf.setflags(write=False)
    F.setflags(write=False)
    return EfficiencyContext(Zf, F)


def grid_context(P: Problem, grid: int = EFFICIENCY_GRID,
                 ugrid: int = GRID_DEFAULT) -> EfficiencyContext:
    """Robust-feasible rows of the decision grid and their objective values.

    Memoized per process on the problem's content and ``(grid, ugrid)``:
    the last ``GRID_CONTEXT_ENTRIES`` contexts are kept.
    """
    return _contexts.get((content_key(P), grid, ugrid),
                         lambda: _build_grid_context(P, grid, ugrid))


@dataclass
class EfficiencyReport:
    concept: str                  # 'weak' | 'efficient' | 'proper'
    certified: bool
    grid: int
    feasible_points: int
    counterexample: Optional[np.ndarray] = None
    counterexample_values: Optional[np.ndarray] = None
    witness_y: Optional[np.ndarray] = None
    notes: Tuple[str, ...] = ()


def _feasibility_guard(P: Problem, z, concept: str, grid: int,
                       ugrid: int) -> Optional[EfficiencyReport]:
    """A refusal when the grid-only sweep at z exceeds FEAS_TOL, else None."""
    z = np.asarray(z, dtype=float)
    psi = shared("guard", P, (z.tobytes(), ugrid),
                 lambda: worst_case_matrix(P, z[None, :], ugrid))
    if np.max(psi, initial=-np.inf) <= FEAS_TOL:
        return None
    return EfficiencyReport(concept, False, grid, 0,
                            notes=("point is not robust feasible",))


def _products(D: np.ndarray, V: np.ndarray) -> np.ndarray:
    """``D @ V.T`` one column of D at a time: elementwise, so no BLAS worker
    thread wakes however many grid rows there are."""
    S = D[:, :1] * V[:, 0]
    for j in range(1, D.shape[1]):
        S = S + D[:, j:j + 1] * V[:, j]
    return S


def _dominating_rows(P: Problem, D: np.ndarray, strict: bool
                     ) -> Iterator[int]:
    """Rows of ``D`` whose ``-d`` lies in K (in its interior when ``strict``),
    in index order, by the smallest dual-ray margin.  Only band rows solve
    the membership LP, each when the scan reaches it."""
    # a row-wise np.min over a few columns costs as much as the products
    low = functools.reduce(np.minimum, _products(D, -P.cone.dual_rays()).T)
    if strict:
        yield from map(int, np.flatnonzero(low > DOMINANCE_TOL))
        return
    for r in map(int, np.flatnonzero(low >= -BAND_TOL)):
        # a band row that is not a tie asks the membership LP
        if low[r] >= BAND_TOL or (np.max(np.abs(D[r])) > DOMINANCE_TOL
                                  and P.cone.contains(-D[r])):
            yield r


def first_dominator(P: Problem, values: np.ndarray, strict: bool,
                    grid: int, ugrid: int
                    ) -> Tuple[EfficiencyContext, Optional[int]]:
    """The feasible grid and its first row whose objectives dominate ``values``.

    ``strict`` asks for cone-interior domination; otherwise domination in
    the cone ordering without a tie.  The row is None when there is none.
    The scan stops at that row, so no later row solves a membership LP.
    """
    ctx = grid_context(P, grid, ugrid)
    D = ctx.F - np.asarray(values, dtype=float)[None, :]
    return ctx, next(_dominating_rows(P, D, strict), None)


def _dominance_report(P: Problem, z, concept: str, strict: bool, grid: int,
                      ugrid: int) -> EfficiencyReport:
    guard = _feasibility_guard(P, z, concept, grid, ugrid)
    if guard is not None:
        return guard
    ctx, first = first_dominator(P, P.objective_values(z), strict, grid, ugrid)
    if first is None:
        return EfficiencyReport(concept, True, grid, len(ctx.Z))
    return EfficiencyReport(
        concept, False, grid, len(ctx.Z),
        counterexample=ctx.Z[first],
        counterexample_values=ctx.F[first],
    )


def certify_weak(P: Problem, z, grid: int = EFFICIENCY_GRID,
                 ugrid: int = GRID_DEFAULT) -> EfficiencyReport:
    """No feasible grid point improves every objective strictly."""
    return _dominance_report(P, z, "weak", True, grid, ugrid)


def certify_efficient(P: Problem, z, grid: int = EFFICIENCY_GRID,
                      ugrid: int = GRID_DEFAULT) -> EfficiencyReport:
    """No feasible grid point dominates in the cone ordering."""
    return _dominance_report(P, z, "efficient", False, grid, ugrid)


def _weight_vertices(R: np.ndarray, eps: float) -> np.ndarray:
    """Vertices of the weight polytope ``W = {y : R y >= eps, (sum R) . y = 1}``.

    One row per vertex: each makes m - 1 ray rows tight together with the
    equality.  There are none when the rays do not span R^m (W then holds a
    line) or when W is empty.  Memoized per process on the rays and
    ``eps``; the shared array is read-only.
    """
    R = np.asarray(R, dtype=float)
    return _vertices.get((R.shape, R.tobytes(), eps),
                         lambda: _build_weight_vertices(R, eps))


def _build_weight_vertices(R: np.ndarray, eps: float) -> np.ndarray:
    k, m = R.shape
    s = R.sum(axis=0)
    vertices = []
    for tight in itertools.combinations(range(k), m - 1):
        A = np.vstack([R[list(tight)], s[None, :]])
        if np.linalg.matrix_rank(A) < m:
            continue
        v = np.linalg.solve(A, np.append(np.full(m - 1, eps), 1.0))
        if np.all(R @ v >= eps - FEAS_TOL):
            vertices.append(v)
    V = np.array(vertices).reshape(-1, m)
    V.setflags(write=False)
    return V


def _candidate_rows(D: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rows of ``D`` likeliest to refute every weight in W, given its vertices.

    ``argmin_r max_k D_r . v_k`` refutes W alone whenever some single row
    does; each vertex adds its own most negative row.
    """
    S = _products(D, V)
    return np.unique(np.append(np.argmin(S, axis=0),
                               np.argmin(np.max(S, axis=1))))


def _proper_lp(D: np.ndarray, R: np.ndarray, eps: float):
    """Feasibility LP for weights y with ``D y >= 0`` and y in W."""
    m = R.shape[1]
    A_ub = np.vstack([-D, -R])
    b_ub = np.concatenate([np.zeros(len(D)), -eps * np.ones(len(R))])
    A_eq = R.sum(axis=0)[None, :]
    b_eq = np.array([1.0])
    return lp.solve(
        linprog, np.zeros(m), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=[(None, None)] * m,
    )


def _proper_weights(D: np.ndarray, R: np.ndarray,
                    eps: float) -> Optional[np.ndarray]:
    """Weights in W with ``D y >= 0``, or None when HiGHS finds none.

    The LP on a few candidate rows is a relaxation of the LP on all of
    ``D``: when it is infeasible, so is the full LP.  Otherwise the full
    LP is solved as it stands, and its solution is returned.
    """
    V = _weight_vertices(R, eps)
    if len(V) and len(D):
        # status 2: HiGHS proved the relaxation infeasible
        if _proper_lp(D[_candidate_rows(D, V)], R, eps).status == 2:
            return None
    res = _proper_lp(D, R, eps)
    return res.x if res.status == 0 else None


def certify_proper(P: Problem, z, grid: int = EFFICIENCY_GRID,
                   ugrid: int = GRID_DEFAULT) -> EfficiencyReport:
    """A uniformly interior dual weight makes the point a grid minimizer.

    Searches by linear programming for weights with margin ``PROPER_EPS``
    against every cone generator such that the weighted objective change is
    nonnegative at every feasible grid point.  A first LP keeps only a few
    candidate grid rows (one per vertex of the weight polytope, plus one);
    when it is infeasible the point is refuted.  Otherwise the LP over every
    feasible grid row decides, and its solution is the witness.
    """
    guard = _feasibility_guard(P, z, "proper", grid, ugrid)
    if guard is not None:
        return guard
    ctx = grid_context(P, grid, ugrid)
    D = ctx.F - P.objective_values(z)[None, :]
    y = _proper_weights(D, P.cone.generating_rays(), PROPER_EPS)
    if y is None:
        return EfficiencyReport(
            "proper", False, grid, len(ctx.Z),
            notes=("no interior weight vector supports the point "
                   f"at margin {PROPER_EPS}",),
        )
    return EfficiencyReport("proper", True, grid, len(ctx.Z), witness_y=y)


@dataclass
class ProperNecessaryReport:
    ok: bool
    interior_margin: float
    min_value: float
    argmin: np.ndarray
    feasible_points: int


def check_proper_necessary(P: Problem, z, y_star, grid: int = EFFICIENCY_GRID,
                           ugrid: int = GRID_DEFAULT) -> ProperNecessaryReport:
    """Scan: does z minimize <y_star, f> over the feasible box grid?

    A positive-interior weight vector whose scalarization is minimized at z is
    the defining witness of proper behavior; this checks the minimization on a
    finite grid (necessary-side evidence, not a proof over the continuum).
    """
    y = np.asarray(y_star, dtype=float)
    margin = P.cone.dual_margin(y)
    ctx = grid_context(P, grid, ugrid)
    if len(ctx.Z) == 0:
        return ProperNecessaryReport(False, margin, np.inf,
                                     np.full(P.decision_dim, np.nan), 0)
    scores = (ctx.F - P.objective_values(z)) @ y
    idx = int(np.argmin(scores))
    min_value = float(scores[idx])
    return ProperNecessaryReport(
        ok=min_value >= -FEAS_TOL and margin > 0,
        interior_margin=margin,
        min_value=min_value,
        argmin=ctx.Z[idx],
        feasible_points=len(ctx.Z),
    )


# ---------------------------------------------------------------------------
# sufficiency rules
# ---------------------------------------------------------------------------


@dataclass
class SufficiencyReport:
    weak: bool
    efficient: bool
    proper: bool
    reasons: List[str] = field(default_factory=list)


def sufficient_conditions(P: Problem, cert: KktCertificate,
                          verification: VerificationReport,
                          classification: TypeClassification
                          ) -> SufficiencyReport:
    """Which efficiency concepts follow from certificate plus convexity.

    Rules: a verified certificate with nonzero weights yields weak efficiency
    when the first premise bundle (pseudo-convex objectives, quasi-convex
    binding constraints) is intact, efficiency when the strict bundle is
    intact, and proper efficiency when additionally the weights sit strictly
    inside the dual cone.
    """
    reasons: List[str] = []
    base = verification.ok and not cert.fritz_john
    if not verification.ok:
        reasons.append("certificate failed verification; no rule applies")
    elif cert.fritz_john:
        reasons.append("zero objective weights (degenerate certificate); "
                       "no rule applies")

    weak = base and not classification.type_i.refuted
    if weak:
        reasons.append(
            "verified certificate + first premise bundle intact "
            "=> weakly efficient"
        )
    elif base:
        reasons.append("first premise bundle refuted; weak rule blocked")

    efficient = base and not classification.type_ii.refuted
    if efficient:
        reasons.append(
            "verified certificate + strict premise bundle intact => efficient"
        )
    elif base:
        reasons.append("strict premise bundle refuted; efficiency rule blocked")

    margin = P.cone.dual_margin(np.asarray(cert.y_star, dtype=float))
    proper = weak and margin > 0
    if proper:
        reasons.append(
            f"weights have interior dual margin {margin:.3g} "
            "=> properly efficient"
        )
    elif weak:
        reasons.append("weights sit on the dual cone boundary; "
                       "proper rule blocked")
    return SufficiencyReport(weak, efficient, proper, reasons)
