"""Worst-case (semi-infinite) constraint machinery.

A robust constraint is ``max over u in U of g_i(z, u) <= 0``.  A
``WorstCase`` is that supremum at one decision point.  From one sweep of U's
grid it finds the value (polished per axis on a box, exact on a finite set),
the uncertainty realizations that attain it, and the decision-space limiting
subdifferentials of the attaining pieces.  ``worst_case_value``,
``active_uncertainty``, ``worst_case_subdiff`` and ``constraint_values``
serve the independent checks.  Outside ``memo.shared_points()`` each call
builds its ``WorstCase`` from scratch; inside a block the checks share one
per expression, set, point and grid, but never one that a
``PointAnalysis`` holds, so a check does not read the analysis it checks.
The module also defines ordering cones and the problem container loaded
from JSON.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
# passed to lp.solve, so a wrapper installed on this binding sees every LP
from scipy.optimize import linprog, minimize_scalar

from . import lp
from .expr import BufferPool, Expr, Point, eval_broadcast, evaluate
from .memo import LruMemo, shared
from .polytope import (Polytope, PolytopeUnion, convex_hull_of, dedup_pieces,
                       dedup_rows)
from .subdiff import limiting_subdiff

# default per-axis grid resolution for worst-case evaluation
GRID_DEFAULT = 1001
# an uncertainty realization counts as attaining when within this of the max
ACTIVE_TOL = 1e-6
# per-axis polish stops when the bracketing interval is this small
REFINE_XATOL = 1e-10
# attaining clusters wider than this are treated as plateaus (outer estimate)
EXTENT_TOL = 1e-6
# array elements (decision rows x uncertainty points) per block of a sweep
# (512 KiB of float64): 65 rows against a 1001-point axis, one row against
# a span of a 1001^2 grid
CHUNK_ELEMENTS = 2**16
# U lattices kept per process, per box and grid; one is 16 MiB at p = 2
# and grid 1001
LATTICE_ENTRIES = 4
# default slack for robust feasibility
FEAS_TOL = 1e-9
# slack of membership in the uncertainty set, the cone and its dual
MEMBER_TOL = 1e-9
# rows a decision, uncertainty or weight lattice may have (240 MB for three
# float columns); a larger lattice is refused before anything is allocated
MAX_LATTICE_ROWS = 10**7


class ProblemFormatError(Exception):
    """Malformed problem description."""


class LatticeTooLarge(ValueError):
    """A requested lattice has more than ``MAX_LATTICE_ROWS`` rows."""


def check_lattice_rows(rows: int) -> None:
    if rows > MAX_LATTICE_ROWS:
        raise LatticeTooLarge(f"a lattice of {rows:,} rows exceeds the "
                              f"limit of {MAX_LATTICE_ROWS:,}")


def box_lattice_rows(lower, upper, n: int) -> int:
    """Rows of ``box_lattice(lower, upper, n)``, in exact integer arithmetic."""
    return int(n) ** sum(1 for lo, hi in zip(lower, upper) if lo != hi)


def box_lattice(lower, upper, n: int) -> np.ndarray:
    """(n^k, k) row-major grid over a box; a zero-width axis keeps one point."""
    check_lattice_rows(box_lattice_rows(lower, upper, n))
    axes = [np.linspace(lo, hi, 1 if lo == hi else n)
            for lo, hi in zip(lower, upper)]
    shape = [len(a) for a in axes]
    out = np.empty((math.prod(shape), len(axes)))
    # each axis is written straight into its column, with no mesh copies
    grid = out.reshape(*shape, len(axes))
    for j, axis in enumerate(axes):
        grid[..., j] = axis.reshape([-1 if k == j else 1
                                     for k in range(len(axes))])
    return out


# ---------------------------------------------------------------------------
# uncertainty sets
# ---------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _freeze_arrays(obj, names: Sequence[str]) -> None:
    """Replace the named array fields of a frozen dataclass by read-only
    float copies, so nothing keyed on their content can go stale."""
    for name in names:
        if getattr(obj, name) is not None:
            object.__setattr__(obj, name, _read_only(
                np.array(getattr(obj, name), dtype=float)))


_lattices = LruMemo(LATTICE_ENTRIES)


@dataclass(frozen=True, eq=False)
class UncertaintySet:
    """Box (bounds) or finite (explicit points) uncertainty set; immutable,
    with read-only arrays."""

    kind: str
    lower: Optional[np.ndarray] = None
    upper: Optional[np.ndarray] = None
    points: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        _freeze_arrays(self, ("lower", "upper", "points"))

    @staticmethod
    def box(lower, upper) -> "UncertaintySet":
        lower = np.atleast_1d(np.asarray(lower, dtype=float))
        upper = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower.ndim != 1 or upper.ndim != 1:
            raise ProblemFormatError("uncertainty bounds must be flat lists")
        if lower.shape != upper.shape:
            raise ProblemFormatError("uncertainty bounds must have equal length")
        if np.any(lower > upper):
            raise ProblemFormatError("uncertainty lower bound exceeds upper bound")
        return UncertaintySet("box", lower=lower, upper=upper)

    @staticmethod
    def finite(points) -> "UncertaintySet":
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ProblemFormatError("finite uncertainty points must be a "
                                     "list of coordinate lists")
        if len(pts) == 0:
            raise ProblemFormatError("a finite uncertainty set needs points")
        return UncertaintySet("finite", points=pts)

    @property
    def dim(self) -> int:
        if self.kind == "box":
            return len(self.lower)
        return self.points.shape[1]

    def grid_points(self, n: int = GRID_DEFAULT) -> np.ndarray:
        """(M, p) read-only array of evaluation points; a finite set ignores
        ``n``.  A box's lattice is built once per process per bounds and
        ``n`` (the last ``LATTICE_ENTRIES`` are kept) and shared."""
        if self.kind == "finite":
            return self.points
        if n < 2:
            raise ValueError(f"a box uncertainty grid needs at least 2 "
                             f"points per axis, got {n}")
        key = (self.lower.tobytes(), self.upper.tobytes(), n)
        return _lattices.get(key, lambda: _read_only(
            box_lattice(self.lower, self.upper, n)))

    def contains(self, u) -> bool:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if self.kind == "box":
            return bool(np.all(u >= self.lower - MEMBER_TOL)
                        and np.all(u <= self.upper + MEMBER_TOL))
        # initial: with no uncertain parameter each point has no coordinates
        return bool(np.min(np.max(np.abs(self.points - u), axis=1,
                                  initial=0.0)) <= MEMBER_TOL)


# ---------------------------------------------------------------------------
# ordering cones
# ---------------------------------------------------------------------------


@dataclass
class ConeSpec:
    """Ordering cone: nonnegative orthant or finitely generated (pointed).

    Generator cones are validated at load: zero rays are dropped and a small
    feasibility LP rejects cones containing a line (non-pointed), for which
    the efficiency notions below would degenerate.
    """

    kind: str
    dim: int
    rays: Optional[np.ndarray] = None  # (k, m) for generator cones

    @staticmethod
    def orthant(dim: int) -> "ConeSpec":
        return ConeSpec("orthant", dim)

    @staticmethod
    def from_rays(rays) -> "ConeSpec":
        R = np.asarray(rays, dtype=float)
        if R.ndim != 2 or R.shape[0] == 0:
            raise ProblemFormatError("generator cone needs a nonempty ray matrix")
        keep = np.linalg.norm(R, axis=1) > 1e-12
        R = R[keep]
        if len(R) == 0:
            raise ProblemFormatError("generator cone has only zero rays")
        # pointedness: K contains a line iff 0 is a nontrivial nonnegative
        # combination of the rays
        if lp.zero_in_hull(linprog, R) is not None:
            raise ProblemFormatError("generator cone is not pointed")
        return ConeSpec("generators", R.shape[1], rays=R)

    def generating_rays(self) -> np.ndarray:
        if self.kind == "orthant":
            return np.eye(self.dim)
        return self.rays

    def contains(self, x) -> bool:
        """x in K (membership in the cone itself)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "orthant":
            return bool(np.all(x >= -MEMBER_TOL))
        # minimize the infinity-norm residual |R^T lam - x| over lam >= 0,
        # then decide on the residual of the returned lam: the optimum is
        # exact only to the solver's feasibility tolerance, far above
        # MEMBER_TOL
        res = lp.min_residual(linprog, self.rays.T, x)
        if res.status != 0:
            return False
        lam = np.maximum(res.x[:-1], 0.0)
        return bool(np.max(np.abs(self.rays.T @ lam - x)) <= MEMBER_TOL)

    def dual_margin(self, y) -> float:
        """min over generating rays r of <y, r/|r|>; >0 means y in int K+."""
        y = np.asarray(y, dtype=float)
        R = self.generating_rays()
        norms = np.linalg.norm(R, axis=1)
        return float(np.min((R @ y) / norms))

    def dual_contains(self, y) -> bool:
        return self.dual_margin(y) >= -MEMBER_TOL

    def dual_rays(self) -> np.ndarray:
        """Unit generators of the dual cone K+ (dimension <= 3 for generators).

        When the rays do not span R^m, K+ is the dual of K within its span
        plus the span's orthogonal complement, so the generators are the
        dual rays within the span and both signs of a basis of the
        complement.
        """
        if self.kind == "orthant":
            return np.eye(self.dim)
        if self.dim > 3:
            raise NotImplementedError(
                "dual rays for generator cones are provided up to dimension 3"
            )
        R = self.rays
        rank = np.linalg.matrix_rank(R)
        if rank == self.dim:
            return _dedup_unit(_spanning_dual_rays(R))
        basis = np.linalg.svd(R)[2]
        span, rest = basis[:rank], basis[rank:]
        return _dedup_unit([v @ span for v in _spanning_dual_rays(R @ span.T)]
                           + [*rest, *-rest])


def _spanning_dual_rays(R: np.ndarray) -> List[np.ndarray]:
    """Unit dual rays, possibly repeated, of the pointed cone that the rows
    of R generate, when they span R^m (m <= 3)."""
    m = R.shape[1]
    if m == 1:
        return [np.ones(1) if np.all(R > 0) else -np.ones(1)]
    candidates = []
    if m == 2:
        # dual rays of a pointed planar cone are normals of extreme rays
        for i in range(len(R)):
            n1 = np.array([-R[i, 1], R[i, 0]])
            for n in (n1, -n1):
                if np.all(R @ n >= -1e-9):
                    candidates.append(n / np.linalg.norm(n))
        return candidates
    for i, j in itertools.combinations(range(len(R)), 2):
        n = np.cross(R[i], R[j])
        norm = np.linalg.norm(n)
        if norm <= 1e-12:
            continue
        for s in (n / norm, -n / norm):
            if np.all(R @ s >= -1e-9):
                candidates.append(s)
    return candidates


def _dedup_unit(vectors: Sequence[np.ndarray]) -> np.ndarray:
    if not vectors:
        raise ProblemFormatError("dual cone has empty interior direction set")
    return np.array(sorted(dedup_rows(vectors, 1e-9), key=tuple))


# ---------------------------------------------------------------------------
# problem container
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Problem:
    """An uncertain multiobjective program; immutable, with read-only
    arrays (``dataclasses.replace`` makes a changed copy), so values
    memoized on its content cannot go stale."""

    decision_dim: int
    uncertainty_dim: int
    objectives: Tuple[Expr, ...]
    constraints: Tuple[Expr, ...]
    uncertainty: UncertaintySet
    cone: ConeSpec
    box_lower: np.ndarray
    box_upper: np.ndarray
    label: str = ""
    objective_sources: Tuple[str, ...] = ()
    constraint_sources: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _freeze_arrays(self, ("box_lower", "box_upper"))

    @property
    def n_objectives(self) -> int:
        return len(self.objectives)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def box_grid(self, n: int = 101) -> np.ndarray:
        """(n^d, d) row-major grid over the decision box."""
        return box_lattice(self.box_lower, self.box_upper, n)

    def objective_values(self, z) -> np.ndarray:
        pt = Point.of(z)
        return np.array([evaluate(f, pt) for f in self.objectives])

    def objective_values_batch(self, Z: np.ndarray) -> np.ndarray:
        """(N, m) objective values for rows of Z."""
        cols = [Z[:, j] for j in range(self.decision_dim)]
        return np.stack(
            [np.broadcast_to(eval_broadcast(f, cols), (len(Z),)).astype(float)
             for f in self.objectives],
            axis=1,
        )


# ---------------------------------------------------------------------------
# worst-case evaluation
# ---------------------------------------------------------------------------


def _refine_box_max(e: Expr, z, u0: np.ndarray,
                    U: UncertaintySet) -> Tuple[np.ndarray, float]:
    """Per-axis bounded polish of a grid maximizer (box sets only).

    Each of two passes runs a bounded Brent line search along every axis in
    turn and keeps a move that raises the value.  An axis is skipped while no
    other coordinate has moved since its last line search: its 1-D objective
    is then the same function, and the deterministic search would return the
    same point, which cannot raise the value again.  At p = 1 that drops the
    whole second pass.
    """
    start = Point.of(z, u0)
    zt, u = start.z, list(start.u)
    best = evaluate(e, start)
    # axes whose 1-D objective may have changed since their last line search
    stale = [True] * len(u)
    for _ in range(2):
        for j in range(len(u)):
            lo, hi = U.lower[j], U.upper[j]
            if hi <= lo or not stale[j]:
                continue
            head, tail = tuple(u[:j]), tuple(u[j + 1:])

            def neg(t):
                return -evaluate(e, Point(zt, head + (float(t),) + tail))

            res = minimize_scalar(
                neg, bounds=(lo, hi), method="bounded",
                options={"xatol": REFINE_XATOL},
            )
            stale[j] = False
            if -res.fun > best:
                best = float(-res.fun)
                u[j] = float(res.x)
                stale = [k != j for k in range(len(u))]
    return np.array(u), best


def _spans(n: int, size: int):
    """``(start, stop)`` of consecutive blocks of at most ``size`` of ``n``."""
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def grid_sweep(e: Expr, z, U: UncertaintySet,
               grid: int = GRID_DEFAULT) -> Tuple[np.ndarray, np.ndarray]:
    """U's grid points and ``e(z, u)`` at each of them, for one decision point.

    The decision coordinates enter as 0-d columns broadcast against blocks
    of at most ``CHUNK_ELEMENTS`` uncertainty points, whose values are
    written into one ``(M,)`` array.
    """
    z = np.asarray(z, dtype=float)
    pts = U.grid_points(grid)
    cols_z = [np.asarray(z[j]) for j in range(len(z))]
    vals = np.empty(len(pts))
    pool = BufferPool()
    for lo, hi in _spans(len(pts), CHUNK_ELEMENTS):
        cols_u = [pts[lo:hi, k] for k in range(U.dim)]
        block = eval_broadcast(e, cols_z, cols_u, pool)
        vals[lo:hi] = block
        pool.release(block)
    return pts, vals


def worst_case_values_batch(e: Expr, Z: np.ndarray, U: UncertaintySet,
                            grid: int = GRID_DEFAULT) -> np.ndarray:
    """Grid maxima of ``e(z, u)`` over U for every row z of Z, without polish.

    The sweep runs in blocks of at most ``CHUNK_ELEMENTS`` array elements
    (rows x uncertainty points): as many rows as fit against U's whole
    grid, or one row against a span of the grid when one row alone is too
    many.  Each row keeps a running maximum over its spans, so the block
    size changes no value.
    """
    Z = np.asarray(Z, dtype=float)
    pts = U.grid_points(grid)
    width = min(len(pts), CHUNK_ELEMENTS)
    out = np.full(len(Z), -np.inf)
    pool = BufferPool()
    for lo, hi in _spans(len(Z), max(1, CHUNK_ELEMENTS // width)):
        cols_z = [Z[lo:hi, j][:, None] for j in range(Z.shape[1])]
        for ulo, uhi in _spans(len(pts), width):
            cols_u = [pts[ulo:uhi, k][None, :] for k in range(U.dim)]
            block = eval_broadcast(e, cols_z, cols_u, pool)
            np.maximum(out[lo:hi], np.broadcast_to(
                block, (hi - lo, uhi - ulo)).max(axis=1), out=out[lo:hi])
            pool.release(block)
    return out


def worst_case_matrix(P: Problem, Z: np.ndarray,
                      grid: int = GRID_DEFAULT) -> np.ndarray:
    """(N, n_constraints) grid-resolution worst-case values at the rows of Z."""
    out = np.empty((len(Z), P.n_constraints))
    for i, g in enumerate(P.constraints):
        out[:, i] = worst_case_values_batch(g, Z, P.uncertainty, grid)
    return out


@dataclass
class AttainingRealization:
    """An uncertainty realization attaining the worst case at a point.

    ``extent`` is the radius of the attaining cluster around ``point`` (zero
    for an isolated maximizer); ``lower``/``upper`` bound the cluster.
    """

    point: np.ndarray
    value: float
    extent: float
    lower: np.ndarray
    upper: np.ndarray


def grid_clusters(mask: np.ndarray, shape: Sequence[int]) -> List[np.ndarray]:
    """The 8-connected components of ``mask`` on the row-major index lattice
    of ``shape``: sorted flat indices, ordered by their first member.

    Axes of length one (a zero-width box axis keeps one point) are dropped.
    On one remaining axis a component is a run of consecutive indices; on
    more, ``scipy.ndimage.label`` with a 3^k structure labels them.  Either
    way the work is linear in the lattice.
    """
    cand = np.flatnonzero(mask)
    if not len(cand):
        return []
    axes = [n for n in shape if n > 1]
    if len(axes) <= 1:
        return np.split(cand, np.flatnonzero(np.diff(cand) > 1) + 1)
    # imported here: only p >= 2 needs it, and it is slow to import
    from scipy import ndimage

    labels = ndimage.label(np.reshape(mask, axes),
                           np.ones((3,) * len(axes)))[0].ravel()[cand]
    order = np.argsort(labels, kind="stable")
    clusters = np.split(cand[order],
                        np.flatnonzero(np.diff(labels[order])) + 1)
    clusters.sort(key=lambda c: c[0])
    return clusters


class WorstCase:
    """max over u in U of e(z, u): one expression's worst case at one point.

    U's grid is swept once, on construction (not at all when U has dimension
    zero).  ``value``, ``realizations``, ``subdiff`` and ``hull`` are computed
    on first use and then kept.  Each polish is made once per start and
    handed out as a copy, so ``realizations`` reuses the polish ``value``
    made from the same grid point.
    """

    def __init__(self, e: Expr, z, U: UncertaintySet,
                 grid: int = GRID_DEFAULT):
        self.e = e
        self.z = np.asarray(z, dtype=float)
        self.U = U
        self.grid = grid
        self._polishes: Dict[bytes, Tuple[np.ndarray, float]] = {}
        if U.dim > 0:
            self.pts, self.vals = grid_sweep(e, self.z, U, grid)

    def _polish(self, u0: np.ndarray) -> Tuple[np.ndarray, float]:
        key = np.asarray(u0, dtype=float).tobytes()
        if key not in self._polishes:
            self._polishes[key] = _refine_box_max(self.e, self.z, u0, self.U)
        u, value = self._polishes[key]
        return u.copy(), value

    @cached_property
    def value(self) -> float:
        """The worst case: the grid maximum, polished on box sets."""
        if self.U.dim == 0:
            return evaluate(self.e, Point.of(self.z, np.zeros(0)))
        best_idx = int(np.argmax(self.vals))
        best = float(self.vals[best_idx])
        if self.U.kind == "box":
            best = max(best, self._polish(self.pts[best_idx])[1])
        return best

    @cached_property
    def realizations(self) -> List[AttainingRealization]:
        """Clustered realizations within ``ACTIVE_TOL`` of the grid maximum.

        On a box the candidates cluster by ``grid_clusters`` (neighbours on
        U's index lattice, diagonals included); each cluster is polished
        from its first maximum in row-major order.
        """
        if self.U.dim == 0:
            zero = np.zeros(0)
            return [AttainingRealization(zero, self.value, 0.0, zero, zero)]
        U, pts, vals = self.U, self.pts, self.vals
        vmax = float(np.max(vals))
        if U.kind == "finite":
            reps = [
                AttainingRealization(pts[i], float(vals[i]), 0.0, pts[i], pts[i])
                for i in np.flatnonzero(vals >= vmax - ACTIVE_TOL)
            ]
            reps.sort(key=lambda r: tuple(r.point))
            return reps

        shape = [1 if lo == hi else self.grid
                 for lo, hi in zip(U.lower, U.upper)]
        reps = []
        for members in grid_clusters(vals >= vmax - ACTIVE_TOL, shape):
            cluster_pts = pts[members]
            u_ref, v_ref = self._polish(
                cluster_pts[int(np.argmax(vals[members]))])
            lower = np.minimum(cluster_pts.min(axis=0), u_ref)
            upper = np.maximum(cluster_pts.max(axis=0), u_ref)
            extent = float(np.max(np.linalg.norm(cluster_pts - u_ref, axis=1),
                                  initial=0.0))
            reps.append(AttainingRealization(u_ref, v_ref, extent, lower, upper))

        # merge refined representatives that coincide
        merged: List[AttainingRealization] = []
        for rep in sorted(reps, key=lambda r: tuple(r.point)):
            for prior in merged:
                if np.max(np.abs(prior.point - rep.point), initial=0.0) <= 1e-6:
                    prior.value = max(prior.value, rep.value)
                    prior.extent = max(prior.extent, rep.extent)
                    prior.lower = np.minimum(prior.lower, rep.lower)
                    prior.upper = np.maximum(prior.upper, rep.upper)
                    break
            else:
                merged.append(rep)
        return merged

    @cached_property
    def subdiff(self) -> PolytopeUnion:
        """Union of decision-space subdifferentials at ``realizations``."""
        return _subdiff_at(self.e, self.z, self.realizations)

    @cached_property
    def hull(self) -> Polytope:
        """Convex hull of ``subdiff``."""
        return self.subdiff.hull()


def _worst_case(e: Expr, z, U: UncertaintySet, grid: int) -> WorstCase:
    """``WorstCase(e, z, U, grid)``, one per (e, U, z, grid) inside
    ``memo.shared_points()`` and a new one at every call outside it.

    The ``WorstCase`` holds ``U``, so U's id cannot pass to another set
    while the block keeps it.
    """
    z = np.asarray(z, dtype=float)
    return shared("worst_case", e, (id(U), z.tobytes(), grid),
                  lambda: WorstCase(e, z, U, grid))


def worst_case_value(e: Expr, z, U: UncertaintySet,
                     grid: int = GRID_DEFAULT) -> float:
    """max over u in U of e(z, u): ``WorstCase(e, z, U, grid).value``."""
    return _worst_case(e, z, U, grid).value


# keep the conventional short name used throughout the robust-optimization API
psi = worst_case_value


def active_uncertainty(e: Expr, z, U: UncertaintySet,
                       grid: int = GRID_DEFAULT) -> List[AttainingRealization]:
    """Realizations attaining the worst case: ``WorstCase.realizations``."""
    return _worst_case(e, z, U, grid).realizations


def worst_case_subdiff(e: Expr, z, U: UncertaintySet,
                       grid: int = GRID_DEFAULT) -> PolytopeUnion:
    """Subdifferentials at ``active_uncertainty``: ``WorstCase.subdiff``."""
    return _subdiff_at(e, np.asarray(z, dtype=float),
                       active_uncertainty(e, z, U, grid))


def _subdiff_at(e: Expr, z: np.ndarray,
                reps: Sequence[AttainingRealization]) -> PolytopeUnion:
    """Union of the decision-space subdifferentials of ``e`` at ``reps``.

    Isolated maximizers give an exact union; plateau clusters (extent above
    ``EXTENT_TOL``) are hulled from sampled endpoint subdifferentials and
    flagged as an outer estimate.
    """
    pieces: List[Polytope] = []
    outer = False
    notes: Tuple[str, ...] = ()
    for rep in reps:
        s = limiting_subdiff(e, Point.of(z, rep.point))
        local = list(s.pieces)
        if rep.extent > EXTENT_TOL:
            corners = _box_corners(rep.lower, rep.upper)
            for corner in corners:
                if np.max(np.abs(corner - rep.point), initial=0.0) <= 1e-12:
                    continue
                local.extend(limiting_subdiff(e, Point.of(z, corner)).pieces)
            local = [convex_hull_of(local)]
            outer = True
            notes = notes + (
                "attaining plateau hulled from endpoint subdifferentials",
            )
        if s.outer_estimate:
            outer = True
            notes = notes + s.notes
        pieces.extend(local)
    return PolytopeUnion(dedup_pieces(pieces), outer_estimate=outer, notes=notes)


def _box_corners(lower: np.ndarray, upper: np.ndarray) -> List[np.ndarray]:
    ranges = [
        (lo, hi) if hi > lo else (lo,) for lo, hi in zip(lower, upper)
    ]
    return [np.array(c, dtype=float) for c in itertools.product(*ranges)]


# ---------------------------------------------------------------------------
# feasibility, activity and shared point data
# ---------------------------------------------------------------------------


def constraint_values(P: Problem, z, grid: int = GRID_DEFAULT) -> np.ndarray:
    """Worst-case value of every constraint at z."""
    return np.array([worst_case_value(g, z, P.uncertainty, grid)
                     for g in P.constraints])


class PointAnalysis:
    """Worst-case and subdifferential data at one decision point.

    The analysis holds one ``WorstCase`` per constraint, so each constraint's
    uncertainty grid is swept once, on construction, and each polish of a
    grid maximizer is made once: ``psi`` (the worst-case constraint values)
    and each ``worst_cases[i].realizations`` share them.  ``psi`` is
    computed on construction; everything else on first use and then kept,
    so every consumer of one analysis shares one computation.  Nothing
    outlives the analysis.
    Activity is decided at ``ACTIVE_TOL``:

    * ``binding`` -- constraints whose worst case is within it of zero;
    * ``active_max`` -- constraints whose worst case is within it of the
      largest one.
    """

    def __init__(self, P: Problem, z, grid: int = GRID_DEFAULT):
        self.problem = P
        self.z = np.asarray(z, dtype=float)
        self.grid = grid
        self.point = Point.of(self.z)
        self.worst_cases = [WorstCase(g, self.z, P.uncertainty, grid)
                            for g in P.constraints]
        self.psi = np.array([w.value for w in self.worst_cases])

    def feasible(self, tol: float = FEAS_TOL) -> bool:
        return bool(np.all(self.psi <= tol))

    @cached_property
    def binding(self) -> List[int]:
        return [i for i, v in enumerate(self.psi) if v >= -ACTIVE_TOL]

    @cached_property
    def active_max(self) -> List[int]:
        top = float(np.max(self.psi))
        return [i for i, v in enumerate(self.psi) if v >= top - ACTIVE_TOL]

    @cached_property
    def objective_values(self) -> np.ndarray:
        return self.problem.objective_values(self.z)

    @cached_property
    def objective_subdiffs(self) -> List[PolytopeUnion]:
        return [limiting_subdiff(f, self.point)
                for f in self.problem.objectives]

    @cached_property
    def binding_hulls(self) -> List[np.ndarray]:
        """The vertex arrays of ``worst_cases[i].hull`` for each ``i`` in
        ``binding``."""
        return [self.worst_cases[i].hull.vertices for i in self.binding]


def analyze_point(P: Problem, z, grid: int = GRID_DEFAULT) -> PointAnalysis:
    """The point data of ``P`` at ``z``, one per (P, z, grid) inside
    ``memo.shared_points()`` and a new one at every call outside it."""
    z = np.asarray(z, dtype=float)
    return shared("analysis", P, (z.tobytes(), grid),
                  lambda: PointAnalysis(P, z, grid))
