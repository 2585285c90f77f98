"""Finite vertex-represented polytopes and finite unions of them.

Polytopes here are convex hulls of explicit vertex lists in R^n.  Membership
and distance queries use Wolfe's min-norm-point algorithm on the translated
hull, which is reliable for the small vertex counts this toolkit produces.
Unions of polytopes carry an ``outer_estimate`` flag: when False the union is
claimed exact, when True it is only guaranteed to be a superset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

# default membership slack for contains()
CONTAINS_TOL = 1e-8
# singular values below this (relative to the largest) do not count toward
# the affine rank when reducing to extreme points
RANK_REL_TOL = 1e-9
# vertices closer than this are merged during deduplication
DEDUP_TOL = 1e-12
# Wolfe's min-norm point stops when no vertex improves on the current point
# by more than this (relative to 1 + |x|^2), or after this many major cycles
# (and as many minor cycles in each)
WOLFE_TOL = 1e-12
WOLFE_MAX_ITER = 1000


def dedup_rows(rows, tol: float = DEDUP_TOL) -> np.ndarray:
    """Rows of ``rows`` (n, d) in order, dropping each row within ``tol``
    (max-norm) of an earlier kept row.

    Each row is compared with all kept rows at once; zero-width rows count
    as duplicates of the first.
    """
    R = np.asarray(rows, dtype=float)
    kept = np.empty_like(R)
    n_kept = 0
    for row in R:
        gaps = np.max(np.abs(kept[:n_kept] - row), axis=1, initial=0.0)
        if not np.any(gaps <= tol):
            kept[n_kept] = row
            n_kept += 1
    return kept[:n_kept]


def min_norm_point(vertices: np.ndarray) -> np.ndarray:
    """Point of minimum Euclidean norm in conv(vertices) (Wolfe's algorithm)."""
    V = np.asarray(vertices, dtype=float)
    if V.ndim == 1:
        V = V[None, :]
    m = len(V)
    if m == 1:
        return V[0].copy()
    norms2 = np.einsum("ij,ij->i", V, V)
    S = [int(np.argmin(norms2))]
    w = np.array([1.0])
    for _ in range(WOLFE_MAX_ITER):
        x = w @ V[S]
        xx = float(x @ x)
        scores = V @ x
        j = int(np.argmin(scores))
        if scores[j] >= xx - WOLFE_TOL * (1.0 + xx):
            break
        if j in S:
            break
        S.append(j)
        w = np.append(w, 0.0)
        # minor cycle: restrict to the affine minimizer over the current corral
        for _ in range(WOLFE_MAX_ITER):
            VS = V[S]
            k = len(S)
            G = VS @ VS.T
            A = np.zeros((k + 1, k + 1))
            A[:k, :k] = G
            A[:k, k] = 1.0
            A[k, :k] = 1.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
            a = sol[:k]
            if np.all(a > 1e-12):
                w = a
                break
            # step toward a until the first weight hits zero, then drop it
            mask = a <= 1e-12
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(mask, w / np.maximum(w - a, 1e-300), np.inf)
            theta = float(min(1.0, np.min(ratios)))
            w = w + theta * (a - w)
            keep = w > 1e-12
            if keep.all():
                w[np.argmin(w)] = 0.0
                keep = w > 1e-12
            S = [s for s, flag in zip(S, keep) if flag]
            w = w[keep]
            w = w / w.sum()
            if len(S) == 1:
                break
    return w @ V[S]


def extreme_points(points: np.ndarray) -> np.ndarray:
    """Reduce a point list to the extreme points of its convex hull.

    Uses the affine rank (SVD): dimension 0 keeps one point, dimension 1 keeps
    the two endpoints of the projection, dimension >= 2 projects onto an
    affine basis and runs qhull.  If qhull fails the deduplicated input is
    returned unchanged, which is a valid (if redundant) vertex list.
    """
    P = dedup_rows(points)
    if len(P) <= 2:
        return P
    center = P.mean(axis=0)
    A = P - center
    _, s, Vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > RANK_REL_TOL * max(s[0], 1e-300)))
    if s[0] <= 1e-12:
        rank = 0
    if rank == 0:
        return P[:1]
    if rank == 1:
        t = A @ Vt[0]
        return P[[int(np.argmin(t)), int(np.argmax(t))]]
    coords = A @ Vt[:rank].T
    try:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(coords)
        idx = np.sort(hull.vertices)
        return P[idx]
    except Exception:
        return P


@dataclass
class Polytope:
    """Convex hull of finitely many points (vertex representation)."""

    vertices: np.ndarray

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim == 1:
            V = V[None, :]
        if V.size == 0:
            raise ValueError("a polytope needs at least one vertex")
        self.vertices = dedup_rows(V)

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def reduced(self) -> "Polytope":
        return Polytope(extreme_points(self.vertices))

    def support(self, direction) -> float:
        return float(np.max(self.vertices @ np.asarray(direction, dtype=float)))

    def distance(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(min_norm_point(self.vertices - x)))

    def contains(self, x, tol: float = CONTAINS_TOL) -> bool:
        return self.distance(x) <= tol

    def scale(self, c: float) -> "Polytope":
        """Pointwise image c * P (for c < 0 this reflects the hull)."""
        return Polytope(self.vertices * float(c))

    def minkowski_sum(self, other: "Polytope") -> "Polytope":
        sums = (self.vertices[:, None, :] + other.vertices[None, :, :]).reshape(
            -1, self.dim
        )
        return Polytope(extreme_points(sums))

    def sorted_vertices(self) -> np.ndarray:
        order = np.lexsort(self.vertices.T[::-1])
        return self.vertices[order]

    def to_jsonable(self) -> dict:
        return {"vertices": [[float(v) for v in row] for row in self.sorted_vertices()]}

    @staticmethod
    def from_jsonable(data: dict) -> "Polytope":
        return Polytope(np.asarray(data["vertices"], dtype=float))


def convex_hull_of(polys: Sequence[Polytope]) -> Polytope:
    """Closed convex hull of a finite union of polytopes."""
    stacked = np.vstack([p.vertices for p in polys])
    return Polytope(extreme_points(stacked))


@dataclass
class PolytopeUnion:
    """Finite union of polytopes, optionally only an outer estimate.

    ``notes`` records why an estimate is outer (one short reason per event).
    """

    pieces: List[Polytope]
    outer_estimate: bool = False
    notes: Tuple[str, ...] = ()

    def __init__(self, pieces: Iterable[Polytope], outer_estimate: bool = False,
                 notes: Tuple[str, ...] = ()):
        self.pieces = list(pieces)
        if not self.pieces:
            raise ValueError("a union needs at least one piece")
        self.outer_estimate = bool(outer_estimate)
        self.notes = tuple(notes)

    @property
    def dim(self) -> int:
        return self.pieces[0].dim

    def contains(self, x, tol: float = CONTAINS_TOL) -> bool:
        return any(p.contains(x, tol) for p in self.pieces)

    def distance(self, x) -> float:
        return min(p.distance(x) for p in self.pieces)

    def support(self, direction) -> float:
        return max(p.support(direction) for p in self.pieces)

    def hull(self) -> Polytope:
        return convex_hull_of(self.pieces)

    def scale(self, c: float) -> "PolytopeUnion":
        return PolytopeUnion(
            [p.scale(c) for p in self.pieces], self.outer_estimate, self.notes
        )

    def minkowski_sum(self, other: "PolytopeUnion") -> "PolytopeUnion":
        pieces = [
            a.minkowski_sum(b) for a in self.pieces for b in other.pieces
        ]
        return PolytopeUnion(
            dedup_pieces(pieces),
            self.outer_estimate or other.outer_estimate,
            self.notes + other.notes,
        )

    def all_vertices(self) -> np.ndarray:
        return np.vstack([p.vertices for p in self.pieces])

    def to_jsonable(self) -> dict:
        rendered = [p.reduced().to_jsonable() for p in self.pieces]
        rendered.sort(key=lambda d: d["vertices"])
        out = {"pieces": rendered}
        if self.outer_estimate:
            out["outer_estimate"] = True
            if self.notes:
                out["notes"] = list(self.notes)
        return out

    @staticmethod
    def from_jsonable(data: dict) -> "PolytopeUnion":
        return PolytopeUnion(
            [Polytope.from_jsonable(p) for p in data["pieces"]],
            bool(data.get("outer_estimate", False)),
            tuple(data.get("notes", ())),
        )


def dedup_pieces(pieces: Sequence[Polytope]) -> List[Polytope]:
    """Drop pieces that are subsets of an earlier/larger piece (cheap cases)."""
    reduced = [p.reduced() for p in pieces]
    kept: List[Polytope] = []
    for p in reduced:
        absorbed = False
        for q in kept:
            if len(p.vertices) <= len(q.vertices) and all(
                q.contains(v, 1e-12) for v in p.vertices
            ):
                absorbed = True
                break
        if not absorbed:
            kept = [
                q
                for q in kept
                if not (
                    len(q.vertices) <= len(p.vertices)
                    and all(p.contains(v, 1e-12) for v in q.vertices)
                )
            ]
            kept.append(p)
    return kept


def singleton(x) -> PolytopeUnion:
    return PolytopeUnion([Polytope(np.asarray(x, dtype=float))])
