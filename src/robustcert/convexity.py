"""Sampling-based classification of generalized convexity at a point.

The sufficiency rules for robust efficiency consume three premises about the
problem's behavior around a candidate point:

* pseudo-convexity of every dual-weighted objective combination: a weighted
  value drop from the point forces every subgradient of the combination to
  point strictly away from the sample;
* the strict variant, where even a weighted tie (at a distinct sample) forces
  strictly negative subgradient alignment;
* quasi-convexity of each binding worst-case constraint: a sample that does
  not increase the worst case never sees positively aligned subgradients.

These are universally quantified statements, so sampling can only *refute*
them.  The checkers scan feasible decision samples against a full grid of
dual-cone weight mixtures using support functions of the same
per-objective subdifferential sets the certificate machinery builds; a found
violation is revalidated point by point before being reported.  A verdict of
``not-refuted`` is evidence at the stated budget, not a proof.

Sample stream: every fourth candidate walks a deterministic dyadic lattice
over the decision box (integer coordinates first, then halves, quarters, ...),
the rest are uniform draws from a fixed-seed PCG64 generator.  The lattice
guarantees that structured rational points — where piecewise-linear ties
typically live — are reached deterministically.

The stream, its worst-case and objective values and the dual weight grid do
not depend on the point, so each process keeps them, read-only: the stream a
``CHUNK`` of rows at a time, each chunk per problem content, seed, ``ugrid``
and place in the stream and evaluated when a scan first reaches it, and the
weight grid per cone.  Only the point-dependent part of a scan — steps,
value changes, support matrices, the first violation and its revalidation —
runs at every call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .constraints import (
    FEAS_TOL,
    GRID_DEFAULT,
    PointAnalysis,
    Problem,
    analyze_point,
    worst_case_matrix,
    worst_case_values_batch,
)
from .polytope import dedup_rows
from .kkt import _simplex_indices
from .memo import LruMemo, cone_key, content_key

# premise tolerances: strict decrease must clear this, ties may sit within it
PREMISE_TOL = 1e-12
# support margin that counts as a violation for pseudo / strict pseudo
SUPPORT_TOL = 1e-12
# support margin that counts as a violation for quasi (looser: grid noise)
QUASI_SUPPORT_TOL = 1e-9
# samples closer than this to the reference point are skipped for strictness
SAME_POINT_TOL = 1e-12

DEFAULT_SAMPLES = 2000
# the sample stream's seed when none is given, in the library and the CLI
DEFAULT_SEED = 42
# the dual weight grid's steps per simplex edge (a verdict's ``resolution``)
DEFAULT_Y_EDGE = 24
CHUNK = 1000
# elements (sample rows x weights) of one weighted product, 128 KiB: blocks
# this small are reused from the heap, where blocks of about 700 KB (three
# objectives) were mapped afresh, 240k-360k page faults over a loop of 688
# reports; and with m <= 16 objectives a product takes at most 2**18
# multiply-adds, which OpenBLAS keeps on the calling thread (a worker thread
# it wakes spins for a while after each product, taking CPU from the caller
# on a busy host)
PRODUCT_ELEMENTS = 2**14
# per-process memos, the least recently used entry dropped first: sample
# chunks per (problem content, seed, ugrid, first index, length), each about
# 57 kB at d = 2 with three objectives and two constraints, and weight grids
# per cone
CHUNK_ENTRIES = 32
WEIGHT_GRID_ENTRIES = 8

PSEUDO = "pseudo"
STRICT = "strict"
QUASI = "quasi"


@dataclass
class ConvexityWitness:
    z: np.ndarray
    y: Optional[np.ndarray]  # weight mixture, None for per-constraint checks
    part: str                # 'objectives' or 'constraint <i>'
    delta: float             # weighted value change (premise side)
    support: float           # subgradient support value (conclusion side)
    sample_index: int


@dataclass
class Verdict:
    status: str              # 'refuted' | 'not-refuted'
    samples_used: int
    resolution: int          # weight-grid edge count
    witness: Optional[ConvexityWitness] = None

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"


@dataclass
class TypeClassification:
    type_i: Verdict
    type_ii: Verdict


# ---------------------------------------------------------------------------
# sample stream
# ---------------------------------------------------------------------------


def _row_major(axes: Sequence[Sequence]) -> Iterator[tuple]:
    """The product of ``axes``, first axis slowest, one tuple at a time.

    Unlike ``itertools.product`` it never copies an axis, so a ``range`` of
    any length takes no memory.
    """
    if not axes:
        yield ()
        return
    for k in axes[0]:
        for rest in _row_major(axes[1:]):
            yield (k,) + rest


def dyadic_lattice(lower, upper) -> Iterator[np.ndarray]:
    """Deterministic sweep: integer points, then odd multiples of 1/2, 1/4, ...

    Row-major within each refinement level (first coordinate slowest), each
    level enumerated lazily, so the memory taken does not grow with the
    width of the box.  Axes with zero width stay pinned and do not
    participate in the novelty test.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    free = [j for j in range(len(lower)) if upper[j] > lower[j]]
    if not free:
        yield lower.copy()
        return
    for level in itertools.count():
        step = 1.0 if level == 0 else 2.0 ** (-level)
        axis_ks = []
        for j in range(len(lower)):
            if j not in free:
                axis_ks.append((None,))
                continue
            k_lo = math.ceil(lower[j] / step - 1e-12)
            k_hi = math.floor(upper[j] / step + 1e-12)
            axis_ks.append(range(k_lo, k_hi + 1))
        if not all(axis_ks):
            continue
        for combo in _row_major(axis_ks):
            if level > 0 and not any(
                k is not None and k % 2 != 0 for k in combo
            ):
                continue  # already produced at a coarser level
            pt = np.array(
                [
                    lower[j] if k is None else k * step
                    for j, k in enumerate(combo)
                ]
            )
            yield pt
        if level > 30:
            return


def _candidate_stream(P: Problem, seed: int) -> Iterator[np.ndarray]:
    lattice = dyadic_lattice(P.box_lower, P.box_upper)
    rng = np.random.default_rng(seed)
    width = P.box_upper - P.box_lower
    for index in itertools.count():
        if index % 4 == 0:
            pt = next(lattice, None)
            if pt is not None:
                yield pt
                continue
        yield P.box_lower + width * rng.uniform(size=P.decision_dim)


@dataclass(frozen=True)
class _Samples:
    """Consecutive stream rows with the values every scan of them reads."""

    Z: np.ndarray      # (n, d) candidates
    psi: np.ndarray    # (n, n_constraints) grid worst-case values
    feas: np.ndarray   # (n,) robust feasible
    F: np.ndarray      # (n, m) objective values, NaN at infeasible rows


def _evaluate_samples(P: Problem, Z: np.ndarray, ugrid: int) -> _Samples:
    """The candidates ``Z`` with their values, all four arrays read-only."""
    psi = worst_case_matrix(P, Z, ugrid)
    feas = np.all(psi <= FEAS_TOL, axis=1)
    F = np.full((len(Z), P.n_objectives), np.nan)
    if np.any(feas):
        F[feas] = P.objective_values_batch(Z[feas])
    for a in (Z, psi, feas, F):
        a.setflags(write=False)
    return _Samples(Z, psi, feas, F)


_chunks = LruMemo(CHUNK_ENTRIES)


def _sample_chunks(P: Problem, seed: int, ugrid: int, samples: int
                   ) -> Iterator[Tuple[int, _Samples]]:
    """(first sample index, rows) of each ``CHUNK`` of the first ``samples``.

    Each chunk is memoized on (P's content, seed, ugrid, first index, length)
    and evaluated only when the scan first asks for it.  The chunks that miss
    draw from one candidate stream, skipping the rows of those that hit.
    """
    key = content_key(P)
    stream = _candidate_stream(P, seed)
    drawn = 0
    for start in range(0, samples, CHUNK):
        n = min(CHUNK, samples - start)

        def build() -> _Samples:
            nonlocal drawn
            skip = start - drawn
            Z = np.array(list(itertools.islice(stream, skip, skip + n)))
            drawn = start + n
            return _evaluate_samples(P, Z, ugrid)

        yield start, _chunks.get((key, seed, ugrid, start, n), build)


# ---------------------------------------------------------------------------
# weight grid
# ---------------------------------------------------------------------------


def _build_weight_grid(P: Problem) -> np.ndarray:
    rays = P.cone.dual_rays()
    lam = (_simplex_indices(len(rays), DEFAULT_Y_EDGE).astype(float)
           / DEFAULT_Y_EDGE)
    Y = dedup_rows(lam @ rays, 1e-12)
    Y.setflags(write=False)
    return Y


_weight_grids = LruMemo(WEIGHT_GRID_ENTRIES)


def dual_weight_grid(P: Problem) -> np.ndarray:
    """Simplex mixtures of the dual cone's extreme rays, in scan order, in
    steps of ``1 / DEFAULT_Y_EDGE``.

    Memoized per process on the cone; the array is read-only.
    """
    return _weight_grids.get(cone_key(P.cone), lambda: _build_weight_grid(P))


# ---------------------------------------------------------------------------
# scan core
# ---------------------------------------------------------------------------


def _support_matrix(W: np.ndarray, stacks: Sequence[np.ndarray]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample max and min of <v, w> over each stacked vertex set."""
    smax = np.empty((len(W), len(stacks)))
    smin = np.empty((len(W), len(stacks)))
    for j, V in enumerate(stacks):
        M = W @ V.T
        smax[:, j] = M.max(axis=1)
        smin[:, j] = M.min(axis=1)
    return smax, smin


def _first_hit(mask: np.ndarray) -> Optional[Tuple[int, int]]:
    """(row, column) of the first True entry in row-major order."""
    flat = np.flatnonzero(mask.ravel())
    if len(flat) == 0:
        return None
    r, c = divmod(int(flat[0]), mask.shape[1])
    return r, c


def _objective_stacks(analysis: PointAnalysis) -> List[np.ndarray]:
    return [u.all_vertices() for u in analysis.objective_subdiffs]


def _scan(P: Problem, z, kinds: Sequence[str], samples: int, seed: int,
          grid: int
          ) -> Tuple[Dict[str, Optional[ConvexityWitness]], Dict[str, int]]:
    z = np.asarray(z, dtype=float)
    a = analyze_point(P, z, grid)
    obj_stacks = _objective_stacks(a)
    Y = dual_weight_grid(P)
    Yp = np.maximum(Y, 0.0)
    Ym = np.minimum(Y, 0.0)
    block = max(1, PRODUCT_ELEMENTS // len(Y))

    found: Dict[str, Optional[ConvexityWitness]] = {k: None for k in kinds}
    used: Dict[str, int] = {k: samples for k in kinds}
    # the next chunk is evaluated only while some kind is still unrefuted
    for start, rows in _sample_chunks(P, seed, grid, samples):
        feas = rows.feas
        if not np.any(feas):
            continue
        Zf = rows.Z[feas]
        idxf = start + np.flatnonzero(feas)
        W = Zf - z[None, :]
        Fd = rows.F[feas] - a.objective_values[None, :]
        smax, smin = _support_matrix(W, obj_stacks)
        not_same = np.max(np.abs(W), axis=1) > SAME_POINT_TOL

        # value changes and supports (rows, n_y) a block of rows at a time,
        # in row order, until every weighted kind has its first violation
        for lo in range(0, len(Zf), block):
            weighted = [k for k in (PSEUDO, STRICT)
                        if k in kinds and found[k] is None]
            if not weighted:
                break
            part = slice(lo, lo + block)
            Delta = Fd[part] @ Y.T
            S = smax[part] @ Yp.T + smin[part] @ Ym.T
            for kind in weighted:
                premise = (Delta < -PREMISE_TOL if kind == PSEUDO else
                           (Delta <= PREMISE_TOL) & not_same[part, None])
                hit = _first_hit(premise & (S >= -SUPPORT_TOL))
                if hit is not None:
                    r, c = hit
                    found[kind] = ConvexityWitness(
                        Zf[lo + r], Y[c].copy(), "objectives",
                        float(Delta[r, c]), float(S[r, c]),
                        int(idxf[lo + r]),
                    )
                    used[kind] = int(idxf[lo + r]) + 1
        if QUASI in kinds and found[QUASI] is None and a.binding:
            psi_mat = rows.psi[feas][:, a.binding]
            cmax, _ = _support_matrix(W, a.binding_hulls)
            premise = psi_mat <= a.psi[a.binding][None, :] + PREMISE_TOL
            hit = _first_hit(premise & (cmax >= QUASI_SUPPORT_TOL))
            if hit is not None:
                r, c = hit
                i = a.binding[c]
                found[QUASI] = ConvexityWitness(
                    Zf[r], None, f"constraint {i + 1}",
                    float(psi_mat[r, c] - a.psi[i]),
                    float(cmax[r, c]), int(idxf[r]),
                )
                used[QUASI] = int(idxf[r]) + 1
        if all(found[k] is not None for k in kinds):
            break

    for kind, wit in found.items():
        if wit is not None:
            _revalidate(P, z, a, kind, wit, grid)
    return found, used


def _revalidate(P: Problem, z, analysis: PointAnalysis, kind: str,
                wit: ConvexityWitness, grid: int) -> None:
    """Recompute the witness inequalities point by point; raise on mismatch."""
    w = wit.z - z
    if kind in (PSEUDO, STRICT):
        f_val = P.objective_values(wit.z)
        delta = float((f_val - analysis.objective_values) @ wit.y)
        support = 0.0
        for j, V in enumerate(_objective_stacks(analysis)):
            yj = wit.y[j]
            s = float(np.max(V @ w)) if yj >= 0 else float(np.min(V @ w))
            support += yj * s
        premise = (
            delta < -PREMISE_TOL if kind == PSEUDO
            else delta <= PREMISE_TOL and np.max(np.abs(w)) > SAME_POINT_TOL
        )
        ok = premise and support >= -SUPPORT_TOL
    else:
        i = int(wit.part.split()[-1]) - 1
        psi_val = float(
            worst_case_values_batch(
                P.constraints[i], wit.z[None, :], P.uncertainty, grid
            )[0]
        )
        premise = psi_val <= analysis.psi[i] + PREMISE_TOL
        support = float(np.max(analysis.worst_cases[i].hull.vertices @ w))
        ok = premise and support >= QUASI_SUPPORT_TOL
    if not ok:
        raise RuntimeError(
            f"convexity witness failed revalidation ({kind} at {wit.z})"
        )


def revalidate_witness(P: Problem, z, witness: ConvexityWitness, kind: str,
                       grid: int = GRID_DEFAULT) -> None:
    """Recheck a supplied witness from freshly computed data.

    Accepts externally constructed witnesses (the ``delta``/``support``
    fields are recomputed, not trusted).  Raises RuntimeError when the
    witness does not refute ``kind`` at the reference point ``z``.  The
    point data is built here, never shared from ``memo.shared_points()``.
    """
    if kind not in (PSEUDO, STRICT, QUASI):
        raise ValueError(f"unknown convexity kind {kind!r}")
    z = np.asarray(z, dtype=float)
    _revalidate(P, z, PointAnalysis(P, z, grid), kind, witness, grid)


def _verdict(found: Optional[ConvexityWitness], used: int) -> Verdict:
    if found is None:
        return Verdict("not-refuted", used, DEFAULT_Y_EDGE)
    return Verdict("refuted", used, DEFAULT_Y_EDGE, found)


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------


def check_pseudo_convex(P: Problem, z, samples: int = DEFAULT_SAMPLES,
                        seed: int = DEFAULT_SEED,
                        grid: int = GRID_DEFAULT) -> Verdict:
    """Search for a weighted value drop with non-negative subgradient support."""
    found, used = _scan(P, z, [PSEUDO], samples, seed, grid)
    return _verdict(found[PSEUDO], used[PSEUDO])


def check_strictly_pseudo_convex(P: Problem, z, samples: int = DEFAULT_SAMPLES,
                                 seed: int = DEFAULT_SEED,
                                 grid: int = GRID_DEFAULT) -> Verdict:
    """Like the pseudo check, but a weighted tie at a distinct point also counts."""
    found, used = _scan(P, z, [STRICT], samples, seed, grid)
    return _verdict(found[STRICT], used[STRICT])


def check_generalized_quasi_convex(P: Problem, z,
                                   samples: int = DEFAULT_SAMPLES,
                                   seed: int = DEFAULT_SEED,
                                   grid: int = GRID_DEFAULT) -> Verdict:
    """Search binding constraints for non-increasing samples with positive support."""
    found, used = _scan(P, z, [QUASI], samples, seed, grid)
    return _verdict(found[QUASI], used[QUASI])


def classify_type(P: Problem, z, samples: int = DEFAULT_SAMPLES,
                  seed: int = DEFAULT_SEED,
                  grid: int = GRID_DEFAULT) -> TypeClassification:
    """Joint classification consumed by the sufficiency rules.

    The first premise bundle pairs pseudo-convex weighted objectives with
    quasi-convex binding constraints; the second strengthens the objective
    side to the strict variant.  One shared sample stream feeds all three
    underlying scans, which read ``analyze_point(P, z, grid)``, shared
    inside ``memo.shared_points()``.
    """
    found, used = _scan(P, z, [PSEUDO, STRICT, QUASI], samples, seed, grid)
    pseudo, strict, quasi = (_verdict(found[k], used[k])
                             for k in (PSEUDO, STRICT, QUASI))

    def combine(obj: Verdict, con: Verdict) -> Verdict:
        candidates = [v for v in (obj, con) if v.refuted]
        if not candidates:
            return _verdict(None, max(obj.samples_used, con.samples_used))
        best = min(candidates, key=lambda v: v.witness.sample_index)
        return _verdict(best.witness, best.samples_used)

    return TypeClassification(combine(pseudo, quasi), combine(strict, quasi))
