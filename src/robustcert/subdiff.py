"""Limiting subdifferentials of piecewise-smooth expressions in z.

``limiting_subdiff`` returns the set of limits of nearby gradients in the
decision variables z as a finite union of polytopes, with kinks detected at
``expr.KINK_ACTIVITY_TOL``.  The engine dispatches on the structure of the
active nonsmooth atoms at the point:

* no active atom in z: gradient singleton;
* all active atoms are ``abs`` nodes sharing one argument: one-sided
  substitution gives the two boundary gradients; the kink is a convex corner
  (segment), a concave corner (two-point union), or degenerate (flagged hull);
* the expression splits as a sum: per-term recursion plus a Minkowski fold,
  exact when at most one term is nonsmooth or the nonsmooth terms touch
  disjoint variables, otherwise flagged as an outer estimate;
* a single active ``max``/``min`` atom inside a smooth frame: the chain
  coefficient decides between a convex-hull piece and a union over branches
  that actually attain nearby (selected by a small linear program);
* anything else raises ``UnsupportedComposition``.

Every returned union is exact unless its ``outer_estimate`` flag is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
# passed to lp.solve, so a wrapper installed on this binding sees every LP
from scipy.optimize import linprog

from . import lp
from .expr import (
    ActiveKinkError,
    DomainError,
    Expr,
    MaxOp,
    Point,
    collect_terms,
    combine_weighted,
    decompose_sum,
    evaluate,
    free_var_indices,
    gradient_with_hole,
    grad_smooth,
    relevant_kink_atoms,
    scaled_term,
    substitute_abs_class,
    to_source,
)
from .polytope import Polytope, PolytopeUnion, dedup_pieces, dedup_rows, singleton

# gradient differences below this are treated as identical
GRAD_EQ_TOL = 1e-12
# attainment LP margin: branches with first-order advantage above this are
# certainly attained, below the negative of it certainly not
ATTAIN_TOL = 1e-9


class UnsupportedComposition(Exception):
    """Expression structure outside the exact/outer cases handled here."""

    def __init__(self, parts: Sequence[Expr]):
        names = ", ".join(f"'{to_source(p)}'" for p in parts)
        super().__init__(f"unsupported nonsmooth composition: {names}")
        self.parts = tuple(parts)


def limiting_subdiff(e: Expr, pt: Point) -> PolytopeUnion:
    """Limiting subdifferential in z of ``e`` at ``pt``, a union of polytopes."""
    atoms = relevant_kink_atoms(e, pt, "decision")

    # Case 1: smooth in z.
    if not atoms:
        try:
            return singleton(grad_smooth(e, pt))
        except ActiveKinkError:
            # an atom with formally tied branches whose gradients differ is
            # possible when branch values tie without being reported relevant;
            # fall through to the structural cases
            pass

    # Case 2: every relevant atom is abs of one shared argument.
    if atoms and all(a.kind == "abs" for a in atoms):
        keys = {to_source(a.node.arg) for a in atoms}
        if len(keys) == 1:
            result = _abs_class_case(e, pt, next(iter(keys)),
                                     atoms[0].node.arg)
            if result is not None:
                return result

    # Case 3: additive split with per-term recursion.
    result = _sum_case(e, pt)
    if result is not None:
        return result

    # Case 4: a single max/min atom inside a smooth frame.
    if len(atoms) == 1 and atoms[0].kind in ("max", "min"):
        result = _branch_case(e, pt, atoms[0])
        if result is not None:
            return result

    raise UnsupportedComposition([a.node for a in atoms] or [e])


def _grad_or_none(e: Expr, pt: Point):
    try:
        return grad_smooth(e, pt)
    except (ActiveKinkError, DomainError):
        return None


def _abs_class_case(e, pt, key, arg) -> Optional[PolytopeUnion]:
    """One-sided substitution for a single shared abs argument class."""
    g_right = _grad_or_none(substitute_abs_class(e, key, +1), pt)
    g_left = _grad_or_none(substitute_abs_class(e, key, -1), pt)
    grad_arg = _grad_or_none(arg, pt)
    if g_right is None or g_left is None or grad_arg is None:
        return None
    if np.max(np.abs(g_right - g_left), initial=0.0) <= GRAD_EQ_TOL:
        return singleton(g_right)
    steepness = float((g_right - g_left) @ grad_arg)
    if steepness > GRAD_EQ_TOL:
        # convex corner: all intermediate gradient limits occur
        return PolytopeUnion([Polytope(np.vstack([g_left, g_right]))])
    if steepness < -GRAD_EQ_TOL:
        # concave corner: only the two one-sided gradients occur
        return PolytopeUnion([Polytope(g_left), Polytope(g_right)])
    return PolytopeUnion(
        [Polytope(np.vstack([g_left, g_right]))],
        outer_estimate=True,
        notes=("degenerate kink: one-sided gradients differ but the kink "
               "argument is stationary; hull kept as outer estimate",),
    )


def _sum_case(e, pt) -> Optional[PolytopeUnion]:
    terms, _const = decompose_sum(e)
    terms = collect_terms(terms)
    if not terms:
        return singleton(np.zeros(len(pt.z)))
    rebuilt = [scaled_term(c, t) for c, t in terms]
    if len(terms) == 1 and rebuilt[0] == e:
        return None  # no structural progress; let another case handle it
    return _fold(rebuilt, pt,
                 "sum rule over coupled nonsmooth terms: outer estimate")


def _fold(terms, pt, note: str) -> PolytopeUnion:
    """Minkowski sum of the terms' subdifferentials.

    Exact when the nonsmooth terms touch pairwise disjoint variables;
    otherwise flagged as an outer estimate with ``note`` appended.
    """
    parts = [limiting_subdiff(t, pt) for t in terms]
    nonsmooth_vars = [
        free_var_indices(t, "z")
        for t, part in zip(terms, parts)
        if _is_nonsingleton(part)
    ]
    out = parts[0]
    for part in parts[1:]:
        out = out.minkowski_sum(part)
    if not _pairwise_disjoint(nonsmooth_vars) and not out.outer_estimate:
        out = PolytopeUnion(out.pieces, outer_estimate=True,
                            notes=out.notes + (note,))
    return out


def _branch_case(e, pt, atom) -> Optional[PolytopeUnion]:
    node = atom.node
    hole_value = evaluate(node, pt)
    try:
        base, chain = gradient_with_hole(e, pt, node, hole_value)
    except (ActiveKinkError, DomainError):
        return None
    branch_grads = []
    for i in atom.active_branches:
        g = _grad_or_none(node.args[i], pt)
        if g is None:
            return None
        branch_grads.append(g)
    unique = dedup_rows(branch_grads, GRAD_EQ_TOL)
    if abs(chain) <= GRAD_EQ_TOL:
        # the atom does not influence the value to first order; nearby
        # gradients all converge to the frame gradient
        return singleton(base)
    if len(unique) == 1:
        return singleton(base + chain * unique[0])
    is_max = isinstance(node, MaxOp)
    hull_type = (is_max and chain > 0) or ((not is_max) and chain < 0)
    if hull_type:
        verts = np.array([base + chain * g for g in unique])
        return PolytopeUnion([Polytope(verts)])
    # union type: keep only branches that attain the extremum on a
    # full-dimensional nearby region (first-order test via LP)
    pieces = []
    flagged = False
    for j, gj in enumerate(unique):
        others = [g for k, g in enumerate(unique) if k != j]
        margin = _attain_margin(gj, others, is_max)
        if margin < -ATTAIN_TOL:
            continue
        if margin <= ATTAIN_TOL:
            flagged = True
        pieces.append(Polytope(base + chain * gj))
    if not pieces:  # numerically everything excluded; keep all, flag
        pieces = [Polytope(base + chain * g) for g in unique]
        flagged = True
    notes = (
        ("first-order attainment test degenerate for some branches; "
         "kept as outer estimate",)
        if flagged
        else ()
    )
    return PolytopeUnion(dedup_pieces(pieces), outer_estimate=flagged,
                         notes=notes)


def _attain_margin(gj: np.ndarray, others: List[np.ndarray], is_max: bool) -> float:
    """Best first-order advantage of branch j over all rivals inside the unit box.

    Positive: there is a direction where j strictly wins the max (resp. min),
    so branch j's gradient is a genuine gradient limit.  Negative: j never
    attains near the point, to first order.
    """
    dim = len(gj)
    # maximize eta s.t. diff_k . v >= eta, |v|_inf <= 1
    c = np.zeros(dim + 1)
    c[-1] = -1.0
    rows = []
    for g in others:
        diff = (gj - g) if is_max else (g - gj)
        rows.append(np.concatenate([-diff, [1.0]]))
    A_ub = np.array(rows)
    b_ub = np.zeros(len(rows))
    bounds = [(-1.0, 1.0)] * dim + [(None, None)]
    res = lp.solve(linprog, c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)
    if not res.success:  # pragma: no cover - tiny LPs should always solve
        return 0.0
    return float(-res.fun)


def _is_nonsingleton(u: PolytopeUnion) -> bool:
    return len(u.pieces) > 1 or len(u.pieces[0].vertices) > 1


def _pairwise_disjoint(sets) -> bool:
    seen = set()
    for s in sets:
        if seen & s:
            return False
        seen |= s
    return True


# ---------------------------------------------------------------------------
# scalarized subdifferentials
# ---------------------------------------------------------------------------


@dataclass
class ScalarizedSubdiff:
    """Subdifferential of a weighted objective combination, two routes.

    ``exact`` is present when symbolic combination (with cancellation of
    identical kinked terms) produced an unflagged union; ``outer`` is the
    always-available Minkowski fold of the per-objective subdifferentials,
    flagged outer unless the usual sum-rule exactness conditions hold.
    """

    exact: Optional[PolytopeUnion]
    outer: PolytopeUnion

    @property
    def best(self) -> PolytopeUnion:
        return self.exact if self.exact is not None else self.outer


def scalarized_subdiff(weights, exprs: Sequence[Expr],
                       pt: Point) -> ScalarizedSubdiff:
    weights = [float(w) for w in weights]
    if len(weights) != len(exprs):
        raise ValueError("one weight per expression is required")

    # outer route: fold per-term subdifferentials of w_i * f_i
    active = [scaled_term(w, f) for w, f in zip(weights, exprs) if w != 0.0]
    if active:
        outer = _fold(active, pt,
                      "per-objective fold over coupled nonsmooth terms")
    else:
        outer = singleton(np.zeros(len(pt.z)))

    # exact route: symbolic combination first, so identical kinks cancel
    exact: Optional[PolytopeUnion]
    try:
        combined = limiting_subdiff(combine_weighted(weights, exprs), pt)
        exact = None if combined.outer_estimate else combined
    except UnsupportedComposition:
        exact = None
    return ScalarizedSubdiff(exact=exact, outer=outer)
