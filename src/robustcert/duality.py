"""Dual triples for the worst-case problem and duality diagnostics.

A dual triple bundles a decision-space point with objective weights from the
dual cone and nonnegative constraint multipliers.  Feasibility of a triple
requires stationarity of the weighted subdifferential combination at the
triple's point and a sign condition on the multiplier-weighted constraint
values there.

The sign condition has two readings.  The default one evaluates each
constraint at its worst-case attaining realizations (the same witnesses a
certificate carries); the strict one demands the signed product stay
nonnegative for every realization on the uncertainty grid.  The readings
genuinely differ: a triple built from a certificate is feasible under the
default reading but can fail the strict one when a binding constraint dips
negative away from its worst case.

``weak_duality_test`` scans the feasible primal grid for value vectors that
improperly dominate the triple's value vector; ``strong_duality_construct``
turns a certificate into a triple; ``converse_duality_check`` confirms that a
feasible triple point is weakly efficient by brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .constraints import (
    FEAS_TOL,
    GRID_DEFAULT,
    Problem,
    ProblemFormatError,
    _worst_case,
    analyze_point,
    grid_sweep,
    worst_case_value,
)
from .efficiency import EFFICIENCY_GRID, certify_weak, first_dominator
from .kkt import (MU_ZERO_TOL, RESIDUAL_TOL, KktCertificate,
                  stationarity_distance)
from .memo import shared
from .problem_io import _numbers


@dataclass
class DualTriple:
    point: np.ndarray        # decision-space dual point
    weights: np.ndarray      # objective weights in the dual cone
    multipliers: np.ndarray  # nonnegative constraint multipliers

    def to_jsonable(self) -> dict:
        return {
            "y": [float(v) for v in self.point],
            "y_star": [float(v) for v in self.weights],
            "mu": [float(v) for v in self.multipliers],
        }

    @staticmethod
    def from_jsonable(data: dict) -> "DualTriple":
        """The triple ``{"y": [...], "y_star": [...], "mu": [...]}``.

        Raises ProblemFormatError unless each field is a flat list of finite
        numbers; ``true`` and ``false`` are refused, as in a problem file.
        """
        if not isinstance(data, dict):
            raise ProblemFormatError("a dual triple is a JSON object")
        y, y_star, mu = (_numbers(data, key, "the dual triple")
                         for key in ("y", "y_star", "mu"))
        if (y.ndim, y_star.ndim, mu.ndim) != (1, 1, 1):
            raise ProblemFormatError("the dual triple's fields must be flat "
                                     "lists of numbers")
        return DualTriple(point=y, weights=y_star, multipliers=mu)


@dataclass
class DualFeasibilityReport:
    feasible: bool
    mode: str
    checks: Dict[str, bool]
    stationarity_distance: float
    sign_values: List[float]


def is_dual_feasible(P: Problem, triple: DualTriple, mode: str = "default",
                     tol: float = RESIDUAL_TOL,
                     grid: int = GRID_DEFAULT) -> DualFeasibilityReport:
    """A triple's stationarity, sign and cone checks, computed without the
    point analysis.  Inside ``memo.shared_points()`` the report is built
    once per problem, triple and options, and its stationarity distance
    and worst cases are the ones the other checks share."""
    if mode not in ("default", "strict"):
        raise ValueError("mode must be 'default' or 'strict'")
    key = tuple(np.asarray(v, dtype=float).tobytes() for v in
                (triple.point, triple.weights, triple.multipliers))
    return shared("dual", P, (key, grid, mode, tol),
                  lambda: _dual_feasibility(P, triple, mode, tol, grid))


def _dual_feasibility(P: Problem, triple: DualTriple, mode: str, tol: float,
                      grid: int) -> DualFeasibilityReport:
    w = np.asarray(triple.point, dtype=float)
    y = np.asarray(triple.weights, dtype=float)
    mu = np.asarray(triple.multipliers, dtype=float)
    checks: Dict[str, bool] = {}

    distance = stationarity_distance(P, w, y, mu, grid, exact=False)
    checks["stationarity"] = distance <= tol

    sign_values: List[float] = []
    for i in range(P.n_constraints):
        if mu[i] <= MU_ZERO_TOL:
            sign_values.append(0.0)
            continue
        g, U = P.constraints[i], P.uncertainty
        if mode == "default":
            value = worst_case_value(g, w, U, grid)
        else:
            # the grid minimum, read from the checks' shared sweep; with no
            # uncertainty variables a WorstCase keeps no grid
            vals = (_worst_case(g, w, U, grid).vals if U.dim
                    else grid_sweep(g, w, U, grid)[1])
            value = float(vals.min())
        sign_values.append(float(mu[i] * value))
    checks["sign"] = all(v >= -tol for v in sign_values)

    checks["dual_cone"] = P.cone.dual_contains(y)
    checks["weights_nonzero"] = bool(np.max(np.abs(y), initial=0.0) > 1e-9)
    checks["mu_nonnegative"] = bool(np.all(mu >= -MU_ZERO_TOL))

    return DualFeasibilityReport(
        all(checks.values()), mode, checks, float(distance), sign_values
    )


# ---------------------------------------------------------------------------
# weak duality
# ---------------------------------------------------------------------------


@dataclass
class WeakDualityReport:
    holds: bool
    kind: str
    grid: int
    checked_points: int
    first_violation: Optional[np.ndarray] = None
    violation_values: Optional[np.ndarray] = None


def weak_duality_test(P: Problem, triple: DualTriple, kind: str = "typeI",
                      grid: int = EFFICIENCY_GRID, ugrid: int = GRID_DEFAULT
                      ) -> WeakDualityReport:
    """Scan feasible grid values for forbidden domination of the dual value.

    Under the first premise bundle no feasible value vector may improve on
    the triple's value vector strictly in every direction (``typeI``); under
    the strict bundle even a one-sided improvement with ties is forbidden
    (``typeII``).
    """
    if kind not in ("typeI", "typeII"):
        raise ValueError("kind must be 'typeI' or 'typeII'")
    ctx, first = first_dominator(P, P.objective_values(triple.point),
                                 kind == "typeI", grid, ugrid)
    if first is None:
        return WeakDualityReport(True, kind, grid, len(ctx.Z))
    return WeakDualityReport(
        False, kind, grid, len(ctx.Z),
        first_violation=ctx.Z[first], violation_values=ctx.F[first],
    )


# ---------------------------------------------------------------------------
# strong and converse duality
# ---------------------------------------------------------------------------


def strong_duality_construct(P: Problem, z, cert: KktCertificate
                             ) -> DualTriple:
    """Promote a certificate at a point to a dual triple at that same point.

    The construction realizes strong duality: the triple's value vector
    coincides with the primal value vector by definition, and feasibility
    under the default sign reading follows from complementarity.
    """
    return DualTriple(
        point=np.asarray(z, dtype=float),
        weights=np.asarray(cert.y_star, dtype=float),
        multipliers=np.asarray(cert.mu, dtype=float),
    )


@dataclass
class ConverseDualityReport:
    applicable: bool          # triple is dual feasible and its point primal feasible
    weakly_efficient: bool    # brute-force grid verdict at the triple's point
    consistent: bool          # applicable implies weakly efficient
    feasibility: DualFeasibilityReport


def converse_duality_check(P: Problem, triple: DualTriple,
                           grid: int = EFFICIENCY_GRID,
                           ugrid: int = GRID_DEFAULT,
                           tol: float = RESIDUAL_TOL) -> ConverseDualityReport:
    """Brute-force weak efficiency at a dual feasible triple's point.

    Reads the triple's default-mode ``is_dual_feasible`` at ``tol``, the
    point analysis and the weak certifier's guard, which a report's other
    sections share with it inside ``memo.shared_points()``.
    """
    rep = is_dual_feasible(P, triple, "default", tol, ugrid)
    applicable = rep.feasible and analyze_point(
        P, triple.point, ugrid
    ).feasible(FEAS_TOL)
    weak = certify_weak(P, triple.point, grid, ugrid)
    weakly_efficient = bool(weak.certified)
    consistent = (not applicable) or weakly_efficient
    return ConverseDualityReport(applicable, weakly_efficient, consistent, rep)
