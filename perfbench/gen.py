"""Seeded op lists for the perfbench workloads.

Every op list is a pure function of (workload, seed): the same seed gives the
same ops in the same order.  Points come from three strata per fixture:

* ``anchor``  -- the acceptance anchors, ex2_x at (0, -2) and ex3_x at (0, 1);
* ``kink``    -- half-integer points of the fixture box where an ``abs``,
  ``max`` or ``min`` argument that depends on the decision is zero, so the
  subdifferentials there have several pieces;
* ``uniform`` -- uniform points of the box, feasible and infeasible alike.

Which fixture, stratum and command an op uses depends only on its position in
the list; the seed picks the concrete kink and uniform points.  So runs of the
same length have the same mix whatever the seed.  Points are never filtered
by how long they take.  A run's op list is written to
``perfbench/out/ops-<workload>-<seed>.json``.

The weights of the mix (strata, commands, fixtures) are assumptions: no
usage data exists.  The reason for each is given where it is set.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("cli_session", "point_reports", "grid_sweeps")
FIXTURES = ("ex3_2", "ex2_2", "ex3_3", "ex2_3")
# A benchmark-owned problem with a union-type kink: min(z1, -z1) at z1 = 0 is
# the only kind of kink that reaches ``subdiff``'s attainment LP, and no
# bundled fixture has one.  It is cheap (about 0.3 s per report).
UNION_KINK = {
    "decision_dim": 2, "uncertainty_dim": 1,
    "objectives": ["min(z1, -z1) + z2^2", "z1 - z2"],
    "constraints": ["z1^2 + z2^2 + u1*z2 - 4"],
    "uncertainty": {"type": "box", "lower": [-0.5], "upper": [0.5]},
    "cone": {"type": "orthant"},
    "box": {"lower": [-2, -2], "upper": [2, 2]},
    "label": "union_kink",
}
# what ``load_problem`` takes for each problem name
PROBLEMS = {**{name: name for name in FIXTURES}, "union_kink": UNION_KINK}
ANCHORS = {"ex2_2": (0.0, -2.0), "ex2_3": (0.0, -2.0),
           "ex3_2": (0.0, 1.0), "ex3_3": (0.0, 1.0),
           "union_kink": (0.0, 0.0)}
# Assumed 1:2:2 anchor:kink:uniform.  Anchors are the points a user checks
# first, but they are only one point per fixture; kink and uniform points
# are the two regimes of the certificate search (several pieces per
# subdifferential versus a degenerate scan), so they get equal, larger shares.
STRATA = ("anchor", "kink", "uniform", "kink", "uniform")
# Assumed interactive session, 12 ops per cycle: 4 check and 3 cq, because a
# user asks "is this point feasible / qualified" before anything else, and
# one each of kkt, efficiency, convexity, dual and report.  The session opens
# with kkt at the ex3_2 anchor, in exact mode (see below), so even a short
# traced run reaches the exact-scalarization path.
CLI_COMMANDS = ("kkt", "cq", "check", "check", "cq", "check", "efficiency",
                "cq", "convexity", "check", "dual", "report")
# point_reports: each bundled fixture twice per cycle of 9, the union-kink
# problem once (a small stratum; it exists only to reach its code path).  It
# comes first, so even a short traced run reaches ``subdiff.linprog``.
REPORT_FIXTURES = ("union_kink",) + FIXTURES + FIXTURES
CERT_SEARCH = ("kkt", "dual", "report")
# At uniform points where no certificate exists the search scans every weight
# direction that survives its prefilter, up to 50,000 LPs (10-90 s per op at
# the default 721-point lattice, longer than one run may last).  Searches at
# uniform points therefore use a 41-point lattice: the scan still covers all
# of its 861 directions, so those ops stay the slowest of their workload.
UNIFORM_YGRID = 41
# the anchor certificates of the ex3_x fixtures (README, ``kkt`` at (0, 1))
ANCHOR_TRIPLES = {
    "ex3_2": {"y": [0.0, 1.0],
              "y_star": [0.35355339059327373, 0.0, 0.35355339059327373],
              "mu": [0.5, 0.0]},
    "ex3_3": {"y": [0.0, 1.0],
              "y_star": [0.0, 0.0, 0.585786437626905],
              "mu": [0.41421356237309503, 0.0]},
}
# Per cycle: two cheap ops (efficiency at 101, dual), two convexity scans and
# two dear ops (efficiency at 201).  The median op then falls in the middle of
# the convexity mode, not in a gap between modes where it would jump with
# small shifts of the mix.
GRID_KINDS = ("efficiency", "convexity", "efficiency", "convexity", "dual",
              "efficiency")
GRID_SIZES = (101, None, 201, None, None, 201)
DEFAULT_LENGTH = 2000


def kink_lattice(P, anchor) -> list:
    """Half-integer box points (anchor excluded) where a decision kink is active."""
    from robustcert.expr import Point, relevant_kink_atoms

    U = P.uncertainty
    u0 = U.lower if U.kind == "box" else U.points[0]
    axes = [[lo + 0.5 * k for k in range(int(round(2 * (hi - lo))) + 1)]
            for lo, hi in zip(P.box_lower, P.box_upper)]
    out = []
    for z in itertools.product(*axes):
        if tuple(z) == anchor:
            continue
        pt = Point.of(z, u0)
        if any(relevant_kink_atoms(e, pt, "decision")
               for e in P.objectives + P.constraints):
            out.append(tuple(float(v) for v in z))
    return out


class PointSource:
    """Draws the point for (fixture, stratum) from one seeded stream."""

    def __init__(self, seed: int):
        from robustcert.problem_io import load_problem

        self.rng = random.Random(seed)
        self.kinks, self.boxes = {}, {}
        for name, spec in PROBLEMS.items():
            P = load_problem(spec)
            self.kinks[name] = kink_lattice(P, ANCHORS[name])
            self.boxes[name] = (tuple(float(v) for v in P.box_lower),
                                tuple(float(v) for v in P.box_upper))

    def draw(self, fixture: str, stratum: str) -> list:
        if stratum == "anchor":
            return list(ANCHORS[fixture])
        if stratum == "kink":
            return list(self.rng.choice(self.kinks[fixture]))
        lower, upper = self.boxes[fixture]
        return [round(self.rng.uniform(lo, hi), 6)
                for lo, hi in zip(lower, upper)]


def _op(i, workload, stratum, fixture, command, point, **options) -> dict:
    options = {k: v for k, v in options.items() if v is not None}
    if (command in CERT_SEARCH and stratum == "uniform"
            and "triple" not in options):
        options["ygrid"] = UNIFORM_YGRID
    return {"op": i, "workload": workload, "stratum": stratum,
            "fixture": fixture, "command": command, "point": point,
            "options": options}


def generate(workload: str, seed: int, length: int = DEFAULT_LENGTH) -> list:
    """The op list of ``workload`` for ``seed``; see the module docstring."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    src = PointSource(seed)
    ops = []
    for i in range(length):
        if workload == "cli_session":
            command = CLI_COMMANDS[i % len(CLI_COMMANDS)]
            fixture = FIXTURES[(i + i // len(CLI_COMMANDS)) % len(FIXTURES)]
            stratum = STRATA[i % len(STRATA)]
            # every other kkt op, the first included, asks for exact
            # scalarization: exact mode is the only path that reaches
            # ``subdiff.scalarized_subdiff``
            exact = (command == "kkt"
                     and (i // len(CLI_COMMANDS)) % 2 == 0) or None
            ops.append(_op(i, workload, stratum, fixture, command,
                           src.draw(fixture, stratum),
                           exact_scalarization=exact))
        elif workload == "point_reports":
            fixture = REPORT_FIXTURES[i % len(REPORT_FIXTURES)]
            stratum = STRATA[i % len(STRATA)]
            ops.append(_op(i, workload, stratum, fixture, "report",
                           src.draw(fixture, stratum)))
        else:
            kind = i % len(GRID_KINDS)
            j = i // len(GRID_KINDS)
            command = GRID_KINDS[kind]
            if command == "dual":
                fixture = ("ex3_2", "ex3_3")[j % 2]
                ops.append(_op(i, workload, "anchor", fixture, "dual",
                               list(ANCHORS[fixture]),
                               triple=ANCHOR_TRIPLES[fixture]))
                continue
            fixture = FIXTURES[j % len(FIXTURES)]
            stratum = STRATA[j % len(STRATA)]
            ops.append(_op(i, workload, stratum, fixture, command,
                           src.draw(fixture, stratum),
                           grid=GRID_SIZES[kind]))
    return ops

