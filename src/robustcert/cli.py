"""Command-line entry point.

Exit codes: 0 — requested checks completed (verdicts live in the report);
1 — usage or I/O error, an oversized lattice or an unsupported cone;
2 — internal numerical failure while checking.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .constraints import (GRID_DEFAULT, MAX_LATTICE_ROWS, LatticeTooLarge,
                          Problem, ProblemFormatError, box_lattice_rows)
from .convexity import DEFAULT_SAMPLES, DEFAULT_SEED
from .duality import DualTriple
from .efficiency import EFFICIENCY_GRID
from .kkt import DEFAULT_Y_GRID, RESIDUAL_TOL, simplex_rows
from .problem_io import load_problem
from .report import build_report, render_json, render_text

COMMANDS = ("check", "cq", "kkt", "efficiency", "convexity", "dual", "report")


class UsageError(Exception):
    """Bad invocation or unreadable input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 by default; 2 is reserved for internal failures
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(
        prog="robustcert",
        description="Certification checks for uncertain multiobjective "
                    "programs: worst-case feasibility, constraint "
                    "qualification, KKT certificates, generalized convexity, "
                    "efficiency concepts, and duality diagnostics.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--problem", required=True,
                   help="problem JSON file, or a bundled fixture name")
    p.add_argument("--point",
                   help="comma-separated decision coordinates, e.g. 0,1")
    p.add_argument("--tol", type=float, default=RESIDUAL_TOL,
                   help="feasibility / residual tolerance")
    p.add_argument("--grid", type=int, default=EFFICIENCY_GRID,
                   help="decision-grid points per axis")
    p.add_argument("--ugrid", type=int, default=GRID_DEFAULT,
                   help="uncertainty-grid points per axis")
    p.add_argument("--ygrid", type=int, default=DEFAULT_Y_GRID,
                   help="weight-simplex grid points per axis")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for sampling-based checks")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                   help="sample budget for convexity checks")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the JSON report instead of text")
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--triple",
                   help="dual triple as inline JSON or @file (dual command)")
    p.add_argument("--strict-dual", action="store_true",
                   help="check dual sign conditions over every uncertainty "
                        "realization instead of worst-case representatives")
    p.add_argument("--exact-scalarization", action="store_true",
                   help="search certificates with per-direction scalarized "
                        "subdifferentials where exactness is available")
    return p


def _parse_point(text: str, dim: int) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"could not parse point {text!r}")
    if not np.all(np.isfinite(values)):
        raise UsageError(f"--point must be finite, got {text!r}")
    if len(values) != dim:
        raise UsageError(
            f"point has {len(values)} coordinates, problem expects {dim}"
        )
    return np.asarray(values, dtype=float)


def _parse_triple(text: str, P: Problem) -> DualTriple:
    raw = text
    if text.startswith("@"):
        try:
            raw = Path(text[1:]).read_text()
        except OSError as exc:
            raise UsageError(f"could not read triple file: {exc}")
    try:
        triple = DualTriple.from_jsonable(json.loads(raw))
    except (json.JSONDecodeError, ProblemFormatError) as exc:
        raise UsageError(f"could not parse --triple: {exc}")
    if ((len(triple.point), len(triple.weights), len(triple.multipliers))
            != (P.decision_dim, P.n_objectives, P.n_constraints)):
        raise UsageError("--triple dimensions do not match the problem")
    return triple


def _load(path: str) -> Problem:
    try:
        return load_problem(path)
    except (ProblemFormatError, OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"could not load problem {path!r}: {exc}")


def _validate_numbers(args) -> None:
    if not 0 < args.tol < np.inf:
        raise UsageError("--tol must be positive and finite")
    for name in ("grid", "ugrid", "ygrid"):
        if getattr(args, name) < 2:
            raise UsageError(f"--{name} must be at least 2")
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")


def _validate_lattices(args, P: Problem) -> None:
    """Refuse each lattice the command builds beyond MAX_LATTICE_ROWS rows."""
    rows = {}
    if args.command in ("efficiency", "dual", "report"):
        rows["grid"] = box_lattice_rows(P.box_lower, P.box_upper, args.grid)
    # the certificate search scans the --ygrid lattice; a --triple skips it
    if args.command in ("kkt", "report") or (args.command == "dual"
                                             and not args.triple):
        rows["ygrid"] = simplex_rows(P.n_objectives, args.ygrid - 1)
    U = P.uncertainty
    if U.kind == "box":
        rows["ugrid"] = box_lattice_rows(U.lower, U.upper, args.ugrid)
    for name, n in rows.items():
        if n > MAX_LATTICE_ROWS:
            raise UsageError(
                f"--{name} {getattr(args, name)} gives a lattice of {n:,} "
                f"rows on this problem; the limit is {MAX_LATTICE_ROWS:,}"
            )


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        _validate_numbers(args)
        P = _load(args.problem)
        _validate_lattices(args, P)
        triple: Optional[DualTriple] = None
        if args.command == "dual" and args.triple:
            triple = _parse_triple(args.triple, P)
        if args.point:
            z = _parse_point(args.point, P.decision_dim)
            point_text = args.point
        elif triple is not None:
            z = triple.point
            point_text = ",".join(format(v, "g") for v in z)
        else:
            raise UsageError("--point is required (or --triple for dual)")
    except UsageError as exc:
        print(f"robustcert: error: {exc}", file=sys.stderr)
        return 1

    try:
        report = build_report(
            P, args.command, z, tol=args.tol, grid=args.grid,
            ugrid=args.ugrid, ygrid=args.ygrid, seed=args.seed,
            samples=args.samples, triple=triple,
            strict_dual=args.strict_dual,
            exact_scalarization=args.exact_scalarization,
            problem_path=args.problem, point_text=point_text,
        )
    # a lattice no flag sizes on its own; a generator cone beyond m = 3
    except (LatticeTooLarge, NotImplementedError) as exc:
        print(f"robustcert: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # checks could not complete
        print(f"robustcert: internal failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2

    rendered = render_json(report) if args.as_json else render_text(report)
    try:
        if args.out:
            Path(args.out).write_text(rendered)
        else:
            sys.stdout.write(rendered)
    except OSError as exc:
        print(f"robustcert: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
