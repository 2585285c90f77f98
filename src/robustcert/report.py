"""Report assembly for the command-line interface.

Each section builder returns a plain JSON-able dict; ``build_report`` wraps
one or more sections with a config echo and a provenance block.  The result
classes of ``kkt``, ``efficiency``, ``convexity`` and ``duality`` are
dataclasses that carry no serializer of their own: ``jsonable`` turns any of
them into plain dicts, lists and Python scalars, leaving out an optional
field that is unset.  Rendering is deterministic: identical inputs produce
byte-identical JSON except for the ``generated_at`` timestamp.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import datetime, timezone
from typing import Optional, Tuple

import numpy as np

from . import __version__
from .constraints import (ACTIVE_TOL, FEAS_TOL, GRID_DEFAULT, Problem,
                          analyze_point)
from .convexity import (DEFAULT_SAMPLES, DEFAULT_SEED, DEFAULT_Y_EDGE,
                        classify_type)
from .duality import (DualTriple, converse_duality_check, is_dual_feasible,
                      strong_duality_construct, weak_duality_test)
from .efficiency import (EFFICIENCY_GRID, certify_efficient, certify_proper,
                         certify_weak)
from .kkt import (DEFAULT_Y_GRID, RESIDUAL_TOL, KktCertificate,
                  NotFoundAtResolution, check_cq, find_kkt_certificate,
                  verify_certificate)
from .memo import shared_points

SCHEMA_VERSION = 1


def _unset(value) -> bool:
    return value is None or (isinstance(value, tuple) and not value)


def jsonable(obj):
    """``obj`` as plain dicts, lists, ``str``, ``int``, ``float``, ``bool``
    and ``None``.

    Arrays and tuples become lists and numpy scalars Python ones.  An
    object with its own ``to_jsonable`` (``Polytope``, ``PolytopeUnion``,
    ``DualTriple``) is written by it; any other object must be a dataclass,
    and becomes a dict of its fields, without a field whose value and
    default are both ``None`` or ``()``.
    """
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {key: jsonable(value) for key, value in obj.items()}
    if hasattr(obj, "to_jsonable"):
        return obj.to_jsonable()
    return {f.name: jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if not (_unset(f.default) and _unset(getattr(obj, f.name)))}


# ---------------------------------------------------------------------------
# per-check sections
# ---------------------------------------------------------------------------
# Sections that read point data call ``analyze_point(P, z, ugrid)``; inside
# ``build_report`` they share one analysis (``memo.shared_points``).


def feasibility_section(P: Problem, z, tol: float = FEAS_TOL,
                        ugrid: int = GRID_DEFAULT) -> dict:
    a = analyze_point(P, z, ugrid)
    maximizers = [
        [
            {
                "point": [float(v) for v in r.point],
                "value": float(r.value),
                "extent": float(r.extent),
            }
            for r in a.worst_cases[i].realizations
        ]
        for i in range(P.n_constraints)
    ]
    return {
        "feasible": a.feasible(tol),
        "tol": float(tol),
        "ugrid": int(ugrid),
        "psi": [float(v) for v in a.psi],
        "objective_values": [float(v) for v in a.objective_values],
        "active_max_relative": [int(i) for i in a.active_max],
        "active_zero_relative": [int(i) for i in a.binding],
        "worst_case_maximizers": maximizers,
    }


def subdiff_section(P: Problem, z, ugrid: int = GRID_DEFAULT) -> dict:
    a = analyze_point(P, z, ugrid)
    return {
        "objectives": jsonable(a.objective_subdiffs),
        "worst_case_constraints": [jsonable(w.subdiff)
                                   for w in a.worst_cases],
    }


def cq_section(P: Problem, z, ugrid: int = GRID_DEFAULT) -> dict:
    out = jsonable(check_cq(P, z, ugrid))
    out["tol"] = float(ACTIVE_TOL)
    return out


def kkt_section(P: Problem, z, y_grid: int = DEFAULT_Y_GRID,
                mode: str = "outer", ugrid: int = GRID_DEFAULT,
                tol: float = RESIDUAL_TOL
                ) -> Tuple[dict, Optional[KktCertificate]]:
    """The certificate search at z, and ``verify_certificate`` at ``tol``:
    the section, and the certificate (None when none was found)."""
    out: dict = {"y_grid": int(y_grid), "tol": float(tol), "mode": mode}
    try:
        cert = find_kkt_certificate(P, z, y_grid, mode, ugrid)
    except NotFoundAtResolution as exc:
        out["found"] = False
        out["message"] = str(exc)
        out["best_residual"] = float(exc.best_residual)
        out["best_direction"] = (None if exc.best_direction is None
                                 else [float(v) for v in exc.best_direction])
        return out, None
    out["found"] = True
    out["certificate"] = jsonable(cert)
    out["verification"] = jsonable(verify_certificate(P, z, cert, tol, ugrid))
    return out, cert


def convexity_section(P: Problem, z, samples: int = DEFAULT_SAMPLES,
                      seed: int = DEFAULT_SEED,
                      ugrid: int = GRID_DEFAULT) -> dict:
    out = jsonable(classify_type(P, z, samples, seed, ugrid))
    out["samples"] = int(samples)
    out["seed"] = int(seed)
    out["y_edge"] = DEFAULT_Y_EDGE
    return out


def efficiency_section(P: Problem, z, grid: int = EFFICIENCY_GRID,
                       ugrid: int = GRID_DEFAULT) -> dict:
    return jsonable({
        "grid": int(grid),
        "box": {
            "lower": [float(v) for v in P.box_lower],
            "upper": [float(v) for v in P.box_upper],
        },
        "weak": certify_weak(P, z, grid, ugrid),
        "efficient": certify_efficient(P, z, grid, ugrid),
        "proper": certify_proper(P, z, grid, ugrid),
    })


def duality_section(P: Problem, z=None, triple: Optional[DualTriple] = None,
                    cert: Optional[KktCertificate] = None,
                    strict: bool = False, tol: float = RESIDUAL_TOL,
                    grid: int = EFFICIENCY_GRID,
                    ugrid: int = GRID_DEFAULT) -> dict:
    """Dual-side suite at a triple.

    The triple may be supplied directly or derived from a certificate at z;
    when neither is available the section reports itself skipped.
    """
    if triple is None:
        if cert is None or z is None:
            return {"skipped": "no dual triple available "
                               "(no certificate found at this point)"}
        triple = strong_duality_construct(P, z, cert)
    mode = "strict" if strict else "default"
    return jsonable({
        "triple": triple,
        "mode": mode,
        "tol": float(tol),
        "feasibility": is_dual_feasible(P, triple, mode, tol, ugrid),
        "weak_typeI": weak_duality_test(P, triple, "typeI", grid, ugrid),
        "weak_typeII": weak_duality_test(P, triple, "typeII", grid, ugrid),
        "converse": converse_duality_check(P, triple, grid, ugrid, tol),
    })


# ---------------------------------------------------------------------------
# consolidated assembly
# ---------------------------------------------------------------------------


def build_report(P: Problem, command: str, z, *, tol: float = RESIDUAL_TOL,
                 grid: int = EFFICIENCY_GRID, ugrid: int = GRID_DEFAULT,
                 ygrid: int = DEFAULT_Y_GRID, seed: int = DEFAULT_SEED,
                 samples: int = DEFAULT_SAMPLES,
                 triple: Optional[DualTriple] = None, strict_dual: bool = False,
                 exact_scalarization: bool = False, problem_path: str = "",
                 point_text: str = "") -> dict:
    """Run the checks requested by ``command`` and assemble one report dict.

    Every command runs in one ``memo.shared_points()`` block, so its
    sections share the point analysis at z, the efficiency guard and the
    dual feasibility report; the feasible grid is memoized per process
    (``grid_context``).
    """
    mode = "exact" if exact_scalarization else "outer"
    report: dict = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": {
            "problem": problem_path,
            "point": point_text,
            "tol": float(tol),
            "grid": int(grid),
            "ugrid": int(ugrid),
            "ygrid": int(ygrid),
            "seed": int(seed),
            "samples": int(samples),
            "strict_dual": bool(strict_dual),
            "exact_scalarization": bool(exact_scalarization),
        },
        "provenance": {
            "tool": "robustcert",
            "version": __version__,
            "label": P.label,
            "generated_at": datetime.now(timezone.utc).isoformat(),
        },
    }
    with shared_points():
        if command == "check":
            report["feasibility"] = feasibility_section(P, z, tol, ugrid)
        elif command == "cq":
            report["cq"] = cq_section(P, z, ugrid=ugrid)
        elif command == "kkt":
            report["kkt"], _ = kkt_section(P, z, ygrid, mode, ugrid, tol)
        elif command == "efficiency":
            report["efficiency"] = efficiency_section(P, z, grid, ugrid)
        elif command == "convexity":
            report["convexity"] = convexity_section(P, z, samples, seed,
                                                    ugrid=ugrid)
        elif command == "dual":
            cert = None
            if triple is None:
                report["kkt"], cert = kkt_section(P, z, ygrid, mode, ugrid,
                                                  tol)
            report["duality"] = duality_section(P, z, triple, cert,
                                                strict_dual, tol, grid, ugrid)
        elif command == "report":
            # efficiency first: building the feasible grid after the point
            # sections raised the peak memory of a CLI report
            report["efficiency"] = efficiency_section(P, z, grid, ugrid)
            report["feasibility"] = feasibility_section(P, z, tol, ugrid)
            report["subdifferentials"] = subdiff_section(P, z, ugrid)
            report["cq"] = cq_section(P, z, ugrid)
            report["kkt"], cert = kkt_section(P, z, ygrid, mode, ugrid, tol)
            report["convexity"] = convexity_section(P, z, samples, seed,
                                                    ugrid=ugrid)
            report["duality"] = duality_section(P, z, triple, cert,
                                                strict_dual, tol, grid, ugrid)
        else:
            raise ValueError(f"unknown command {command!r}")
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _flatten(prefix: str, obj, lines: list) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else key, obj[key], lines)
    elif isinstance(obj, list) and obj and isinstance(obj[0], (dict, list)):
        for idx, item in enumerate(obj):
            _flatten(f"{prefix}[{idx}]", item, lines)
    else:
        if isinstance(obj, list):
            text = "[" + ", ".join(_scalar(v) for v in obj) + "]"
        else:
            text = _scalar(obj)
        lines.append(f"{prefix}: {text}")


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "none"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_text(report: dict) -> str:
    """Flat key/value rendering carrying exactly the JSON report's verdicts."""
    head = (f"robustcert {report['provenance']['version']} — "
            f"{report['command']} @ {report['config']['problem']} "
            f"point ({report['config']['point']})")
    lines = [head, "=" * len(head)]
    for section in sorted(report):
        if section in ("schema", "command", "config", "provenance"):
            continue
        lines.append("")
        lines.append(f"[{section}]")
        body: list = []
        _flatten("", report[section], body)
        lines.extend(body)
    return "\n".join(lines) + "\n"
