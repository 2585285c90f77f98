"""Loading problem descriptions from JSON.

Schema (all expression strings use ``z1..zd`` and ``u1..up``)::

    {
      "decision_dim": int, "uncertainty_dim": int,
      "objectives": [str, ...], "constraints": [str, ...],
      "uncertainty": {"type": "box", "lower": [..], "upper": [..]}
                   | {"type": "finite", "points": [[..], ...]},
      "cone": {"type": "orthant"} | {"type": "generators", "rays": [[..], ...]},
      "box": {"lower": [..], "upper": [..]},        # decision bounds
      "label": str                                   # optional
    }
"""

from __future__ import annotations

import importlib.resources
import json
from pathlib import Path
from typing import Union

import numpy as np

from .constraints import ConeSpec, Problem, ProblemFormatError, UncertaintySet
from .expr import ExprError, parse_expr

BUNDLED_FIXTURES = ("ex2_2", "ex2_3", "ex3_2", "ex3_3")


def _require(data: dict, key: str, kind, where: str):
    if key not in data:
        raise ProblemFormatError(f"missing '{key}' in {where}")
    value = data[key]
    # bool is a subclass of int, but `true` is no dimension
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ProblemFormatError(
            f"'{key}' in {where} should be {kind.__name__}"
        )
    return value


def _holds_bool(value) -> bool:
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def _numbers(data: dict, key: str, where: str) -> np.ndarray:
    """A list field as a float array; ``json`` lets NaN and Infinity through.

    ``true`` and ``false`` are refused at any depth: numpy would read them
    as 1.0 and 0.0.
    """
    raw = _require(data, key, list, where)
    bad = ProblemFormatError(f"'{key}' in {where} must hold numbers")
    if _holds_bool(raw):
        raise bad
    try:
        values = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as err:
        raise bad from err
    if not np.all(np.isfinite(values)):
        raise ProblemFormatError(f"'{key}' in {where} must be finite")
    return values


def problem_from_dict(data: dict) -> Problem:
    if not isinstance(data, dict):
        raise ProblemFormatError("problem description must be a JSON object")
    d = _require(data, "decision_dim", int, "problem")
    p = _require(data, "uncertainty_dim", int, "problem")
    if d < 1 or p < 0:
        raise ProblemFormatError("dimensions must satisfy decision_dim >= 1, uncertainty_dim >= 0")
    obj_src = _require(data, "objectives", list, "problem")
    con_src = _require(data, "constraints", list, "problem")
    if not obj_src:
        raise ProblemFormatError("at least one objective is required")
    if not con_src:
        raise ProblemFormatError("at least one constraint is required")

    def parse_all(sources, role, n_u):
        out = []
        for i, src in enumerate(sources):
            if not isinstance(src, str):
                raise ProblemFormatError(f"{role} {i + 1} must be a string")
            try:
                out.append(parse_expr(src, d, n_u))
            except ExprError as err:
                raise ProblemFormatError(f"{role} {i + 1}: {err}") from err
        return tuple(out)

    # objectives are certain: they may not reference u*
    objectives = parse_all(obj_src, "objective", 0)
    constraints = parse_all(con_src, "constraint", p)

    u_data = _require(data, "uncertainty", dict, "problem")
    u_type = _require(u_data, "type", str, "uncertainty")
    if u_type == "box":
        uncertainty = UncertaintySet.box(
            _numbers(u_data, "lower", "uncertainty"),
            _numbers(u_data, "upper", "uncertainty"),
        )
    elif u_type == "finite":
        uncertainty = UncertaintySet.finite(
            _numbers(u_data, "points", "uncertainty")
        )
    else:
        raise ProblemFormatError(f"unknown uncertainty type '{u_type}'")
    if uncertainty.dim != p:
        raise ProblemFormatError(
            f"uncertainty set dimension {uncertainty.dim} != uncertainty_dim {p}"
        )

    cone_data = _require(data, "cone", dict, "problem")
    cone_type = _require(cone_data, "type", str, "cone")
    m = len(objectives)
    if cone_type == "orthant":
        cone = ConeSpec.orthant(m)
    elif cone_type == "generators":
        cone = ConeSpec.from_rays(_numbers(cone_data, "rays", "cone"))
        if cone.dim != m:
            raise ProblemFormatError(
                f"cone dimension {cone.dim} != number of objectives {m}"
            )
    else:
        raise ProblemFormatError(f"unknown cone type '{cone_type}'")

    box_data = _require(data, "box", dict, "problem")
    lower = _numbers(box_data, "lower", "box")
    upper = _numbers(box_data, "upper", "box")
    if lower.shape != (d,) or upper.shape != (d,):
        raise ProblemFormatError("decision box bounds must have length decision_dim")
    if np.any(lower > upper):
        raise ProblemFormatError("decision box lower bound exceeds upper bound")

    label = data.get("label", "")
    if not isinstance(label, str):
        raise ProblemFormatError("'label' must be a string")

    return Problem(
        decision_dim=d,
        uncertainty_dim=p,
        objectives=objectives,
        constraints=constraints,
        uncertainty=uncertainty,
        cone=cone,
        box_lower=lower,
        box_upper=upper,
        label=label,
        objective_sources=tuple(obj_src),
        constraint_sources=tuple(con_src),
    )


def load_problem(source: Union[str, Path, dict]) -> Problem:
    """Load a problem from a dict, a JSON file path, or a bundled fixture name."""
    if isinstance(source, dict):
        return problem_from_dict(source)
    name = str(source)
    if name in BUNDLED_FIXTURES:
        text = (
            importlib.resources.files("robustcert")
            .joinpath(f"fixtures/{name}.json")
            .read_text()
        )
        return problem_from_dict(json.loads(text))
    path = Path(name)
    try:
        text = path.read_text()
    except OSError as err:
        raise ProblemFormatError(f"cannot read problem file '{name}': {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ProblemFormatError(f"invalid JSON in '{name}': {err}") from err
    return problem_from_dict(data)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture (for CLI examples and tests)."""
    if name not in BUNDLED_FIXTURES:
        raise ProblemFormatError(f"unknown fixture '{name}'")
    return Path(str(importlib.resources.files("robustcert").joinpath(f"fixtures/{name}.json")))
