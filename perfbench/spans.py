"""Span recording around calls into robustcert's layers.

``install`` replaces each layer function listed in ``LAYERS`` with a wrapper
that records a span, in every robustcert module that binds it -- not only in
the defining module, because functions are also imported by name elsewhere
(``constraint_values`` into report, kkt, convexity and duality; the
``psi`` alias of ``worst_case_value``).  SciPy's ``linprog`` and
``minimize_scalar`` get one wrapper per importing module, named after it
(``kkt.linprog``, ``subdiff.linprog``, ...).  ``uninstall`` restores every
binding.  Nothing under ``src/`` is edited.

A span is ``[name id, start, end, parent span index, op id, value]``; spans
stay in memory until the run ends.  ``value`` carries a per-call count where
a layer metric needs one (rows, elements, not-found, feasible).  A recursive
call of a function whose span is already the innermost open one is folded
into that span.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("cli", "problem_io", "expr", "polytope", "subdiff", "constraints",
           "kkt", "convexity", "efficiency", "duality", "report")

LAYERS = {
    "cli": ("main",),
    "problem_io": ("load_problem",),
    "report": ("build_report", "render_json"),
    "constraints": ("worst_case_value", "active_uncertainty",
                    "worst_case_subdiff", "constraint_values",
                    "worst_case_values_batch"),
    "expr": ("evaluate", "eval_broadcast"),
    "subdiff": ("limiting_subdiff", "scalarized_subdiff"),
    "polytope": ("min_norm_point", "extreme_points"),
    "kkt": ("find_kkt_certificate", "verify_certificate", "check_cq"),
    "convexity": ("classify_type", "dual_weight_grid"),
    "efficiency": ("grid_context", "certify_proper"),
    "duality": ("is_dual_feasible", "weak_duality_test",
                "converse_duality_check"),
}
FOREIGN = ("linprog", "minimize_scalar")  # from scipy.optimize


def _rows(args, kwargs, result, exc):
    Z = args[1] if len(args) > 1 else kwargs.get("Z")
    return len(Z)


def _elements(args, kwargs, result, exc):
    return 0 if exc is not None else int(getattr(result, "size", 1))


def _not_found(args, kwargs, result, exc):
    return int(type(exc).__name__ == "NotFoundAtResolution")


def _feasible(args, kwargs, result, exc):
    return int(exc is None and getattr(result, "status", None) == 0)


# per-call values summed into a span's ``value`` statistic
MEASURES = {
    "constraints.worst_case_values_batch": _rows,
    "expr.eval_broadcast": _elements,
    "kkt.find_kkt_certificate": _not_found,
    "kkt.linprog": _feasible,
}


def robustcert_modules() -> dict:
    return {name: importlib.import_module(f"robustcert.{name}")
            for name in MODULES}


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack
        measure = MEASURES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            rec = [nid, perf_counter(), 0.0,
                   stack[-1][1] if stack else -1, tracer.op, 0]
            stack.append((nid, len(spans)))
            spans.append(rec)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if measure is not None:
                    rec[5] = measure(args, kwargs, result, exc)

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> list:
        """Wrap every binding of every layer function; return the span names."""
        import scipy.optimize

        mods = robustcert_modules()
        installed = []
        for mod_name, fn_names in LAYERS.items():
            for fn_name in fn_names:
                orig = getattr(mods[mod_name], fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", orig)
                installed.append(f"{mod_name}.{fn_name}")
                for mod in mods.values():
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        for fn_name in FOREIGN:
            orig = getattr(scipy.optimize, fn_name)
            for mod_name, mod in mods.items():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        name = f"{mod_name}.{fn_name}"
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, self.wrap(name, orig))
                        installed.append(name)
        return installed

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}

    def absorb(self, data: dict, op: int) -> None:
        """Append spans recorded by another process (a CLI child) for ``op``."""
        base = len(self.spans)
        ids = [self.name_id(n) for n in data["names"]]
        for nid, start, end, parent, _, value in data["spans"]:
            self.spans.append([ids[nid], start, end,
                               parent + base if parent >= 0 else -1, op,
                               value])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.dump(), fh, separators=(",", ":"))


def layer_stats(names: list, spans: list) -> dict:
    """Per span name: calls, total_s, self_s and the sum of per-call values.

    Self time is the span's duration minus the durations of its direct
    children; children nest inside their parent, so they cover disjoint parts
    of it.
    """
    child = [0.0] * len(spans)
    for nid, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                               "value": 0})
    for idx, (nid, start, end, _, _, value) in enumerate(spans):
        st = out[names[nid]]
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child[idx]
        st["value"] += value
    return dict(out)
