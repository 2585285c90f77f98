"""Running one op, in process or through the CLI, and checking its verdicts.

An op is a dict made by ``gen.generate``.  Running it yields the report's
JSON text; ``check`` compares the report's verdict vector with the one
recorded in ``verdicts.json`` for the same op key, compares the report
bytes (``generated_at`` removed) with the recorded digest, and returns the
checks that a found but unverified certificate fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORD_PATH = Path(__file__).resolve().parent / "verdicts.json"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

SECTIONS = ("feasibility", "cq", "kkt", "convexity", "efficiency", "duality")
VERDICT_KEYS = frozenset({"feasible", "satisfied", "found", "ok", "status",
                          "certified", "holds", "consistent"})
_GENERATED_AT = re.compile(r'^\s*"generated_at": "[^"]*",?\n', re.MULTILINE)


def op_key(op: dict) -> str:
    """Identity of an op's inputs, independent of its position and seed."""
    return "|".join((op["workload"], op["fixture"], op["command"],
                     point_text(op["point"]),
                     json.dumps(op["options"], sort_keys=True)))


def point_text(point) -> str:
    return ",".join(repr(float(v)) for v in point)


def cli_args(op: dict) -> list:
    opts = op["options"]
    argv = [op["command"], "--problem", op["fixture"],
            f"--point={point_text(op['point'])}", "--json"]
    for name in ("grid", "ygrid"):
        if name in opts:
            argv += [f"--{name}", str(opts[name])]
    if opts.get("exact_scalarization"):
        argv.append("--exact-scalarization")
    if "triple" in opts:
        argv += ["--triple", json.dumps(opts["triple"])]
    return argv


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ROBUSTCERT_THREADS", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def run_inprocess(op: dict, problems: dict) -> str:
    """``build_report`` plus ``render_json`` for one op; returns the JSON."""
    from robustcert.duality import DualTriple
    from robustcert import report

    opts = op["options"]
    kwargs = {k: opts[k] for k in ("grid", "ygrid", "exact_scalarization")
              if k in opts}
    if "triple" in opts:
        kwargs["triple"] = DualTriple.from_jsonable(opts["triple"])
    rep = report.build_report(
        problems[op["fixture"]], op["command"],
        np.asarray(op["point"], dtype=float), problem_path=op["fixture"],
        point_text=point_text(op["point"]), **kwargs)
    return report.render_json(rep)


def run_cli(op: dict, out_dir: Path, spans_path: Path = None):
    """One CLI child process; returns (exit code, stdout, seconds, peak RSS MB).

    The child is ``python -m robustcert.cli``, or the span launcher when
    ``spans_path`` is given.  Its peak RSS comes from its own rusage.
    """
    if spans_path is None:
        cmd = [sys.executable, "-m", "robustcert.cli"]
    else:
        cmd = [sys.executable, str(LAUNCHER), "--spans", str(spans_path),
               "--"]
    cmd += cli_args(op)
    stdout_path = out_dir / "cli_stdout.json"
    stderr_path = out_dir / "cli_stderr.txt"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = stdout_path.read_text()
    if proc.returncode != 0:
        text += stderr_path.read_text()
    return proc.returncode, text, seconds, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


def verdicts(report: dict) -> dict:
    """Flat ``{path: value}`` of every verdict field in the report's sections."""
    out = {}

    def walk(obj, path):
        if isinstance(obj, dict):
            for key, val in obj.items():
                sub = f"{path}.{key}"
                if key in VERDICT_KEYS and not isinstance(val, (dict, list)):
                    out[sub] = val
                else:
                    walk(val, sub)
        elif isinstance(obj, list):
            for idx, val in enumerate(obj):
                walk(val, f"{path}[{idx}]")

    for section in SECTIONS:
        if section in report:
            walk(report[section], section)
    return out


def digest(text: str) -> str:
    return hashlib.sha256(_GENERATED_AT.sub("", text).encode()).hexdigest()


def load_record() -> dict:
    if not RECORD_PATH.exists():
        return {}
    return json.loads(RECORD_PATH.read_text())["ops"]


def unverified(report: dict) -> list:
    """Checks that a found certificate fails, or [] if it verifies.

    The search solves stationarity only, so it can return ``found: true``
    for a certificate that verification then rejects (at points that are not
    robust feasible, on complementarity).  Such ops are counted and printed,
    not failed: the report itself states ``verification.ok: false``.
    """
    kkt = report.get("kkt", {})
    if not kkt.get("found") or kkt["verification"]["ok"]:
        return []
    return sorted(k for k, v in kkt["verification"]["checks"].items() if not v)


def check(op: dict, text: str, record: dict):
    """(failure reason or None, digest mismatch, unverified checks) of an op.

    A recorded op must reproduce its recorded verdict vector, which pins
    ``kkt.found`` and ``kkt.verification.ok``; an unrecorded op is checked
    only for being a JSON report.  Either way, the checks that a found but
    unverified certificate fails are returned for counting.
    """
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return "report is not JSON", False, []
    failed_checks = unverified(report)
    want = record.get(op_key(op))
    if want is None:
        return None, False, failed_checks
    got = verdicts(report)
    if got != want["verdicts"]:
        diff = sorted(k for k in set(got) | set(want["verdicts"])
                      if got.get(k) != want["verdicts"].get(k))
        return (f"verdicts differ from the record: {', '.join(diff)}", False,
                failed_checks)
    return None, digest(text) != want["digest"], failed_checks
