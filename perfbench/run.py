"""End-to-end and per-layer benchmark of robustcert.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload point_reports --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --quick
    python3 perfbench/run.py --record

Workloads (one client, closed loop: each op starts after the previous one
returns; ``ROBUSTCERT_THREADS`` is unset):

* ``cli_session``   -- one ``python -m robustcert.cli <cmd> --json`` process per op;
* ``point_reports`` -- one in-process ``build_report(P, "report", z)`` plus
  ``render_json`` per op;
* ``grid_sweeps``   -- in-process ``efficiency`` at decision grids 101 and
  201, ``convexity``, and ``dual`` with a supplied triple.  Not in
  ``BENCHMARK.json``, for run time: with three gated workloads a run could
  last only about 30 s, and in 30 s a ``point_reports`` run finishes about
  20 ops, so its ``op_tail_s`` (the highest percentile with 10 ops beyond)
  falls to the median.  This workload itself is steady: at 30 s its time
  metrics spread 0.07-0.09 (quartile distance over median, ten seeds, on a
  2-core Xeon VM).  Every layer it covers is also measured on
  ``point_reports``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
run untraced, replays the same ops with span wrappers installed, and prints
the per-layer metrics and the tracing overhead.  Every op's verdicts are
checked against ``verdicts.json``; ``error_rate`` is printed with the other
metrics and carried by ``failed``/``attempted`` in the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Found
certificates that fail verification are counted and printed as
``kkt.unverified_found``; they fail an op only through its recorded verdicts.
``--record`` rewrites ``verdicts.json`` from the default seed's op lists.
Op lists, per-op times and span dumps go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import ops
from spans import Tracer, layer_stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 0
SETUP_REPEATS = 3
QUICK_OPS = 3
TAIL_BEYOND = 10
RECORD_OPS = {"cli_session": 150, "point_reports": 60, "grid_sweeps": 200}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "ROBUSTCERT_THREADS")
SETUP_CODE = (
    "import robustcert.cli, robustcert.problem_io as io\n"
    "for name in io.BUNDLED_FIXTURES: io.load_problem(name)\n"
)

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_p50_s", "s", "lower"),
    ("op_tail_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


def _span_metrics(span: str, stats: str, extra=()):
    unit = {"calls": "count", "self_s": "s"}
    return [(f"{span}.{s}", unit[s], "lower") for s in stats.split()] + [
        (f"{span}.{name}", u, b) for name, u, b in extra]


PER_LAYER = tuple(
    [("cli.import_s", "s", "lower")]
    + _span_metrics("problem_io.load_problem", "calls self_s")
    + _span_metrics("report.build_report", "calls self_s")
    + _span_metrics("report.render_json", "self_s")
    + [("report.digest_mismatches", "count", "lower")]
    + _span_metrics("constraints.worst_case_value", "calls self_s")
    + _span_metrics("constraints.active_uncertainty", "calls self_s")
    + _span_metrics("constraints.worst_case_subdiff", "calls self_s")
    + _span_metrics("constraints.constraint_values", "calls")
    + _span_metrics("constraints.minimize_scalar", "calls self_s")
    + _span_metrics("expr.evaluate", "calls self_s")
    + _span_metrics("constraints.worst_case_values_batch", "calls self_s",
                    [("rows", "count", "lower")])
    + _span_metrics("expr.eval_broadcast", "calls self_s",
                    [("elements", "count", "lower")])
    + _span_metrics("subdiff.limiting_subdiff", "calls self_s")
    + _span_metrics("subdiff.scalarized_subdiff", "calls self_s")
    + _span_metrics("subdiff.linprog", "calls")
    + _span_metrics("polytope.min_norm_point", "calls self_s")
    + _span_metrics("polytope.extreme_points", "calls self_s")
    + _span_metrics("kkt.find_kkt_certificate", "calls self_s",
                    [("not_found", "count", "lower")])
    + [("kkt.unverified_found", "count", "lower")]
    + _span_metrics("kkt.verify_certificate", "calls self_s")
    + _span_metrics("kkt.check_cq", "calls self_s")
    + _span_metrics("kkt.linprog", "calls self_s",
                    [("feasible_ratio", "fraction", "higher")])
    + _span_metrics("convexity.classify_type", "calls self_s")
    + _span_metrics("convexity.dual_weight_grid", "calls self_s")
    + _span_metrics("efficiency.grid_context", "calls self_s")
    + _span_metrics("efficiency.certify_proper", "self_s")
    + _span_metrics("efficiency.linprog", "calls")
    + _span_metrics("duality.is_dual_feasible", "calls self_s")
    + _span_metrics("duality.weak_duality_test", "self_s")
    + _span_metrics("duality.converse_duality_check", "self_s")
    + [("trace.overhead_frac", "fraction", "lower"),
       ("env.calib_s", "s", "lower")]
)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _read_field(path: str, prefix: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown (no git)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cpu": _read_field("/proc/cpuinfo", "model name"),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": _read_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "commit": _git_commit(),
    }


def calibrate(reps: int = 5) -> float:
    """Median time of a fixed single-threaded kernel, to show host drift."""
    import numpy as np

    data = np.sin(np.arange(200_000, dtype=float))
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        acc = 0
        for i in range(400_000):
            acc += i * i % 7
        np.sort(data)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _fresh_python(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``, timed from outside."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ops.child_env(),
                   check=True)
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# op loop
# ---------------------------------------------------------------------------


class Runner:
    """Runs ops of one workload and keeps their times and check results."""

    def __init__(self, workload: str, problems: dict, record: dict):
        self.workload = workload
        self.problems = problems
        self.record = record
        self.tracer = None
        self.reset()

    def reset(self) -> None:
        self.times, self.strata, self.failures = [], [], []
        self.unverified = []
        self.digest_mismatches = 0
        self.peak_child_mb = 0.0

    def execute(self, op: dict):
        """(report text, seconds, failure reason or None) of one op."""
        if self.workload == "cli_session":
            spans_path = None if self.tracer is None else OUT / "spans.json"
            code, text, seconds, rss = ops.run_cli(op, OUT, spans_path)
            self.peak_child_mb = max(self.peak_child_mb, rss)
            if spans_path is not None:
                self.tracer.absorb(json.loads(spans_path.read_text()),
                                   op["op"])
            if code != 0:
                return text, seconds, f"exit code {code}: {text[-200:]}"
            return text, seconds, None
        if self.tracer is not None:
            self.tracer.op = op["op"]
        t0 = perf_counter()
        try:
            text, reason = ops.run_inprocess(op, self.problems), None
        except Exception as exc:  # an op that raises counts as failed
            text, reason = "", f"raised {type(exc).__name__}: {exc}"
        return text, perf_counter() - t0, reason

    def run(self, op: dict) -> None:
        text, seconds, reason = self.execute(op)
        if reason is None:
            reason, mismatch, failed_checks = ops.check(op, text, self.record)
            self.digest_mismatches += mismatch
            if failed_checks:
                self.unverified.append((op["op"], failed_checks))
        self.times.append(seconds)
        self.strata.append(op["stratum"])
        if reason is not None:
            self.failures.append((op["op"], reason))

    def loop(self, op_list: list, seconds: float = None, count: int = None):
        """Closed loop until ``seconds`` pass or ``count`` ops ran; wall time."""
        t0 = perf_counter()
        i = 0
        while (perf_counter() - t0 < seconds) if count is None else i < count:
            self.run(op_list[i % len(op_list)])
            i += 1
        return perf_counter() - t0


def tail(times: list):
    """(value, percentile, ops beyond): highest percentile with 10 ops beyond."""
    ordered = sorted(times)
    k = max(len(ordered) - 1 - TAIL_BEYOND, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


# ---------------------------------------------------------------------------
# measuring one workload
# ---------------------------------------------------------------------------


def load_fixtures() -> dict:
    from robustcert.problem_io import load_problem

    return {name: load_problem(spec) for name, spec in gen.PROBLEMS.items()}


def time_shares(runner: Runner) -> dict:
    """Each stratum's op count and share of the summed op time."""
    total = sum(runner.times)
    out = {}
    for stratum, seconds in zip(runner.strata, runner.times):
        n, t = out.get(stratum, (0, 0.0))
        out[stratum] = (n + 1, t + seconds)
    return {s: (n, t / total) for s, (n, t) in sorted(out.items())}


def _prepare(workload: str, seed: int):
    op_list = gen.generate(workload, seed)
    OUT.mkdir(exist_ok=True)
    (OUT / f"ops-{workload}-{seed}.json").write_text(json.dumps(op_list))
    runner = Runner(workload, load_fixtures(), ops.load_record())
    if workload != "cli_session":
        # warm-up: lazy imports and first-call set-up happen once per process
        runner.run(op_list[0])
        runner.reset()
    return op_list, runner


def measure(workload: str, seed: int, seconds: float, quick: bool) -> dict:
    setup = [_fresh_python(SETUP_CODE)
             for _ in range(1 if quick else SETUP_REPEATS)]
    op_list, runner = _prepare(workload, seed)
    wall = runner.loop(op_list, seconds, QUICK_OPS if quick else None)
    n = len(runner.times)
    (OUT / f"times-{workload}-{seed}.json").write_text(json.dumps(
        [[op["op"], op["stratum"], op["fixture"], op["command"], t]
         for op, t in zip(op_list, runner.times)]))
    tail_value, tail_pct, beyond = tail(runner.times)
    if workload == "cli_session":
        peak = runner.peak_child_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(runner.times),
        "op_tail_s": tail_value,
        "ops_per_s": n / wall,
        "peak_rss_mb": peak,
    }
    return {
        "workload": workload, "metrics": metrics, "attempted": n,
        "failed": len(runner.failures), "failures": runner.failures,
        "digest_mismatches": runner.digest_mismatches,
        "unverified": runner.unverified, "strata": time_shares(runner),
        "tail": (tail_pct, beyond), "setup_repeats": len(setup),
    }


def measure_traced(workload: str, seed: int, seconds: float,
                   quick: bool) -> dict:
    import_s = statistics.median(
        _fresh_python("import robustcert.cli")
        for _ in range(1 if quick else SETUP_REPEATS))
    op_list, runner = _prepare(workload, seed)
    count = QUICK_OPS if quick else None
    plain_wall = runner.loop(op_list, seconds / 2, count)
    done = len(runner.times)
    runner.reset()

    tracer = Tracer()
    if workload != "cli_session":
        tracer.install()
    try:
        from robustcert.problem_io import load_problem
        for spec in gen.PROBLEMS.values():
            load_problem(spec)
        runner.tracer = tracer
        traced_wall = runner.loop(op_list, count=done)
    finally:
        tracer.uninstall()
        runner.tracer = None
    tracer.write(OUT / f"trace-{workload}-{seed}.json")

    stats = layer_stats(tracer.names, tracer.spans)
    extras = {
        "cli.import_s": import_s,
        "report.digest_mismatches": runner.digest_mismatches,
        "kkt.unverified_found": len(runner.unverified),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        "env.calib_s": calibrate(),
    }
    metrics = {name: layer_value(name, stats, extras)
               for name, _, _ in PER_LAYER}
    return {"workload": workload, "metrics": metrics, "attempted": done,
            "failed": len(runner.failures), "failures": runner.failures,
            "unverified": runner.unverified, "spans": len(tracer.spans)}


def layer_value(name: str, stats: dict, extras: dict):
    if name in extras:
        return extras[name]
    span, stat = name.rsplit(".", 1)
    st = stats.get(span, {"calls": 0, "self_s": 0.0, "value": 0})
    if stat == "calls":
        return st["calls"]
    if stat == "self_s":
        return st["self_s"]
    if stat == "feasible_ratio":
        return st["value"] / st["calls"] if st["calls"] else 0.0
    return st["value"]


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


def record() -> int:
    """Run the default seed's op lists and write their verdicts and digests."""
    OUT.mkdir(exist_ok=True)
    problems = load_fixtures()
    entries = {}
    for workload, count in RECORD_OPS.items():
        runner = Runner(workload, problems, {})
        for op in gen.generate(workload, DEFAULT_SEED, count):
            key = ops.op_key(op)
            if key in entries:
                continue
            text, seconds, reason = runner.execute(op)
            if reason is not None:
                print(f"op {key} failed: {reason}", file=sys.stderr)
                return 1
            entries[key] = {"verdicts": ops.verdicts(json.loads(text)),
                            "digest": ops.digest(text)}
            print(f"{seconds:7.2f} s  {key}", flush=True)
    ops.RECORD_PATH.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "commit": _git_commit(), "ops": entries},
        indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(entries)} ops in {ops.RECORD_PATH.name}")
    return 0


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _units(spec) -> dict:
    return {name: unit for name, unit, _ in spec}


def print_result(res: dict, traced: bool) -> None:
    w = res["workload"]
    print(f"workload {w}: {res['attempted']} ops, {res['failed']} failed")
    if traced:
        print(f"  spans recorded: {res['spans']}")
        units = _units(PER_LAYER)
        for name, value in res["metrics"].items():
            print(f"  {name:48s} {value:.6g} {units[name]}")
    else:
        units = _units(END_TO_END)
        pct, beyond = res["tail"]
        notes = {
            "setup_s": f"median of {res['setup_repeats']} fresh interpreters",
            "op_tail_s": f"p{pct:.0f}, {beyond} ops beyond, n={res['attempted']}",
            "op_p50_s": f"n={res['attempted']}",
        }
        for name, value in res["metrics"].items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:12s} {value:.6g} {units[name]}{note}")
        rate = res["failed"] / res["attempted"]
        print(f"  {'error_rate':12s} {rate:.6g} fraction "
              f"({res['failed']}/{res['attempted']})")
        shares = ", ".join(f"{s} {n} ops {share:.0%}"
                           for s, (n, share) in res["strata"].items())
        print(f"  strata (ops, share of op time): {shares}")
        print(f"  report.digest_mismatches: {res['digest_mismatches']}")
    print(f"  kkt.unverified_found: {len(res['unverified'])} found "
          f"certificates fail verification")
    for op_id, checks in res["unverified"][:10]:
        print(f"  unverified op {op_id}: fails {', '.join(checks)}")
    for op_id, reason in res["failures"][:10]:
        print(f"  FAILED op {op_id}: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end and per-layer benchmark of robustcert.")
    ap.add_argument("--workload", default="all",
                    choices=("all",) + gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help=f"run {QUICK_OPS} ops per workload, untimed loop")
    ap.add_argument("--record", action="store_true",
                    help="rewrite verdicts.json from the default seed")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "robustcert" / "__init__.py").is_file():
        print(f"perfbench: no robustcert sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit, so a running CLI child is killed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    os.environ.pop("ROBUSTCERT_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.record:
        return record()

    if args.workload == "all":
        return run_all(args)
    print(f"# env: {json.dumps(environment())}")
    print(f"# calibration kernel: {calibrate():.6f} s")
    if args.trace:
        res = measure_traced(args.workload, args.seed, args.seconds,
                             args.quick)
    else:
        res = measure(args.workload, args.seed, args.seconds, args.quick)
    print_result(res, bool(args.trace))
    print(f"# calibration kernel after: {calibrate():.6f} s")
    units = _units(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in gen.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", w, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)] + (["--quick"] if args.quick else [])
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stdout + res.stderr)
            return res.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        last = json.loads(lines[-1])
        totals["correct"] &= last["correct"]
        totals["attempted"] += last["attempted"]
        totals["failed"] += last["failed"]
        for name, value in last["metrics"].items():
            totals["metrics"][f"{w}.{name}"] = value
    print(json.dumps(totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
