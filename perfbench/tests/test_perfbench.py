"""Smoke tests for the benchmark's own code.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from spans import LAYERS, Tracer, layer_stats, robustcert_modules  # noqa: E402


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    a = gen.generate(workload, 7, 80)
    assert a == gen.generate(workload, 7, 80)
    assert a != gen.generate(workload, 8, 80) or workload == "grid_sweeps"
    assert {op["stratum"] for op in a} == {"anchor", "kink", "uniform"}


def test_generator_mix_does_not_depend_on_seed():
    def mix(ops_):
        return [(o["fixture"], o["stratum"], o["command"]) for o in ops_]

    for workload in gen.WORKLOADS:
        assert mix(gen.generate(workload, 1, 60)) == \
            mix(gen.generate(workload, 2, 60))


def test_generator_strata_points():
    src = gen.PointSource(3)
    for name in gen.PROBLEMS:
        lower, upper = src.boxes[name]
        kinks = src.kinks[name]
        assert kinks and gen.ANCHORS[name] not in kinks
        for z in kinks:
            assert all(2 * v == int(2 * v) for v in z)
        for _ in range(20):
            z = src.draw(name, "uniform")
            assert all(lo <= v <= hi for v, lo, hi in zip(z, lower, upper))
        assert src.draw(name, "anchor") == list(gen.ANCHORS[name])


def test_point_reports_reach_every_problem_and_stratum():
    pairs = {(o["fixture"], o["stratum"])
             for o in gen.generate("point_reports", 0, 45)}
    assert pairs == {(f, s) for f in gen.PROBLEMS
                     for s in ("anchor", "kink", "uniform")}


def test_certificate_searches_at_uniform_points_use_the_coarse_lattice():
    for op in gen.generate("cli_session", 0, 120):
        searches = op["command"] in gen.CERT_SEARCH
        coarse = op["options"].get("ygrid") == gen.UNIFORM_YGRID
        assert coarse == (searches and op["stratum"] == "uniform")


# ---------------------------------------------------------------------------
# verdict check
# ---------------------------------------------------------------------------


def _report(found=True, ok=True, failed_checks=(), feasible=True):
    checks = {"stationarity": True, "complementarity": True}
    checks.update({k: False for k in failed_checks})
    return {
        "provenance": {"generated_at": "x"},
        "feasibility": {"feasible": feasible, "psi": [0.0]},
        "cq": {"satisfied": True},
        "kkt": {"found": found,
                "verification": {"ok": ok, "checks": checks}},
        "efficiency": {"weak": {"certified": True},
                       "proper": {"certified": False}},
        "duality": {"weak_typeI": {"holds": True},
                    "converse": {"consistent": True,
                                 "feasibility": {"feasible": True}}},
        "convexity": {"type_i": {"status": "refuted"}},
    }


def test_verdict_vector():
    v = ops.verdicts(_report())
    assert v == {
        "feasibility.feasible": True, "cq.satisfied": True,
        "kkt.found": True, "kkt.verification.ok": True,
        "efficiency.weak.certified": True,
        "efficiency.proper.certified": False,
        "duality.weak_typeI.holds": True,
        "duality.converse.consistent": True,
        "duality.converse.feasibility.feasible": True,
        "convexity.type_i.status": "refuted",
    }


def test_check_against_record():
    op = gen.generate("point_reports", 0, 1)[0]
    text = json.dumps(_report(), indent=2, sort_keys=True)
    record = {ops.op_key(op): {"verdicts": ops.verdicts(_report()),
                               "digest": ops.digest(text)}}
    assert ops.check(op, text, record) == (None, False, [])
    # a new timestamp is not a byte difference
    stamped = text.replace('"generated_at": "x"', '"generated_at": "y"')
    assert ops.check(op, stamped, record) == (None, False, [])
    # other bytes are, but they are counted, not failed
    other = text.replace('"psi": [\n', '"psi": [\n      1.0,\n')
    assert ops.check(op, other, record) == (None, True, [])
    flipped = json.dumps(_report(found=False))
    reason, _, _ = ops.check(op, flipped, record)
    assert "kkt.found" in reason
    # an unrecorded op is not compared
    assert ops.check(op, flipped, {}) == (None, False, [])
    assert ops.check(op, "not json", {})[0]


def test_unverified_certificates_are_counted():
    op = gen.generate("point_reports", 0, 1)[0]
    bad = _report(ok=False, failed_checks=["complementarity", "sign"])
    assert ops.check(op, json.dumps(bad), {}) == \
        (None, False, ["complementarity", "sign"])
    # a recorded op must also reproduce the recorded found/ok pair
    record = {ops.op_key(op): {"verdicts": ops.verdicts(_report()),
                               "digest": ""}}
    reason, _, checks = ops.check(op, json.dumps(bad), record)
    assert "kkt.verification.ok" in reason and checks
    # a certificate that was not found is not counted
    assert ops.check(op, json.dumps(_report(found=False, ok=False)),
                     {})[2] == []


def test_cli_args_round_trip_the_point():
    op = gen.generate("cli_session", 4, 30)[2]
    args = ops.cli_args(op)
    text = next(a for a in args if a.startswith("--point="))
    assert [float(v) for v in text[8:].split(",")] == op["point"]


# ---------------------------------------------------------------------------
# metrics and output
# ---------------------------------------------------------------------------


def test_tail_has_ten_ops_beyond():
    times = [float(i) for i in range(30)]
    value, pct, beyond = run.tail(times)
    assert (value, beyond) == (19.0, 10)
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail([3.0, 1.0, 2.0])[0] == 1.0


def test_print_result_names_every_metric_with_its_unit():
    res = {"workload": "grid_sweeps", "attempted": 12, "failed": 0,
           "failures": [], "digest_mismatches": 0,
           "unverified": [(3, ["complementarity"])],
           "strata": {"anchor": (12, 1.0)},
           "tail": (9.0, 10), "setup_repeats": 5,
           "metrics": {name: 1.5 for name, _, _ in run.END_TO_END}}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.print_result(res, traced=False)
    text = out.getvalue()
    for name, unit, _ in run.END_TO_END:
        assert f"{name}" in text and f"1.5 {unit}" in text
    assert "error_rate" in text
    assert "anchor 12 ops 100%" in text
    assert "kkt.unverified_found: 1" in text


def test_benchmark_json_matches_the_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(gen.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


def test_quick_run_prints_the_end_to_end_metrics():
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "grid_sweeps",
         "--quick", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    last = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] == run.QUICK_OPS
    assert list(last["metrics"]) == [n for n, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_reports",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout


# ---------------------------------------------------------------------------
# span wrappers
# ---------------------------------------------------------------------------

# a generator cone is the only use of constraints.linprog
GENERATOR_CONE = {
    "decision_dim": 1, "uncertainty_dim": 0,
    "objectives": ["z1", "-z1"], "constraints": ["z1 - 1"],
    "uncertainty": {"type": "finite", "points": [[]]},
    "cone": {"type": "generators", "rays": [[1, 0], [1, 1]]},
    "box": {"lower": [-1], "upper": [1]},
}


def _tiny_ops():
    """One op per kind, enough to reach every wrapped function."""
    mk = gen._op
    return [
        mk(0, "point_reports", "kink", "ex3_2", "report", [0.0, 0.0]),
        mk(1, "point_reports", "anchor", "union_kink", "report", [0.0, 0.0]),
        mk(2, "cli_session", "anchor", "ex3_2", "kkt", [0.0, 1.0],
           exact_scalarization=True),
        mk(3, "grid_sweeps", "anchor", "ex3_3", "dual", [0.0, 1.0],
           triple=gen.ANCHOR_TRIPLES["ex3_3"]),
    ]


def _run_tiny():
    from robustcert import cli, problem_io

    problems = run.load_fixtures()
    texts = [ops.digest(ops.run_inprocess(op, problems))
             for op in _tiny_ops()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["check", "--problem", "ex2_2", "--point=0,-2",
                         "--json"]) == 0
    texts.append(ops.digest(out.getvalue()))
    problem_io.load_problem(GENERATOR_CONE)
    return texts


def test_span_wrappers_cover_every_function_and_alias():
    mods = robustcert_modules()
    plain = _run_tiny()
    tracer = Tracer()
    names = tracer.install()
    try:
        originals = [m.__wrapped__ for m in (
            getattr(mods[mod], fn) for mod, fns in LAYERS.items()
            for fn in fns)]
        for mod in mods.values():
            for attr, val in vars(mod).items():
                assert not any(val is o for o in originals), \
                    f"{mod.__name__}.{attr} is not wrapped"
        assert mods["constraints"].psi is mods["constraints"].worst_case_value
        traced = _run_tiny()
    finally:
        tracer.uninstall()
    stats = layer_stats(tracer.names, tracer.spans)
    missing = [n for n in names if stats.get(n, {}).get("calls", 0) == 0]
    assert not missing, f"no spans for {missing}"
    for foreign in ("kkt.linprog", "subdiff.linprog", "efficiency.linprog",
                    "constraints.linprog", "constraints.minimize_scalar"):
        assert foreign in names
    assert traced == plain
    for mod_name, fns in LAYERS.items():
        for fn in fns:
            assert not hasattr(getattr(mods[mod_name], fn), "__wrapped__")


def test_self_time_excludes_children():
    names = ["a", "b"]
    spans = [[0, 0.0, 10.0, -1, 0, 0], [1, 1.0, 4.0, 0, 0, 2],
             [1, 5.0, 6.0, 0, 0, 3]]
    stats = layer_stats(names, spans)
    assert stats["a"]["self_s"] == pytest.approx(6.0)
    assert stats["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0,
                          "value": 5}
    assert np.isclose(stats["a"]["total_s"], 10.0)
