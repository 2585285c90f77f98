"""Every benchmark record at the repo root carries what a speed claim needs.

A ``BENCH_<topic>.json`` names its topic and the harness command, the
machine and the Python/numpy/scipy versions it ran on, and, per workload, at
least three parent/change pairs of metric readings.
"""

import json
from numbers import Real
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_machine_versions_and_pairs(path):
    data = json.loads(path.read_text())
    for key in ("topic", "harness", "machine", "versions"):
        assert data.get(key), f"{path.name} has no '{key}'"
    assert data.get("workloads"), f"{path.name} has no workloads"
    for name, workload in data["workloads"].items():
        pairs = workload.get("pairs", [])
        assert len(pairs) >= 3, f"{path.name}: {name} has {len(pairs)} pairs"
        for pair in pairs:
            for side in ("parent", "change"):
                metrics = pair.get(side)
                assert isinstance(metrics, dict) and metrics, \
                    f"{path.name}: {name} pair without '{side}' metrics"
                assert all(isinstance(v, Real) for v in metrics.values())
