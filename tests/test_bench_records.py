"""The committed perfbench records (BENCH_*.json) are whole.

Each record compares parent and change runs per workload.  Both sides must
hold the same number of runs, every run must have passed the benchmark's
output check without a failed operation, and each claim_<workload>_<metric>
key must name a workload and an end-to-end metric of BENCHMARK.json.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
METRICS = {m["name"] for m in SPEC["end_to_end"]}


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_runs_pair_up_and_passed(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["workloads"]
    for workload, sides in record["workloads"].items():
        assert workload in WORKLOADS
        parent, change = sides["parent"]["runs"], sides["change"]["runs"]
        assert parent and len(parent) == len(change), workload
        for run in parent + change:
            assert run["correct"] is True and run["failed"] == 0, workload


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_claims_name_a_workload_and_an_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    named = {f"claim_{w}_{m}" for w in WORKLOADS for m in METRICS}
    claims = [key for key in record if key.startswith("claim")]
    assert all(key in named for key in claims), claims
