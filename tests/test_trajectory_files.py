"""The benchmark trajectory: every ``BENCH_*.json`` at the repository root
keeps the shared ``runs`` layout that paired-run summaries read.

A record names a workload that ``BENCHMARK.json`` declares, an integer
seed, a string side and a result with its operation counts and metrics.
A paired run (one with ``first``) carries every end-to-end metric.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_is_not_empty():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_run_has_the_shared_layout(path):
    runs = json.loads(path.read_text())["runs"]
    assert isinstance(runs, list) and runs
    for k, run in enumerate(runs):
        where = f"{path.name} run {k}"
        assert run["workload"] in WORKLOADS, where
        assert isinstance(run["seed"], int) and not isinstance(run["seed"], bool), where
        assert isinstance(run["side"], str), where
        result = run["result"]
        assert {"attempted", "correct", "failed", "metrics"} <= set(result), where
        if "first" in run:
            assert END_TO_END <= set(result["metrics"]), where
