"""``tools/bench_record.py`` keeps what its runs measured.

The tool is loaded by path, and ``_perfbench`` is replaced so that no
benchmark runs: each call returns the next canned result.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).parents[1] / "tools" / "bench_record.py"


@pytest.fixture
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_failed_first_run_keeps_the_later_runs_metrics(bench_record, monkeypatch):
    metrics = {"wall_s": {"value": 0.5, "unit": "s"}, "peak_rss_mb": {"value": 40.0, "unit": "MB"}}
    good = {"correct": True, "metrics": metrics}
    # per workload and seed: the first run gives no result, the second a good one
    calls = {}

    def fake_perfbench(root, workload, seed, seconds):
        calls[workload, seed] = calls.get((workload, seed), 0) + 1
        if calls[workload, seed] == 1:
            return {}, {"correct": False, "metrics": {}}
        return {"nproc": 2}, good

    monkeypatch.setattr(bench_record, "_perfbench", fake_perfbench)
    monkeypatch.setattr(bench_record, "_git", lambda root, *args: "0" * 40 + "\n")
    data = bench_record.record(Path("."), seconds=1.0, runs=2)
    assert len(data["workloads"]) == len(bench_record.WORKLOADS) * len(bench_record.SEEDS)
    for entry in data["workloads"]:
        assert entry["correct"] is False
        assert entry["metrics"] == {
            "wall_s": {"median": 0.5, "iqr": 0.0, "unit": "s", "values": [0.5]},
            "peak_rss_mb": {"median": 40.0, "iqr": 0.0, "unit": "MB", "values": [40.0]},
        }
