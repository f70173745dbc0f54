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
    (data,) = bench_record.record([Path(".")], seconds=1.0, runs=2)
    assert len(data["workloads"]) == len(bench_record.WORKLOADS) * len(bench_record.SEEDS)
    for entry in data["workloads"]:
        assert entry["correct"] is False
        assert entry["metrics"] == {
            "wall_s": {"median": 0.5, "iqr": 0.0, "unit": "s", "values": [0.5]},
            "peak_rss_mb": {"median": 40.0, "iqr": 0.0, "unit": "MB", "values": [40.0]},
        }


def test_a_failed_last_run_keeps_the_environment(bench_record, monkeypatch):
    # per workload and seed: a good run, then one that gives no result and
    # prints no environment
    calls = {}

    def fake_perfbench(root, workload, seed, seconds):
        calls[workload, seed] = calls.get((workload, seed), 0) + 1
        if calls[workload, seed] == 2:
            return {}, {"correct": False, "metrics": {}}
        return {"nproc": 2, "python": "3.11.7"}, {"correct": True, "metrics": {}}

    monkeypatch.setattr(bench_record, "_perfbench", fake_perfbench)
    monkeypatch.setattr(bench_record, "_git", lambda root, *args: "0" * 40 + "\n")
    (data,) = bench_record.record([Path(".")], seconds=1.0, runs=2)
    assert data["env"]["nproc"] == 2 and data["env"]["python"] == "3.11.7"
    assert not any(entry["correct"] for entry in data["workloads"])


def test_two_checkouts_alternate_within_each_workload_and_seed(bench_record, monkeypatch):
    # each run of one checkout is followed by the same workload and seed on
    # the other, and each file keeps only its own checkout's runs
    calls = []

    def fake_perfbench(root, workload, seed, seconds):
        calls.append((root, workload, seed))
        value = {"a": 1.0, "b": 2.0}[root.name]
        return {}, {"correct": True, "metrics": {"wall_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(bench_record, "_perfbench", fake_perfbench)
    monkeypatch.setattr(bench_record, "_git", lambda root, *args: root.name + "\n")
    a, b = Path("a"), Path("b")
    records = bench_record.record([a, b], seconds=1.0, runs=3)
    keys = [(w, s) for w in bench_record.WORKLOADS for s in bench_record.SEEDS]
    pairs = [calls[j : j + 2] for j in range(0, len(calls), 2)]
    assert [(w, s) for (_, w, s), _ in pairs] == keys * 3
    assert all(x[1:] == y[1:] and {x[0], y[0]} == {a, b} for x, y in pairs)
    # the first of a pair swaps from one workload and seed to the next, and
    # from one repetition of a workload and seed to the next
    firsts = [x[0] for x, _ in pairs]
    rows = [firsts[rep * len(keys) : (rep + 1) * len(keys)] for rep in range(3)]
    columns = [firsts[i :: len(keys)] for i in range(len(keys))]
    for line in rows + columns:
        assert all(p != q for p, q in zip(line, line[1:]))
    for data, root, value in zip(records, (a, b), (1.0, 2.0)):
        assert data["commit"] == root.name
        assert all(entry["correct"] for entry in data["workloads"])
        assert all(
            entry["metrics"]["wall_s"]["values"] == [value] * 3 for entry in data["workloads"]
        )


def test_each_out_needs_its_root(bench_record, monkeypatch):
    monkeypatch.setattr(bench_record, "record", lambda *args: pytest.fail("ran the benchmark"))
    with pytest.raises(SystemExit):
        bench_record.main(["--out", "a.json", "--out", "b.json", "--root", "a"])
