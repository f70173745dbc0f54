"""Record the benchmark's end-to-end metrics of a checkout in a BENCH_*.json file.

Usage, from the repository root:

    python tools/bench_record.py --out BENCH_21.json [--root DIR] [--seconds 6] [--runs 3]
    python tools/bench_record.py --out BENCH_23.json --root . \
        --out parent.json --root ../parent

For each of the benchmark's four workloads, at seeds 0 and 3, it runs ``perfbench/run.py --trace 0`` ``--runs`` times in ``--root`` and
keeps the last JSON line of each run: its metrics and ``correct``.  The file
it writes holds, per workload and seed, the median and the interquartile
range over those runs of each end-to-end metric, and whether every run was
correct; and, for the whole file, the commit of ``--root``, whether its
working tree differed from that commit (``git status --porcelain``, since
perfbench's own record names the commit either way), the settings, and the
``nproc``, Python, numpy and BLAS that perfbench reports.  Runs alternate
across workloads and seeds, so that a slow spell of the CPU does not fall on
one of them only.  Exits 1 unless every run was correct, so that a quick
``--seconds 1 --runs 1`` call can gate CI.

Given ``--out`` and ``--root`` twice, it records both checkouts in one
session and writes one file per checkout, each as above.  Every run of one
checkout is followed by the same workload and seed on the other, and which
of the two goes first swaps from one workload and seed to the next and from
one repetition to the next, so the two files can be compared run for run.
Files from different sessions can differ by more than a change does, since
the CPU's speed differs between sessions.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep-fig2", "sweep-fig5", "sweep-bright", "wigner-fig2")
# seed 0 runs the configs as written, seed 3 a shifted n_h grid
SEEDS = (0, 3)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, capture_output=True, text=True, check=True
    ).stdout


def _perfbench(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The environment record and the result of one ``perfbench/run.py`` run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    env = next((json.loads(line[5:]) for line in lines if line.startswith("env: ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
        print(f"{workload} seed {seed}: no result\n{done.stderr}", file=sys.stderr)
    return env, result


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def record(roots: list[Path], seconds: float, runs: int) -> list[dict]:
    """One BENCH record per checkout in ``roots``, their runs interleaved."""
    dirty = [bool(_git(root, "status", "--porcelain").strip()) for root in roots]
    keys = [(workload, seed) for workload in WORKLOADS for seed in SEEDS]
    results = [{key: [] for key in keys} for _ in roots]
    envs = [{} for _ in roots]
    for rep in range(runs):
        for i, (workload, seed) in enumerate(keys):
            # the checkout that goes first turns with each repetition and
            # each workload and seed
            first = (rep + i) % len(roots)
            for k in [*range(first, len(roots)), *range(first)]:
                env, result = _perfbench(roots[k], workload, seed, seconds)
                # a failed run prints no environment: keep the last one found
                envs[k] = env or envs[k]
                results[k][workload, seed].append(result)
                print(
                    f"{roots[k]} {workload} seed {seed}: correct {result['correct']}",
                    file=sys.stderr,
                )
    return [
        _summary(root, found, env, is_dirty, seconds, runs)
        for root, found, env, is_dirty in zip(roots, results, envs, dirty)
    ]


def _summary(root: Path, results: dict, env: dict, dirty: bool, seconds: float, runs: int) -> dict:
    entries = []
    for (workload, seed), found in results.items():
        # a run that gave no result has no metrics, so the names are those
        # of every run, each with the unit of the first run that has it
        units = {}
        for r in found:
            for name, metric in r["metrics"].items():
                units.setdefault(name, metric["unit"])
        metrics = {}
        for name, unit in units.items():
            values = [r["metrics"][name]["value"] for r in found if name in r["metrics"]]
            low, high = _quartiles(values)
            metrics[name] = {
                "median": statistics.median(values),
                "iqr": high - low,
                "unit": unit,
                "values": values,
            }
        correct = all(r["correct"] is True for r in found)
        entries.append({"workload": workload, "seed": seed, "correct": correct, "metrics": metrics})
    return {
        "commit": _git(root, "rev-parse", "HEAD").strip(),
        "dirty": dirty,
        "settings": {"seconds": seconds, "runs": runs},
        "env": {key: env.get(key) for key in ("nproc", "python", "numpy", "blas", "blas_threads")},
        "workloads": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, action="append", required=True,
        help="BENCH_*.json file to write; twice to record two checkouts",
    )
    parser.add_argument(
        "--root", type=Path, action="append",
        help="checkout to measure, one per --out (default: the current directory)",
    )
    parser.add_argument("--seconds", type=float, default=6.0, help="--seconds of each perfbench run")
    parser.add_argument("--runs", type=int, default=3, help="perfbench runs per workload and seed")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    roots = args.root or [Path.cwd()]
    if len(roots) != len(args.out):
        parser.error("give one --root for each --out")
    records = record([root.resolve() for root in roots], args.seconds, args.runs)
    for out, data in zip(args.out, records):
        out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        for entry in data["workloads"]:
            wall = entry["metrics"].get("wall_s", {})
            median, iqr = wall.get("median", math.nan), wall.get("iqr", math.nan)
            print(
                f"{entry['workload']} seed {entry['seed']}: correct {entry['correct']}, "
                f"wall_s median {median:.5f} s, IQR {iqr:.5f} s"
            )
        print(f"wrote {out}")
    correct = all(entry["correct"] for data in records for entry in data["workloads"])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
