"""heatlaser benchmark: run one workload, check its output, print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-fig2 [--seed 0] [--seconds 30] [--trace 0]

Each repetition is a fresh interpreter (``child.py``) running the CLI the way a
user does, one command at a time.  Repetitions run until the next one would
end after ``--seconds``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs traced
and untraced repetitions in turn, both with ``--jobs 1``, and prints the
per-layer metrics.  The last line of standard output is one JSON object.
See README.md for why each workload and metric is there.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
from tracer import layer_metrics, self_test

BENCH_DIR = Path(__file__).resolve().parent
REF_DIR = BENCH_DIR / "ref"

WORKLOADS = {
    "sweep-fig2": {"config": "fig2", "jobs": 1},
    "sweep-fig5": {"config": "fig5", "jobs": 2},
    "sweep-bright": {"config": "perfbench/configs/bright.json", "jobs": 1},
    "wigner-fig2": {"config": "fig2", "nh": 2.0},
}

# Seed 0 runs the configs as written.  Any other seed moves the whole n_h grid
# (or the single n_h) up by k / SHIFTS of one log bin, for a k in
# 1..SHIFTS-1 drawn from the seed; make_refs.py writes a reference per k.
SHIFTS = 8

# One thread per process: with --jobs 2 on two cores, default BLAS threading
# would put four threads on two cores.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

MIN_REPS = 3

# Each CPU of the sandbox switches on its own between speeds up to 2x apart,
# in spells of seconds to minutes, which moves every timing by as much.  Each
# repetition also times a fixed calibration loop four times before set-up and
# four times after the command (child.py), on the CPUs it runs on; a
# repetition with one process is pinned to one CPU, taken in turn, so that the
# loop probes the CPU the command ran on.  Each of its times is scaled by
# (REFERENCE_CALIBRATION_S / median loop time) ** SPEED_EXPONENT: in the slow
# state the loop slowed about 1.9x while the workloads slowed 1.3-1.6x, about
# 1.9 ** 0.6, and over ten runs per workload the exponent 0.6 left the least
# spread.  Reported seconds are seconds at the speed where the loop takes
# REFERENCE_CALIBRATION_S.
REFERENCE_CALIBRATION_S = 0.03
SPEED_EXPONENT = 0.6
RUN_LIMIT_S = 170.0  # every run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cli.load_config.s": "s",
    "cli.cmd_sweep.self_s": "s",
    "cli.run_sweep.self_s": "s",
    "cli.cmd_distribution.self_s": "s",
    "solver.solve_model.self_s": "s",
    "solver.solve_model.retries": "count",
    "solver.solve_model.n_max_max": "count",
    "solver.solve_model.useful_frac": "1",
    "core.build_liouvillian.s": "s",
    "core.build_liouvillian.calls": "count",
    "core.build_liouvillian.nnz": "count",
    "core.build_liouvillian.dim_max": "count",
    "core.build_liouvillian.bytes": "B",
    "solver.steady_state.s": "s",
    "solver.steady_state.evolution_frac": "1",
    "solver.partial_trace_atom.s": "s",
    "solver.photon_distribution.s": "s",
    "solver.wigner.s": "s",
    "solver.wigner.grid_points": "count",
    "photonstats.scully_lamb_coefficients.s": "s",
    "photonstats.distribution_moments.s": "s",
    "photonstats.steady_distribution.s": "s",
    "semiclassical.lasing_gain.s": "s",
    "semiclassical.population_inversion.s": "s",
    "trace.overhead_s": "s",
    "check.failed_frac": "1",
    "check.ref_max_abs_err": "1",
}


def shift_index(seed: int) -> int:
    return 0 if seed == 0 else random.Random(seed).randrange(1, SHIFTS)


def _config_json(root: Path, config: str) -> dict:
    path = root / "src" / "heatlaser" / "presets" / f"{config}.json"
    return json.loads((path if "/" not in config else root / config).read_text())


def _bin_ratio(sweep: dict) -> float:
    return (sweep["stop"] / sweep["start"]) ** (1.0 / (sweep["points"] - 1))


def build_command(name: str, root: Path, work: Path, shift: int) -> tuple[list[str], int]:
    """CLI arguments (without --out/--jobs) and the number of operations."""
    spec = WORKLOADS[name]
    data = _config_json(root, spec["config"])
    ratio = _bin_ratio(data["sweep"]) ** (shift / SHIFTS)
    if "nh" in spec:
        argv = ["distribution", "--config", spec["config"], "--nh", repr(spec["nh"] * ratio), "--wigner"]
        return argv, 101 * 101
    config = spec["config"]
    if shift:
        data["sweep"]["start"] *= ratio
        data["sweep"]["stop"] *= ratio
        path = work / "config.json"
        path.write_text(json.dumps(data, indent=2))
        config = str(path)
    return ["sweep", "--config", config], data["sweep"]["points"]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], trace: bool, cpus: list[int], out: Path, env: dict, deadline: float) -> dict:
    """Run one repetition; resource usage comes from wait4 on that child alone."""
    out.mkdir(parents=True)
    report = out / "report.json"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        str(report),
        str(int(trace)),
        ",".join(map(str, cpus)),
        json.dumps(argv),
    ]
    with open(out / "child.log", "w") as log:
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(0.0, deadline - time.monotonic()), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not report.exists():
        tail = (out / "child.log").read_text()[-2000:]
        return {"error": f"exit code {proc.returncode}: {tail}"}
    result = json.loads(report.read_text())
    # ru_maxrss of a reaped child covers the child and the workers it reaped.
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def check_outputs(name: str, root: Path, out: Path, shift: int) -> checks.CheckResult:
    stem = _config_json(root, WORKLOADS[name]["config"])["output"]["stem"]
    if "nh" in WORKLOADS[name]:
        return checks.check_wigner(out / f"{stem}_distribution.csv", out / f"{stem}_wigner.csv")
    return checks.check_sweep(out / f"{stem}.csv", REF_DIR / name / f"shift{shift}.csv")


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = root / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment(root: Path) -> dict:
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(root),
    }


def highest_percentile(count: int) -> int:
    """Highest of p50/p90/p99 with at least ten samples beyond it."""
    return max((p for p in (90, 99) if count * (100 - p) / 100 >= 10), default=50)


def run(args) -> dict:
    root = Path.cwd()
    if not (root / "src" / "heatlaser" / "cli.py").is_file():
        raise SystemExit("perfbench: src/heatlaser not found; run from the repository root")
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    shift = shift_index(args.seed)
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        compileall.compile_dir(str(root / "src"), quiet=1)
        base, points = build_command(args.workload, root, work, shift)
        jobs = WORKLOADS[args.workload].get("jobs")
        env = child_env(root)
        all_cpus = sorted(os.sched_getaffinity(0))
        print(f"perfbench {args.workload}: seed {args.seed}, n_h shifted {shift}/{SHIFTS} of a log bin")
        print("env: " + json.dumps(environment(root), sort_keys=True))
        if args.trace:
            self_test()
            kinds = [True, False]  # traced and untraced, alternating
        else:
            kinds = [False]

        reps, problems = [], []
        attempted = failed = 0
        worst = 0.0
        last_s = 0.0
        while True:
            done = {k: sum(1 for r in reps if r["traced"] == k) for k in kinds}
            elapsed = time.monotonic() - started
            enough = min(done.values()) >= (1 if args.trace else MIN_REPS)
            # stop before a repetition that would end after --seconds
            if (enough and elapsed + last_s > args.seconds) or elapsed + last_s > RUN_LIMIT_S:
                break
            traced = kinds[len(reps) % len(kinds)]
            argv = list(base)
            processes = jobs if jobs is not None and not args.trace else 1
            if jobs is not None:
                argv += ["--jobs", str(processes)]
            cpus = all_cpus if processes > 1 else [all_cpus[len(reps) % len(all_cpus)]]
            out = work / f"rep{len(reps)}"
            argv += ["--out", str(out)]
            t0 = time.monotonic()
            rep = run_child(argv, traced, cpus, out, env, deadline)
            last_s = time.monotonic() - t0
            rep["traced"] = traced
            attempted += points
            if "error" in rep:
                failed += points
                problems.append(rep["error"])
                break
            if rep["wrappers_left"]:
                problems.append(f"tracer wrappers left bound: {rep['wrappers_left']}")
            result = check_outputs(args.workload, root, out, shift)
            failed += min(result.failed, points)
            worst = max(worst, result.max_abs_err)
            if result.failed:
                problems.extend(result.notes)
            elif not reps:
                for note in result.notes:
                    print("check: " + note)
            reps.append(rep)
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    failed_frac = failed / attempted
    print(f"failed_frac: {failed_frac!r} 1 ({failed} of {attempted} operations)")
    print(
        f"ref_max_abs_err: {worst!r} abs (a sweep value may miss by "
        f"{checks.SWEEP_ATOL:g} + {checks.SWEEP_RTOL:g}*|ref|, a Wigner point by {checks.WIGNER_ATOL:.3e})"
    )

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics = {}
    for r in reps:
        r["speed"] = (REFERENCE_CALIBRATION_S / statistics.median(r["calibration_s"])) ** SPEED_EXPONENT
    if reps:
        print(
            f"calibration loop: median {statistics.median(t for r in reps for t in r['calibration_s']):.5f} s "
            f"(reference {REFERENCE_CALIBRATION_S} s); unscaled medians: "
            + ", ".join(f"{k} {statistics.median(r[k] for r in reps):.4f} s" for k in ("setup_s", "wall_s", "cpu_s"))
        )

    def scaled(runs, key):
        return statistics.median(r[key] * r["speed"] for r in runs)

    if not args.trace and untraced:
        wall = scaled(untraced, "wall_s")
        metrics = {
            "setup_s": scaled(untraced, "setup_s"),
            "wall_s": wall,
            "points_per_s": points / wall,
            "cpu_s": scaled(untraced, "cpu_s"),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        walls = [r["wall_s"] * r["speed"] for r in untraced]
        print(
            f"wall_s: p{highest_percentile(len(walls))} over {len(walls)} repetitions (higher percentiles "
            f"need at least ten samples beyond them); all: {', '.join(f'{w:.3f}' for w in walls)} s"
        )
    if args.trace and traced and untraced:
        per_rep = [(layer_metrics(r["spans"]), r["speed"]) for r in traced]
        for key in per_rep[0][0]:
            values = [m[key] for m, _ in per_rep]
            if units[key] == "s":
                metrics[key] = statistics.median(m[key] * speed for m, speed in per_rep)
            elif len(set(values)) > 1:
                problems.append(f"count {key} differs between traced runs: {values}")
            else:
                metrics[key] = values[0]
        metrics["trace.overhead_s"] = scaled(traced, "wall_s") - scaled(untraced, "wall_s")
        metrics["check.failed_frac"] = failed_frac
        metrics["check.ref_max_abs_err"] = worst

    for problem in problems:
        print("problem: " + problem, file=sys.stderr)
    complete = set(metrics) == set(units)
    for key, value in metrics.items():
        print(f"{key}: {value!r} {units[key]}")
    return {
        "correct": complete and failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
