"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: child.py REPORT TRACE CPUS ARGV_JSON

CPUS is a comma-separated list of the CPUs the repetition runs on.

Times set-up (importing ``heatlaser.cli`` and parsing the config, which every
user of the CLI pays) apart from ``cli.main(argv)``, takes the CPU of this
process and of the pool workers it reaped during ``cli.main``, times a fixed
calibration loop before set-up and after the command, and writes a JSON
report.  With TRACE=1 the tracer wraps the package after import and the report
carries the spans.  Either way the report lists any tracer wrapper still bound
when the run ends, which must be none.
"""

import json
import os
import resource
import sys
import time


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def calibration_samples(cpus, count=4):
    """Times of a fixed interpreter-bound loop, a probe of each CPU's speed.

    The loop runs ``count`` times in all, spread evenly over ``cpus``.
    """
    samples = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        for _ in range(max(1, count // len(cpus))):
            start = time.perf_counter()
            table = {f"k{i}": i * 0.5 for i in range(60000)}
            sum(v for k, v in table.items() if k.endswith("7"))
            samples.append(time.perf_counter() - start)
    os.sched_setaffinity(0, cpus)
    return samples


def main():
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    cpus = [int(c) for c in sys.argv[3].split(",")]
    argv = json.loads(sys.argv[4])
    config = argv[argv.index("--config") + 1]

    from tracer import Tracer, installed_wrappers

    calibration = calibration_samples(cpus)
    start = time.perf_counter()
    import heatlaser.cli as cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    cli.load_config(config)
    setup_s = time.perf_counter() - start

    cpu_before = cpu_seconds()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        wall_s = time.perf_counter() - start
        cpu_s = cpu_seconds() - cpu_before
        if tracer is not None:
            tracer.uninstall()

    calibration += calibration_samples(cpus)

    report = {
        "code": code,
        "calibration_s": calibration,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "wrappers_left": installed_wrappers(),
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(report_path, "w") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
