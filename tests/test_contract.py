"""Contract fuzz of the command line: exit codes and the numbers of an ok record.

Random engines, sweep grids and argument lists go through ``cli.main``.
Every command must exit 0, 2 or 3 and raise nothing else; every ``ok``
sweep record must have a mean, variance and Fano factor >= 0 on both
routes; and the closed-form mean of every point must match the mean of its
own cut row.  The explicit examples are the two breaks this contract first
caught: a bath so cold that its Planck occupation overflowed, and a point far
below threshold whose closed-form mean X - Y + Y P_0 was round-off.
"""

import csv
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heatlaser.cli import load_config, main
from heatlaser.photonstats import closed_form_grid

# the mean of a cut row misses the chain's by its tail past P_n < 1e-12
MEAN_RTOL, MEAN_ATOL = 1e-9, 1e-12


def _decades(lo, hi):
    # positive floats, uniform in log10 over [lo, hi]
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def engines(draw):
    """A ``model`` block: random rates, each bath by occupation or temperature."""
    four = draw(st.booleans())
    block = {"kind": "four_level" if four else "three_level"}
    for key in ("g", "kappa", "gamma_h", "gamma_c", "gamma_a")[: 5 if four else 4]:
        block[key] = draw(_decades(-2, 2))
    for bath in ("h", "c", "a")[: 3 if four else 2]:
        block[f"{draw(st.sampled_from('nT'))}_{bath}"] = draw(_decades(-3, 2))
    return block


@st.composite
def sweeps(draw):
    start = draw(_decades(-3, 2))
    return {
        "start": start,
        "stop": start * draw(_decades(0, 1)),
        "points": draw(st.integers(1, 3)),
        "spacing": draw(st.sampled_from(["linear", "log"])),
    }


@st.composite
def argvs(draw):
    """An argument list: options in any order, some forms wrong.

    ``@config`` and ``@out`` stand for the config path and output directory.
    """
    command = draw(st.sampled_from(["sweep", "distribution", "thresholds"]))
    options = [["--config", "@config"]]
    if draw(st.booleans()):
        options.append(["--format", draw(st.sampled_from(["csv", "json", "both", "xml"]))])
    if command == "distribution":
        if draw(st.booleans()):
            options.append(["--wigner"])
        bad = st.sampled_from(["nan", "-1", "inf", "abc", ""])
        options.append(["--nh", draw(st.one_of(_decades(-3, 2).map(repr), bad))])
    if command == "sweep" and draw(st.booleans()):
        options.append(["--jobs", draw(st.sampled_from(["1", "2", "x"]))])
    mistake = draw(st.sampled_from([None, "drop", "unknown", "no value"]))
    if mistake == "drop":  # --config, or --nh of a distribution
        options.pop(draw(st.sampled_from([0, -1] if command == "distribution" else [0])))
    # --out is never dropped: the default "." would write where the tests run
    options = draw(st.permutations([*options, ["--out", "@out"]]))
    if mistake == "unknown":
        unknown = draw(st.sampled_from(["--bogus", "--conf=x", "extra"]))
        options.insert(draw(st.integers(0, len(options))), [unknown])
    argv = [command]
    for option in options:
        joined = len(option) == 2 and draw(st.booleans())
        argv += ["=".join(option)] if joined else option
    if mistake == "no value":
        argv.append(draw(st.sampled_from(["--config", "--out", "--format", "--nh", "--jobs"])))
    return argv


def _records(out):
    # the sweep records, from whichever file --format left; NaN for null
    path = out / "run.csv"
    if path.exists():
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        return [{k: v if k == "status" else float(v) for k, v in row.items()} for row in rows]
    records = json.loads((out / "run.json").read_text())["records"]
    return [{k: math.nan if v is None else v for k, v in record.items()} for record in records]


COLD = {"kind": "three_level", "g": 14.0, "kappa": 1.0, "gamma_h": 32.0, "gamma_c": 32.0,
        "T_h": 0.002, "n_c": 0.05}
FAR_BELOW = {"kind": "three_level", "g": 0.0012, "kappa": 424.0, "gamma_h": 3141.0,
             "gamma_c": 1731.0, "n_h": 1.0, "n_c": 457.0}
FAR_BELOW_GRID = {"start": 64.69, "stop": 162.5, "points": 2, "spacing": "linear"}


@settings(deadline=None, max_examples=25)
@given(engine=engines(), sweep=sweeps(), argv=argvs())
# T_h = 0.002 at omega_h = 2: exp(1000) overflowed in the Planck occupation
@example(engine=COLD, sweep=FAR_BELOW_GRID, argv=["thresholds", "--config", "@config", "--out", "@out"])
# X and Y near 1e16 with a mean near 4e-15: the formula gave means 4 and 8
# and variances near -1e17
@example(engine=FAR_BELOW, sweep=FAR_BELOW_GRID, argv=["sweep", "--config", "@config", "--out", "@out"])
def test_every_command_keeps_the_contract(tmp_path_factory, engine, sweep, argv):
    base = tmp_path_factory.mktemp("contract")
    config, out = base / "config.json", base / "out"
    data = {"schema_version": 1, "model": engine, "sweep": sweep, "output": {"stem": "run"}}
    config.write_text(json.dumps(data))
    argv = [token.replace("@config", str(config)).replace("@out", str(out)) for token in argv]
    try:
        code = main(argv)
    except SystemExit as exit_:  # an argument error, refused where it is parsed
        code = exit_.code
    assert code in (0, 2, 3)

    loaded = load_config(config)
    columns, _, rows, failures = closed_form_grid(loaded.model, loaded.sweep.values())
    for mean, row, failure in zip(columns["mean_analytic"], rows, failures):
        if failure is None and row is not None:
            row_mean = np.arange(row.size) @ row
            assert abs(mean - row_mean) <= MEAN_RTOL * row_mean + MEAN_ATOL

    if argv[0] == "sweep" and code == 0:
        for record in _records(out):
            if record["status"] != "ok":
                continue
            for route in ("analytic", "numeric"):
                mean, variance, fano = (record[f"{m}_{route}"] for m in ("mean", "variance", "fano"))
                assert mean >= 0 and variance >= 0, record
                assert fano >= 0 or (mean == 0 and math.isnan(fano)), record
