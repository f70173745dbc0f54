import csv
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import heatlaser
import heatlaser.photonstats
import heatlaser.semiclassical
import heatlaser.solver
from heatlaser import (
    PhotonDistribution,
    TruncationError,
    photon_distribution,
    population_inversion,
    scully_lamb_coefficients,
    solve_model,
    steady_distribution,
    wigner,
    with_hot_occupation,
)
from heatlaser.cli import (
    ConfigError,
    SWEEP_FIELDS,
    dumps_config,
    load_config,
    _write_csv,
    main,
    run_sweep,
)
from heatlaser.photonstats import BATCH_RUNGS, GRID_COLUMNS, closed_form_grid
from heatlaser.solver import exact_grid

from conftest import BRIGHT, dense_state, make_fig2_model

BASE_CONFIG = {
    "schema_version": 1,
    "model": {
        "kind": "three_level",
        "gamma_h": 32.0,
        "gamma_c": 32.0,
        "n_h": 1.0,
        "n_c": 0.05,
        "g": 14.0,
        "kappa": 1.0,
    },
    "sweep": {"variable": "n_h", "start": 0.4, "stop": 1.2, "points": 2, "spacing": "log"},
    "output": {"stem": "case", "format": "csv"},
}


# BASE_CONFIG with each bath given by its temperature
THERMAL = {"model.n_h": None, "model.n_c": None, "model.T_h": 2.0, "model.T_c": 0.5}


def write_config(tmp_path, overrides=None, name="config.json"):
    data = json.loads(json.dumps(BASE_CONFIG))
    for keys, value in (overrides or {}).items():
        block = data
        parts = keys.split(".")
        for key in parts[:-1]:
            block = block.setdefault(key, {})
        if value is None:
            block.pop(parts[-1], None)
        else:
            block[parts[-1]] = value
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_load_preset_configs():
    for preset in ("fig2", "fig5"):
        config = load_config(preset)
        assert config.raw["schema_version"] == 1
        assert config.sweep is not None


def test_config_round_trip(tmp_path):
    path = write_config(tmp_path)
    config = load_config(path)
    echoed = tmp_path / "echo.json"
    echoed.write_text(dumps_config(config))
    again = load_config(echoed)
    assert again.raw == config.raw


def test_config_errors(tmp_path, capsys):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        load_config(bad)
    # a directory and a file that is not UTF-8 are config errors too
    with pytest.raises(ConfigError, match="Is a directory"):
        load_config(tmp_path)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"model": "\xe9"}')
    with pytest.raises(ConfigError, match="can't decode"):
        load_config(latin)
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="list.json: top level must be an object"):
        load_config(listed)
    # such a config exits 2 with its message and writes nothing
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(listed), "--out", str(out)]) == 2
    assert capsys.readouterr().err.strip() == f"config error: {listed}: top level must be an object"
    assert not out.exists()
    for overrides, fragment in [
        ({"schema_version": 2}, "schema_version"),
        ({"model.kind": "two_level"}, "kind"),
        ({"model.kappa": None}, "kappa"),
        ({"model.T_h": 1.0}, "not both"),
        ({"sweep.points": 0}, "points"),
        ({"sweep.spacing": "cubic"}, "spacing"),
        ({"output.format": "xml"}, "format"),
        # a stem is a plain file name in --out: no path out of it, and no NUL
        ({"output.stem": ""}, "output.stem: must be a plain file name, got ''"),
        ({"output.stem": "../escaped"}, "output.stem: must be a plain file name, got '../escaped'"),
        ({"output.stem": "a\x00b"}, "output.stem: must be a plain file name, got 'a"),
        # json reads NaN and Infinity; they must not reach the numerics
        ({"model.kappa": float("nan")}, "kappa: expected a finite number"),
        ({"model.g": float("inf")}, "g: expected a finite number"),
        ({"model.level_energies": [0.0, float("nan"), 2.0]}, "level_energies"),
        ({"model": None}, "model: missing required block"),
        ({"sweep": 3}, "sweep: must be an object"),
        ({"output": "csv"}, "output: must be an object"),
        ({"sweep.points": 2.5}, "sweep.points: expected an integer, got 2.5"),
        ({"sweep.points": True}, "sweep.points: expected an integer, got True"),
        ({"model.kind": 3}, "model.kind: expected a string, got 3"),
        ({"model.n_h": None}, "model: one of n_h or T_h is required"),
        ({"model.gamma_h": -1.0}, "model: bath rate gamma must be finite and >= 0, got -1.0"),
        ({"model.level_energies": [0.0, 2.0, 1.0]}, "model: level energies must be finite and strictly"),
        # a list too short for the kind, checked before the bath frequencies read it
        ({"model.level_energies": []}, "model: three_level model needs 3 level energies, got 0"),
        ({"model.level_energies": [0]}, "model: three_level model needs 3 level energies, got 1"),
        (
            {"model": {**load_config("fig5").raw["model"], "level_energies": [0, 1, 2]}},
            "model: four_level model needs 4 level energies, got 3",
        ),
        # a temperature config names the bad ladder, not the gap it gives
        (
            {**THERMAL, "model.level_energies": [0, -1, 2]},
            "model: level energies must be finite and strictly increasing",
        ),
        # finite steps whose sum, omega_h, overflows
        (
            {**THERMAL, "model.level_energies": [-1e308, 0, 1e308]},
            "model: level energies must span a finite range E_top - E_g",
        ),
        (
            {"model.level_energies": [-1e308, 0, 1e308]},
            "model: level energies must span a finite range E_top - E_g",
        ),
    ]:
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_config(tmp_path, overrides))
    # a bad stem exits 2 before any file is written, in --out or next to it
    for stem in ("", "../escaped"):
        path = write_config(tmp_path, {"output.stem": stem})
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: output.stem: ")
    assert not out.exists() and not (tmp_path / "escaped.csv").exists()


def test_linear_sweep_spacing(tmp_path):
    # "linear" is the default spacing: evenly spaced n_h from start to stop
    for overrides in ({"sweep.spacing": "linear"}, {"sweep.spacing": None}):
        path = write_config(tmp_path, {**overrides, "sweep.points": 3})
        config = load_config(path)
        assert config.sweep.spacing == "linear"
        assert config.sweep.values().tolist() == pytest.approx([0.4, 0.8, 1.2], rel=1e-15)
    records = run_sweep(config)
    assert [r["n_h"] for r in records] == config.sweep.values().tolist()
    assert all(r["status"] == "ok" for r in records)


def test_sweep_block_errors_exit_2(tmp_path, capsys):
    # a sweep needs its block, sweeps only n_h, and starts above 0
    out = tmp_path / "out"
    for name, overrides, message in [
        ("none.json", {"sweep": None}, "sweep: block required for the sweep command"),
        ("g.json", {"sweep.variable": "g"}, "sweep.variable: only 'n_h' sweeps are supported"),
        ("zero.json", {"sweep.start": 0.0}, "sweep: need 0 < start <= stop, got [0.0, 1.2]"),
        ("negative.json", {"sweep.start": -1.0}, "sweep: need 0 < start <= stop, got [-1.0, 1.2]"),
        # numpy refuses a grid this size at once, before it allocates anything
        (
            "huge.json",
            {"sweep.points": 10**12},
            "sweep.points: 1000000000000 points do not fit in memory",
        ),
        # past intp numpy refuses the size itself, with a ValueError
        (
            "intp.json",
            {"sweep.points": 10**20},
            "sweep.points: 100000000000000000000 points do not fit in memory",
        ),
    ]:
        path = write_config(tmp_path, overrides, name=name)
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == f"config error: {message}"
    assert not out.exists()


def test_unknown_numerics_key_is_ignored(tmp_path):
    # configs written for older versions still carry numerics.method, n_max
    # and steady_tol; the residual gate is solver.STEADY_TOL, so even a
    # steady_tol no state meets leaves every point solved
    plain = write_config(tmp_path, name="plain.json")
    for key, value in (("method", "auto"), ("n_max", 40), ("steady_tol", 1e-30)):
        path = write_config(tmp_path, {f"numerics.{key}": value})
        config = load_config(path)
        assert config.raw == load_config(plain).raw
        assert all(r["status"] == "ok" for r in run_sweep(config))


def test_single_point_sweep_record(tmp_path):
    path = write_config(tmp_path, {"sweep.points": 1, "sweep.stop": 0.4})
    records = run_sweep(load_config(path))
    assert len(records) == 1
    record = records[0]
    assert list(record.keys()) == SWEEP_FIELDS
    assert record["status"] == "ok"
    assert record["n_h"] == 0.4
    assert record["gain_over_kappa"] > 1.0
    assert abs(record["mean_analytic"] - record["mean_numeric"]) < 0.1
    # the record carries its cutoff and the exact tail mass left there
    assert 2 <= record["n_max"] <= BATCH_RUNGS - 2
    assert record["tail"] < 1e-8


def _batches(monkeypatch):
    """The n_h of the points of each block assembly, in call order.

    Counted through the binding that the cutoff-bound test of
    test_solver.py replaces; every assembly must stay within the budget.
    """
    batches = []
    assemble = heatlaser.solver.build_sector_liouvillian

    def counted(model, n_h, n_maxes):
        assert len(n_h) * (max(n_maxes) + 2) <= BATCH_RUNGS
        batches.append(n_h.tolist())
        return assemble(model, n_h, n_maxes)

    monkeypatch.setattr(heatlaser.solver, "build_sector_liouvillian", counted)
    return batches


# kappa = 0.01: every point of the grid holds its 1e-12 tail only past 500
# photon rungs, and 40 of them need two or more batches of BATCH_RUNGS
PAST_BUDGET = {"model.kappa": 0.01, "sweep.start": 0.45, "sweep.points": 40}


def test_sweep_outputs_are_deterministic(tmp_path, monkeypatch):
    # a grid past one batch; --jobs is still parsed and changes nothing, not
    # even the meta sidecar
    batches = _batches(monkeypatch)
    path = write_config(tmp_path, {**PAST_BUDGET, "output.format": "both"})
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["sweep", "--config", str(path), "--out", str(out_a)]) == 0
    assert len(batches) >= 2
    assert main(["sweep", "--config", str(path), "--out", str(out_b)]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(out_c), "--jobs", "2"]) == 0
    for name in ("case.csv", "case.json", "case_meta.json"):
        data = (out_a / name).read_bytes()
        assert data == (out_b / name).read_bytes()
        assert data == (out_c / name).read_bytes()
    assert "jobs" not in json.loads((out_a / "case_meta.json").read_text())
    csv_a = (out_a / "case.csv").read_bytes()
    header, first, *rows = csv_a.decode().splitlines()
    assert header == ",".join(SWEEP_FIELDS)
    assert len(rows) == PAST_BUDGET["sweep.points"] - 1
    assert all(line.endswith(",ok") for line in [first, *rows])
    # 12 significant digits
    gain = first.split(",")[1]
    assert len(gain.replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_sweep_builds_no_photon_distribution(monkeypatch):
    # the exact columns come from the batch's stacked solution, and the
    # closed form's from its grid pass: no point builds a distribution
    def refused(self, probabilities):
        raise AssertionError("a sweep built a PhotonDistribution")

    monkeypatch.setattr(PhotonDistribution, "__init__", refused)
    for preset in ("fig2", "fig5"):
        records = run_sweep(load_config(preset))
        assert len(records) == 60 and all(r["status"] == "ok" for r in records)


def test_sweep_assembles_once_per_batch(monkeypatch):
    # one block assembly per batch, each of consecutive points, which reach
    # the builder in ascending order of cutoff, ties in grid order; a
    # preset's 60-point grid is one batch.  fig2's cutoffs rise and then
    # fall; fig5's only rise, so its grid reaches the builder as it is
    batches = _batches(monkeypatch)
    for preset in ("fig2", "fig5"):
        batches.clear()
        records = run_sweep(load_config(preset))
        assert len(records) == 60 and all(r["status"] == "ok" for r in records)
        assert batches == [[r["n_h"] for r in sorted(records, key=lambda r: r["n_max"])]]
    assert batches == [[r["n_h"] for r in records]]


def test_sweep_past_the_budget_streams_its_batches(tmp_path, monkeypatch):
    # 40 four-level points at cutoffs 500 to 905: the grid splits into
    # batches within the budget, solved one after another, so the traced
    # peak stays under the gate of test_batch_at_the_cutoff_bound_stays_small
    batches = _batches(monkeypatch)
    config = load_config(
        write_config(
            tmp_path,
            {
                "model": {**load_config("fig5").raw["model"], "kappa": 0.01},
                "sweep.start": 0.5,
                "sweep.stop": 5.0,
                "sweep.points": 40,
            },
        )
    )
    tracemalloc.start()
    try:
        records = run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r["status"] == "ok" for r in records)
    assert min(r["n_max"] for r in records) >= 500
    assert len(batches) >= 2
    assert [n_h for batch in batches for n_h in batch] == [r["n_h"] for r in records]
    assert [r["n_h"] for r in records] == list(config.sweep.values())
    assert peak < 25e6


def _solo(config, n_h):
    """Photon distribution and residual of one point solved on its own."""
    result = solve_model(with_hot_occupation(config.model, n_h))
    return result.distribution, result.residual


def test_residual_column_matches_solo_solve(tmp_path):
    config = load_config(write_config(tmp_path, {"sweep.points": 3}))
    for record in run_sweep(config):
        numeric, residual = _solo(config, record["n_h"])
        assert math.isfinite(record["residual"]) and record["residual"] >= 0.0
        assert record["residual"] == residual
        assert record["mean_numeric"] == numeric.mean


def test_fano_numeric_column(tmp_path):
    # variance / mean of the exact distribution, in the record and the CSV;
    # NaN where the cavity is empty, as PhotonDistribution.fano gives it
    path = write_config(tmp_path, {"sweep.points": 3})
    config = load_config(path)
    records = run_sweep(config)
    for record in records:
        assert record["fano_numeric"] == record["variance_numeric"] / record["mean_numeric"]
        assert record["fano_numeric"] == _solo(config, record["n_h"])[0].fano
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    header, *lines = (tmp_path / "case.csv").read_text().splitlines()
    column = header.split(",").index("fano_numeric")
    assert [float(line.split(",")[column]) for line in lines] == pytest.approx(
        [record["fano_numeric"] for record in records], rel=1e-11
    )
    assert math.isnan(PhotonDistribution(np.eye(3)[0]).fano)


def _recursion_to(coeffs, n_max):
    """The closed-form recursion of ``coeffs`` run to rung ``n_max``, normalised once."""
    chain = [np.array([value]) for value in coeffs[:3]]
    (p,) = heatlaser.photonstats._normalized(*chain, coeffs.kappa, np.array([n_max + 1]))
    return PhotonDistribution(p)


@pytest.mark.parametrize("preset", ["fig2", "fig5"])
def test_l1_column_matches_a_recursion_to_the_cutoff(preset):
    # l1_distance cuts the auto-support closed form at the cutoff; the
    # recursion run to the cutoff and renormalised differs in the last bits
    config = load_config(preset)
    for record in run_sweep(config):
        coeffs = scully_lamb_coefficients(with_hot_occupation(config.model, record["n_h"]))
        analytic = _recursion_to(coeffs, record["n_max"])
        numeric, _ = _solo(config, record["n_h"])
        l1 = np.abs(numeric.probabilities - analytic.probabilities).sum()
        assert abs(record["l1_distance"] - l1) <= 1e-11


def test_failed_point_stays_in_its_record(tmp_path):
    # kappa = 1e-4: the two highest n_h need a cutoff above 16 030 (22 515
    # and 65 726), while their batch-mates hold 9 to 469 photon rungs
    path = write_config(
        tmp_path,
        {"model.kappa": 1e-4, "sweep.start": 0.002, "sweep.stop": 1.2, "sweep.points": 5},
    )
    config = load_config(path)
    records = run_sweep(config)
    assert [r["status"].startswith("failed: ") for r in records] == [False] * 3 + [True] * 2
    for record in records[3:]:
        assert record["status"].endswith(" is outside [1, 16030]")
        assert math.isnan(record["residual"]) and math.isnan(record["mean_numeric"])
        assert math.isnan(record["fano_numeric"])
    assert len({r["n_max"] for r in records[:3]}) == 3
    for record in records[:3]:
        numeric, residual = _solo(config, record["n_h"])
        assert record["n_max"] == numeric.n_max
        assert record["mean_numeric"] == numeric.mean
        assert record["variance_numeric"] == numeric.variance
        assert record["tail"] == numeric.probabilities[-1]
        assert record["residual"] == residual


@pytest.mark.parametrize(
    "preset, n_h, n_max, fano_numeric, fano_analytic",
    [("fig2", 2.0, 8265, 1.01857, 1.07742), ("fig5", 5.0, 7715, 0.79718, 1.01008)],
)
def test_routes_cross_check_far_above_threshold(
    preset, n_h, n_max, fano_numeric, fano_analytic, tmp_path
):
    # kappa = 0.001 puts about 7 000 photons in the cavity, at cutoffs past
    # 1000 and within 16 030: the two routes' means agree to 1e-6, and their
    # Fano factors keep apart, by the gap that stays put as kappa -> 0; both
    # widths are pinned, so the test fails if either route's moves
    raw = load_config(preset).raw
    sweep = {**raw["sweep"], "start": n_h, "stop": n_h, "points": 1}
    path = write_config(tmp_path, {"model": {**raw["model"], "kappa": 1e-3}, "sweep": sweep})
    (record,) = run_sweep(load_config(path))
    assert record["status"] == "ok" and record["n_max"] == n_max
    assert abs(record["mean_numeric"] - record["mean_analytic"]) <= 1e-6 * record["mean_analytic"]
    assert record["fano_numeric"] == pytest.approx(fano_numeric, abs=1e-4)
    assert record["fano_analytic"] == pytest.approx(fano_analytic, abs=1e-4)


def _fig2_sweep(tmp_path, model=None, points=None):
    """The path of the fig2 preset with some model fields and the grid size replaced."""
    fig2 = load_config("fig2").raw
    sweep = {**fig2["sweep"], "points": points or fig2["sweep"]["points"]}
    return write_config(tmp_path, {"model": {**fig2["model"], **(model or {})}, "sweep": sweep})


def test_sweep_evaluates_closed_form_once_per_sweep(tmp_path, monkeypatch):
    # the closed form of a grid is one stacked support pass per stack of
    # BATCH_RUNGS rung-cells: no PhotonDistribution is built for it, and
    # no point function runs per point (every binding in the loaded package
    # modules is wrapped, as a tracer does)
    stacks, calls = [], []
    normalized = heatlaser.photonstats._normalized

    def counted(A, A_b, B, kappa, sizes):
        stacks.append((sizes.size, sizes.max()))
        return normalized(A, A_b, B, kappa, sizes)

    class Refused(PhotonDistribution):
        def __init__(self, probabilities):
            raise AssertionError("built a closed-form PhotonDistribution")

    point_functions = (
        heatlaser.photonstats.steady_distribution,
        heatlaser.photonstats.scully_lamb_coefficients,
        heatlaser.photonstats.distribution_moments,
        heatlaser.photonstats.output_power,
        heatlaser.semiclassical.lasing_gain,
        heatlaser.semiclassical.population_inversion,
        heatlaser.semiclassical.structure_constants,
    )

    def wrap(function):
        def wrapper(*args, **kwargs):
            calls.append(function.__name__)
            return function(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "heatlaser" or name.startswith("heatlaser."):
            for attr, value in list(vars(module).items()):
                if any(value is function for function in point_functions):
                    monkeypatch.setattr(module, attr, wrap(value))
    monkeypatch.setattr(heatlaser.photonstats, "_normalized", counted)
    monkeypatch.setattr(heatlaser.photonstats, "PhotonDistribution", Refused)
    for preset in ("fig2", "fig5"):
        stacks.clear()
        calls.clear()
        records = run_sweep(load_config(preset))
        assert all(r["status"] == "ok" for r in records)
        # one stack of at most 60 x 62 rung-cells
        assert len(stacks) == 1 and stacks[0][0] == 60 and stacks[0][1] <= 62
        assert sorted(set(calls)) == sorted(calls)
    # kappa = 1e-4: supports of 585 to 104 833 rungs take many stacks, each
    # within the budget or alone
    stacks.clear()
    calls.clear()
    records = run_sweep(load_config(_fig2_sweep(tmp_path, {"kappa": 1e-4})))
    assert sum(chains for chains, _ in stacks) == len(records) == 60
    assert len(stacks) > 1
    assert all(chains * width <= BATCH_RUNGS or chains == 1 for chains, width in stacks)
    assert sorted(set(calls)) == sorted(calls)


def test_sweep_flags_failed_points(tmp_path, monkeypatch):
    # an impossibly tight steady-state tolerance cannot be met
    monkeypatch.setattr(heatlaser.solver, "STEADY_TOL", 1e-30)
    records = run_sweep(load_config(write_config(tmp_path)))
    assert all(r["status"].startswith("failed:") for r in records)
    assert all(r["mean_numeric"] != r["mean_numeric"] for r in records)  # nan
    assert all(r["gain_over_kappa"] > 0 for r in records)  # analytic part kept



def test_all_failed_sweep_assembles_nothing(tmp_path, monkeypatch):
    # kappa = 1e-7: every fig2 point needs a support past 1e6 photons, so the
    # closed form fails everywhere and no steady state is asked for
    def assemble(*args):
        raise AssertionError("assembled a block for a sweep with no solvable point")

    monkeypatch.setattr(heatlaser.solver, "build_sector_liouvillian", assemble)
    fig2 = load_config("fig2").raw
    path = write_config(tmp_path, {"model": {**fig2["model"], "kappa": 1e-7}, "sweep": fig2["sweep"]})
    records = run_sweep(load_config(path))
    assert len(records) == 60
    assert all(r["status"] == "failed: distribution support exceeds 1e6 photons" for r in records)
    assert all(math.isnan(r["mean_numeric"]) and math.isnan(r["residual"]) for r in records)
    # the JSON mirror writes each NaN as null, so it stays strict JSON
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--format", "json", "--out", str(out)]) == 0

    def refuse(constant):
        raise AssertionError(f"non-standard JSON constant {constant}")

    written = json.loads((out / "case.json").read_text(), parse_constant=refuse)["records"]
    assert [r["n_h"] for r in written] == [r["n_h"] for r in records]
    for record in written:
        assert record["status"] == "failed: distribution support exceeds 1e6 photons"
        assert all(record[name] is None for name in SWEEP_FIELDS if name not in ("n_h", "status"))


def test_closed_form_failures_stay_per_point(tmp_path):
    # kappa = 1e-5: the 34 highest n_h need a support past 1e6 rungs; each
    # has its own status and no closed-form column, while the other points
    # keep theirs: the two lowest n_h solve at n_max 1791 and 9229, and the
    # rest fail only in the exact route, on cutoffs above 16 030
    records = run_sweep(load_config(_fig2_sweep(tmp_path, {"kappa": 1e-5})))
    for record in records[-34:]:
        assert record["status"] == "failed: distribution support exceeds 1e6 photons"
        assert all(math.isnan(record[name]) for name in GRID_COLUMNS)
    assert [(r["status"], r["n_max"]) for r in records[:2]] == [("ok", 1791), ("ok", 9229)]
    for record in records[2:-34]:
        assert record["status"].startswith("failed: cutoff n_max = ")
    for record in records[:-34]:
        assert all(math.isfinite(record[name]) for name in GRID_COLUMNS)
    # g = 1e-160: B underflows to 0 while A > 0, which the grid refuses as
    # out of range at that n_h, except at the top of the grid, where A
    # underflows too
    records = run_sweep(load_config(_fig2_sweep(tmp_path, {"g": 1e-160}, points=4)))
    refused = "failed: closed-form rates out of floating-point range at n_h = "
    assert [r["status"] for r in records[:3]] == [f"{refused}{r['n_h']}" for r in records[:3]]
    assert records[3]["status"] == "ok"
    assert all(math.isnan(r[name]) for r in records[:3] for name in GRID_COLUMNS)
    assert records[3]["A"] == 0.0 and records[3]["n_max"] == 1
    # a zero bath rate fails every point alike
    records = run_sweep(load_config(_fig2_sweep(tmp_path, {"gamma_h": 0.0}, points=3)))
    assert all(r["status"] == "failed: degenerate engine rates: gamma_h is 0" for r in records)
    assert all(math.isnan(r[name]) for r in records for name in SWEEP_FIELDS[1:-1])


@pytest.mark.parametrize("preset", ["fig2", "fig5"])
def test_sweep_with_the_pump_off(preset, tmp_path):
    # g = 0: the closed form is the vacuum [1, 0] at n_max 1, the exact state
    # too, and the zero-field inversion is untouched
    raw = load_config(preset).raw
    path = write_config(tmp_path, {"model": {**raw["model"], "g": 0.0}, "sweep": raw["sweep"]})
    config = load_config(path)
    for record in run_sweep(config):
        point = with_hot_occupation(config.model, record["n_h"])
        assert record["status"] == "ok" and record["n_max"] == 1
        assert record["inversion0"] == population_inversion(point)
        for name in ("gain_over_kappa", "A", "A_b", "B", "mean_analytic", "variance_analytic"):
            assert record[name] == 0.0
        for name in ("mean_numeric", "variance_numeric", "l1_distance", "power", "tail"):
            assert record[name] == 0.0
        assert math.isnan(record["fano_analytic"]) and math.isnan(record["fano_numeric"])


def test_power_past_the_float_range_is_inf(tmp_path):
    # a ladder near 1e308 takes lasing_frequency * kappa * <n> past the
    # floating-point range: the power is inf in the CSV and null in the JSON,
    # without a RuntimeWarning, and the other columns are the default
    # ladder's, status included
    grid = {"sweep.start": 1.0, "sweep.stop": 5.0, "sweep.points": 5, "sweep.spacing": "linear"}
    for name, overrides in (("huge", {"model.level_energies": [0, 1e308, 1.7e308]}), ("plain", {})):
        path = write_config(tmp_path, {**grid, **overrides}, name=f"{name}.json")
        command = ["sweep", "--config", str(path), "--format", "both", "--out", str(tmp_path / name)]
        assert main(command) == 0
    tables = {}
    for name in ("huge", "plain"):
        with open(tmp_path / name / "case.csv", newline="") as handle:
            tables[name] = list(csv.DictReader(handle))
    for huge, plain in zip(tables["huge"], tables["plain"], strict=True):
        assert huge.pop("power") == "inf" and float(plain.pop("power")) > 0
        assert huge == plain and huge["status"] == "ok"
    records = json.loads((tmp_path / "huge" / "case.json").read_text())["records"]
    assert [r["power"] for r in records] == [None] * 5
    # an empty cavity radiates 0, also when lasing_frequency * kappa overflows
    pump_off = {"model.g": 0.0, "model.kappa": 100.0, "model.level_energies": [0, 1e307, 1.7e308]}
    records = run_sweep(load_config(write_config(tmp_path, {**grid, **pump_off})))
    assert all(r["mean_analytic"] == 0.0 and r["power"] == 0.0 for r in records)
    assert all(r["status"] == "ok" for r in records)


@pytest.mark.parametrize("config", ["fig2", "fig5", "bright", "pump-off"])
def test_sweeps_raise_no_warning(config, tmp_path):
    if config == "bright":
        config = BRIGHT
    if config == "pump-off":
        config = _fig2_sweep(tmp_path, {"g": 0.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def test_sweep_keeps_only_the_rows_it_solves(tmp_path):
    # kappa = 1e-4: supports of 585 to 104 833 rungs, and the first seven
    # points' cutoffs, 585 to 15 695, are within the bound of 16 030.
    # Stacked and solved in batches within BATCH_RUNGS, keeping the
    # closed-form rows of those points alone, 30 points peak near 10.0 MB
    # traced (10.3 MB with the block as dense bands); holding every
    # point's distribution took 19.6 MB
    config = load_config(_fig2_sweep(tmp_path, {"kappa": 1e-4}, points=30))
    tracemalloc.start()
    try:
        records = run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r["n_max"] for r in records[:7]] == [585, 2205, 4137, 6414, 9075, 12160, 15695]
    assert all(r["status"] == "ok" for r in records[:7])
    assert all(r["status"].startswith("failed: cutoff n_max = ") for r in records[7:])
    assert peak < 16e6


def test_thresholds_command(tmp_path, capsys):
    path = write_config(tmp_path, {"sweep.start": 0.05, "sweep.stop": 20.0})
    out = tmp_path / "thr"
    assert main(["thresholds", "--config", str(path), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "0.187" in text and "8.647" in text
    rows = (out / "case_thresholds.csv").read_text().splitlines()
    assert rows[0] == "index,n_h_root"
    assert len(rows) == 3
    # the data file keeps full precision: a 4-digit root (8.647) is 5e-4 off
    roots = [float(row.split(",")[1]) for row in rows[1:]]
    assert roots[0] == pytest.approx(0.1871974, abs=1e-5)
    assert roots[1] == pytest.approx(8.646523, abs=1e-5)


def test_thresholds_no_root(tmp_path, capsys):
    cases = [
        ({"model.g": 0.0}, "[0.4, 1.2]"),
        # a one-point sweep is a valid config and a valid bracket
        ({"sweep.start": 0.05, "sweep.stop": 0.05, "sweep.points": 1}, "[0.05, 0.05]"),
    ]
    for overrides, bracket in cases:
        path = write_config(tmp_path, overrides)
        assert main(["thresholds", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert f"no threshold in bracket {bracket}" in capsys.readouterr().out


def test_thresholds_temperature_report(tmp_path, capsys):
    thermal = {**THERMAL, "model.T_h": 4.0}
    four_level = {**thermal, "model.kind": "four_level", "model.gamma_a": 32.0}
    cases = [
        (thermal, True),
        ({**thermal, "model.level_energies": [0.0, 1.3, 2.9]}, True),
        # a four-level report needs the ancilla temperature too
        ({**four_level, "model.n_a": 0.1}, False),
        ({**four_level, "model.T_a": 1.0}, True),
        # T_h = 0 is a valid config, but the Carnot bound 1 - T_c/T_h is not
        ({**thermal, "model.T_h": 0.0}, False),
    ]
    for i, (overrides, report) in enumerate(cases):
        path = write_config(tmp_path, overrides)
        out = tmp_path / f"case{i}"
        assert main(["thresholds", "--config", str(path), "--out", str(out)]) == 0
        text = capsys.readouterr().out
        for line in ("lases", "efficiency", "carnot"):
            assert (line in text) == report
        assert (out / "case_thresholds.csv").exists() and (out / "case_meta.json").exists()


def test_distribution_command(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "dist"
    code = main(
        ["distribution", "--config", str(path), "--nh", "0.507", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "case_distribution.csv").read_text().splitlines()
    assert lines[0] == "n,p_analytic,p_numeric,p_poisson"
    table = [line.split(",") for line in lines[1:]]
    p_analytic = [float(row[1]) for row in table]
    p_numeric = [float(row[2]) for row in table]
    p_poisson = [float(row[3]) for row in table]
    assert abs(sum(p_analytic) - 1.0) < 1e-9
    assert abs(sum(p_numeric) - 1.0) < 1e-9
    assert abs(sum(p_poisson) - 1.0) < 1e-6
    l1 = sum(abs(a - b) for a, b in zip(p_analytic, p_numeric))
    assert l1 < 0.05
    meta = json.loads((out / "case_meta.json").read_text())
    assert meta["n_max"] == len(table) - 1
    assert meta["tail"] == pytest.approx(p_numeric[-1], abs=1e-15)
    assert meta["tail"] < 1e-8
    config = load_config(path)
    _, residual = _solo(config, 0.507)
    assert meta["residual"] == residual
    coeffs = scully_lamb_coefficients(with_hot_occupation(config.model, 0.507))
    cut = _recursion_to(coeffs, meta["n_max"])
    assert np.abs(np.array(p_analytic) - cut.probabilities).max() <= 1e-11


def test_distribution_reads_the_one_point_grid(tmp_path, capsys):
    # p_analytic is the row of the one-point closed-form grid, which is the
    # automatic-support steady_distribution, bit for bit
    config = load_config("fig2")
    out = tmp_path / "dist"
    argv = ["distribution", "--config", "fig2", "--nh", "2", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    records = json.loads((out / f"{config.stem}_distribution.json").read_text())["records"]
    p_analytic = np.array([record["p_analytic"] for record in records])
    _, _, (row,), _ = closed_form_grid(config.model, [2.0])
    coeffs = scully_lamb_coefficients(with_hot_occupation(config.model, 2.0))
    assert np.array_equal(p_analytic, row)
    assert np.array_equal(p_analytic, steady_distribution(coeffs).probabilities)
    # kappa = 1e-5 at n_h 20: the grid's failure exits 3 with its message,
    # before anything is solved or written
    out = tmp_path / "wide"
    path = _fig2_sweep(tmp_path, {"kappa": 1e-5})
    assert main(["distribution", "--config", str(path), "--nh", "20", "--out", str(out)]) == 3
    assert capsys.readouterr().err.strip() == (
        "numeric failure: distribution support exceeds 1e6 photons"
    )
    assert not out.exists()


@pytest.mark.parametrize("n_h", ["1e150", "1e154", "1e300"])
def test_huge_hot_occupation_is_refused(n_h, tmp_path, capsys):
    # the fig2 rates leave the floating-point range: distribution exits 3
    # with a message naming the n_h, and a sweep fails that point alone,
    # without a RuntimeWarning on the way
    refused = f"closed-form rates out of floating-point range at n_h = {float(n_h)}"
    out = tmp_path / "huge"
    path = write_config(tmp_path, {"sweep.start": 1.0, "sweep.stop": float(n_h)})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["distribution", "--config", "fig2", "--nh", n_h, "--out", str(out)]) == 3
        assert capsys.readouterr().err.strip() == f"numeric failure: {refused}"
        assert not out.exists()
        records = run_sweep(load_config(path))
    assert [r["status"] for r in records] == ["ok", f"failed: {refused}"]


@pytest.mark.parametrize(
    "preset, n_h", [("fig2", "1e15"), ("fig2", "1e16"), ("fig2", "1e17"), ("fig2", "1e20"),
                    ("fig5", "1e16"), ("fig5", "1e17")]
)
def test_hot_rate_past_the_rung_equations_is_refused(preset, n_h, tmp_path, capsys):
    # once gamma_h (n_h + 1) eps >= kappa the cavity loss is rounded away on
    # the hot pair's population diagonals, and the rung sweep would return
    # an empty cavity (fig2 from 1e16) as ok: distribution exits 3 naming
    # that cause, with no RuntimeWarning, and a sweep fails those rows only
    hot = 32.0 * (float(n_h) + 1.0)
    refused = (
        f"n_h = {float(n_h)} is past the float range of the rung equations: the hot rate "
        f"gamma_h (n_h + 1) = {hot:.3e} rounds the cavity loss kappa = 1.0 away on the "
        "population diagonals"
    )
    out = tmp_path / "out"
    sweep = {**load_config(preset).raw["sweep"], "start": 1e12, "stop": float(n_h), "points": 2}
    path = write_config(tmp_path, {"model": load_config(preset).raw["model"], "sweep": sweep})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["distribution", "--config", preset, "--nh", n_h, "--out", str(out)]) == 3
        assert capsys.readouterr().err.strip() == f"numeric failure: {refused}"
        assert not out.exists()
        records = run_sweep(load_config(path))
    assert [r["status"] for r in records] == ["ok", f"failed: {refused}"]


def _mass_refusal(message):
    # the sum that the unit-mass refusal of the exact route gives, or None
    # when ``message`` is not that refusal
    start = "the steady state has negative populations: clipped at 0, its P_n sum to "
    if message is None or not (message.startswith(start) and message.endswith(", expected 1")):
        return None
    return float(message[len(start) : -len(", expected 1")])


def test_hot_rate_below_the_bound_is_solved():
    # fig2's and bright's last rows below their bounds, about 1.4e14 and
    # 3.5e13, pass the range check and are solved.  So does fig5's at 1e14
    # (gamma_h (n_h + 1) eps = 0.71 < kappa), but its state has negative
    # populations, and it fails by the unit-mass refusal instead
    for preset, n_h, total in [("fig5", 1e14, 1.0444), ("fig2", 1e14, None), (BRIGHT, 3e13, None)]:
        config = load_config(preset)
        _, (n_max,), _, (failure,) = closed_form_grid(config.model, [n_h])
        assert failure is None
        (failure,) = exact_grid(config.model, [n_h], [n_max])[2]
        if total is None:
            assert failure is None
        else:
            assert _mass_refusal(failure) == pytest.approx(total, abs=1e-4)


def test_unbalanced_photon_mass_is_refused(tmp_path, capsys):
    # from n_h of about 1e13 the rung equations of fig5 lose its slow rates
    # and give a state with negative populations, whose clipped P_n miss 1:
    # exact_grid fails such a point by the message that distribution exits
    # 3 with, and a sweep fails those rows only, where it reported them ok
    # with a wrong mean (7.62 and 7.95 against 7.54)
    config = load_config("fig5")
    grid = [1e12, 1e13, 1e14]
    _, cutoffs, _, _ = closed_form_grid(config.model, grid)
    failures = exact_grid(config.model, grid, cutoffs)[2]
    assert failures[0] is None
    assert [_mass_refusal(failure) for failure in failures[1:]] == [
        pytest.approx(1.0016, abs=1e-4),
        pytest.approx(1.0444, abs=1e-4),
    ]
    out = tmp_path / "out"
    sweep = {**config.raw["sweep"], "start": 1e12, "stop": 1e14, "points": 5, "spacing": "log"}
    path = write_config(tmp_path, {"model": config.raw["model"], "sweep": sweep})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["distribution", "--config", "fig5", "--nh", "1e13", "--out", str(out)]) == 3
        assert capsys.readouterr().err.strip() == f"numeric failure: {failures[1]}"
        assert not out.exists()
        records = run_sweep(load_config(path))
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    statuses = [record["status"] for record in records]
    assert statuses == ["ok", "ok", f"failed: {failures[1]}", "ok", f"failed: {failures[2]}"]
    # the refusals hold commas: the CSV quotes them, so that each row reads
    # back as its 18 fields, with no field past the header's
    with open(out / "case.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all(list(row) == SWEEP_FIELDS and None not in row.values() for row in rows)
    assert [row["status"] for row in rows] == statuses


@pytest.mark.parametrize("model", [{"g": 1e300}, {"n_c": 1e300}])
def test_rates_out_of_range_fail_by_message(model, tmp_path, capsys):
    # a coupling or a cold occupation of 1e300 takes every closed-form rate
    # out of floating-point range: a sweep fails each point by message, and
    # distribution and thresholds exit 3, with no RuntimeWarning
    path = _fig2_sweep(tmp_path, model, points=3)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        records = run_sweep(load_config(path))
        for argv, message in [
            (["distribution", "--nh", "2"], "closed-form rates out of floating-point range at n_h = 2.0"),
            (["thresholds"], "closed-form rates out of floating-point range in the threshold polynomial"),
        ]:
            assert main([*argv, "--config", str(path), "--out", str(out)]) == 3
            assert capsys.readouterr().err.strip() == f"numeric failure: {message}"
    refused = "failed: closed-form rates out of floating-point range at n_h = "
    assert [r["status"] for r in records] == [f"{refused}{r['n_h']}" for r in records]


@pytest.mark.parametrize("g", [14.0, 0.0])
def test_phi_zero_is_refused_by_its_cause(g, tmp_path, capsys):
    # fig5 with n_a = 0 at n_h = 0: Phi = 0, so the closed form has no rates;
    # distribution exits 3 naming that cause, not the float range, with no
    # RuntimeWarning from a division by Phi (a sweep grid starts above 0)
    fig5 = load_config("fig5").raw
    path = write_config(tmp_path, {"model": {**fig5["model"], "n_a": 0.0, "g": g}})
    refused = (
        "Phi = 0 at n_h = 0.0: the g = 0 rate network has separate closed classes, {g, e1} and {e2}"
    )
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["distribution", "--config", str(path), "--nh", "0", "--out", str(out)]) == 3
    assert capsys.readouterr().err.strip() == f"numeric failure: {refused}"
    assert not out.exists()


@pytest.mark.parametrize("rate", ["gamma_h", "gamma_c"])
def test_tiny_four_level_bath_rate_runs_without_warning(rate, tmp_path):
    # a bath rate of 1e-300 puts kappa B between 1e301 and 1e305, whose 1e6
    # multiple in the support bound leaves the floating-point range: each
    # chain is still cut at n_max 1, and nothing warns
    fig5 = load_config("fig5").raw
    sweep = {**fig5["sweep"], "points": 3}
    path = write_config(tmp_path, {"model": {**fig5["model"], rate: 1e-300}, "sweep": sweep})
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["distribution", "--config", str(path), "--nh", "2", "--out", str(out)]) == 0
        records = run_sweep(load_config(path))
    assert all(r["status"] == "ok" and r["n_max"] == 1 for r in records)


def test_csv_template_prints_as_12g(tmp_path):
    # one %-template per file, from its first row, as each column holds one
    # kind of value: a number prints as format(float(v), ".12g"), and a text
    # as it is, or in quotes with its quotes doubled (RFC 4180) when it holds
    # a comma, a quote, CR or LF, so that csv reads each back as one field
    columns = {
        "x": [math.nan, math.inf, -math.inf, -0.0, 3, 2.0 / 3.0],
        "y": [10**21, 1e-300, np.float64(0.1), np.int64(5), -7, 1e21],
        "status": ["ok", "failed: x, y", 'failed: "x"', "line\nbreak", "cr\rhere", "failed: x"],
    }
    fields = list(columns)
    records = [dict(zip(fields, values)) for values in zip(*columns.values())]
    path = tmp_path / "t.csv"
    _write_csv(path, fields, records)
    quoted = ["ok", '"failed: x, y"', '"failed: ""x"""', '"line\nbreak"', '"cr\rhere"', "failed: x"]
    lines = ["x,y,status"] + [
        f"{format(float(x), '.12g')},{format(float(y), '.12g')},{text}"
        for x, y, text in zip(columns["x"], columns["y"], quoted)
    ]
    assert path.read_bytes().decode() == "\n".join(lines) + "\n"
    assert lines[1:4] == ["nan,1e+21,ok", 'inf,1e-300,"failed: x, y"', '-inf,0.1,"failed: ""x"""']
    assert lines[4:] == ["-0,5," + quoted[3], "3,-7," + quoted[4], "0.666666666667,1e+21,failed: x"]
    with open(path, newline="") as handle:
        assert [row["status"] for row in csv.DictReader(handle)] == columns["status"]
    # no rows: the header alone
    _write_csv(path, fields, [])
    assert path.read_text() == "x,y,status\n"


def test_distribution_vacuum(tmp_path):
    path = write_config(tmp_path, {"model.n_c": 0.0})
    out = tmp_path / "vac"
    assert main(["distribution", "--config", str(path), "--nh", "0", "--out", str(out)]) == 0
    lines = (out / "case_distribution.csv").read_text().splitlines()
    assert len(lines) == 3  # the pump is off: the cutoff is n_max = 1
    first = lines[1].split(",")
    assert float(first[1]) == 1.0
    assert float(first[2]) == pytest.approx(1.0, abs=1e-10)


def test_distribution_wigner_file(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "wig"
    code = main(
        [
            "distribution",
            "--config",
            str(path),
            "--nh",
            "0.3",
            "--wigner",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "case_wigner.csv").read_text().splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 1 + 101 * 101
    # the grid is the Wigner function of the reduced dense steady state
    model = with_hot_occupation(load_config(path).model, 0.3)
    result = solve_model(model)
    field = wigner(photon_distribution(dense_state(result), model.atom_dim))
    values = np.array([float(line.split(",")[2]) for line in lines[1:]])
    np.testing.assert_allclose(values, field.values.ravel(), rtol=1e-11, atol=1e-14)
    _assert_wigner_lines(lines, result.distribution)


def _assert_wigner_lines(lines, distribution):
    # every line is the point's re, im and value as format(float(v), ".12g"),
    # row-major over im then re, as wigner gives them for the solved
    # distribution
    field = wigner(distribution)
    expected = [
        f"{float(x):.12g},{float(y):.12g},{float(field.values[iy, ix]):.12g}"
        for iy, y in enumerate(field.im_axis)
        for ix, x in enumerate(field.re_axis)
    ]
    assert lines[1:] == expected


def test_wigner_file_at_the_benchmark_point(tmp_path):
    # the wigner-fig2 workload of the benchmark: fig2 at n_h 2
    argv = ["distribution", "--config", "fig2", "--nh", "2", "--wigner", "--out", str(tmp_path)]
    assert main(argv) == 0
    lines = (tmp_path / "fig2_wigner.csv").read_text().splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 1 + 101 * 101
    result = solve_model(with_hot_occupation(load_config("fig2").model, 2.0))
    _assert_wigner_lines(lines, result.distribution)


def test_default_wigner_grid_holds_a_bright_ring(tmp_path):
    # fig5 at kappa / 32 and n_h 5 holds <n> = 228 photons: the default grid
    # reaches 1.2 sqrt(<n> + 1) = 18.16, and W peaks on the ring |a| = sqrt(<n>)
    config = json.loads(resources.files("heatlaser.presets").joinpath("fig5.json").read_text())
    config["model"]["kappa"] = 1 / 32
    path = tmp_path / "bright.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither a tail nor a grid-radius warning
        code = main(["distribution", "--config", str(path), "--nh", "5", "--wigner", "--out", str(out)])
    assert code == 0
    p = np.loadtxt(out / "fig5_distribution.csv", delimiter=",", skiprows=1, usecols=2)
    mean = float(np.arange(p.size) @ p)
    grid = np.loadtxt(out / "fig5_wigner.csv", delimiter=",", skiprows=1)
    assert len(grid) == 101 * 101
    half_width = grid[:, 0].max()
    assert half_width == pytest.approx(1.2 * math.sqrt(mean + 1.0), rel=1e-12)
    assert half_width == pytest.approx(18.16, abs=0.005)
    re, im, _ = grid[np.argmax(grid[:, 2])]
    assert abs(math.hypot(re, im) - math.sqrt(mean)) <= 2 * half_width / 100
    # a second default grid, with its own half-width and |im| rows
    lines = (out / "fig5_wigner.csv").read_text().splitlines()
    result = solve_model(with_hot_occupation(load_config(path).model, 5.0))
    _assert_wigner_lines(lines, result.distribution)


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err
    path = write_config(tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(heatlaser.solver, "STEADY_TOL", 1e-30)
        code = main(["distribution", "--config", str(path), "--nh", "0.5", "--out", str(tmp_path)])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err
    # a zero bath rate is a numeric failure, not a traceback
    path = write_config(tmp_path, {"model.gamma_h": 0.0}, name="frozen.json")
    code = main(["distribution", "--config", str(path), "--nh", "0.5", "--out", str(tmp_path)])
    assert code == 3
    assert "gamma_h is 0" in capsys.readouterr().err
    records = run_sweep(load_config(path))
    assert all(r["status"].startswith("failed: ") for r in records)
    # non-finite numbers are config errors that name the key
    path = write_config(tmp_path, {"model.kappa": float("nan")}, name="nan.json")
    for command in ("sweep", "thresholds"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "model.kappa: expected a finite number" in capsys.readouterr().err
    # an --nh that is not a finite number >= 0 is a bad argument, refused
    # where it is parsed
    path = write_config(tmp_path)
    for value in ("nan", "-1", "inf"):
        with pytest.raises(SystemExit) as exit_:
            main(["distribution", "--config", str(path), "--nh", value, "--out", str(tmp_path)])
        assert exit_.value.code == 2
        assert f"argument --nh: must be a finite number >= 0, got '{value}'" in capsys.readouterr().err
    # kappa = 1e-4 puts 60 000 photons in the cavity, past n_max = 16 030
    path = write_config(tmp_path, {"model.kappa": 1e-4}, name="dim.json")
    out = tmp_path / "dim"
    code = main(["distribution", "--config", str(path), "--nh", "1.0", "--out", str(out)])
    assert code == 3
    assert "cutoff n_max = 60696 is outside [1, 16030]" in capsys.readouterr().err
    assert not out.exists()


def test_help_names_every_command(capsys):
    for argv in (["--help"], ["sweep", "--help"], ["distribution", "--config", "fig2", "-h"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: heatlaser sweep --config CONFIG")
        assert all(command in out for command in ("sweep", "distribution", "thresholds"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep"], "the following arguments are required: --config"),
        (["distribution", "--config", "fig2"], "the following arguments are required: --nh"),
        # an abbreviation is not its option
        (["sweep", "--conf", "fig2"], "the following arguments are required: --config"),
        (["sweep", "--config", "fig2", "--bogus"], "unrecognized arguments: --bogus"),
        (["thresholds", "--config", "fig2", "extra"], "unrecognized arguments: extra"),
        (
            ["sweep", "--config", "fig2", "--format", "xml"],
            "argument --format: invalid choice: 'xml' (choose from 'csv', 'json', 'both')",
        ),
        (["sweep", "--config", "fig2", "--jobs=x"], "argument --jobs: invalid int value: 'x'"),
        (["sweep", "--out", "elsewhere", "--config"], "argument --config: expected one argument"),
        (["sweep", "--config", "--out", "elsewhere"], "argument --config: expected one argument"),
        (["distribution", "--config", "fig2", "--nh", "2", "--wigner=1"],
         "argument --wigner: ignored explicit argument '1'"),
        (["plot", "--config", "fig2"], "argument command: invalid choice: 'plot'"),
        ([], "the following arguments are required: command"),
        # thresholds writes CSV only: a format it would ignore is refused
        (["thresholds", "--config", "fig2", "--format", "json"],
         "unrecognized arguments: --format json"),
    ],
)
def test_argument_errors_exit_2(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--out", str(out)] if argv else argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: heatlaser sweep --config CONFIG")
    assert f"heatlaser: error: {message}" in err
    assert not out.exists()


def test_option_forms(tmp_path):
    # --opt=value is --opt value, options come in any order, and a repeated
    # option keeps its last value
    spaced, joined = tmp_path / "spaced", tmp_path / "joined"
    assert main(["thresholds", "--config", "fig2", "--out", str(spaced)]) == 0
    argv = ["thresholds", "--out", str(tmp_path / "first"), f"--out={joined}", "--config=fig2"]
    assert main(argv) == 0
    assert not (tmp_path / "first").exists()
    for name in ("fig2_thresholds.csv", "fig2_meta.json"):
        assert (joined / name).read_bytes() == (spaced / name).read_bytes()
    # --jobs is still accepted, and ignored, by a sweep
    path = write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--jobs", "2", "--out", str(tmp_path / "a")]) == 0
    assert main(["sweep", "--jobs=1", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "case.csv").read_bytes() == (tmp_path / "b" / "case.csv").read_bytes()


def test_cold_bath_runs_every_command(tmp_path):
    # T_h = 0.002 at omega_h = 2 puts omega/T at 1000, where exp(omega/T)
    # overflowed into a traceback; the occupation underflows to 0 instead
    path = write_config(tmp_path, {"model.n_h": None, "model.T_h": 0.002})
    assert load_config(path).model.n_h == 0.0
    for command in (["sweep"], ["distribution", "--nh", "1"], ["thresholds"]):
        assert main([*command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0


def test_small_kappa_fails_before_allocating(tmp_path, monkeypatch, capsys):
    # kappa = 1e-9 at the fig2 rates puts the rung where the ratio drops below
    # 1/2 near 1.6e10: the closed form, `distribution` and a sweep must refuse
    # that support before _normalized is asked for it (the guard fails the
    # test without allocating anything)
    normalized, sizes, built = heatlaser.photonstats._normalized, [], []

    def guarded(A, A_b, B, kappa, rungs):
        if rungs.max() - 1 > 1_000_000:
            raise AssertionError(f"_normalized asked for {rungs.max() - 1} rungs")
        sizes.append(rungs.max() - 1)
        return normalized(A, A_b, B, kappa, rungs)

    class Counted(PhotonDistribution):
        def __init__(self, probabilities):
            built.append(self)
            super().__init__(probabilities)

    monkeypatch.setattr(heatlaser.photonstats, "_normalized", guarded)
    monkeypatch.setattr(heatlaser.photonstats, "PhotonDistribution", Counted)
    # a valid point takes one pass and builds one distribution
    steady_distribution(scully_lamb_coefficients(make_fig2_model(n_h=2.0)))
    assert len(sizes) == len(built) == 1
    with pytest.raises(TruncationError, match="exceeds 1e6"):
        steady_distribution(scully_lamb_coefficients(make_fig2_model(kappa=1e-9)))
    path = write_config(
        tmp_path,
        {"model.kappa": 1e-9, "sweep.start": 1.0, "sweep.stop": 3.0, "sweep.points": 3},
    )
    out = tmp_path / "dim"
    code = main(["distribution", "--config", str(path), "--nh", "2", "--out", str(out)])
    assert code == 3
    assert "exceeds 1e6" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "case.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["status"] for row in rows] == [
        "failed: distribution support exceeds 1e6 photons"
    ] * 3


def test_unwritable_output_is_an_output_error(tmp_path, capsys):
    # --out naming an existing file: exit 2 with a message, not a traceback
    path = write_config(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    for command in (["sweep"], ["distribution", "--nh", "0.5"], ["thresholds"]):
        assert main([*command, "--config", str(path), "--out", str(blocker)]) == 2
        assert "output error" in capsys.readouterr().err


def test_very_hot_bath_meets_scaled_residual(tmp_path):
    # rates of order 3e7 leave an absolute round-off residual of a few 1e-9;
    # the tolerance is relative to the largest entry of the generator
    code = main(["distribution", "--config", "fig2", "--nh", "1e6", "--out", str(tmp_path)])
    assert code == 0


def test_cli_import_skips_scipy_stats_and_optimize(tmp_path):
    # scipy costs more start-up than a whole fig2 sweep, and no command
    # needs it: importing the package and the CLI, a sweep, a distribution
    # with its Wigner grid and a thresholds run all leave no scipy module
    # loaded.
    # Sweeps run in one process, even when --jobs asks for more: neither the
    # CLI import nor a sweep loads a process pool or multiprocessing.
    # Arguments are parsed without argparse, whose gettext lookups import
    # locale: neither the import nor any command loads those three
    env = dict(os.environ, PYTHONPATH=str(Path(heatlaser.__file__).parents[1]))
    probe = (
        "import sys\n"
        "def loaded(prefix): return sorted(m for m in sys.modules if m.startswith(prefix))\n"
        "import heatlaser\n"
        "print(loaded('scipy'))\n"
        "parsing = ('argparse', 'gettext', 'locale')\n"
        "import heatlaser.cli\n"
        "print(loaded(('scipy.stats', 'scipy.optimize')))\n"
        "print(loaded('scipy'))\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        "print(loaded(pool))\n"
        "print(loaded(parsing))\n"
        "out = sys.argv[1]\n"
        "assert heatlaser.cli.main(['sweep', '--config', 'fig2', '--jobs', '2', '--out', out]) == 0\n"
        "print(loaded('scipy'))\n"
        "print(loaded(pool))\n"
        "print(loaded(parsing))\n"
        "argv = ['distribution', '--config', 'fig2', '--nh', '2', '--wigner', '--out', out]\n"
        "assert heatlaser.cli.main(argv) == 0\n"
        "print(loaded('scipy'))\n"
        "print(loaded(parsing))\n"
        "argv = ['thresholds', '--config', 'fig2', '--out', out]\n"
        "assert heatlaser.cli.main(argv) == 0\n"
        "print(loaded('scipy'))\n"
        "print(loaded(parsing))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = [line for line in out.stdout.splitlines() if not line.startswith("wrote ")]
    assert lines.pop(-3) == "thresholds (n_h where gain = kappa): 0.1872, 8.647"
    assert lines == ["[]"] * 12
    assert (tmp_path / "fig2.csv").exists() and (tmp_path / "fig2_wigner.csv").exists()
    assert (tmp_path / "fig2_thresholds.csv").exists()


def test_cli_import_adds_no_dataclasses_or_copy():
    # every command pays the import, and a class built by the dataclasses
    # decorator costs about a millisecond of it: the package's records are
    # named tuples.  Only the modules the package adds to numpy's count, so
    # a numpy release that loads dataclasses itself does not fail this
    env = dict(os.environ, PYTHONPATH=str(Path(heatlaser.__file__).parents[1]))
    probe = (
        "import sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import heatlaser.cli\n"
        "print(sorted({'dataclasses', 'copy'} & (set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_every_exported_name_resolves():
    # a name deleted from a module but left in its __all__ breaks a star
    # import; check the package and every submodule that exports a list
    modules = [heatlaser] + [
        importlib.import_module(f"heatlaser.{info.name}")
        for info in pkgutil.iter_modules(heatlaser.__path__)
    ]
    exporting = [module for module in modules if hasattr(module, "__all__")]
    assert {module.__name__ for module in exporting} >= {"heatlaser", "heatlaser.solver"}
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__
        exec(f"from {module.__name__} import *", {})


@pytest.mark.parametrize("mu", [0.0, 1e-9, 2.5, 123.456, 900.0])
def test_poisson_column_keeps_the_factorial_of_each_rung(mu):
    # the running product is the same exact integer n! as math.factorial(n),
    # so the column equals the per-rung factorial formula bit for bit
    from heatlaser.cli import _poisson

    n_max = 1200
    if mu == 0.0:
        reference = (np.arange(n_max + 1) == 0).astype(float)
    else:
        log_factorial = np.array([math.log(math.factorial(n)) for n in range(n_max + 1)])
        reference = np.exp(np.arange(n_max + 1) * math.log(mu) - log_factorial - mu)
    assert np.array_equal(_poisson(mu, n_max), reference)


@pytest.mark.parametrize("mu", [0.0, 1e-9, 0.3, 2.5, 17.0, 90.0, 123.456])
def test_poisson_column_matches_scipy(mu):
    from scipy.special import gammaln
    from scipy.stats import poisson

    from heatlaser.cli import _poisson

    rungs = np.arange(201)
    mine, reference = _poisson(mu, 200), poisson.pmf(rungs, mu)
    if mu == 0.0:
        assert mine[0] == 1.0 and not mine[1:].any()
    # both are exp(n log mu - log n! - mu).  scipy's gammaln is up to 2 ulps
    # off the correctly rounded log n!, and the sum then rounds differently,
    # so P_n moves by up to 2.5 ulps of n |log mu| + log n! + mu relative
    # (2.3e-13 at n = 200); 1e-15 covers the rounding of exp
    size = gammaln(rungs + 1.0) + mu + (rungs * abs(math.log(mu)) if mu > 0 else 0.0)
    rtol = 2.5 * np.spacing(size) + 1e-15
    normal = reference >= np.finfo(float).tiny  # subnormals keep too few digits
    assert np.all(np.abs(mine - reference)[normal] <= rtol[normal] * reference[normal])
    assert np.all(np.abs(mine - reference)[~normal] <= np.finfo(float).tiny)
