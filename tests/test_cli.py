import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heatlaser
from heatlaser.cli import (
    ConfigError,
    SWEEP_FIELDS,
    dumps_config,
    load_config,
    main,
    run_sweep,
)

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
    "numerics": {"steady_tol": 1e-9},
    "output": {"stem": "case", "format": "csv"},
}


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


def test_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        load_config(bad)
    for overrides, fragment in [
        ({"schema_version": 2}, "schema_version"),
        ({"model.kind": "two_level"}, "kind"),
        ({"model.kappa": None}, "kappa"),
        ({"model.T_h": 1.0}, "not both"),
        ({"sweep.points": 0}, "points"),
        ({"sweep.spacing": "cubic"}, "spacing"),
        ({"output.format": "xml"}, "format"),
        # json reads NaN and Infinity; they must not reach the numerics
        ({"model.kappa": float("nan")}, "kappa: expected a finite number"),
        ({"model.g": float("inf")}, "g: expected a finite number"),
        ({"model.level_energies": [0.0, float("nan"), 2.0]}, "level_energies"),
        ({"numerics.steady_tol": 0.0}, "steady_tol: must be > 0"),
    ]:
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_config(tmp_path, overrides))


def test_unknown_numerics_key_is_ignored(tmp_path):
    # configs written for older versions still carry numerics.method and n_max
    plain = write_config(tmp_path, name="plain.json")
    for key, value in (("method", "auto"), ("n_max", 40)):
        path = write_config(tmp_path, {f"numerics.{key}": value})
        assert load_config(path).raw == load_config(plain).raw


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
    assert 2 <= record["n_max"] <= 200
    assert record["tail"] < 1e-8


def test_sweep_outputs_are_deterministic(tmp_path):
    path = write_config(tmp_path, {"output.format": "both"})
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["sweep", "--config", str(path), "--out", str(out_a), "--jobs", "1"]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(out_b), "--jobs", "1"]) == 0
    assert main(["sweep", "--config", str(path), "--out", str(out_c), "--jobs", "2"]) == 0
    csv_a = (out_a / "case.csv").read_bytes()
    assert csv_a == (out_b / "case.csv").read_bytes()
    assert csv_a == (out_c / "case.csv").read_bytes()
    json_a = (out_a / "case.json").read_bytes()
    assert json_a == (out_c / "case.json").read_bytes()
    header, first, *_ = csv_a.decode().splitlines()
    assert header == ",".join(SWEEP_FIELDS)
    assert (out_a / "case_meta.json").exists()
    # 12 significant digits
    gain = first.split(",")[1]
    assert len(gain.replace(".", "").replace("-", "").lstrip("0")) <= 12


def test_sweep_flags_failed_points(tmp_path):
    # an impossibly tight steady-state tolerance cannot be met
    path = write_config(tmp_path, {"numerics.steady_tol": 1e-30})
    records = run_sweep(load_config(path))
    assert all(r["status"].startswith("failed:") for r in records)
    assert all(r["mean_numeric"] != r["mean_numeric"] for r in records)  # nan
    assert all(r["gain_over_kappa"] > 0 for r in records)  # analytic part kept


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
    path = write_config(tmp_path, {"model.g": 0.0})
    assert main(["thresholds", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert "no threshold in bracket" in capsys.readouterr().out


def test_thresholds_temperature_report(tmp_path, capsys):
    overrides = {
        "model.n_h": None,
        "model.n_c": None,
        "model.T_h": 4.0,
        "model.T_c": 0.5,
    }
    path = write_config(tmp_path, overrides)
    assert main(["thresholds", "--config", str(path), "--out", str(tmp_path)]) == 0
    text = capsys.readouterr().out
    assert "efficiency" in text and "carnot" in text and "lases" in text


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


def test_exit_codes(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err
    path = write_config(tmp_path, {"numerics.steady_tol": 1e-30})
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
    path = write_config(tmp_path)
    code = main(["distribution", "--config", str(path), "--nh", "nan", "--out", str(tmp_path)])
    assert code == 3
    assert "bath occupation must be finite" in capsys.readouterr().err
    # kappa = 0.02 puts hundreds of photons in the cavity, past n_max = 200
    path = write_config(tmp_path, {"model.kappa": 0.02}, name="dim.json")
    out = tmp_path / "dim"
    code = main(["distribution", "--config", str(path), "--nh", "1.0", "--out", str(out)])
    assert code == 3
    assert "needs n_max" in capsys.readouterr().err
    assert not out.exists()


def test_very_hot_bath_meets_scaled_residual(tmp_path):
    # rates of order 3e7 leave an absolute round-off residual of a few 1e-9;
    # the tolerance is relative to the largest entry of the generator
    code = main(["distribution", "--config", "fig2", "--nh", "1e6", "--out", str(tmp_path)])
    assert code == 0


def test_cli_import_skips_scipy_stats_and_optimize():
    # the two packages are most of the start-up cost of every command
    env = dict(os.environ, PYTHONPATH=str(Path(heatlaser.__file__).parents[1]))
    probe = (
        "import sys, heatlaser.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.optimize'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
