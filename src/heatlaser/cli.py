"""Command-line front end: config-driven sweeps, distributions, thresholds.

Configs are JSON objects with these blocks; numbers must be finite, and keys
not listed (such as ``numerics.n_max`` of older configs) are ignored:

- ``schema_version``: must be 1.
- ``model``: ``kind`` (``three_level`` or ``four_level``), ``g``, ``kappa``,
  the bath rates ``gamma_h``, ``gamma_c`` (and ``gamma_a`` for four levels),
  each bath's occupation ``n_h``/``n_c``/``n_a`` or temperature
  ``T_h``/``T_c``/``T_a``, and optional ``level_energies``.
- ``sweep`` (optional): ``variable`` (only ``n_h``), ``start``, ``stop``,
  ``points`` and ``spacing`` (``linear`` or ``log``).
- ``numerics`` (optional): ``steady_tol`` (> 0, default 1e-9), the largest
  steady-state residual |L[rho]|_inf accepted, relative to the largest
  entry |L_ij| of the generator.
- ``output`` (optional): ``stem`` and ``format`` (``csv``, ``json``, ``both``).

Output data files are deterministic: 12-significant-digit CSV plus an
optional JSON mirror, with run metadata in a separate ``*_meta.json``
sidecar.  Sweep records and the ``distribution`` sidecar carry the Fock
cutoff ``n_max`` and its exact tail mass ``tail`` = P[n_max].  Summaries
printed to standard output round their numbers to 4 significant digits; the
data files carry the full 12.  Exit codes: 0 success, 2 config error,
3 numeric failure in single-point commands.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.special import gammaln, xlogy

from . import __version__
from .models import (
    FOUR_LEVEL,
    THREE_LEVEL,
    BathSpec,
    EngineModel,
    build_four_level,
    build_three_level,
    with_hot_occupation,
)
from .photonstats import (
    TruncationError,
    distribution_moments,
    output_power,
    scully_lamb_coefficients,
    steady_distribution,
)
from .semiclassical import (
    find_thresholds,
    lasing_gain,
    population_inversion,
    temperature_lasing_condition,
)
from .solver import (
    SteadyStateError,
    partial_trace_atom,
    photon_distribution,
    solve_model,
    wigner,
)

SCHEMA_VERSION = 1
PRESETS = ("fig2", "fig5")

SWEEP_FIELDS = [
    "n_h",
    "gain_over_kappa",
    "inversion0",
    "A",
    "A_b",
    "B",
    "mean_analytic",
    "variance_analytic",
    "fano_analytic",
    "mean_numeric",
    "variance_numeric",
    "l1_distance",
    "power",
    "n_max",
    "tail",
    "status",
]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@dataclass
class SweepSpec:
    variable: str
    start: float
    stop: float
    points: int
    spacing: str

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass
class NumericsSpec:
    steady_tol: float


@dataclass
class OutputSpec:
    stem: str
    format: str


@dataclass
class RunConfig:
    raw: dict
    model: EngineModel
    sweep: SweepSpec | None
    numerics: NumericsSpec
    output: OutputSpec


def _is_finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _expect(block, key, kinds, path, default=None, required=False):
    if key not in block:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = block[key]
    if kinds == "number":
        if not _is_finite_number(value):
            raise ConfigError(f"{path}.{key}: expected a finite number, got {value!r}")
        return float(value)
    if kinds == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}.{key}: expected an integer, got {value!r}")
        return value
    if kinds == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{path}.{key}: expected a string, got {value!r}")
        return value
    raise AssertionError(kinds)


def _bath_from_config(block, name, omega, path):
    gamma = _expect(block, f"gamma_{name}", "number", path, required=True)
    occ_key, temp_key = f"n_{name}", f"T_{name}"
    has_occ, has_temp = occ_key in block, temp_key in block
    if has_occ and has_temp:
        raise ConfigError(f"{path}: give {occ_key} or {temp_key}, not both")
    if not has_occ and not has_temp:
        raise ConfigError(f"{path}: one of {occ_key} or {temp_key} is required")
    try:
        if has_occ:
            return BathSpec(gamma, _expect(block, occ_key, "number", path))
        return BathSpec.thermal(gamma, omega, _expect(block, temp_key, "number", path))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _model_from_config(block, path="model"):
    kind = _expect(block, "kind", "str", path, required=True)
    if kind not in (THREE_LEVEL, FOUR_LEVEL):
        raise ConfigError(f"{path}.kind: must be '{THREE_LEVEL}' or '{FOUR_LEVEL}'")
    energies = block.get("level_energies")
    if energies is not None:
        if not isinstance(energies, list) or not all(map(_is_finite_number, energies)):
            raise ConfigError(f"{path}.level_energies: expected a list of finite numbers")
        energies = tuple(float(e) for e in energies)
    else:
        energies = tuple(float(i) for i in range(4 if kind == FOUR_LEVEL else 3))
    omega_c = energies[1] - energies[0]
    omega_h = energies[-1] - energies[0]
    g = _expect(block, "g", "number", path, required=True)
    kappa = _expect(block, "kappa", "number", path, required=True)
    try:
        hot = _bath_from_config(block, "h", omega_h, path)
        cold = _bath_from_config(block, "c", omega_c, path)
        if kind == THREE_LEVEL:
            return build_three_level(hot, cold, g, kappa, level_energies=energies)
        ancilla = _bath_from_config(block, "a", energies[3] - energies[2], path)
        return build_four_level(hot, cold, ancilla, g, kappa, level_energies=energies)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _sweep_from_config(block, path="sweep"):
    variable = _expect(block, "variable", "str", path, default="n_h")
    if variable != "n_h":
        raise ConfigError(f"{path}.variable: only 'n_h' sweeps are supported")
    start = _expect(block, "start", "number", path, required=True)
    stop = _expect(block, "stop", "number", path, required=True)
    points = _expect(block, "points", "int", path, required=True)
    spacing = _expect(block, "spacing", "str", path, default="linear")
    if start <= 0 or stop < start:
        raise ConfigError(f"{path}: need 0 < start <= stop, got [{start}, {stop}]")
    if points < 1:
        raise ConfigError(f"{path}.points: must be >= 1, got {points}")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"{path}.spacing: must be 'linear' or 'log'")
    return SweepSpec(variable, start, stop, points, spacing)


def _load_json(path_or_preset):
    path = Path(path_or_preset)
    if path.exists():
        text = path.read_text()
    else:
        stem = str(path_or_preset)
        if stem.endswith(".json"):
            stem = stem[: -len(".json")]
        if os.sep not in str(path_or_preset) and stem in PRESETS:
            text = resources.files("heatlaser.presets").joinpath(f"{stem}.json").read_text()
        else:
            raise ConfigError(f"config file not found: {path_or_preset}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path_or_preset}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path_or_preset}: top level must be an object")
    return data


def load_config(path_or_preset) -> RunConfig:
    """Parse and validate a JSON config; preset names (fig2, fig5) work too."""
    data = _load_json(path_or_preset)
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    if "model" not in data or not isinstance(data["model"], dict):
        raise ConfigError("model: missing required block")
    model = _model_from_config(data["model"])
    sweep = None
    if "sweep" in data:
        if not isinstance(data["sweep"], dict):
            raise ConfigError("sweep: must be an object")
        sweep = _sweep_from_config(data["sweep"])
    numerics_block = data.get("numerics", {})
    if not isinstance(numerics_block, dict):
        raise ConfigError("numerics: must be an object")
    steady_tol = _expect(numerics_block, "steady_tol", "number", "numerics", default=1e-9)
    if steady_tol <= 0:
        raise ConfigError(f"numerics.steady_tol: must be > 0, got {steady_tol}")
    output_block = data.get("output", {})
    if not isinstance(output_block, dict):
        raise ConfigError("output: must be an object")
    stem = _expect(output_block, "stem", "str", "output", default="run")
    fmt = _expect(output_block, "format", "str", "output", default="csv")
    if fmt not in ("csv", "json", "both"):
        raise ConfigError("output.format: must be 'csv', 'json' or 'both'")
    numerics = NumericsSpec(steady_tol)
    output = OutputSpec(stem, fmt)
    return RunConfig(_normalized_dict(data, model, sweep, numerics, output), model, sweep, numerics, output)


def _normalized_dict(data, model, sweep, numerics, output):
    norm = {"schema_version": SCHEMA_VERSION, "model": dict(data["model"])}
    norm["model"].setdefault("level_energies", list(model.level_energies))
    if sweep is not None:
        norm["sweep"] = {
            "variable": sweep.variable,
            "start": sweep.start,
            "stop": sweep.stop,
            "points": sweep.points,
            "spacing": sweep.spacing,
        }
    norm["numerics"] = {"steady_tol": numerics.steady_tol}
    norm["output"] = {"stem": output.stem, "format": output.format}
    return norm


def dumps_config(config: RunConfig) -> str:
    """Serialize the parsed config back to JSON (round-trip stable)."""
    return json.dumps(config.raw, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------

def _sweep_point(config: RunConfig, n_h: float) -> dict:
    """Compute one sweep record; runs inside worker processes."""
    model = with_hot_occupation(config.model, n_h)
    record = dict.fromkeys(SWEEP_FIELDS, math.nan)
    record["n_h"] = n_h
    record["status"] = "ok"
    try:
        coeffs = scully_lamb_coefficients(model)
        moments = distribution_moments(coeffs)
        record.update(
            gain_over_kappa=lasing_gain(model) / model.kappa,
            inversion0=population_inversion(model),
            A=coeffs.A,
            A_b=coeffs.A_b,
            B=coeffs.B,
            mean_analytic=moments.mean,
            variance_analytic=moments.variance,
            fano_analytic=moments.fano,
            power=output_power(model, moments.mean),
        )
        space, result = solve_model(model, tol=config.numerics.steady_tol)
        numeric = photon_distribution(result.state, space)
        analytic = steady_distribution(coeffs, n_max=space.n_max, tail_tol=math.inf)
        record.update(
            mean_numeric=numeric.mean,
            variance_numeric=numeric.variance,
            l1_distance=float(
                np.abs(numeric.probabilities - analytic.probabilities).sum()
            ),
            n_max=space.n_max,
            tail=float(numeric.probabilities[-1]),
        )
    except (ValueError, TruncationError, SteadyStateError) as exc:
        record["status"] = f"failed: {exc}"
    return record


def run_sweep(config: RunConfig, jobs: int = 1) -> list[dict]:
    """Evaluate every sweep point, ordered by sweep index."""
    if config.sweep is None:
        raise ConfigError("sweep: block required for the sweep command")
    point = functools.partial(_sweep_point, config)
    values = [float(value) for value in config.sweep.values()]
    if jobs <= 1 or len(values) == 1:
        return [point(n_h) for n_h in values]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(point, values))


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    return format(float(value), ".12g")


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _write_csv(path: Path, fields: list[str], rows: list[dict]):
    lines = [",".join(fields)]
    lines += [",".join(_fmt(row[f]) for f in fields) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, rows: list[dict]):
    payload = {
        "schema_version": SCHEMA_VERSION,
        "records": [{k: _json_value(v) for k, v in row.items()} for row in rows],
    }
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_meta(path: Path, config: RunConfig, command: str, extra=None):
    meta = {
        "command": command,
        "config": config.raw,
        "package": f"heatlaser {__version__}",
    }
    if extra:
        meta.update(extra)
    _write_text(path, json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _emit_records(out_dir, stem, fmt, fields, rows):
    written = []
    if fmt in ("csv", "both"):
        path = out_dir / f"{stem}.csv"
        _write_csv(path, fields, rows)
        written.append(path)
    if fmt in ("json", "both"):
        path = out_dir / f"{stem}.json"
        _write_json(path, rows)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_sweep(config: RunConfig, out_dir: Path, jobs: int, fmt: str) -> int:
    records = run_sweep(config, jobs=jobs)
    written = _emit_records(out_dir, config.output.stem, fmt, SWEEP_FIELDS, records)
    _write_meta(
        out_dir / f"{config.output.stem}_meta.json", config, "sweep", {"jobs": jobs}
    )
    failed = sum(1 for r in records if r["status"] != "ok")
    for path in written:
        print(f"wrote {path}")
    if failed:
        print(f"warning: {failed} of {len(records)} points flagged", file=sys.stderr)
    return 0


def cmd_distribution(config: RunConfig, n_h: float, out_dir: Path, fmt: str, with_wigner: bool) -> int:
    model = with_hot_occupation(config.model, n_h)
    space, result = solve_model(model, tol=config.numerics.steady_tol)
    numeric = photon_distribution(result.state, space)
    coeffs = scully_lamb_coefficients(model)
    analytic = steady_distribution(coeffs, n_max=space.n_max, tail_tol=math.inf)
    mean = distribution_moments(coeffs).mean if coeffs.A > 0 else 0.0
    # the Poisson pmf of scipy.stats, whose import would double the CLI's start-up
    rungs, mu = np.arange(space.n_max + 1), max(mean, 0.0)
    reference = np.exp(xlogy(rungs, mu) - gammaln(rungs + 1) - mu)
    rows = [
        {
            "n": n,
            "p_analytic": analytic.probabilities[n],
            "p_numeric": numeric.probabilities[n],
            "p_poisson": reference[n],
        }
        for n in range(space.n_max + 1)
    ]
    stem = config.output.stem
    written = _emit_records(
        out_dir, f"{stem}_distribution", fmt, ["n", "p_analytic", "p_numeric", "p_poisson"], rows
    )
    if with_wigner:
        field = wigner(partial_trace_atom(result.state, space))
        lines = ["re,im,value"]
        for iy, y in enumerate(field.im_axis):
            for ix, x in enumerate(field.re_axis):
                lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(field.values[iy, ix])}")
        path = out_dir / f"{stem}_wigner.csv"
        _write_text(path, "\n".join(lines) + "\n")
        written.append(path)
    extra = {"n_h": n_h, "n_max": space.n_max, "tail": float(numeric.probabilities[-1])}
    _write_meta(out_dir / f"{stem}_meta.json", config, "distribution", extra)
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_thresholds(config: RunConfig, out_dir: Path) -> int:
    bracket = (1e-3, 50.0)
    if config.sweep is not None:
        bracket = (config.sweep.start, config.sweep.stop)
    roots = find_thresholds(config.model, bracket=bracket)
    if roots:
        print("thresholds (n_h where gain = kappa): " + ", ".join(f"{r:.4g}" for r in roots))
    else:
        print(f"no threshold in bracket [{bracket[0]:g}, {bracket[1]:g}]")
    rows = [{"index": i, "n_h_root": r} for i, r in enumerate(roots)]
    path = out_dir / f"{config.output.stem}_thresholds.csv"
    _write_csv(path, ["index", "n_h_root"], rows)
    print(f"wrote {path}")
    temps_given = config.model.hot.temperature is not None and (
        config.model.cold.temperature is not None
    )
    if temps_given:
        report = temperature_lasing_condition(config.model)
        print(f"lases (kappa -> 0 limit): {str(report.lases).lower()}")
        print(f"efficiency (lasing_frequency / omega_h): {report.efficiency:.4g}")
        print(f"carnot bound (1 - T_c/T_h): {report.carnot:.4g}")
    _write_meta(out_dir / f"{config.output.stem}_meta.json", config, "thresholds")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heatlaser",
        description="Single-atom heat-engine laser: sweeps, photon statistics, thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--config",
            required=True,
            help="JSON config path, or a bundled preset name (fig2, fig5)",
        )
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument(
            "--format",
            choices=["csv", "json", "both"],
            default=None,
            help="override the config output format",
        )

    p_sweep = sub.add_parser("sweep", help="sweep n_h and tabulate gain and photon statistics")
    common(p_sweep)
    p_sweep.add_argument(
        "--jobs", type=int, default=os.cpu_count() or 1, help="worker processes"
    )

    p_dist = sub.add_parser("distribution", help="photon distribution at one n_h")
    common(p_dist)
    p_dist.add_argument("--nh", type=float, required=True, help="hot bath occupation")
    p_dist.add_argument(
        "--wigner", action="store_true", help="also write the Wigner function grid"
    )

    p_thr = sub.add_parser("thresholds", help="locate gain = kappa crossings")
    common(p_thr)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    fmt = args.format or config.output.format
    try:
        if args.command == "sweep":
            return cmd_sweep(config, out_dir, max(1, args.jobs), fmt)
        if args.command == "distribution":
            return cmd_distribution(config, args.nh, out_dir, fmt, args.wigner)
        if args.command == "thresholds":
            return cmd_thresholds(config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SteadyStateError, TruncationError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
