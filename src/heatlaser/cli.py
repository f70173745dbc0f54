"""Command-line front end: config-driven sweeps, distributions, thresholds.

``heatlaser COMMAND --config CONFIG [--out OUT] [--format FORMAT]`` runs
COMMAND, one of ``sweep``, ``distribution`` (which also needs ``--nh NH``
and takes ``--wigner``) and ``thresholds``, on a config file or preset.
Options come after the command, in any order, by their exact names (an
abbreviation such as ``--conf`` is an unknown option), as ``--opt value`` or
``--opt=value``; a repeated option keeps its last value, and a value that
starts with ``--`` must use the ``=`` form.  ``-h`` or ``--help`` prints the
help text and exits 0.  Any other argument error (a missing command, option
or value, an unknown option or argument, a ``--format`` other than ``csv``,
``json`` or ``both``, an ``--nh`` that is not a finite number >= 0) writes
the usage text and ``heatlaser: error: ...`` to standard error and raises
``SystemExit(2)``.  The parser is a table of each command's options
(``COMMANDS``): the standard library's parser, with its import and gettext
lookups, cost about 2 ms, more than a tenth of a preset command.

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
cutoff ``n_max``, its exact tail mass ``tail`` = P[n_max], and the
``residual`` |L[rho]|_inf of the accepted steady state (absolute, not
scaled).  Summaries printed to standard output round their numbers to 4
significant digits; the data files carry the full 12.  Exit codes:
0 success; 2 config error (including a config file that cannot be read or
is not UTF-8), bad argument (such as ``--nh -1``) or output error (an
output file that cannot be written, such as ``--out`` naming an existing
file); 3 numeric failure in single-point commands.

A sweep hands the config's model and its n_h grid to both routes, and
builds no model per point: it evaluates the closed form of the whole grid
in one array pass (:func:`heatlaser.photonstats.closed_form_grid`), then
solves the steady states of the points it leaves, in the calling process,
as columns (:func:`heatlaser.solver.exact_grid`): each batch of states is
reduced to its columns and photon distributions before the next is
solved, so a sweep holds one batch's states at a time, and of the closed
form only the rows it compares with them.  Each state stays in
charge-zero block form, and the photon distribution and the Wigner
function come from its populations.  ``sweep --jobs`` is
still accepted and ignored.  ``distribution --wigner`` samples 101 x 101
points over [-h, h]^2 with h = max(4, 1.2 sqrt(<n> + 1)), so the grid
holds the ring of a bright state.  ``thresholds`` looks for roots in
[start, stop] of the sweep (a one-point sweep is allowed) or else in
[0.001, 50], and adds the temperature-domain lasing report only when every
bath, the ancilla of a four-level engine included, is given by its
temperature.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .models import (
    FOUR_LEVEL,
    THREE_LEVEL,
    BathSpec,
    build_four_level,
    build_three_level,
    with_hot_occupation,
)
from .photonstats import (
    TruncationError,
    closed_form_grid,
    distribution_moments,
    scully_lamb_coefficients,
    steady_distribution,
)
from .semiclassical import find_thresholds, temperature_lasing_condition
from .solver import SteadyStateError, exact_grid, solve_model, wigner

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
    "fano_numeric",
    "l1_distance",
    "power",
    "n_max",
    "tail",
    "residual",
    "status",
]


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class SweepSpec(namedtuple("SweepSpec", "variable start stop points spacing")):
    __slots__ = ()

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


RunConfig = namedtuple("RunConfig", "raw model sweep steady_tol stem format")


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
    n_levels = 4 if kind == FOUR_LEVEL else 3
    energies = block.get("level_energies")
    if energies is not None:
        if not isinstance(energies, list) or not all(map(_is_finite_number, energies)):
            raise ConfigError(f"{path}.level_energies: expected a list of finite numbers")
        # the bath frequencies below index the list: check its length first
        if len(energies) != n_levels:
            raise ConfigError(
                f"{path}: {kind} model needs {n_levels} level energies, got {len(energies)}"
            )
        energies = tuple(float(e) for e in energies)
    else:
        energies = tuple(float(i) for i in range(n_levels))
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
    try:
        if path.exists():
            text = path.read_text(encoding="utf-8")
        else:
            stem = str(path_or_preset)
            if stem.endswith(".json"):
                stem = stem[: -len(".json")]
            if os.sep not in str(path_or_preset) and stem in PRESETS:
                text = resources.files("heatlaser.presets").joinpath(f"{stem}.json").read_text()
            else:
                raise ConfigError(f"config file not found: {path_or_preset}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path_or_preset}: {exc}") from exc
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
    raw = _normalized_dict(data, model, sweep, steady_tol, stem, fmt)
    return RunConfig(raw, model, sweep, steady_tol, stem, fmt)


def _normalized_dict(data, model, sweep, steady_tol, stem, fmt):
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
    norm["numerics"] = {"steady_tol": steady_tol}
    norm["output"] = {"stem": stem, "format": fmt}
    return norm


def dumps_config(config: RunConfig) -> str:
    """Serialize the parsed config back to JSON (round-trip stable)."""
    return json.dumps(config.raw, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# sweep execution
# ---------------------------------------------------------------------------

def run_sweep(config: RunConfig) -> list[dict]:
    """Evaluate every sweep point in this process, ordered by sweep index.

    The closed form of the whole grid is one :func:`closed_form_grid` pass,
    which gives the closed-form columns and each point's Fock cutoff.  The
    points it leaves are solved by one :func:`exact_grid` call on the same
    model and grid, which gives the exact columns.  Past n_max 16 030, the
    one bound (0.33-0.36 s alone), a point fails there and keeps no
    closed-form row for ``l1_distance``, a sum over each point's own rows.
    The columns are merged into one record per point, failed or not.
    """
    if config.sweep is None:
        raise ConfigError("sweep: block required for the sweep command")
    grid = config.sweep.values()
    closed, cutoffs, rows, failures = closed_form_grid(config.model, grid)
    solvable = [k for k, failure in enumerate(failures) if failure is None]
    exact, numeric, exact_failures = exact_grid(
        config.model, grid[solvable], [cutoffs[k] for k in solvable], config.steady_tol
    )
    exact["l1_distance"] = [
        math.nan if p is None else float(np.abs(p - rows[k]).sum())
        for k, p in zip(solvable, numeric)
    ]
    columns = {**closed, "n_h": grid.tolist()}
    for name, values in exact.items():
        column = np.full(grid.size, math.nan)
        column[solvable] = values
        columns[name] = column.tolist()
    failures = np.array(failures, dtype=object)
    failures[solvable] = np.array(exact_failures, dtype=object)
    status = ["ok" if failure is None else f"failed: {failure}" for failure in failures]
    columns["status"] = status
    columns["n_max"] = [n_max if ok == "ok" else math.nan for n_max, ok in zip(cutoffs, status)]
    return [dict(zip(SWEEP_FIELDS, values)) for values in zip(*map(columns.get, SWEEP_FIELDS))]


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

def cmd_sweep(config: RunConfig, out_dir: Path, fmt: str) -> int:
    records = run_sweep(config)
    written = _emit_records(out_dir, config.stem, fmt, SWEEP_FIELDS, records)
    _write_meta(out_dir / f"{config.stem}_meta.json", config, "sweep")
    failed = sum(1 for r in records if r["status"] != "ok")
    for path in written:
        print(f"wrote {path}")
    if failed:
        print(f"warning: {failed} of {len(records)} points flagged", file=sys.stderr)
    return 0


def _poisson(mu: float, n_max: int) -> np.ndarray:
    """Poisson probabilities P_0..P_n_max of mean mu, in log space.

    exp(n log mu - log n! - mu), the form of ``scipy.stats.poisson.pmf``
    without importing scipy, whose import alone takes longer than a whole
    sweep.  log n! is taken from the exact integer n!, kept as a running
    product, so the column costs O(n_max) products and not O(n_max^2).
    """
    if mu == 0:
        return (np.arange(n_max + 1) == 0).astype(float)
    rungs = np.arange(n_max + 1)
    log_factorial, factorial = [0.0], 1
    for n in range(1, n_max + 1):
        factorial *= n
        log_factorial.append(math.log(factorial))
    return np.exp(rungs * math.log(mu) - np.array(log_factorial) - mu)


def cmd_distribution(config: RunConfig, n_h: float, out_dir: Path, fmt: str, with_wigner: bool) -> int:
    model = with_hot_occupation(config.model, n_h)
    coeffs = scully_lamb_coefficients(model)
    closed = steady_distribution(coeffs)
    n_max = closed.n_max
    _, result = solve_model(model, n_max=n_max, tol=config.steady_tol)
    numeric = result.distribution.probabilities
    analytic = closed.probabilities
    mean = distribution_moments(coeffs, distribution=closed).mean
    reference = _poisson(max(mean, 0.0), n_max)
    rows = [
        {"n": n, "p_analytic": analytic[n], "p_numeric": numeric[n], "p_poisson": reference[n]}
        for n in range(n_max + 1)
    ]
    stem = config.stem
    written = _emit_records(
        out_dir, f"{stem}_distribution", fmt, ["n", "p_analytic", "p_numeric", "p_poisson"], rows
    )
    if with_wigner:
        field = wigner(result.distribution)
        # the lines _fmt gives each point, with every axis value and every
        # distinct value formatted once.  Values are told apart by their
        # bits, as format tells -0.0 from 0.0 and np.unique does not.  Each
        # row of the grid is one %-template of its re texts and im text,
        # filled with its values' texts
        distinct, where = np.unique(field.values.view(np.int64), return_inverse=True)
        texts = [format(w, ".12g") for w in distinct.view(float).tolist()]
        where = where.reshape(field.values.shape)
        row_template = "".join(f"{_fmt(x)},{{im}},%s\n" for x in field.re_axis)
        parts = ["re,im,value\n"]
        for y, row in zip(field.im_axis, where):
            template = row_template.replace("{im}", _fmt(y))
            parts.append(template % tuple(map(texts.__getitem__, row.tolist())))
        path = out_dir / f"{stem}_wigner.csv"
        _write_text(path, "".join(parts))
        written.append(path)
    extra = {
        "n_h": n_h,
        "n_max": n_max,
        "tail": float(numeric[-1]),
        "residual": result.residual,
    }
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
    path = out_dir / f"{config.stem}_thresholds.csv"
    _write_csv(path, ["index", "n_h_root"], rows)
    print(f"wrote {path}")
    baths = (config.model.hot, config.model.cold, config.model.ancilla)
    if all(bath.temperature is not None for bath in baths if bath is not None):
        report = temperature_lasing_condition(config.model)
        print(f"lases (kappa -> 0 limit): {str(report.lases).lower()}")
        print(f"efficiency (lasing_frequency / omega_h): {report.efficiency:.4g}")
        print(f"carnot bound (1 - T_c/T_h): {report.carnot:.4g}")
    _write_meta(out_dir / f"{config.stem}_meta.json", config, "thresholds")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

USAGE = """\
usage: heatlaser sweep --config CONFIG [--out OUT] [--format {csv,json,both}]
       heatlaser distribution --config CONFIG [--out OUT] [--format {csv,json,both}] --nh NH [--wigner]
       heatlaser thresholds --config CONFIG [--out OUT] [--format {csv,json,both}]
"""

HELP = USAGE + """
Single-atom heat-engine laser: sweeps, photon statistics, thresholds.

commands:
  sweep                     sweep n_h and tabulate gain and photon statistics
  distribution              photon distribution at one n_h
  thresholds                locate gain = kappa crossings

options:
  -h, --help                show this help message and exit
  --config CONFIG           JSON config path, or a bundled preset name (fig2, fig5)
  --out OUT                 output directory (default: .)
  --format {csv,json,both}  override the config output format
  --nh NH                   hot bath occupation (distribution only)
  --wigner                  also write the Wigner function grid (distribution only)
"""


def _occupation(text: str) -> float:
    # --nh: a finite hot bath occupation >= 0
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise ValueError(f"must be a finite number >= 0, got {text!r}")
    return value


def _format(text: str) -> str:
    if text not in ("csv", "json", "both"):
        raise ValueError(f"invalid choice: {text!r} (choose from 'csv', 'json', 'both')")
    return text


# each command's options, each with the converter of its value (None for a
# flag, which takes no value) and whether it is required.  Sweeps run in one
# process: --jobs is accepted and ignored, and left out of the usage text,
# because perfbench/run.py still passes it to every sweep workload
_COMMON = {"--config": (str, True), "--out": (str, False), "--format": (_format, False)}
COMMANDS = {
    "sweep": {**_COMMON, "--jobs": (int, False)},
    "distribution": {**_COMMON, "--nh": (_occupation, True), "--wigner": (None, False)},
    "thresholds": _COMMON,
}


def _argument_error(message: str):
    sys.stderr.write(f"{USAGE}heatlaser: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv) -> tuple[str, dict]:
    """The command of ``argv`` and its option values, keyed by option name.

    ``-h`` or ``--help`` anywhere prints the help text and exits 0.  Any other
    argument error prints the usage text and the error and exits 2.
    """
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(HELP)
        raise SystemExit(0)
    if not argv:
        _argument_error("the following arguments are required: command")
    if argv[0] not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _argument_error(f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
    options = COMMANDS[argv[0]]
    values = {"--out": ".", "--format": None, "--wigner": False}
    unknown = []
    tokens = iter(argv[1:])
    for token in tokens:
        name, equals, text = token.partition("=")
        if name not in options:
            unknown.append(token)
            continue
        convert = options[name][0]
        if convert is None:
            if equals:
                _argument_error(f"argument {name}: ignored explicit argument {text!r}")
            values[name] = True
            continue
        if not equals:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                _argument_error(f"argument {name}: expected one argument")
        try:
            values[name] = convert(text)
        except ValueError as exc:
            # int's own message names Python's literal syntax, not the option
            reason = f"invalid int value: {text!r}" if convert is int else exc
            _argument_error(f"argument {name}: {reason}")
    missing = [name for name, (_, required) in options.items() if required and name not in values]
    if missing:
        _argument_error(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        _argument_error(f"unrecognized arguments: {' '.join(unknown)}")
    return argv[0], values


def main(argv=None) -> int:
    command, args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        config = load_config(args["--config"])
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args["--out"])
    fmt = args["--format"] or config.format
    try:
        if command == "sweep":
            return cmd_sweep(config, out_dir, fmt)
        if command == "distribution":
            return cmd_distribution(config, args["--nh"], out_dir, fmt, args["--wigner"])
        if command == "thresholds":
            return cmd_thresholds(config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SteadyStateError, TruncationError, ValueError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
