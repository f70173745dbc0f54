"""Command-line front end: config-driven sweeps, distributions, thresholds.

``heatlaser COMMAND --config CONFIG [--out OUT] [--format FORMAT]`` runs
COMMAND, one of ``sweep``, ``distribution`` (which also needs ``--nh NH``
and takes ``--wigner``) and ``thresholds``, on a config file or preset.
``thresholds`` writes CSV only and takes no ``--format``.
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
and blocks not listed (such as the ``numerics`` block of older configs, with
its ``steady_tol``, ``n_max`` and ``method``) are ignored:

- ``schema_version``: must be 1.
- ``model``: ``kind`` (``three_level`` or ``four_level``), ``g``, ``kappa``,
  the bath rates ``gamma_h``, ``gamma_c`` (and ``gamma_a`` for four levels),
  each bath's occupation ``n_h``/``n_c``/``n_a`` or temperature
  ``T_h``/``T_c``/``T_a``, and optional ``level_energies`` (missing or
  ``null`` for [0, 1, 2] or [0, 1, 2, 3]; finite, strictly increasing, with
  a finite span E_top - E_g).  A temperature becomes the Planck occupation
  at its transition's gap in that ladder: omega_h = E_top - E_g,
  omega_c = E_e1 - E_g and omega_a = E_e3 - E_e2.
- ``sweep`` (optional): ``variable`` (only ``n_h``), ``start``, ``stop``,
  ``points`` and ``spacing`` (``linear`` or ``log``).
- ``output`` (optional): ``stem``, a plain file name in ``--out`` (not
  empty, and with no path separator or NUL), and ``format`` (``csv``,
  ``json`` or ``both``).

Output data files are deterministic: 12-significant-digit CSV plus an
optional JSON mirror, with run metadata in a separate ``*_meta.json``
sidecar.  A CSV text field that holds a comma, a double quote, CR or LF,
such as a sweep's ``failed: ...`` status, is put in double quotes with
each quote inside doubled (RFC 4180); any other field is written as it
is.  Sweep records and the ``distribution`` sidecar carry the Fock cutoff
``n_max``, its exact tail mass ``tail`` = P[n_max], and the ``residual``
|L[rho]|_inf of the accepted steady state (absolute, not scaled).  A
state is accepted when its residual is at most 1e-9 x the largest entry
|L_ij| of its generator (``heatlaser.solver.STEADY_TOL``); a sweep flags
any other point, and ``distribution`` exits 3.  A ``power`` past the
floating-point range, as a ladder near 1e308 gives, is written ``inf`` to
CSV and ``null`` to JSON.  Summaries printed to standard output round
their numbers to 4 significant digits; the data files carry the full 12.
Exit codes:
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
form only the rows it compares with them.  ``distribution`` reads the
closed form of a one-point grid, ``closed_form_grid(model, [n_h])``, for
its cutoff, its ``p_analytic`` column and the mean of its Poisson column,
and then solves that point with :func:`heatlaser.solver.solve_model`.
Each state stays in charge-zero block form, and the photon distribution
and the Wigner function come from its populations.  ``sweep --jobs`` is
still accepted and ignored.  ``distribution --wigner`` samples 101 x 101
points over [-h, h]^2 with h = max(4, 1.2 sqrt(<n> + 1)), so the grid
holds the ring of a bright state.  ``thresholds`` looks for roots in
[start, stop] of the sweep (a one-point sweep is allowed) or else in
``heatlaser.semiclassical.THRESHOLD_BRACKET``, and adds the
temperature-domain lasing report only when every bath, the ancilla of a
four-level engine included, is given by its temperature and T_h > 0 (the
report's Carnot bound divides by T_h).
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from importlib import resources
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .models import (
    FOUR_LEVEL,
    THREE_LEVEL,
    BathSpec,
    _ladder,
    build_four_level,
    build_three_level,
    with_hot_occupation,
)
from .photonstats import TruncationError, _total, closed_form_grid
from .semiclassical import THRESHOLD_BRACKET, find_thresholds, temperature_lasing_condition
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
        space = np.geomspace if self.spacing == "log" else np.linspace
        try:
            return space(self.start, self.stop, self.points)
        except (MemoryError, ValueError) as exc:  # ValueError: points past intp
            raise ConfigError(f"sweep.points: {self.points} points do not fit in memory") from exc


RunConfig = namedtuple("RunConfig", "raw model sweep stem format")


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
    if energies is not None and (
        not isinstance(energies, list) or not all(map(_is_finite_number, energies))
    ):
        raise ConfigError(f"{path}.level_energies: expected a list of finite numbers")
    g = _expect(block, "g", "number", path, required=True)
    kappa = _expect(block, "kappa", "number", path, required=True)
    try:
        # a bath temperature becomes an occupation at its transition's gap,
        # which EngineModel reads off the same ladder
        energies = _ladder(kind, energies)
        hot = _bath_from_config(block, "h", energies[-1] - energies[0], path)
        cold = _bath_from_config(block, "c", energies[1] - energies[0], path)
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
    output_block = data.get("output", {})
    if not isinstance(output_block, dict):
        raise ConfigError("output: must be an object")
    stem = _expect(output_block, "stem", "str", "output", default="run")
    if not stem or any(c and c in stem for c in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"output.stem: must be a plain file name, got {stem!r}")
    fmt = _expect(output_block, "format", "str", "output", default="csv")
    if fmt not in ("csv", "json", "both"):
        raise ConfigError("output.format: must be 'csv', 'json' or 'both'")
    raw = _normalized_dict(data, model, sweep, stem, fmt)
    return RunConfig(raw, model, sweep, stem, fmt)


def _normalized_dict(data, model, sweep, stem, fmt):
    norm = {"schema_version": SCHEMA_VERSION, "model": dict(data["model"])}
    norm["model"].setdefault("level_energies", list(model.level_energies))
    if sweep is not None:
        norm["sweep"] = sweep._asdict()
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
    one bound (about 0.17 s alone), a point fails there and keeps no
    closed-form row for ``l1_distance``, a sum over each point's own rows.
    The columns are merged into one record per point, failed or not.
    """
    if config.sweep is None:
        raise ConfigError("sweep: block required for the sweep command")
    grid = config.sweep.values()
    closed, cutoffs, rows, failures = closed_form_grid(config.model, grid)
    solvable = [k for k, failure in enumerate(failures) if failure is None]
    exact, numeric, exact_failures = exact_grid(
        config.model, grid[solvable], [cutoffs[k] for k in solvable]
    )
    # each point's |P_numeric - P_analytic|, over one zero-padded stack of
    # the passed points, summed left to right as each row alone
    passed = [j for j, p in enumerate(numeric) if p is not None]
    l1 = np.full(len(solvable), math.nan)
    if passed:
        sizes = np.array([numeric[j].size for j in passed])
        gaps = np.zeros((len(passed), sizes.max()))
        gaps[np.arange(sizes.max()) < sizes[:, np.newaxis]] = np.abs(
            np.concatenate([numeric[j] for j in passed])
            - np.concatenate([rows[solvable[j]] for j in passed])
        )
        l1[passed] = _total(gaps)
    exact["l1_distance"] = l1
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

def _write_text(path: Path, *chunks: str):
    # the chunks are written one after another, never joined
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        handle.writelines(chunks)


def _csv_text(text: str) -> str:
    # RFC 4180: a text field that holds a comma, a quote, CR or LF goes in
    # quotes, its own quotes doubled; any other is written as it is
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, fields: list[str], rows: list[dict]):
    # one %-template per file, from its first row, as each column holds one
    # kind of value: %s for text, %.12g for a number, which prints nan, inf,
    # -0 and numpy scalars as format(float(value), ".12g") does
    lines = [",".join(fields)]
    if rows:
        columns = [[row[name] for row in rows] for name in fields]
        text = [isinstance(column[0], str) for column in columns]
        template = ",".join("%s" if is_text else "%.12g" for is_text in text)
        columns = [map(_csv_text, c) if is_text else c for c, is_text in zip(columns, text)]
        lines += map(template.__mod__, zip(*columns))
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
    product.  n! has O(n log n) digits, so each of the n_max products costs
    more than the last: 0.35 ms at n_max 1000, 3.1 ms at 4000 and 39 ms at
    16 030 (medians on a 2-vCPU Xeon).
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
    closed, (n_max,), (analytic,), (failure,) = closed_form_grid(config.model, [n_h])
    if failure is not None:
        raise ValueError(failure)
    result = solve_model(model, n_max=n_max)
    numeric = result.distribution.probabilities
    reference = _poisson(closed["mean_analytic"][0], n_max)
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
        # each point's re, im and value through "%.12g", as _write_csv
        # prints a number, with every axis value and every distinct value
        # formatted once: W is radial, so its table holds one value per
        # radius.  u depends on |re| and |im| only, so rows of equal |im|
        # take the same values: one %-template of the re texts is filled
        # once per distinct |im|, and each row then puts in its im text
        texts = ("%.12g\n" * field.table.size % tuple(field.table.tolist())).split("\n")
        row_template = "%.12g,{im},%%s\n" * field.re_axis.size % tuple(field.re_axis.tolist())
        filled = {}
        rows = []
        for y, row in zip(field.im_axis.tolist(), field.index):
            text = filled.get(abs(y))
            if text is None:
                text = filled[abs(y)] = row_template % itemgetter(*row.tolist())(texts)
            rows.append(text.replace("{im}", "%.12g" % y))
        path = out_dir / f"{stem}_wigner.csv"
        _write_text(path, "re,im,value\n", *rows)
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
    bracket = THRESHOLD_BRACKET
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
    temperatures = [bath.temperature for bath in baths if bath is not None]
    if None not in temperatures and config.model.hot.temperature > 0.0:
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
       heatlaser thresholds --config CONFIG [--out OUT]
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
  --format {csv,json,both}  override the config output format (not thresholds)
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
# because perfbench/run.py still passes it to every sweep workload.
# thresholds writes CSV only, so it takes no --format
_COMMON = {"--config": (str, True), "--out": (str, False)}
_OUTPUT = {**_COMMON, "--format": (_format, False)}
COMMANDS = {
    "sweep": {**_OUTPUT, "--jobs": (int, False)},
    "distribution": {**_OUTPUT, "--nh": (_occupation, True), "--wigner": (None, False)},
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
