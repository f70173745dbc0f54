"""Correctness checks on the files a workload wrote.

Sweeps are compared with reference CSVs written by ``make_refs.py``; columns
are matched by name, so a column added later is ignored.  The Wigner grid is
compared with the radial Laguerre form of the run's own photon distribution,
W(r) = (2/pi) exp(-2 r^2) sum_n (-1)^n p_n L_n(4 r^2), which is exact for the
diagonal cavity state every steady state here has.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# A sweep value matches when |got - ref| <= SWEEP_ATOL + SWEEP_RTOL * |ref|.
# This leaves room for a different solver or cutoff policy (tail mass 1e-8)
# but not for a different steady state.
SWEEP_RTOL = 1e-6
SWEEP_ATOL = 1e-8

# A Wigner grid point misses the reference by more than 1% of 2/pi, the
# largest value any Wigner function takes.  The seed's displaced-parity
# routine is off by 2.0e-3 at the grid corners; ``max_abs_err`` and the
# count of points off by more than WIGNER_EXACT, in the notes, show that error.
WIGNER_ATOL = 0.01 * 2.0 / math.pi
WIGNER_EXACT = 1e-9


@dataclass
class CheckResult:
    failed: int
    max_abs_err: float
    notes: list[str]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_sweep(out_csv: Path, ref_csv: Path) -> CheckResult:
    """One operation per sweep point: it fails on a non-ok status or a missed value."""
    ref = _read_csv(ref_csv)
    got = _read_csv(out_csv)
    notes = []
    if len(got) != len(ref):
        return CheckResult(len(ref), math.inf, [f"{len(got)} rows, expected {len(ref)}"])
    columns = [c for c in ref[0] if c != "status"]
    missing = [c for c in columns if c not in got[0]]
    if missing:
        return CheckResult(len(ref), math.inf, [f"missing columns {missing}"])
    failed, worst = 0, 0.0
    for index, (row, want) in enumerate(zip(got, ref)):
        bad = [] if row["status"] == "ok" else [f"status {row['status']!r}"]
        for column in columns:
            a, r = float(row[column]), float(want[column])
            if math.isnan(a) and math.isnan(r):
                continue
            err = abs(a - r)
            worst = max(worst, err) if not math.isnan(err) else math.inf
            if not err <= SWEEP_ATOL + SWEEP_RTOL * abs(r):
                bad.append(f"{column}={a!r} vs {r!r}")
        if bad:
            failed += 1
            if len(notes) < 5:
                notes.append(f"row {index}: " + "; ".join(bad))
    return CheckResult(failed, worst, notes)


def laguerre_wigner(p: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Wigner function of the diagonal state sum_n p_n |n><n| at re + i im."""
    u = 4.0 * (re * re + im * im)
    prev, cur = np.ones_like(u), 1.0 - u
    total = p[0] * prev - (p[1] * cur if p.size > 1 else 0.0)
    for n in range(1, p.size - 1):
        prev, cur = cur, ((2 * n + 1 - u) * cur - n * prev) / (n + 1)
        total = total + (-1) ** (n + 1) * p[n + 1] * cur
    return (2.0 / math.pi) * np.exp(-u / 2.0) * total


def check_wigner(distribution_csv: Path, wigner_csv: Path) -> CheckResult:
    """One operation per grid point: it fails when it misses the Laguerre form."""
    p = np.array([float(r["p_numeric"]) for r in _read_csv(distribution_csv)])
    rows = _read_csv(wigner_csv)
    re = np.array([float(r["re"]) for r in rows])
    im = np.array([float(r["im"]) for r in rows])
    value = np.array([float(r["value"]) for r in rows])
    notes = []
    if p.size == 0 or p.min() < 0.0 or abs(p.sum() - 1.0) > 1e-9:
        notes.append(f"p_numeric is not a distribution (sum {p.sum()!r})")
        return CheckResult(len(rows), math.inf, notes)
    err = np.abs(value - laguerre_wigner(p, re, im))
    err[np.isnan(err)] = math.inf
    worst = int(np.argmax(err))
    notes.append(
        f"largest error {err[worst]:.3e} at W({re[worst]:g}, {im[worst]:g}); "
        f"{int((err > WIGNER_EXACT).sum())} of {err.size} points off by more than {WIGNER_EXACT:g}"
    )
    return CheckResult(int((err > WIGNER_ATOL).sum()), float(err[worst]), notes)
