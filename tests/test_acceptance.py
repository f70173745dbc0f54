"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the assertions enforce every stated tolerance either way.
"""

import math
import time

import numpy as np
import pytest

from heatlaser import (
    BathSpec,
    build_four_level,
    build_three_level,
    coefficient_flow,
    distribution_moments,
    elimination_flow,
    find_thresholds,
    lasing_gain,
    scully_lamb_coefficients,
    steady_distribution,
    temperature_lasing_condition,
    with_hot_occupation,
)
from heatlaser.core import build_cavity_operators
from heatlaser.photonstats import LaserCoefficients
from heatlaser.solver import expectation, partial_trace_atom, photon_distribution, solve_model

from conftest import make_fig2_model, make_fig5_model, random_four_level, random_three_level

# steady states computed along the way, examined again by criterion 9
_STATES = {}


def _report(number, name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number:2d}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_three_level_thresholds():
    start = time.perf_counter()
    roots = find_thresholds(make_fig2_model())
    elapsed = time.perf_counter() - start
    ok = (
        len(roots) == 2
        and abs(roots[0] - 0.187) <= 0.005
        and abs(roots[1] - 8.647) <= 0.05
        and elapsed < 1.0
    )
    _report(1, "three-level double threshold",
            ok, f"roots={roots[0]:.4f}, {roots[1]:.4f} in {elapsed:.2f}s")


def test_criterion_02_four_level_threshold():
    start = time.perf_counter()
    roots = find_thresholds(make_fig5_model())
    elapsed = time.perf_counter() - start
    ok = len(roots) == 1 and abs(roots[0] - 0.0141) <= 0.0005 and elapsed < 1.0
    _report(2, "four-level single threshold",
            ok, f"root={roots[0]:.5f} in {elapsed:.2f}s")


def test_criterion_03_equal_gain_points():
    start = time.perf_counter()
    gains = [lasing_gain(make_fig2_model(n_h=nh)) for nh in (0.507, 2.629)]
    elapsed = time.perf_counter() - start
    ok = all(abs(g / 1.0 - 2.0) <= 0.04 for g in gains) and elapsed < 1.0
    _report(3, "equal-gain points G/kappa = 2 within 2%",
            ok, f"G={gains[0]:.4f}, {gains[1]:.4f}")


def test_criterion_04_mean_photon_number_agreement():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for nh in np.geomspace(0.2, 8.0, 20):
        model = make_fig2_model(n_h=float(nh))
        space, result = solve_model(model, n_max=40)
        _STATES[f"fig2 n_h={nh:.3f}"] = (space, result.state)
        a, a_dag = build_cavity_operators(space)
        numeric = expectation(result.state, a_dag @ a).real
        if numeric <= 0.5:
            continue
        analytic = distribution_moments(scully_lamb_coefficients(model)).mean
        worst = max(worst, abs(analytic - numeric) / numeric)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 10 and worst < 0.05 and elapsed < 300.0
    _report(4, "analytic vs numeric mean photon number within 5%",
            ok, f"worst={worst:.3%} over {checked} points in {elapsed:.1f}s")


def test_criterion_05_distribution_agreement():
    start = time.perf_counter()
    distances = {}
    for nh in (0.17, 0.507, 2.629, 9.0):
        model = make_fig2_model(n_h=nh)
        space, result = solve_model(model, n_max=40)
        _STATES[f"fig3 n_h={nh}"] = (space, result.state)
        numeric = photon_distribution(result.state, space)
        analytic = steady_distribution(
            scully_lamb_coefficients(model), n_max=space.n_max, tail_tol=math.inf
        )
        distances[nh] = float(
            np.abs(numeric.probabilities - analytic.probabilities).sum()
        )
    elapsed = time.perf_counter() - start
    ok = all(d < 0.05 for d in distances.values()) and elapsed < 120.0
    detail = ", ".join(f"L1({k})={v:.3f}" for k, v in distances.items())
    _report(5, "analytic vs numeric distributions, L1 < 0.05", ok, detail)


def test_criterion_06_elimination_oracle(rng):
    start = time.perf_counter()
    worst = 0.0
    for make in (random_three_level, random_four_level):
        for _ in range(200):
            model = make(rng)
            n = int(rng.integers(1, 80))
            p_nm1, p_n = rng.uniform(0.0, 1.0, 2)
            closed = coefficient_flow(scully_lamb_coefficients(model), n, p_nm1, p_n)
            solved = elimination_flow(model, n, p_nm1, p_n)
            worst = max(worst, abs(solved - closed) / max(abs(closed), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    _report(6, "appendix linear system matches closed-form flow",
            ok, f"worst rel err {worst:.2e} over 400 draws in {elapsed:.1f}s")


def test_criterion_07_gain_identity(rng):
    worst = 0.0
    for make in (random_three_level, random_four_level):
        for _ in range(10_000):
            model = make(rng)
            coeffs = scully_lamb_coefficients(model)
            gain = lasing_gain(model)
            worst = max(worst, abs(coeffs.A - coeffs.A_b - gain) / max(abs(gain), 1e-12))
    ok = worst < 1e-10
    _report(7, "A - A_b equals the semi-classical gain",
            ok, f"worst rel err {worst:.2e} over 2x10^4 models")


def test_criterion_08_super_poissonian():
    # every above-threshold point of the standard sweep is super-Poissonian
    fanos_sweep = []
    for nh in np.geomspace(0.2, 8.0, 20):
        model = make_fig2_model(n_h=float(nh))
        if lasing_gain(model) <= model.kappa:
            continue
        fanos_sweep.append(distribution_moments(scully_lamb_coefficients(model)).fano)
    above_ok = len(fanos_sweep) > 0 and all(f > 1.0 for f in fanos_sweep)
    # Poissonian limit along a growing-pump sequence
    sequence = [
        distribution_moments(LaserCoefficients(a, 0.3, 0.1 * a, 1.0)).fano
        for a in (5.0, 10.0, 40.0, 160.0, 640.0)
    ]
    limit_ok = (
        all(f > 1.0 for f in sequence)
        and all(a > b for a, b in zip(sequence, sequence[1:]))
        and abs(sequence[-1] - 1.0) < 5e-3
    )
    ok = above_ok and limit_ok
    _report(8, "super-Poissonian statistics with Poissonian limit",
            ok, f"min sweep fano {min(fanos_sweep):.3f}, tail fano {sequence[-1]:.4f}")


def test_criterion_09_state_sanity():
    if "fig5" not in _STATES:
        space, result = solve_model(make_fig5_model(), n_max=60)
        _STATES["fig5"] = (space, result.state)
    assert len(_STATES) >= 20
    worst = {"trace": 0.0, "herm": 0.0, "eig": 0.0, "offdiag": 0.0}
    for space, state in _STATES.values():
        worst["trace"] = max(worst["trace"], abs(np.trace(state).real - 1.0))
        worst["herm"] = max(worst["herm"], np.abs(state - state.conj().T).max())
        worst["eig"] = max(worst["eig"], -float(np.linalg.eigvalsh(state).min()))
        reduced = partial_trace_atom(state, space)
        off = np.abs(reduced - np.diag(np.diag(reduced))).max()
        worst["offdiag"] = max(worst["offdiag"], off)
    ok = (
        worst["trace"] < 1e-10
        and worst["herm"] < 1e-10
        and worst["eig"] < 1e-8
        and worst["offdiag"] < 1e-9
    )
    detail = ", ".join(f"{k}={v:.1e}" for k, v in worst.items())
    _report(9, f"state sanity over {len(_STATES)} steady states", ok, detail)


def test_criterion_10_carnot_bound(rng):
    ok3 = True
    found = 0
    while found < 1000:
        omega_c, lasing = rng.uniform(0.2, 3.0, 2)
        t_c = rng.uniform(0.1, 2.0)
        t_h = t_c * rng.uniform(1.0, 50.0)
        model = build_three_level(
            BathSpec.thermal(32.0, omega_c + lasing, t_h),
            BathSpec.thermal(32.0, omega_c, t_c),
            14.0,
            1.0,
        )
        report = temperature_lasing_condition(model)
        if report.lases:
            found += 1
            ok3 = ok3 and report.efficiency <= report.carnot + 1e-12
    ok4 = True
    found = 0
    while found < 1000:
        omega_c, lasing, omega_a = rng.uniform(0.2, 3.0, 3)
        t_c = rng.uniform(0.1, 2.0)
        t_h = t_c * rng.uniform(1.0, 50.0)
        model = build_four_level(
            BathSpec.thermal(32.0, omega_c + lasing + omega_a, t_h),
            BathSpec.thermal(32.0, omega_c, t_c),
            BathSpec.thermal(32.0, omega_a, t_c),
            14.0,
            1.0,
        )
        report = temperature_lasing_condition(model)
        if report.lases:
            found += 1
            ok4 = ok4 and report.efficiency <= report.carnot + 1e-12
    ok = ok3 and ok4
    _report(10, "Carnot bound on 2x10^3 lasing parameter draws", ok)
