"""Semi-classical laser theory: inversion, gain, saturation, and thresholds.

Everything here is closed-form (or a root-find over closed forms) obtained by
factorizing atom-field correlations and adiabatically eliminating the fast
atomic dynamics.  The fully quantum counterpart lives in
:mod:`heatlaser.photonstats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from .models import FOUR_LEVEL, THREE_LEVEL, EngineModel, with_hot_occupation

__all__ = [
    "StructureConstants",
    "LasingReport",
    "structure_constants",
    "zero_field_populations",
    "population_inversion",
    "lasing_gain",
    "saturation_parameter",
    "field_derivative",
    "find_thresholds",
    "temperature_lasing_condition",
]


@dataclass(frozen=True)
class StructureConstants:
    """Rate combinations that parameterize the laser equations.

    Gamma is the atomic coherence decay rate of the lasing transition, Phi
    the population normalization polynomial, and Psi the saturation structure
    constant.  For the four-level engine these are the primed variants.
    """

    Gamma: float
    Phi: float
    Psi: float


def structure_constants(model: EngineModel) -> StructureConstants:
    """Evaluate (Gamma, Phi, Psi) for the given engine.

    Psi divides by every bath rate, so a zero rate raises ValueError.
    """
    for name in ("gamma_h", "gamma_c", "gamma_a")[: model.atom_dim - 1]:
        if getattr(model, name) == 0:
            raise ValueError(f"degenerate engine rates: {name} is 0")
    nh, nc = model.n_h, model.n_c
    gh, gc = model.gamma_h, model.gamma_c
    if model.kind == THREE_LEVEL:
        gamma = gh * (nh + 1) + gc * (nc + 1)
        phi = 3 * nh * nc + 2 * (nh + nc) + 1
        psi = (gh * (3 * nh + 1) + gc * (3 * nc + 1)) / (gh * gc)
    else:
        na, ga = model.n_a, model.gamma_a
        gamma = ga * na + gc * (nc + 1)
        phi = (4 * nh * nc + 3 * nh + 2 * nc + 1) * na + nh * (nc + 1)
        psi = (
            (4 * na * nc + na + 3 * nc + 1) / gh
            + (4 * nh * na + 2 * nh + na) / gc
            + (4 * nh * nc + 2 * nh + 3 * nc + 1) / ga
        )
    return StructureConstants(gamma, phi, psi)


def _inversion_numerator(model: EngineModel) -> float:
    if model.kind == THREE_LEVEL:
        return model.n_h - model.n_c
    return (model.n_h - model.n_c) * model.n_a + (model.n_c + 1) * model.n_h


def _classical_rate_matrix(model: EngineModel) -> np.ndarray:
    """Generator of the g=0 population rate equations, columns = source level."""
    dim = model.atom_dim
    mat = np.zeros((dim, dim))

    def channel(src, dst, rate):
        mat[dst, src] += rate
        mat[src, src] -= rate

    channel(0, 1, model.gamma_c * model.n_c)  # g -> e1
    channel(1, 0, model.gamma_c * (model.n_c + 1))
    top = dim - 1  # e2 for 3-level, e3 for 4-level
    channel(0, top, model.gamma_h * model.n_h)  # g -> top
    channel(top, 0, model.gamma_h * (model.n_h + 1))
    if model.kind == FOUR_LEVEL:
        channel(2, 3, model.gamma_a * model.n_a)  # e2 -> e3
        channel(3, 2, model.gamma_a * (model.n_a + 1))
    return mat


def zero_field_populations(model: EngineModel) -> np.ndarray:
    """Steady atomic populations with the cavity decoupled (g = 0).

    Returns the normalized populations ordered (g, e1, e2) or
    (g, e1, e2, e3).  The three-level case uses the detailed-balance ratios
    1 : nc/(nc+1) : nh/(nh+1); the four-level case solves the kernel of the
    classical rate matrix.
    """
    if model.kind == THREE_LEVEL:
        nh, nc = model.n_h, model.n_c
        weights = np.array([1.0, nc / (nc + 1.0), nh / (nh + 1.0)])
        return weights / weights.sum()
    kernel = null_space(_classical_rate_matrix(model))
    if kernel.shape[1] != 1:
        raise ValueError(
            "degenerate rate network: the g=0 steady state is not unique "
            f"(kernel dimension {kernel.shape[1]})"
        )
    pops = kernel[:, 0].real
    pops = pops / pops.sum()
    if pops.min() < -1e-12:
        raise ValueError(f"rate-matrix kernel produced negative population {pops.min()}")
    return np.clip(pops, 0.0, None) / np.clip(pops, 0.0, None).sum()


def population_inversion(model: EngineModel, field_intensity: float = 0.0) -> float:
    """Population inversion of the lasing levels at a given field intensity.

    Saturates as DeltaN = numerator / (Phi + (4 g^2 I / Gamma) Psi) with
    I = |E|^2 the mean-field intensity; ``field_intensity=0`` gives the
    zero-field inversion DeltaN0 = numerator / Phi.
    """
    if field_intensity < 0:
        raise ValueError(f"field intensity must be >= 0, got {field_intensity}")
    sc = structure_constants(model)
    denom = sc.Phi + (4.0 * model.g**2 * field_intensity / sc.Gamma) * sc.Psi
    return _inversion_numerator(model) / denom


def lasing_gain(model: EngineModel) -> float:
    """Linear field gain G = 4 g^2 DeltaN0 / Gamma; lasing needs G >= kappa."""
    sc = structure_constants(model)
    return 4.0 * model.g**2 * population_inversion(model) / sc.Gamma


def saturation_parameter(model: EngineModel) -> float:
    """Self-saturation coefficient B = 4 g^2 Psi / (Gamma Phi)."""
    sc = structure_constants(model)
    return 4.0 * model.g**2 * sc.Psi / (sc.Gamma * sc.Phi)


def field_derivative(model: EngineModel, field: complex) -> complex:
    """Right-hand side of the mean-field lasing equation.

    dE/dt = [G / (1 + B |E|^2) - kappa] E / 2.  Above threshold the stable
    fixed point satisfies |E*|^2 = (G/kappa - 1) / B.
    """
    gain = lasing_gain(model)
    sat = saturation_parameter(model)
    intensity = abs(field) ** 2
    return 0.5 * (gain / (1.0 + sat * intensity) - model.kappa) * field


def find_thresholds(
    model: EngineModel,
    bracket: tuple[float, float] = (1e-3, 50.0),
    scan_points: int = 200,
    xtol: float = 1e-6,
) -> list[float]:
    """Hot-bath occupations where the gain crosses the cavity loss.

    Scans G(n_h) - kappa on a log-spaced grid over ``bracket`` and bisects
    every sign change to ``xtol``.  Returns an empty list when the gain never
    reaches kappa in the bracket (the three-level engine generically has two
    roots, the four-level engine one).
    """
    from scipy.optimize import bisect  # only the thresholds command pays for the import

    lo, hi = bracket
    if not 0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket}")

    def excess(nh):
        return lasing_gain(with_hot_occupation(model, nh)) - model.kappa

    grid = np.geomspace(lo, hi, scan_points)
    values = np.array([excess(x) for x in grid])
    roots = []
    for x, f in zip(grid, values):
        if f == 0.0:
            roots.append(float(x))
    for (x0, x1), (f0, f1) in zip(
        zip(grid[:-1], grid[1:]), zip(values[:-1], values[1:])
    ):
        if f0 * f1 < 0:
            roots.append(float(bisect(excess, x0, x1, xtol=xtol)))
    return sorted(roots)


@dataclass(frozen=True)
class LasingReport:
    """Temperature-domain lasing verdict in the small-kappa idealization."""

    lases: bool
    efficiency: float
    carnot: float


def _exponent(omega, temperature):
    # omega / T with the T = 0 limit mapped to +inf
    return math.inf if temperature == 0 else omega / temperature


def temperature_lasing_condition(model: EngineModel) -> LasingReport:
    """Boltzmann-factor lasing condition and the Carnot efficiency bound.

    Requires bath temperatures.  The three-level engine lases iff
    omega_h/T_h <= omega_c/T_c (equivalently n_h >= n_c); the four-level one
    iff omega_a/T_a + omega_c/T_c >= omega_h/T_h.  The reported efficiency is
    the output frequency ratio lasing_frequency / omega_h, bounded by
    carnot = 1 - T_c/T_h whenever the engine lases.
    """
    t_h, t_c = model.hot.temperature, model.cold.temperature
    if t_h is None or t_c is None:
        raise ValueError("hot and cold bath temperatures are required")
    if t_h <= 0:
        raise ValueError(f"hot temperature must be positive, got {t_h}")
    if model.kind == THREE_LEVEL:
        lases = _exponent(model.omega_h, t_h) <= _exponent(model.omega_c, t_c)
    else:
        t_a = model.ancilla.temperature
        if t_a is None:
            raise ValueError("ancilla bath temperature is required")
        lases = _exponent(model.omega_a, t_a) + _exponent(model.omega_c, t_c) >= _exponent(
            model.omega_h, t_h
        )
    efficiency = model.lasing_frequency / model.omega_h
    carnot = 1.0 - t_c / t_h
    return LasingReport(bool(lases), efficiency, carnot)
