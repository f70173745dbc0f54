"""Semi-classical laser theory: inversion, gain, and thresholds.

Everything here is closed-form, obtained by factorizing atom-field
correlations and adiabatically eliminating the fast atomic dynamics; the
thresholds are the exact roots of a polynomial in the hot-bath occupation.
The fully quantum counterpart, built on the same structure constants, lives
in :mod:`heatlaser.photonstats`.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .core import _bath_channels
from .models import THREE_LEVEL, EngineModel

__all__ = [
    "StructureConstants",
    "LasingReport",
    "structure_constants",
    "population_inversion",
    "lasing_gain",
    "find_thresholds",
    "temperature_lasing_condition",
]

THRESHOLD_BRACKET = (1e-3, 50.0)  # the n_h range searched when none is given


StructureConstants = namedtuple("StructureConstants", "Gamma Phi Psi")
StructureConstants.__doc__ = """Rate combinations that parameterize the laser equations.

Gamma is the atomic coherence decay rate of the lasing transition, Phi
the population normalization polynomial, and Psi the saturation structure
constant.  For the four-level engine these are the primed variants.
"""


def structure_constants(model: EngineModel) -> StructureConstants:
    """Evaluate (Gamma, Phi, Psi) for the given engine.

    Psi divides by every bath rate, so a zero rate raises ValueError; so
    does Phi = 0 (four levels at n_a = n_h = 0), which every closed form
    divides by.
    """
    sc = _structure(model, model.n_h)
    if sc.Phi == 0:
        raise ValueError(_phi_zero(model.n_h))
    return sc


def _phi_zero(nh) -> str:
    # Phi is 0 only for four levels at n_a = n_h = 0: at g = 0 nothing leaves
    # e2 and nothing reaches it from g or e1, so the zero-field populations
    # that Phi normalises are not unique
    return (
        f"Phi = 0 at n_h = {nh}: the g = 0 rate network has separate closed classes,"
        " {g, e1} and {e2}"
    )


def _structure(model: EngineModel, nh) -> StructureConstants:
    # structure_constants at the hot occupation nh, a float or an array of
    # them: n_h enters only through the hot-bath rates, so a sweep grid
    # broadcasts through the same expressions
    for name in ("gamma_h", "gamma_c", "gamma_a")[: model.atom_dim - 1]:
        if getattr(model, name) == 0:
            raise ValueError(f"degenerate engine rates: {name} is 0")
    nc = model.n_c
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


def _inversion_numerator(model: EngineModel, nh):
    if model.kind == THREE_LEVEL:
        return nh - model.n_c
    return (nh - model.n_c) * model.n_a + (model.n_c + 1) * nh


def _classical_rate_matrix(model: EngineModel) -> np.ndarray:
    """Generator of the g=0 population rate equations, columns = source level."""
    mat = np.zeros((model.atom_dim, model.atom_dim))
    for dst, src, rate in _bath_channels(model, model.n_h):
        mat[dst, src] += rate
        mat[src, src] -= rate
    return mat


def population_inversion(model: EngineModel) -> float:
    """Zero-field population inversion of the lasing levels, DeltaN0 = numerator / Phi."""
    return _inversion(model, structure_constants(model), model.n_h)


def _inversion(model: EngineModel, sc: StructureConstants, nh):
    # population_inversion from the structure constants at the hot
    # occupation nh; sc and nh may hold arrays (see _structure)
    return _inversion_numerator(model, nh) / sc.Phi


def lasing_gain(model: EngineModel) -> float:
    """Linear field gain G = 4 g^2 DeltaN0 / Gamma; lasing needs G >= kappa.

    DeltaN0 is :func:`population_inversion`, numerator / Phi, taken from
    the same structure constants as Gamma.
    """
    sc = structure_constants(model)
    return _gain(model, sc, _inversion(model, sc, model.n_h))


def _gain(model: EngineModel, sc: StructureConstants, inversion0):
    return _coupling(model) * inversion0 / sc.Gamma


def _coupling(model: EngineModel) -> float:
    # 4 g^2 of every closed form: past g near 1.3e154, g * g is inf where
    # g**2 raises OverflowError, so such rates fail as out of range
    return 4.0 * model.g * model.g


def find_thresholds(
    model: EngineModel, bracket: tuple[float, float] = THRESHOLD_BRACKET
) -> list[float]:
    """Hot-bath occupations in ``bracket`` where the gain equals the cavity loss.

    G = kappa exactly where p(n_h) = 4 g^2 numerator - kappa Gamma Phi = 0
    (Gamma Phi > 0).  p is interpolated through its values at n_h = 0, 1, 2
    (0, 1 for four levels) and its real roots in [lo, hi] are returned in
    ascending order: at most two for the three-level engine, at most one for
    the four-level engine, and none when the gain never reaches kappa.
    """
    lo, hi = bracket
    if not 0 < lo <= hi:
        raise ValueError(f"bracket must satisfy 0 < lo <= hi, got {bracket}")
    # numerator and Phi are affine in n_h; Gamma is affine for three levels
    # and constant for four, hence the double threshold and the single one
    degree = 2 if model.kind == THREE_LEVEL else 1
    nodes = np.arange(degree + 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        sc = _structure(model, nodes)
        emission = _coupling(model) * _inversion_numerator(model, nodes)
        samples = emission - model.kappa * sc.Gamma * sc.Phi
    if not np.isfinite(samples).all():
        raise ValueError("closed-form rates out of floating-point range in the threshold polynomial")
    # the square Vandermonde solve keeps p(0) as the constant term exactly;
    # np.polyfit's least squares smears the larger samples into it, which
    # left G - kappa at 3e-12 kappa for a four-level root near n_h = 0.006
    roots = np.roots(np.linalg.solve(np.vander(nodes), samples))
    real = roots[np.isreal(roots)].real
    return sorted(float(r) for r in real if lo <= r <= hi)


LasingReport = namedtuple("LasingReport", "lases efficiency carnot")
LasingReport.__doc__ = """Temperature-domain lasing verdict in the small-kappa idealization."""


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
