"""Physical parameter sets for the three- and four-level heat-engine laser.

Units: hbar = k_B = 1 and all rates are quoted in units of the cavity decay
rate kappa.  Bath occupations (mean thermal photon numbers) are the primary
inputs.  Each transition frequency is a gap of the model's level ladder
``EngineModel.level_energies``; with the optional bath temperatures it is
used only for efficiency and power accounting.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "THREE_LEVEL",
    "FOUR_LEVEL",
    "BathSpec",
    "EngineModel",
    "planck_occupation",
    "build_three_level",
    "build_four_level",
    "with_hot_occupation",
]

THREE_LEVEL = "three_level"
FOUR_LEVEL = "four_level"

# tolerance for the (gap, temperature) <-> occupation consistency check
_PLANCK_TOL = 1e-12


class _Validated:
    """Base of a named tuple that validates its fields in ``__new__``.

    A named tuple's ``_make``, and so ``_replace``, builds the tuple without
    calling ``__new__``; here both go through it, so every copy is checked.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def planck_occupation(omega: float, temperature: float) -> float:
    """Mean thermal photon number of a bosonic mode at frequency ``omega``.

    Parameters
    ----------
    omega : float
        Transition frequency, must be finite and positive (hbar = k_B = 1).
    temperature : float
        Bath temperature, must be finite and non-negative.

    Returns
    -------
    float
        1 / (exp(omega / temperature) - 1); exactly 0 at zero temperature,
        and it underflows to 0 as the temperature falls to 0.
    """
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be finite and positive, got {omega}")
    if not 0 <= temperature < math.inf:
        raise ValueError(f"temperature must be finite and non-negative, got {temperature}")
    if temperature == 0:
        return 0.0
    # exp(-x) / (1 - exp(-x)): expm1 keeps full precision for omega <<
    # temperature, and past x = 709.78, where exp(x) would overflow, the
    # numerator underflows to 0 instead
    x = omega / temperature
    return math.exp(-x) / -math.expm1(-x)


class BathSpec(
    _Validated,
    namedtuple("BathSpec", "gamma occupation temperature", defaults=(None,)),
):
    """One thermal bath coupled to a single atomic transition.

    ``gamma`` is the bare transition rate and ``occupation`` the mean thermal
    photon number the bath presents at the transition frequency.
    ``temperature`` is optional; :class:`EngineModel` checks it against the
    occupation at the transition's gap in its level ladder.
    """

    __slots__ = ()

    def __new__(cls, gamma: float, occupation: float, temperature: float | None = None):
        if not 0 <= gamma < math.inf:
            raise ValueError(f"bath rate gamma must be finite and >= 0, got {gamma}")
        if not 0 <= occupation < math.inf:
            raise ValueError(f"bath occupation must be finite and >= 0, got {occupation}")
        if temperature is not None and not 0 <= temperature < math.inf:
            raise ValueError(f"bath temperature must be finite and >= 0, got {temperature}")
        return super().__new__(cls, gamma, occupation, temperature)

    @classmethod
    def thermal(cls, gamma: float, omega: float, temperature: float) -> "BathSpec":
        """Bath at ``temperature`` with the Planck occupation at ``omega``.

        ``omega`` is not kept: it must be the transition's gap in the ladder.
        """
        return cls(gamma, planck_occupation(omega, temperature), temperature)


def _ladder(kind: str, energies=None) -> tuple[float, ...]:
    """The level energies of a ``kind`` engine as floats; None gives (0, 1, 2[, 3]).

    One energy per level, finite and strictly increasing, with a finite span
    E_top - E_g: so every transition frequency is finite and positive.
    """
    n_levels = 4 if kind == FOUR_LEVEL else 3
    energies = tuple(float(e) for e in (range(n_levels) if energies is None else energies))
    if len(energies) != n_levels:
        raise ValueError(f"{kind} model needs {n_levels} level energies, got {len(energies)}")
    # every energy is in a step, so an infinite or NaN energy fails here too
    if not all(0 < hi - lo < math.inf for lo, hi in zip(energies, energies[1:])):
        raise ValueError(f"level energies must be finite and strictly increasing, got {energies}")
    if not energies[-1] - energies[0] < math.inf:
        raise ValueError(f"level energies must span a finite range E_top - E_g, got {energies}")
    return energies


class EngineModel(
    _Validated,
    namedtuple(
        "EngineModel",
        "kind hot cold g kappa ancilla level_energies",
        defaults=(None, None),
    ),
):
    """Full parameter set of a three- or four-level heat-engine laser.

    Level ordering is (g, e1, e2) for the three-level engine and
    (g, e1, e2, e3) for the four-level one.  The cavity mode couples the
    lasing transition e1 <-> e2.  The hot bath drives g <-> e2 (three-level)
    or g <-> e3 (four-level), the cold bath drives g <-> e1, and the ancilla
    bath of the four-level engine drives e2 <-> e3.

    ``level_energies`` holds every transition frequency, used for efficiency
    and output power; it defaults to integer spacings in units of the lasing
    frequency.  A bath with a temperature must have the Planck occupation at
    its transition's gap.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        hot: BathSpec,
        cold: BathSpec,
        g: float,
        kappa: float,
        ancilla: BathSpec | None = None,
        level_energies: tuple[float, ...] | None = None,
    ):
        if kind not in (THREE_LEVEL, FOUR_LEVEL):
            raise ValueError(f"unknown model kind {kind!r}")
        if not 0 <= g < math.inf:
            raise ValueError(f"coupling g must be finite and >= 0, got {g}")
        if not 0 < kappa < math.inf:
            raise ValueError(f"cavity rate kappa must be finite and > 0, got {kappa}")
        if (kind == FOUR_LEVEL) != (ancilla is not None):
            raise ValueError("an ancilla bath is required iff the model is four-level")
        energies = _ladder(kind, level_energies)
        self = super().__new__(cls, kind, hot, cold, g, kappa, ancilla, energies)
        baths = [("hot", hot, self.omega_h), ("cold", cold, self.omega_c)]
        if ancilla is not None:
            baths.append(("ancilla", ancilla, self.omega_a))
        for name, bath, omega in baths:
            if bath.temperature is None:
                continue
            expected = planck_occupation(omega, bath.temperature)
            if abs(bath.occupation - expected) > _PLANCK_TOL * max(1.0, expected):
                raise ValueError(
                    f"{name} bath occupation {bath.occupation} inconsistent with Planck "
                    f"value {expected} for omega={omega}, T={bath.temperature}"
                )
        return self

    # -- level structure -------------------------------------------------
    @property
    def atom_dim(self) -> int:
        return 4 if self.kind == FOUR_LEVEL else 3

    @property
    def omega_h(self) -> float:
        """Hot transition frequency: E2 - Eg (three-level) or E3 - Eg."""
        return self.level_energies[-1] - self.level_energies[0]

    @property
    def omega_c(self) -> float:
        """Cold transition frequency E1 - Eg."""
        return self.level_energies[1] - self.level_energies[0]

    @property
    def omega_a(self) -> float:
        """Ancilla transition frequency E3 - E2 (four-level only)."""
        if self.kind != FOUR_LEVEL:
            raise ValueError("omega_a is defined only for the four-level model")
        return self.level_energies[3] - self.level_energies[2]

    @property
    def lasing_frequency(self) -> float:
        """Frequency of the lasing transition, E2 - E1."""
        return self.level_energies[2] - self.level_energies[1]

    # -- rate / occupation shortcuts -------------------------------------
    @property
    def gamma_h(self) -> float:
        return self.hot.gamma

    @property
    def gamma_c(self) -> float:
        return self.cold.gamma

    @property
    def gamma_a(self) -> float:
        if self.ancilla is None:
            raise ValueError("gamma_a is defined only for the four-level model")
        return self.ancilla.gamma

    @property
    def n_h(self) -> float:
        return self.hot.occupation

    @property
    def n_c(self) -> float:
        return self.cold.occupation

    @property
    def n_a(self) -> float:
        if self.ancilla is None:
            raise ValueError("n_a is defined only for the four-level model")
        return self.ancilla.occupation


def build_three_level(
    hot: BathSpec,
    cold: BathSpec,
    g: float,
    kappa: float,
    level_energies=None,
) -> EngineModel:
    """Three-level engine: hot bath on g<->e2, cold on g<->e1, cavity on e1<->e2.

    ``level_energies`` defaults to (0, 1, 2) in lasing-frequency units; a bath
    given by :meth:`BathSpec.thermal` must use its transition's gap in it.
    """
    return EngineModel(THREE_LEVEL, hot, cold, g, kappa, level_energies=level_energies)


def build_four_level(
    hot: BathSpec,
    cold: BathSpec,
    ancilla: BathSpec,
    g: float,
    kappa: float,
    level_energies=None,
) -> EngineModel:
    """Four-level engine: hot bath on g<->e3, ancilla on e2<->e3, cavity on e1<->e2.

    ``level_energies`` defaults to (0, 1, 2, 3), as for :func:`build_three_level`.
    """
    return EngineModel(
        FOUR_LEVEL, hot, cold, g, kappa, ancilla=ancilla, level_energies=level_energies
    )


def with_hot_occupation(model: EngineModel, occupation: float) -> EngineModel:
    """Copy of ``model`` with the hot-bath occupation replaced.

    The hot bath temperature is dropped since it no longer matches the new
    occupation; the level ladder is kept.
    """
    return model._replace(hot=BathSpec(model.hot.gamma, occupation))
