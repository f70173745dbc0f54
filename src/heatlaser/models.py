"""Physical parameter sets for the three- and four-level heat-engine laser.

Units: hbar = k_B = 1 and all rates are quoted in units of the cavity decay
rate kappa.  Bath occupations (mean thermal photon numbers) are the primary
inputs; frequencies and temperatures are an optional bookkeeping layer used
for efficiency accounting.
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

# tolerance for the (omega, temperature) <-> occupation consistency check
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
    namedtuple("BathSpec", "gamma occupation omega temperature", defaults=(None, None)),
):
    """One thermal bath coupled to a single atomic transition.

    ``gamma`` is the bare transition rate and ``occupation`` the mean thermal
    photon number the bath presents at the transition frequency.  ``omega``
    and ``temperature`` are optional; when both are given the occupation must
    be their Planck value.
    """

    __slots__ = ()

    def __new__(
        cls,
        gamma: float,
        occupation: float,
        omega: float | None = None,
        temperature: float | None = None,
    ):
        if not 0 <= gamma < math.inf:
            raise ValueError(f"bath rate gamma must be finite and >= 0, got {gamma}")
        if not 0 <= occupation < math.inf:
            raise ValueError(f"bath occupation must be finite and >= 0, got {occupation}")
        if omega is not None and not 0 < omega < math.inf:
            raise ValueError(f"bath omega must be finite and positive, got {omega}")
        if temperature is not None and not 0 <= temperature < math.inf:
            raise ValueError(f"bath temperature must be finite and >= 0, got {temperature}")
        if omega is not None and temperature is not None:
            expected = planck_occupation(omega, temperature)
            if abs(occupation - expected) > _PLANCK_TOL * max(1.0, expected):
                raise ValueError(
                    f"occupation {occupation} inconsistent with Planck value "
                    f"{expected} for omega={omega}, T={temperature}"
                )
        return super().__new__(cls, gamma, occupation, omega, temperature)

    @classmethod
    def thermal(cls, gamma: float, omega: float, temperature: float) -> "BathSpec":
        """Bath whose occupation is derived from (omega, temperature)."""
        return cls(gamma, planck_occupation(omega, temperature), omega, temperature)


class EngineModel(
    _Validated,
    namedtuple(
        "EngineModel",
        "kind hot cold g kappa ancilla level_energies",
        defaults=(None, ()),
    ),
):
    """Full parameter set of a three- or four-level heat-engine laser.

    Level ordering is (g, e1, e2) for the three-level engine and
    (g, e1, e2, e3) for the four-level one.  The cavity mode couples the
    lasing transition e1 <-> e2.  The hot bath drives g <-> e2 (three-level)
    or g <-> e3 (four-level), the cold bath drives g <-> e1, and the ancilla
    bath of the four-level engine drives e2 <-> e3.

    ``level_energies`` is used only for frequency bookkeeping (efficiency and
    output power); it defaults to integer spacings in units of the lasing
    frequency.
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
        level_energies: tuple[float, ...] = (),
    ):
        if kind not in (THREE_LEVEL, FOUR_LEVEL):
            raise ValueError(f"unknown model kind {kind!r}")
        if not 0 <= g < math.inf:
            raise ValueError(f"coupling g must be finite and >= 0, got {g}")
        if not 0 < kappa < math.inf:
            raise ValueError(f"cavity rate kappa must be finite and > 0, got {kappa}")
        if (kind == FOUR_LEVEL) != (ancilla is not None):
            raise ValueError("an ancilla bath is required iff the model is four-level")
        n_levels = 4 if kind == FOUR_LEVEL else 3
        energies = tuple(float(e) for e in level_energies)
        if not energies:
            energies = tuple(float(i) for i in range(n_levels))
        if len(energies) != n_levels:
            raise ValueError(
                f"{kind} model needs {n_levels} level energies, got {len(energies)}"
            )
        # every energy is in a step, so an infinite or NaN energy fails here too
        if not all(0 < hi - lo < math.inf for lo, hi in zip(energies, energies[1:])):
            raise ValueError(f"level energies must be finite and strictly increasing, got {energies}")
        self = super().__new__(cls, kind, hot, cold, g, kappa, ancilla, energies)
        for bath, derived, name in self._bath_frequency_pairs():
            if bath.omega is not None and not math.isclose(
                bath.omega, derived, rel_tol=1e-9, abs_tol=1e-9
            ):
                raise ValueError(
                    f"{name} bath omega {bath.omega} inconsistent with level "
                    f"energies (expected {derived})"
                )
        return self

    def _bath_frequency_pairs(self):
        pairs = [(self.hot, self.omega_h, "hot"), (self.cold, self.omega_c, "cold")]
        if self.ancilla is not None:
            pairs.append((self.ancilla, self.omega_a, "ancilla"))
        return pairs

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


def _energies_from_baths(kind, hot, cold, ancilla=None):
    """Derive level energies from bath frequencies, or () for defaults."""
    omegas = [hot.omega, cold.omega] + ([ancilla.omega] if ancilla is not None else [])
    given = [w is not None for w in omegas]
    if not any(given):
        return ()
    if not all(given):
        raise ValueError("provide frequencies for all baths or for none")
    if kind == THREE_LEVEL:
        if hot.omega <= cold.omega:
            raise ValueError("hot transition frequency must exceed the cold one")
        return (0.0, cold.omega, hot.omega)
    e2 = hot.omega - ancilla.omega
    if not cold.omega < e2 < hot.omega:
        raise ValueError("bath frequencies incompatible with an increasing level ladder")
    return (0.0, cold.omega, e2, hot.omega)


def build_three_level(
    hot: BathSpec,
    cold: BathSpec,
    g: float,
    kappa: float,
    level_energies=None,
) -> EngineModel:
    """Three-level engine: hot bath on g<->e2, cold on g<->e1, cavity on e1<->e2.

    When ``level_energies`` is omitted they are derived from the bath
    frequencies if given, else default to (0, 1, 2) in lasing-frequency units.
    """
    if level_energies is None:
        level_energies = _energies_from_baths(THREE_LEVEL, hot, cold)
    return EngineModel(THREE_LEVEL, hot, cold, g, kappa, level_energies=tuple(level_energies))


def build_four_level(
    hot: BathSpec,
    cold: BathSpec,
    ancilla: BathSpec,
    g: float,
    kappa: float,
    level_energies=None,
) -> EngineModel:
    """Four-level engine: hot bath on g<->e3, ancilla on e2<->e3, cavity on e1<->e2."""
    if ancilla is None:
        raise ValueError("four-level model requires an ancilla bath")
    if level_energies is None:
        level_energies = _energies_from_baths(FOUR_LEVEL, hot, cold, ancilla)
    return EngineModel(
        FOUR_LEVEL, hot, cold, g, kappa, ancilla=ancilla, level_energies=tuple(level_energies)
    )


def with_hot_occupation(model: EngineModel, occupation: float) -> EngineModel:
    """Copy of ``model`` with the hot-bath occupation replaced.

    The hot bath temperature is dropped since it no longer matches the new
    occupation; the frequency bookkeeping is kept.
    """
    hot = BathSpec(model.hot.gamma, occupation, omega=model.hot.omega, temperature=None)
    return model._replace(hot=hot)
