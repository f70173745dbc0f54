import math

import numpy as np
import pytest

from heatlaser import (
    BathSpec,
    EngineModel,
    FOUR_LEVEL,
    THREE_LEVEL,
    LaserCoefficients,
    build_four_level,
    build_three_level,
    planck_occupation,
    with_hot_occupation,
)

# frozen with mpmath at 50 digits: 1/(exp(1/1000) - 1)
PLANCK_SMALL_ARG = 999.5000833333319


def test_planck_half_occupation_at_log2():
    # omega/T = ln 2 gives exactly 1/(2 - 1)
    assert planck_occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-15)


def test_planck_zero_temperature():
    assert planck_occupation(1.0, 0.0) == 0.0


def test_planck_small_argument_series():
    got = planck_occupation(1e-3, 1.0)
    assert got == pytest.approx(PLANCK_SMALL_ARG, rel=1e-13)
    # leading series behaviour T/omega - 1/2
    assert got == pytest.approx(1e3 - 0.5, abs=1e-3)


def test_planck_cold_bath_underflows_to_zero():
    # past omega/T = 709.78 exp(omega/T) overflowed; exp(-x) / (1 - exp(-x))
    # falls through the subnormals to 0 instead, as at T = 0
    assert planck_occupation(1.0, 1.0 / 700.0) == pytest.approx(math.exp(-700.0), rel=1e-15)
    assert 0.0 < planck_occupation(1.0, 1.0 / 709.79) < 1e-307
    assert planck_occupation(2.0, 0.002) == 0.0
    assert BathSpec.thermal(1.0, 2.0, 0.002).occupation == 0.0


def test_planck_rejects_bad_arguments():
    with pytest.raises(ValueError):
        planck_occupation(0.0, 1.0)
    with pytest.raises(ValueError):
        planck_occupation(-1.0, 1.0)
    with pytest.raises(ValueError):
        planck_occupation(1.0, -0.1)
    # non-finite input raised ZeroDivisionError (T = inf) or returned NaN
    for omega, temp in ((1.0, math.inf), (1.0, math.nan), (math.nan, 1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            planck_occupation(omega, temp)


def test_planck_monotonicity(rng):
    omegas = rng.uniform(0.1, 5.0, 50)
    temps = rng.uniform(0.05, 10.0, 50)
    for omega, temp in zip(omegas, temps):
        assert planck_occupation(omega, temp * 1.01) > planck_occupation(omega, temp)
        assert planck_occupation(omega * 1.01, temp) < planck_occupation(omega, temp)


def test_bathspec_validation():
    with pytest.raises(ValueError):
        BathSpec(-1.0, 0.5)
    with pytest.raises(ValueError):
        BathSpec(1.0, -0.5)
    # NaN passes a plain x < 0 check
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            BathSpec(bad, 0.5)
        with pytest.raises(ValueError, match="occupation must be finite"):
            BathSpec(1.0, bad)
        with pytest.raises(ValueError, match="temperature must be finite"):
            BathSpec(1.0, 0.5, temperature=bad)
    # the frequency is the model's: a thermal bath keeps only what it gives
    bath = BathSpec.thermal(2.0, 1.0, 1.0)
    assert BathSpec._fields == ("gamma", "occupation", "temperature")
    assert bath == (2.0, pytest.approx(1.0 / math.expm1(1.0), rel=1e-15), 1.0)


def test_three_level_fig2_configuration():
    model = build_three_level(BathSpec(32.0, 1.0), BathSpec(32.0, 0.05), 14.0, 1.0)
    assert model.kind == THREE_LEVEL
    assert model.atom_dim == 3
    assert model.level_energies == (0.0, 1.0, 2.0)
    assert model.lasing_frequency == 1.0
    assert model.omega_h == 2.0 and model.omega_c == 1.0


def test_frequency_additivity_default_energies():
    m3 = build_three_level(BathSpec(1.0, 0.1), BathSpec(1.0, 0.2), 1.0, 1.0)
    assert m3.lasing_frequency + m3.omega_c == m3.omega_h
    m4 = build_four_level(
        BathSpec(1.0, 0.1), BathSpec(1.0, 0.2), BathSpec(1.0, 0.3), 1.0, 1.0
    )
    assert m4.lasing_frequency + m4.omega_c + m4.omega_a == m4.omega_h


def test_frequency_additivity_random_energies(rng):
    for _ in range(50):
        e1, dl, da = rng.uniform(0.1, 3.0, 3)
        m4 = build_four_level(
            BathSpec(1.0, 0.1),
            BathSpec(1.0, 0.2),
            BathSpec(1.0, 0.3),
            1.0,
            1.0,
            level_energies=(0.0, e1, e1 + dl, e1 + dl + da),
        )
        assert m4.lasing_frequency + m4.omega_c + m4.omega_a == pytest.approx(
            m4.omega_h, rel=1e-12
        )


def test_thermal_baths_are_checked_at_the_ladder_gaps():
    # a bath's frequency is its transition's gap in the level ladder, and
    # the model checks each temperature's occupation there
    hot = BathSpec.thermal(32.0, 3.0, 2.0)
    cold = BathSpec.thermal(32.0, 1.2, 0.4)
    model = build_three_level(hot, cold, 14.0, 1.0, level_energies=(0.0, 1.2, 3.0))
    assert model.level_energies == (0.0, 1.2, 3.0)
    assert model.lasing_frequency == pytest.approx(1.8)
    # the default ladder (0, 1, 2) puts the hot bath at gap 2, not 3
    with pytest.raises(
        ValueError, match=r"hot bath occupation .* inconsistent with Planck value .* omega=2.0, T=2.0"
    ):
        build_three_level(hot, cold, 14.0, 1.0)
    with pytest.raises(ValueError, match="cold bath occupation"):
        build_three_level(hot, cold, 14.0, 1.0, level_energies=(0.0, 1.0, 3.0))
    # an occupation-only bath is not checked, and a new hot occupation drops
    # the temperature it no longer matches
    build_three_level(hot, BathSpec(32.0, 0.05), 14.0, 1.0, level_energies=(0.0, 1.2, 3.0))
    assert with_hot_occupation(model, 5.0).hot == (32.0, 5.0, None)
    # a copy is checked again
    with pytest.raises(ValueError, match="hot bath occupation"):
        model._replace(hot=hot._replace(occupation=1.01 * hot.occupation))
    # the ancilla bath sits on e2 <-> e3
    ancilla = BathSpec.thermal(32.0, 0.5, 1.0)
    four = build_four_level(hot, cold, ancilla, 14.0, 1.0, level_energies=(0.0, 1.2, 2.5, 3.0))
    assert four.omega_a == 0.5
    with pytest.raises(ValueError, match="ancilla bath occupation"):
        build_four_level(hot, cold, ancilla, 14.0, 1.0, level_energies=(0.0, 1.2, 2.0, 3.0))


def test_engine_model_validation():
    hot, cold, anc = BathSpec(1.0, 0.4), BathSpec(1.0, 0.1), BathSpec(1.0, 0.2)
    with pytest.raises(ValueError):
        EngineModel(THREE_LEVEL, hot, cold, 1.0, 1.0, ancilla=anc)
    with pytest.raises(ValueError):
        EngineModel(FOUR_LEVEL, hot, cold, 1.0, 1.0)  # missing ancilla
    with pytest.raises(ValueError, match="an ancilla bath is required iff the model is four-level"):
        build_four_level(hot, cold, None, 1.0, 1.0)
    three = build_three_level(hot, cold, 1.0, 1.0)
    for name in ("omega_a", "gamma_a", "n_a"):
        with pytest.raises(ValueError, match=f"{name} is defined only for the four-level model"):
            getattr(three, name)
    with pytest.raises(ValueError):
        EngineModel(THREE_LEVEL, hot, cold, -1.0, 1.0)
    with pytest.raises(ValueError):
        EngineModel(THREE_LEVEL, hot, cold, 1.0, 0.0)  # kappa must be positive
    with pytest.raises(ValueError):
        EngineModel("five_level", hot, cold, 1.0, 1.0)
    with pytest.raises(ValueError):
        EngineModel(THREE_LEVEL, hot, cold, 1.0, 1.0, level_energies=(0.0, 2.0, 1.0))
    with pytest.raises(ValueError, match="three_level model needs 3 level energies, got 2"):
        EngineModel(THREE_LEVEL, hot, cold, 1.0, 1.0, level_energies=(0.0, 1.0))
    # an empty ladder is not the default one
    with pytest.raises(ValueError, match="three_level model needs 3 level energies, got 0"):
        EngineModel(THREE_LEVEL, hot, cold, 1.0, 1.0, level_energies=())
    # finite steps whose sum, the hot transition frequency, overflows
    with pytest.raises(ValueError, match="must span a finite range"):
        EngineModel(THREE_LEVEL, hot, cold, 1.0, 1.0, level_energies=(-1e308, 0.0, 1e308))
    # a bath temperature inconsistent with its occupation at the ladder's gap
    with pytest.raises(ValueError, match="hot bath occupation 0.4 inconsistent"):
        EngineModel(THREE_LEVEL, BathSpec(1.0, 0.4, temperature=1.0), cold, 1.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="coupling g must be finite"):
            EngineModel(THREE_LEVEL, hot, cold, bad, 1.0)
        with pytest.raises(ValueError, match="kappa must be finite"):
            EngineModel(THREE_LEVEL, hot, cold, 1.0, bad)
        with pytest.raises(ValueError, match="occupation must be finite"):
            with_hot_occupation(build_three_level(hot, cold, 1.0, 1.0), bad)
        with pytest.raises(ValueError, match="level energies must be finite"):
            EngineModel(THREE_LEVEL, hot, cold, 1.0, 1.0, level_energies=(0.0, bad, 2.0))


def test_four_level_fig5_configuration():
    model = build_four_level(
        BathSpec(32.0, 0.5), BathSpec(32.0, 0.1), BathSpec(32.0, 0.1), 14.0, 1.0
    )
    assert model.kind == FOUR_LEVEL
    assert model.atom_dim == 4
    assert model.n_a == 0.1
    assert model.omega_a == 1.0 and model.omega_h == 3.0


def test_with_hot_occupation():
    model = build_three_level(BathSpec(32.0, 1.0), BathSpec(32.0, 0.05), 14.0, 1.0)
    swept = with_hot_occupation(model, 3.5)
    assert swept.n_h == 3.5
    assert swept.hot.gamma == model.hot.gamma
    assert swept.n_c == model.n_c
    assert swept.level_energies == model.level_energies


def test_copies_are_validated_again():
    # a named tuple's _make, and _replace through it, builds the tuple without
    # __new__; a copy of a validated record must pass the same checks
    model = build_three_level(BathSpec(32.0, 1.0), BathSpec(32.0, 0.05), 14.0, 1.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="occupation must be finite and >= 0"):
            with_hot_occupation(model, bad)
    with pytest.raises(ValueError, match="kappa must be finite and > 0"):
        model._replace(kappa=0.0)
    with pytest.raises(ValueError, match="kappa must be finite and > 0"):
        EngineModel._make([*model[:4], 0.0, *model[5:]])
    with pytest.raises(ValueError, match="occupation must be finite and >= 0"):
        model.hot._replace(occupation=-1.0)
    with pytest.raises(ValueError, match="kappa must be positive"):
        LaserCoefficients(1.0, 0.5, 0.1, 1.0)._replace(kappa=0.0)
    # a copy keeps the energies its original normalised, as floats
    default = EngineModel(THREE_LEVEL, BathSpec(1.0, 0.4), BathSpec(1.0, 0.1), 1.0, 1.0)
    copy = default._replace(kappa=2.0)
    assert type(copy) is EngineModel and copy.kappa == 2.0
    assert copy.level_energies == (0.0, 1.0, 2.0)
    assert all(type(energy) is float for energy in copy.level_energies)
