import numpy as np
import pytest
from scipy.linalg import null_space

import heatlaser.semiclassical as semiclassical
from heatlaser import (
    BathSpec,
    build_four_level,
    build_three_level,
    find_thresholds,
    lasing_gain,
    population_inversion,
    scully_lamb_coefficients,
    structure_constants,
    temperature_lasing_condition,
    with_hot_occupation,
)
from heatlaser.cli import load_config

from conftest import make_fig2_model, make_fig5_model, random_four_level, random_three_level

# exact rational evaluations, frozen (gamma_h = gamma_c = 32, g = 14, n_c = 1/20)
FIG2_SC_AT_0187 = (71.584, 1.50205, 0.08471875)  # n_h = 187/1000
FIG2_B_AT_1 = 0.39777742749054223  # n_h = 1
SC4_POINT = (15.2, 3.225, 1.0908333333333333)  # nh=1.5 nc=0.1 na=0.25 gh=20 gc=12 ga=8
GAIN_AT_0507 = 1.999390048980458
GAIN_AT_2629 = 1.9999053213666458


def test_structure_constants_zero_occupation():
    model = build_three_level(BathSpec(20.0, 0.0), BathSpec(12.0, 0.0), 5.0, 1.0)
    sc = structure_constants(model)
    assert sc.Gamma == pytest.approx(32.0, rel=1e-15)
    assert sc.Phi == pytest.approx(1.0, rel=1e-15)
    assert sc.Psi == pytest.approx(32.0 / (20.0 * 12.0), rel=1e-15)


def test_structure_constants_fig2_frozen_point():
    sc = structure_constants(make_fig2_model(n_h=0.187))
    assert sc.Gamma == pytest.approx(FIG2_SC_AT_0187[0], rel=1e-14)
    assert sc.Phi == pytest.approx(FIG2_SC_AT_0187[1], rel=1e-14)
    assert sc.Psi == pytest.approx(FIG2_SC_AT_0187[2], rel=1e-14)


def test_structure_constants_four_level():
    model = build_four_level(
        BathSpec(20.0, 1.5), BathSpec(12.0, 0.1), BathSpec(8.0, 0.25), 5.0, 1.0
    )
    sc = structure_constants(model)
    assert sc.Gamma == pytest.approx(SC4_POINT[0], rel=1e-14)
    assert sc.Phi == pytest.approx(SC4_POINT[1], rel=1e-14)
    assert sc.Psi == pytest.approx(SC4_POINT[2], rel=1e-14)
    # ancilla switched off: Gamma' = gamma_c (nc+1), Phi' = nh (nc+1)
    quenched = build_four_level(
        BathSpec(20.0, 1.5), BathSpec(12.0, 0.1), BathSpec(8.0, 0.0), 5.0, 1.0
    )
    sc0 = structure_constants(quenched)
    assert sc0.Gamma == pytest.approx(12.0 * 1.1, rel=1e-15)
    assert sc0.Phi == pytest.approx(1.5 * 1.1, rel=1e-15)


def test_structure_constants_reject_zero_bath_rate():
    cold_off = build_three_level(BathSpec(20.0, 1.0), BathSpec(0.0, 0.1), 5.0, 1.0)
    with pytest.raises(ValueError, match="gamma_c"):
        structure_constants(cold_off)
    ancilla_off = build_four_level(
        BathSpec(20.0, 1.5), BathSpec(12.0, 0.1), BathSpec(0.0, 0.25), 5.0, 1.0
    )
    with pytest.raises(ValueError, match="gamma_a"):
        lasing_gain(ancilla_off)


# the zero-field (g = 0) populations are checked through their lasing-level
# difference, the zero-field inversion of the sweep's inversion0 column:
# e2 - e1 in the order (g, e1, e2) or (g, e1, e2, e3)

def test_zero_field_populations_three_level():
    assert population_inversion(make_fig2_model(n_h=0.0, n_c=0.0)) == 0.0
    # saturated hot transition: populations 1 : 0 : 1
    assert population_inversion(make_fig2_model(n_h=1e12, n_c=0.0)) == pytest.approx(
        0.5, abs=1e-10
    )


def test_zero_field_populations_three_level_vs_rate_kernel():
    # independent route: kernel of the classical rate generator, built by hand
    model = make_fig2_model(n_h=0.7, n_c=0.2)
    gh, gc, nh, nc = model.gamma_h, model.gamma_c, model.n_h, model.n_c
    gen = np.array(
        [
            [-(gc * nc + gh * nh), gc * (nc + 1), gh * (nh + 1)],
            [gc * nc, -gc * (nc + 1), 0.0],
            [gh * nh, 0.0, -gh * (nh + 1)],
        ]
    )
    kernel = null_space(gen)[:, 0]
    pops = kernel / kernel.sum()
    assert pops[2] - pops[1] == pytest.approx(population_inversion(model), abs=1e-12)


def test_zero_field_populations_four_level_vs_detailed_balance():
    # the bath graph is a tree, so every edge is flux-balanced in steady state
    model = make_fig5_model(n_h=0.8, n_c=0.15, n_a=0.35)
    nh, nc, na = model.n_h, model.n_c, model.n_a
    weights = np.array(
        [
            1.0,
            nc / (nc + 1.0),
            (nh / (nh + 1.0)) * ((na + 1.0) / na),
            nh / (nh + 1.0),
        ]
    )
    pops = weights / weights.sum()
    assert pops[2] - pops[1] == pytest.approx(population_inversion(model), abs=1e-12)


def test_zero_field_populations_four_level_vs_scipy_kernel(rng):
    # scipy.linalg.null_space of the g = 0 rate generator against the
    # detailed-balance weights of the bath tree, level by level
    for _ in range(50):
        model = random_four_level(rng)
        kernel = null_space(semiclassical._classical_rate_matrix(model))
        assert kernel.shape[1] == 1
        nh, nc, na = model.n_h, model.n_c, model.n_a
        weights = np.array(
            [
                1.0,
                nc / (nc + 1.0),
                (nh / (nh + 1.0)) * ((na + 1.0) / na),
                nh / (nh + 1.0),
            ]
        )
        np.testing.assert_allclose(
            kernel[:, 0] / kernel[:, 0].sum(), weights / weights.sum(), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize(
    "make, bath",
    [
        (make_fig2_model, "hot"),
        (make_fig2_model, "cold"),
        (make_fig5_model, "hot"),
        (make_fig5_model, "cold"),
        (make_fig5_model, "ancilla"),
    ],
)
def test_zero_field_populations_reject_a_zero_bath_rate(make, bath):
    # a bath of rate 0 cuts its upper level off, so the g = 0 steady state is
    # not unique, and neither the inversion nor the gain taken from it is
    # returned
    model = make()
    model = model._replace(**{bath: getattr(model, bath)._replace(gamma=0.0)})
    name = {"hot": "gamma_h", "cold": "gamma_c", "ancilla": "gamma_a"}[bath]
    for evaluate in (population_inversion, lasing_gain):
        with pytest.raises(ValueError, match=f"degenerate engine rates: {name} is 0"):
            evaluate(model)


@pytest.mark.parametrize("g", [14.0, 0.0])
def test_point_functions_refuse_phi_zero(g):
    # four levels at n_a = n_h = 0: the g = 0 rate network has the closed
    # classes {g, e1} and {e2}, Phi = 0, and every closed form that divides by
    # it names that cause instead of dividing by zero
    model = make_fig5_model(n_h=0.0, n_a=0.0, g=g)
    refused = "Phi = 0 at n_h = 0.0: the g = 0 rate network has separate closed classes"
    for evaluate in (structure_constants, population_inversion, lasing_gain, scully_lamb_coefficients):
        with pytest.raises(ValueError, match=refused):
            evaluate(model)
    # either occupation alone keeps Phi > 0
    for model in (make_fig5_model(n_h=0.0, g=g), make_fig5_model(n_a=0.0, g=g)):
        assert structure_constants(model).Phi > 0


def test_four_level_inversion_matches_populations(rng):
    # the zero-field inversion against the populations of the g = 0 rate
    # equations, the null space of their generator (scipy.linalg.null_space)
    for _ in range(50):
        model = random_four_level(rng)
        kernel = null_space(semiclassical._classical_rate_matrix(model))
        assert kernel.shape[1] == 1
        pops = kernel[:, 0] / kernel[:, 0].sum()
        assert pops[2] - pops[1] == pytest.approx(population_inversion(model), abs=1e-12)


def test_population_inversion_basics():
    assert population_inversion(make_fig2_model(n_h=0.3, n_c=0.3)) == 0.0
    # (n_h - n_c) / Phi, positive once the hot bath is the hotter
    model = make_fig2_model(n_h=2.0)
    phi = structure_constants(model).Phi
    assert population_inversion(model) == (model.n_h - model.n_c) / phi > 0.0


def test_inversion_never_exceeds_one(rng):
    for _ in range(10_000):
        nh, nc = rng.uniform(0.0, 50.0, 2)
        gh, gc = rng.uniform(0.1, 100.0, 2)
        model = build_three_level(BathSpec(gh, nh), BathSpec(gc, nc), 1.0, 1.0)
        assert population_inversion(model) <= 1.0 + 1e-12


def test_four_level_full_inversion_at_cold_ancilla():
    model = make_fig5_model(n_h=0.8, n_a=0.0, n_c=0.3)
    assert population_inversion(model) == pytest.approx(1.0, rel=1e-12)


def test_equal_gain_points():
    assert lasing_gain(make_fig2_model(n_h=0.507)) == pytest.approx(GAIN_AT_0507, rel=1e-13)
    assert lasing_gain(make_fig2_model(n_h=2.629)) == pytest.approx(GAIN_AT_2629, rel=1e-13)
    # both sit at G/kappa = 2 within 2 percent
    assert abs(lasing_gain(make_fig2_model(n_h=0.507)) - 2.0) < 0.04
    assert abs(lasing_gain(make_fig2_model(n_h=2.629)) - 2.0) < 0.04


def test_gain_zero_at_equal_occupations():
    assert lasing_gain(make_fig2_model(n_h=0.4, n_c=0.4)) == 0.0


def test_gain_equals_coefficient_difference(rng):
    for make in (random_three_level, random_four_level):
        for _ in range(500):
            model = make(rng)
            coeffs = scully_lamb_coefficients(model)
            gain = lasing_gain(model)
            assert coeffs.A - coeffs.A_b == pytest.approx(gain, rel=1e-10)


def test_gain_evaluates_structure_constants_once(monkeypatch):
    # one set of structure constants gives Gamma and the Phi of the zero-field
    # inversion: the gain is bit for bit 4 g^2 DeltaN0 / Gamma over the fig2
    # and fig5 sweep grids
    calls = []

    def counted(model):
        calls.append(model)
        return structure_constants(model)

    for preset in ("fig2", "fig5"):
        config = load_config(preset)
        for n_h in config.sweep.values():
            model = with_hot_occupation(config.model, float(n_h))
            expected = (
                4.0 * model.g * model.g * population_inversion(model)
                / structure_constants(model).Gamma
            )
            with monkeypatch.context() as patch:
                patch.setattr(semiclassical, "structure_constants", counted)
                calls.clear()
                assert lasing_gain(model) == expected
            assert calls == [model]


def test_saturation_parameter():
    # the mean-field saturation parameter 4 g^2 Psi / (Gamma Phi) is the
    # chain's B / A
    def ratio(model):
        coeffs = scully_lamb_coefficients(model)
        return coeffs.B / coeffs.A

    assert ratio(make_fig2_model(n_h=1.0)) == pytest.approx(FIG2_B_AT_1, rel=1e-14)
    base = ratio(make_fig2_model(n_h=1.0, g=7.0))
    assert ratio(make_fig2_model(n_h=1.0, g=14.0)) == pytest.approx(4.0 * base, rel=1e-14)


def test_find_thresholds_three_level():
    roots = find_thresholds(make_fig2_model())
    assert len(roots) == 2
    assert roots[0] == pytest.approx(0.187, abs=0.005)
    assert roots[1] == pytest.approx(8.647, abs=0.05)


def test_find_thresholds_four_level():
    roots = find_thresholds(make_fig5_model())
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.0141, abs=0.0005)


def test_find_thresholds_no_gain():
    assert find_thresholds(make_fig2_model(g=0.0)) == []
    with pytest.raises(ValueError):
        find_thresholds(make_fig2_model(), bracket=(0.0, 10.0))


@pytest.mark.parametrize("make", [random_three_level, random_four_level])
def test_find_thresholds_roots_are_exact(rng, make):
    # each root zeroes G - kappa to round-off, and a 2000-point scan of the
    # bracket, independent of the polynomial, finds no sign change without
    # exactly one returned root inside it
    lo, hi = 1e-3, 50.0
    grid = np.geomspace(lo, hi, 2000)
    found = 0
    for _ in range(20):
        model = make(rng)
        roots = np.array(find_thresholds(model, bracket=(lo, hi)))
        found += roots.size
        for root in roots:
            gain = lasing_gain(with_hot_occupation(model, root))
            assert abs(gain - model.kappa) <= 1e-12 * model.kappa
        excess = np.array([lasing_gain(with_hot_occupation(model, x)) for x in grid]) - model.kappa
        for i in np.flatnonzero(excess[:-1] * excess[1:] < 0):
            assert np.sum((grid[i] <= roots) & (roots <= grid[i + 1])) == 1
    assert found > 0


def test_double_threshold_sign_structure():
    # exactly two crossings of G - kappa for the standard three-level family,
    # exactly one for the four-level family
    grid = np.geomspace(1e-3, 50.0, 400)
    f3 = np.array(
        [lasing_gain(with_hot_occupation(make_fig2_model(), x)) - 1.0 for x in grid]
    )
    assert int(np.sum(np.sign(f3[:-1]) * np.sign(f3[1:]) < 0)) == 2
    f4 = np.array(
        [lasing_gain(with_hot_occupation(make_fig5_model(), x)) - 1.0 for x in grid]
    )
    assert int(np.sum(np.sign(f4[:-1]) * np.sign(f4[1:]) < 0)) == 1


def _thermal_three_level(omega_c, lasing, t_h, t_c, gamma=32.0, g=14.0, kappa=1.0):
    omega_h = omega_c + lasing
    return build_three_level(
        BathSpec.thermal(gamma, omega_h, t_h),
        BathSpec.thermal(gamma, omega_c, t_c),
        g,
        kappa,
        level_energies=(0.0, omega_c, omega_h),
    )


def test_temperature_condition_equal_temperatures():
    model = _thermal_three_level(1.0, 1.0, 2.0, 2.0)
    report = temperature_lasing_condition(model)
    assert not report.lases  # omega_h/T > omega_c/T always
    assert report.carnot == 0.0


def test_temperature_condition_requires_temperatures():
    with pytest.raises(ValueError):
        temperature_lasing_condition(make_fig2_model())


def test_temperature_condition_rejects_nonpositive_hot():
    model = build_three_level(
        BathSpec.thermal(32.0, 2.0, 0.0), BathSpec.thermal(32.0, 1.0, 0.5), 14.0, 1.0
    )
    with pytest.raises(ValueError):
        temperature_lasing_condition(model)


def test_lasing_implies_carnot_bound(rng):
    found = 0
    while found < 200:
        omega_c, lasing = rng.uniform(0.2, 3.0, 2)
        t_c = rng.uniform(0.1, 2.0)
        t_h = t_c * rng.uniform(1.0, 40.0)
        report = temperature_lasing_condition(
            _thermal_three_level(omega_c, lasing, t_h, t_c)
        )
        if report.lases:
            assert report.efficiency <= report.carnot + 1e-12
            found += 1


def test_four_level_condition_reduces_to_carnot_bound(rng):
    # with T_a = T_c the Boltzmann condition is exactly efficiency <= carnot
    for _ in range(200):
        omega_c, lasing, omega_a = rng.uniform(0.2, 3.0, 3)
        t_c = rng.uniform(0.1, 2.0)
        t_h = t_c * rng.uniform(1.0, 40.0)
        omega_h = omega_c + lasing + omega_a
        model = build_four_level(
            BathSpec.thermal(32.0, omega_h, t_h),
            BathSpec.thermal(32.0, omega_c, t_c),
            BathSpec.thermal(32.0, omega_a, t_c),
            14.0,
            1.0,
            level_energies=(0.0, omega_c, omega_h - omega_a, omega_h),
        )
        report = temperature_lasing_condition(model)
        assert report.lases == (report.efficiency <= report.carnot + 1e-12)
