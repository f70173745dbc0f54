import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlaser import (
    BathSpec,
    LaserCoefficients,
    TruncationError,
    build_three_level,
    coefficient_flow,
    distribution_moments,
    lasing_gain,
    output_power,
    population_inversion,
    scully_lamb_coefficients,
    steady_distribution,
    with_hot_occupation,
)
from heatlaser import photonstats
from heatlaser.cli import load_config
from heatlaser.photonstats import BATCH_RUNGS, GRID_COLUMNS, closed_form_grid

from conftest import (
    BRIGHT,
    make_fig2_model,
    make_fig5_model,
    random_four_level,
    random_three_level,
)
from reference import elimination_flow

# exact rational evaluations at gamma = 32, g = 14, n_c = 1/20, n_h = 1
FIG2_A_AT_1 = 2.5952080706179066
FIG2_AB_AT_1 = 0.2471626733921816
FIG2_BCOEFF_AT_1 = 1.0323151901330845
# closed-form moments at n_h = 2, cross-checked against direct summation
FIG2_MEAN_AT_2 = 4.37929403012336
FIG2_VAR_AT_2 = 7.24802433465372


def test_coefficients_limits():
    assert scully_lamb_coefficients(make_fig2_model(n_h=0.0)).A == 0.0
    assert scully_lamb_coefficients(make_fig2_model(n_c=0.0)).A_b == 0.0
    # four-level absorption needs both the cold and the ancilla occupation
    assert scully_lamb_coefficients(make_fig5_model(n_a=0.0)).A_b == 0.0


def test_coefficients_frozen_point():
    coeffs = scully_lamb_coefficients(make_fig2_model(n_h=1.0))
    assert coeffs.A == pytest.approx(FIG2_A_AT_1, rel=1e-14)
    assert coeffs.A_b == pytest.approx(FIG2_AB_AT_1, rel=1e-14)
    assert coeffs.B == pytest.approx(FIG2_BCOEFF_AT_1, rel=1e-14)
    assert coeffs.kappa == 1.0


def test_coefficient_validation():
    with pytest.raises(ValueError):
        LaserCoefficients(-1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        LaserCoefficients(1.0, 0.0, 0.1, 0.0)


def test_gain_identity(rng):
    for make in (random_three_level, random_four_level):
        for _ in range(300):
            model = make(rng)
            coeffs = scully_lamb_coefficients(model)
            assert coeffs.A - coeffs.A_b == pytest.approx(lasing_gain(model), rel=1e-10)


# ---------------------------------------------------------------------------
# elimination oracle
# ---------------------------------------------------------------------------

def test_elimination_flow_vacuum_rung():
    model = make_fig2_model(n_h=1.3)
    coeffs = scully_lamb_coefficients(model)
    flow = elimination_flow(model, 1, 1.0, 0.0)
    assert flow == pytest.approx(coefficient_flow(coeffs, 1, 1.0, 0.0), rel=1e-12)
    # closed form (A * 1) / (1 + B/A)
    expected = coeffs.A / (1.0 + coeffs.B / coeffs.A)
    assert flow == pytest.approx(expected, rel=1e-12)


def test_elimination_flow_balanced():
    model = make_fig2_model(n_h=0.3, n_c=0.3)
    assert abs(elimination_flow(model, 4, 0.2, 0.2)) < 1e-14


def test_elimination_flow_four_level_no_absorption():
    model = make_fig5_model(n_h=0.9, n_c=0.0, n_a=0.0)
    coeffs = scully_lamb_coefficients(model)
    flow = elimination_flow(model, 3, 0.4, 0.0)
    assert flow == pytest.approx(coefficient_flow(coeffs, 3, 0.4, 0.0), rel=1e-11)
    assert flow > 0.0


@pytest.mark.parametrize("make", [random_three_level, random_four_level])
def test_elimination_flow_matches_closed_form(make, rng):
    for _ in range(50):
        model = make(rng)
        n = int(rng.integers(1, 60))
        p_nm1, p_n = rng.uniform(0.0, 1.0, 2)
        closed = coefficient_flow(scully_lamb_coefficients(model), n, p_nm1, p_n)
        solved = elimination_flow(model, n, p_nm1, p_n)
        assert solved == pytest.approx(closed, rel=1e-10, abs=1e-13)


def test_elimination_flow_degenerate_rates():
    frozen = build_three_level(BathSpec(0.0, 0.5), BathSpec(0.0, 0.1), 14.0, 1.0)
    with pytest.raises(ValueError):
        elimination_flow(frozen, 2, 0.3, 0.2)
    with pytest.raises(ValueError):
        elimination_flow(make_fig2_model(), 0, 0.3, 0.2)


# ---------------------------------------------------------------------------
# steady distribution
# ---------------------------------------------------------------------------

def test_vacuum_when_pump_off():
    model = make_fig2_model(n_h=0.0)
    dist = steady_distribution(scully_lamb_coefficients(model))
    assert dist.n_max == 1
    assert dist.probabilities.tolist() == [1.0, 0.0]
    assert dist.mean == 0.0
    # the same row, bit for bit, as the one-point grid's
    _, _, (row,), _ = closed_form_grid(model, [0.0])
    assert np.array_equal(row, dist.probabilities)


def test_detailed_balance():
    coeffs = scully_lamb_coefficients(make_fig2_model(n_h=2.0))
    p = steady_distribution(coeffs).probabilities
    n = np.arange(1, p.size)
    lhs = p[1:] * (coeffs.A_b + coeffs.kappa * (1.0 + n * coeffs.B / coeffs.A))
    rhs = p[:-1] * coeffs.A
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_steady_distribution_is_stationary():
    # the P_n equation written as net upward flows across the rung edges:
    # coherent flow minus cavity decay kappa n P_n; each edge's flow leaves
    # rung n-1 and enters rung n, so dP/dt vanishes with every flow
    coeffs = scully_lamb_coefficients(make_fig2_model(n_h=1.0))
    p = steady_distribution(coeffs).probabilities
    net_up = np.array(
        [
            coefficient_flow(coeffs, n, p[n - 1], p[n]) - coeffs.kappa * n * p[n]
            for n in range(1, p.size)
        ]
    )
    deriv = np.zeros_like(p)
    deriv[1:] += net_up
    deriv[:-1] -= net_up
    assert np.abs(deriv).max() < 1e-10


def test_below_threshold_geometric_decay():
    # negligible saturation: ratio is essentially constant A/(A_b + kappa) <= 1
    coeffs = LaserCoefficients(0.5, 0.2, 1e-5, 1.0)
    p = steady_distribution(coeffs).probabilities
    ratios = p[1:12] / p[:11]
    np.testing.assert_allclose(ratios, 0.5 / 1.2, rtol=1e-3)
    assert np.all(ratios <= 1.0)
    # a model below threshold decays monotonically from the vacuum
    dist = steady_distribution(scully_lamb_coefficients(make_fig2_model(n_h=0.1)))
    assert np.argmax(dist.probabilities) == 0
    assert np.all(np.diff(dist.probabilities) < 0)


def test_peak_location_matches_closed_form():
    for nh in (0.507, 1.0, 2.629):
        coeffs = scully_lamb_coefficients(make_fig2_model(n_h=nh))
        dist = steady_distribution(coeffs)
        peak = distribution_moments(coeffs).peak
        assert peak >= 0.0
        assert abs(np.argmax(dist.probabilities) - peak) <= 1.0


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    four=st.booleans(),
    log_kappa=st.floats(-3.0, 1.0),
)
def test_auto_support_is_the_first_rung_below_1e_12(seed, four, log_kappa):
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    coeffs = scully_lamb_coefficients(model._replace(kappa=10.0**log_kappa))
    dist = steady_distribution(coeffs)
    p, n_max = dist.probabilities, dist.n_max
    assert p[n_max] < 1e-12
    if n_max - 1 >= np.argmax(p):
        assert p[n_max - 1] >= 1e-12
    # past the estimate every ratio is below 1/2, so 41 rungs reach 2^-41
    estimate = coeffs.A * (2.0 * coeffs.A - coeffs.A_b - coeffs.kappa) / (
        coeffs.kappa * coeffs.B
    )
    assert n_max <= max(0, math.floor(estimate)) + 41
    chain = [np.array([value]) for value in coeffs[:3]]
    (explicit,) = photonstats._normalized(*chain, coeffs.kappa, np.array([n_max + 1]))
    resolved = explicit > 1e-290
    np.testing.assert_allclose(p[resolved], explicit[resolved], rtol=1e-12)


@pytest.mark.parametrize(
    "coeffs, n_max",
    [
        # ratio A / (A_b + kappa) = 1/4 at every rung: P_n = (3/4) 4^-n
        (LaserCoefficients(0.3, 0.2, 0.0, 1.0), 20),
        # ratio 1 at every rung: no support
        (LaserCoefficients(1.0, 0.0, 0.0, 1.0), None),
    ],
)
def test_auto_support_without_saturation(coeffs, n_max):
    if n_max is None:
        with pytest.raises(TruncationError, match="exceeds 1e6"):
            steady_distribution(coeffs)
        return
    p = steady_distribution(coeffs).probabilities
    assert p.size == n_max + 1
    np.testing.assert_allclose(p[1:] / p[:-1], 0.25, rtol=1e-12)


# ---------------------------------------------------------------------------
# moments and power
# ---------------------------------------------------------------------------

def test_moments_match_direct_summation():
    coeffs = scully_lamb_coefficients(make_fig2_model(n_h=2.0))
    moments = distribution_moments(coeffs)
    dist = steady_distribution(coeffs)
    assert moments.mean == pytest.approx(FIG2_MEAN_AT_2, rel=1e-12)
    assert moments.variance == pytest.approx(FIG2_VAR_AT_2, rel=1e-12)
    assert moments.mean == pytest.approx(dist.mean, rel=1e-8)
    assert moments.variance == pytest.approx(dist.variance, rel=1e-8)


def test_moment_identities(rng):
    for _ in range(25):
        model = random_three_level(rng)
        coeffs = scully_lamb_coefficients(model)
        if coeffs.A - coeffs.A_b - coeffs.kappa < 0.2:
            continue  # keep the support comfortably resolved
        p = steady_distribution(coeffs).probabilities
        n = np.arange(p.size)
        kb = coeffs.kappa * coeffs.B
        x = coeffs.A**2 / kb
        y = coeffs.A * (coeffs.kappa + coeffs.A_b) / kb
        mean = float(n @ p)
        second = float((n * n) @ p)
        assert x - y + y * p[0] == pytest.approx(mean, rel=1e-8)
        assert (mean + 1.0) * x - mean * y == pytest.approx(second, rel=1e-8)


def test_super_poissonian_far_above_threshold():
    coeffs = LaserCoefficients(8.0, 0.5, 0.8, 1.0)
    moments = distribution_moments(coeffs)
    assert moments.fano > 1.0
    expected = 1.0 + (coeffs.A_b + coeffs.kappa) / (coeffs.A - coeffs.A_b - coeffs.kappa)
    assert moments.fano == pytest.approx(expected, rel=1e-6)


def test_fano_approaches_poisson():
    fanos = [
        distribution_moments(LaserCoefficients(a, 0.3, 0.1 * a, 1.0)).fano
        for a in (5.0, 20.0, 80.0, 320.0)
    ]
    assert all(f > 1.0 for f in fanos)
    assert all(a > b for a, b in zip(fanos, fanos[1:]))
    assert fanos[-1] == pytest.approx(1.0, abs=5e-3)


def test_threshold_consistency(rng):
    # peak >= 0 iff A - A_b >= kappa iff G >= kappa
    for _ in range(200):
        model = random_three_level(rng)
        coeffs = scully_lamb_coefficients(model)
        if coeffs.A == 0.0:
            continue
        peak = distribution_moments(coeffs).peak
        assert (peak >= 0.0) == (coeffs.A - coeffs.A_b - coeffs.kappa >= 0.0)
        assert (peak >= 0.0) == (lasing_gain(model) >= model.kappa - 1e-12)


def test_output_power():
    model = make_fig2_model()
    assert output_power(model, 0.0) == 0.0
    assert output_power(model, 2.5) == pytest.approx(2.5)  # Omega_l = kappa = 1
    with pytest.raises(ValueError):
        output_power(model, -1.0)


def test_saturated_power_deep_lasing():
    # kappa = 0.05 puts the engine far above threshold, P_0 ~ 1e-51, where
    # the power is lasing_frequency (A/B)(A - A_b - kappa), in the explicit
    # three-level rational form
    model = make_fig2_model(n_h=2.0, kappa=0.05)
    coeffs = scully_lamb_coefficients(model)
    assert steady_distribution(coeffs).probabilities[0] < 1e-6
    power = output_power(model, distribution_moments(coeffs).mean)
    gh, gc, nh, nc = model.gamma_h, model.gamma_c, model.n_h, model.n_c
    gamma_ = gh * (nh + 1) + gc * (nc + 1)
    phi = 3 * nh * nc + 2 * (nh + nc) + 1
    explicit = (
        model.lasing_frequency
        * gh
        * gc
        * (nh - nc - model.kappa / (4 * model.g**2) * gamma_ * phi)
        / (gh * (3 * nh + 1) + gc * (3 * nc + 1))
    )
    assert power == pytest.approx(explicit, rel=1e-12)


def test_sums_ignore_zero_padding():
    # _total adds a row left to right, so zeros padded past its end change no
    # bit: each row of a zero-padded stack sums, normalises and gets the
    # moments it gets alone.  numpy's pairwise sum groups a row's terms by its
    # length, and misses this
    rng = np.random.default_rng(30)
    rows = [rng.uniform(0.0, 1.0, size) for size in [*range(1, 301), BATCH_RUNGS]]
    stack = np.zeros((len(rows), BATCH_RUNGS + 5))
    for k, row in enumerate(rows):
        stack[k, : row.size] = row
    alone = [photonstats._total(row) for row in rows]
    assert np.array_equal(photonstats._total(stack), alone)
    assert any(padded.sum() != row.sum() for padded, row in zip(stack, rows))
    units = photonstats._unit(stack)
    means, variances = photonstats._row_moments(units)
    for k, row in enumerate(rows):
        unit = photonstats._unit(row)
        assert np.array_equal(units[k, : row.size], unit)
        assert (means[k], variances[k]) == photonstats._row_moments(unit)


@pytest.mark.parametrize("n_h", [1e150, 1e154, 1e300])
def test_grid_refuses_rates_out_of_range(n_h):
    # at the fig2 rates B underflows to 0 while A > 0 past n_h near 1e140,
    # and Gamma Phi overflows past 1e154; such a point fails alone, with a
    # message naming it and no RuntimeWarning, while its neighbours keep
    # the point functions' values
    model = load_config("fig2").model
    grid = np.array([1.0, n_h, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        columns, cutoffs, rows, failures = closed_form_grid(model, grid)
    assert failures == [None, f"closed-form rates out of floating-point range at n_h = {n_h}", None]
    assert cutoffs[1] is None and rows[1] is None
    assert all(math.isnan(values[1]) for values in columns.values())
    assert_grid_matches_points(model, grid[[0, 2]])
    # hand-built coefficients with B = 0 and the pump on keep their refusal
    with pytest.raises(ValueError, match="saturation B must be positive when A > 0"):
        distribution_moments(LaserCoefficients(0.3, 0.2, 0.0, 1.0))


# ---------------------------------------------------------------------------
# the closed form of a grid
# ---------------------------------------------------------------------------

def assert_grid_matches_points(model, n_h):
    """closed_form_grid equals the point functions at every n_h, bit for bit.

    It keeps the row of each point whose cutoff the exact route can solve.
    """
    columns, cutoffs, rows, failures = closed_form_grid(model, n_h)
    assert list(columns) == list(GRID_COLUMNS)
    for k, nh in enumerate(n_h.tolist()):
        point = with_hot_occupation(model, nh)
        coeffs = scully_lamb_coefficients(point)
        try:
            closed = steady_distribution(coeffs)
        except TruncationError as exc:
            assert failures[k] == str(exc)
            assert cutoffs[k] is None and rows[k] is None
            assert all(math.isnan(values[k]) for values in columns.values())
            continue
        moments = distribution_moments(coeffs)
        expected = [
            lasing_gain(point) / point.kappa,
            population_inversion(point),
            coeffs.A,
            coeffs.A_b,
            coeffs.B,
            moments.mean,
            moments.variance,
            moments.fano,
            output_power(point, moments.mean),
        ]
        assert failures[k] is None
        # exact, and NaN exactly where the point functions give NaN
        np.testing.assert_array_equal([values[k] for values in columns.values()], expected)
        assert cutoffs[k] == closed.n_max
        if closed.n_max + 2 <= BATCH_RUNGS:
            np.testing.assert_array_equal(rows[k], closed.probabilities)
        else:
            assert rows[k] is None


@pytest.mark.parametrize("config", ["fig2", "fig5", BRIGHT], ids=["fig2", "fig5", "bright"])
def test_grid_matches_point_functions_on_the_presets(config):
    config = load_config(config)
    assert_grid_matches_points(config.model, config.sweep.values())


def test_grid_past_the_support_budget_matches_point_functions(monkeypatch):
    # kappa = 2e-5 at the fig2 rates: supports of 3e3 to 5e5 rungs, stacked
    # within the budget or alone, and the top of the grid past 1e6 rungs;
    # the rows of the cutoffs past 16 030 are not kept
    model = load_config("fig2").model._replace(kappa=2e-5)
    n_h = np.geomspace(0.05, 20.0, 9)
    stacks, normalized = [], photonstats._normalized

    def counted(A, A_b, B, kappa, sizes):
        stacks.append((sizes.size, sizes.max()))
        return normalized(A, A_b, B, kappa, sizes)

    monkeypatch.setattr(photonstats, "_normalized", counted)
    failures = closed_form_grid(model, n_h)[3]
    assert failures[-1] == "distribution support exceeds 1e6 photons"
    assert sum(chains for chains, _ in stacks) == failures.count(None) < n_h.size
    assert len(stacks) >= 2 and max(width for _, width in stacks) > BATCH_RUNGS
    assert all(chains * width <= BATCH_RUNGS or chains == 1 for chains, width in stacks)
    rows = closed_form_grid(model, n_h)[2]
    assert 0 < sum(row is not None for row in rows) < failures.count(None)
    assert_grid_matches_points(model, n_h)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    four=st.booleans(),
    log_kappa=st.floats(-2.0, 1.0),
    points=st.integers(1, 12),
)
def test_grid_matches_point_functions_on_random_engines(seed, four, log_kappa, points):
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    model = model._replace(kappa=10.0**log_kappa)
    n_h = np.sort(rng.uniform(0.01, 5.0, points))
    assert_grid_matches_points(model, n_h)


def test_moments_far_below_threshold_are_sums_over_the_row(monkeypatch):
    # X and Y near 1e16 and a mean near 4e-15: X - Y + Y P_0 cancelled to
    # means of 4 and 8 and variances near -1e17.  There the mean and variance
    # are the sums over the cut row, in the grid and at a point alike
    model = build_three_level(BathSpec(3141.0, 1.0), BathSpec(1731.0, 457.0), 0.0012, 424.0)
    grid = np.array([64.69, 162.5])
    columns, _, rows, _ = closed_form_grid(model, grid)
    for k, n_h in enumerate(grid.tolist()):
        n = np.arange(rows[k].size)
        mean = n @ rows[k]
        variance = ((n - mean) * (n - mean)) @ rows[k]
        assert 0.0 < mean < 1e-14
        assert (columns["mean_analytic"][k], columns["variance_analytic"][k]) == (mean, variance)
        assert columns["fano_analytic"][k] == variance / mean
        moments = distribution_moments(scully_lamb_coefficients(with_hot_occupation(model, n_h)))
        assert (moments.mean, moments.variance) == (mean, variance)
    # a row too long to keep is cut again, bit for bit the same
    monkeypatch.setattr(photonstats, "BATCH_RUNGS", 2)
    again, _, rows, _ = closed_form_grid(model, grid)
    assert rows == [None, None]
    assert again == columns


def test_preset_moments_keep_the_closed_form():
    # every preset point is far from cancelling, so its moments stay the
    # X / Y formulas, not the sums over its row
    for name in ("fig2", "fig5", BRIGHT):
        config = load_config(name)
        grid = config.sweep.values()
        sc = photonstats._structure(config.model, grid)
        A, A_b, B = photonstats._coefficients(config.model, sc, grid)
        columns, _, rows, _ = closed_form_grid(config.model, grid)
        p0 = np.array([row[0] for row in rows])
        mean, variance, _, lossy = photonstats._moments(A, A_b, B, config.model.kappa, p0)
        assert not lossy.any()
        assert columns["mean_analytic"] == mean.tolist()
        assert columns["variance_analytic"] == variance.tolist()
