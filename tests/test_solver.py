import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_laguerre

import heatlaser.core
import heatlaser.solver
from heatlaser import (
    HilbertSpace,
    TruncationError,
    build_liouvillian,
    evolve,
    expectation,
    partial_trace_atom,
    photon_distribution,
    scully_lamb_coefficients,
    solve_model,
    steady_distribution,
    steady_state,
    wigner,
)
from heatlaser.core import build_cavity_operators, check_density_matrix
from heatlaser.solver import SteadyStateError

from conftest import (
    make_fig2_model,
    make_fig5_model,
    random_four_level,
    random_three_level,
)


def fock_state(space, atom_index, n):
    rho = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    idx = atom_index * space.fock_dim + n
    rho[idx, idx] = 1.0
    return rho


def test_steady_state_pure_decay():
    model = make_fig2_model(n_h=0.0, n_c=0.0, g=0.0)
    space = HilbertSpace.for_model(model, 5)
    result = steady_state(build_liouvillian(model, space))
    assert result.method == "nullspace"
    assert result.residual < 1e-12
    np.testing.assert_allclose(result.state, fock_state(space, 0, 0), atol=1e-10)


def test_steady_state_reports_stall():
    model = make_fig2_model(n_h=1.0)
    space = HilbertSpace.for_model(model, 10)
    liouv = build_liouvillian(model, space)
    with pytest.raises(SteadyStateError) as err:
        steady_state(liouv, tol=1e-18)
    assert err.value.best_residual is not None


def test_steady_state_must_be_unique():
    # no bath and no coupling: every atomic level is stationary
    frozen = make_fig2_model(n_h=0.0, n_c=0.0, g=0.0, gamma=0.0)
    with pytest.raises(SteadyStateError):
        solve_model(frozen, n_max=4)


def test_evolve_identity_and_decay():
    model = make_fig2_model(n_h=0.3)
    space = HilbertSpace.for_model(model, 4)
    zero = sp.csr_matrix((space.total_dim**2, space.total_dim**2), dtype=complex)
    rho0 = fock_state(space, 1, 2)
    np.testing.assert_array_equal(evolve(zero, rho0, 1.0), rho0)

    # bare cavity decay: <n>(t) = exp(-kappa t) starting from one photon
    bare = make_fig2_model(n_h=0.0, n_c=0.0, g=0.0, gamma=0.0)
    space = HilbertSpace.for_model(bare, 3)
    liouv = build_liouvillian(bare, space)
    rho0 = fock_state(space, 0, 1)
    a, a_dag = build_cavity_operators(space)
    number = a_dag @ a
    for t in (0.5, 1.0, 2.0):
        rho_t = evolve(liouv, rho0, t)
        mean = expectation(rho_t, number).real
        assert mean == pytest.approx(math.exp(-t), abs=1e-6)


def test_evolve_rejects_bad_arguments():
    model = make_fig2_model()
    space = HilbertSpace.for_model(model, 6)
    liouv = build_liouvillian(model, space)
    with pytest.raises(ValueError):
        evolve(liouv, fock_state(space, 0, 0), -1.0)
    with pytest.raises(ValueError):
        evolve(liouv, np.eye(space.total_dim - 1, dtype=complex), 1.0)


def test_evolve_reaches_steady_state():
    model = make_fig2_model(n_h=0.4)
    space = HilbertSpace.for_model(model, 12)
    liouv = build_liouvillian(model, space)
    target = steady_state(liouv).state
    rho = evolve(liouv, fock_state(space, 0, 0), 30.0)
    assert np.abs(rho - target).max() < 1e-7


def test_partial_trace():
    space = HilbertSpace(3, 5)
    rng = np.random.default_rng(7)
    atom = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    atom = atom @ atom.conj().T
    atom /= np.trace(atom)
    cav = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    cav = cav @ cav.conj().T
    cav /= np.trace(cav)
    product = np.kron(atom, cav)
    np.testing.assert_allclose(partial_trace_atom(product, space), cav, atol=1e-14)
    assert np.trace(partial_trace_atom(product, space)) == pytest.approx(
        np.trace(product).real
    )
    with pytest.raises(ValueError):
        partial_trace_atom(product, HilbertSpace(3, 4))


def test_photon_distribution_index_conventions():
    model = make_fig2_model(n_h=0.6)
    space = HilbertSpace.for_model(model, 14)
    rho = steady_state(build_liouvillian(model, space)).state
    with pytest.warns(UserWarning, match="truncation rung"):
        dist = photon_distribution(rho, space)
    manual = np.array(
        [
            sum(
                rho[alpha * space.fock_dim + n, alpha * space.fock_dim + n].real
                for alpha in range(space.atom_dim)
            )
            for n in range(space.fock_dim)
        ]
    )
    np.testing.assert_allclose(dist.probabilities, manual / manual.sum(), atol=1e-12)


def test_photon_distribution_vacuum():
    model = make_fig2_model(n_h=0.0, n_c=0.0, g=0.0)
    space = HilbertSpace.for_model(model, 4)
    rho = steady_state(build_liouvillian(model, space)).state
    dist = photon_distribution(rho, space)
    assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def test_expectation_basics():
    space = HilbertSpace(3, 4)
    rho = fock_state(space, 0, 0)
    eye = np.eye(space.total_dim, dtype=complex)
    assert expectation(rho, eye) == pytest.approx(1.0)
    a, a_dag = build_cavity_operators(space)
    assert expectation(rho, a_dag @ a) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        expectation(rho, np.eye(5, dtype=complex))


def test_expectation_real_for_hermitian():
    model = make_fig2_model(n_h=0.7)
    space = HilbertSpace.for_model(model, 10)
    rho = steady_state(build_liouvillian(model, space)).state
    a, a_dag = build_cavity_operators(space)
    value = expectation(rho, a_dag @ a)
    assert abs(value.imag) < 1e-12


def test_mean_photon_number_against_theory():
    model = make_fig2_model(n_h=1.0)
    space, result = solve_model(model, n_max=40)
    a, a_dag = build_cavity_operators(space)
    numeric = expectation(result.state, a_dag @ a).real
    analytic = steady_distribution(scully_lamb_coefficients(model)).mean
    assert abs(numeric - analytic) / numeric < 0.05


def test_steady_cavity_state_is_diagonal_and_positive():
    with pytest.warns(UserWarning, match="tail"):  # the fig2 point needs n_max > 16
        solved = [
            solve_model(model, n_max=16)
            for model in (make_fig2_model(n_h=0.6), make_fig5_model(n_h=0.3))
        ]
    for space, result in solved:
        check_density_matrix(result.state)
        reduced = partial_trace_atom(result.state, space)
        off = reduced - np.diag(np.diag(reduced))
        assert np.abs(off).max() < 1e-9


def test_analytic_numeric_gap_shrinks_with_kappa():
    # the adiabatic elimination becomes exact as kappa / gamma -> 0
    gaps = []
    for kappa in (1.0, 0.5):
        model = make_fig2_model(n_h=1.0, kappa=kappa)
        space, result = solve_model(model, n_max=40)
        numeric = photon_distribution(result.state, space)
        analytic = steady_distribution(
            scully_lamb_coefficients(model), n_max=space.n_max, tail_tol=math.inf
        )
        gaps.append(np.abs(numeric.probabilities - analytic.probabilities).sum())
    assert gaps[1] < gaps[0]


def test_solve_model_retries_truncation():
    # the cutoff comes from the closed form up front, so no retry is needed:
    # this point holds ~27 photons and its exact tail needs n_max >= 62
    model = make_fig2_model(n_h=1.87, kappa=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any tail warning should fail
        space, result = solve_model(model)
    assert space.n_max >= 62
    assert partial_trace_atom(result.state, space)[-1, -1].real < 1e-8
    chosen = photon_distribution(result.state, space)
    wide_space, wide = solve_model(model, n_max=space.n_max + 30)
    wider = photon_distribution(wide.state, wide_space)
    assert chosen.mean == pytest.approx(wider.mean, rel=1e-8)
    assert chosen.variance == pytest.approx(wider.variance, rel=1e-8)
    # an explicit cutoff is used as given, and a heavy tail warns
    with pytest.warns(UserWarning, match="tail"):
        space, _ = solve_model(model, n_max=12)
    assert space.n_max == 12


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), four=st.booleans())
def test_closed_form_cutoff_leaves_no_exact_tail(seed, four):
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the tail warning must not fire
        space, result = solve_model(model)
    assert 1 <= space.n_max <= 200
    assert partial_trace_atom(result.state, space)[-1, -1].real < 1e-8


def test_solve_model_builds_no_dense_operators(monkeypatch):
    def embed(*args):
        raise AssertionError("built a dense (A F) x (A F) atom operator")

    monkeypatch.setattr(heatlaser.core, "build_atom_operators", embed)
    for model in (make_fig2_model(), make_fig5_model()):
        space, result = solve_model(model)
        assert partial_trace_atom(result.state, space)[-1, -1].real < 1e-8


def test_cutoff_above_bound_raises_before_assembly(monkeypatch):
    def assemble(*args):
        raise AssertionError("assembled a block past the cutoff bound")

    monkeypatch.setattr(heatlaser.solver, "build_sector_liouvillian", assemble)
    # kappa = 0.02: the closed form holds its 1e-12 tail only past 200 rungs
    with pytest.raises(TruncationError, match=r"needs n_max = \d+ > 200"):
        solve_model(make_fig2_model(kappa=0.02))


# ---------------------------------------------------------------------------
# Wigner
# ---------------------------------------------------------------------------

def test_wigner_vacuum_and_single_photon():
    vacuum = np.zeros((12, 12), dtype=complex)
    vacuum[0, 0] = 1.0
    with pytest.warns(UserWarning, match="grid radius"):  # a one-point grid
        field = wigner(vacuum, np.array([0.0]), np.array([0.0]))
    assert field.values[0, 0] == pytest.approx(2.0 / math.pi, rel=1e-12)
    one = np.zeros((12, 12), dtype=complex)
    one[1, 1] = 1.0
    with pytest.warns(UserWarning, match="grid radius"):
        field = wigner(one, np.array([0.0]), np.array([0.0]))
    assert field.values[0, 0] == pytest.approx(-2.0 / math.pi, rel=1e-12)


def test_wigner_matches_laguerre_form():
    # diagonal states: W(a) = (2/pi) sum_n p_n (-1)^n exp(-2 r^2) L_n(4 r^2)
    rng = np.random.default_rng(3)
    p = rng.uniform(0.2, 1.0, 6)
    p /= p.sum()
    rho = np.diag(p).astype(complex)
    rho_full = np.zeros((24, 24), dtype=complex)
    rho_full[:6, :6] = rho
    axis = np.linspace(-2.5, 2.5, 7)
    field = wigner(rho_full, axis, axis)
    for iy, y in enumerate(axis):
        for ix, x in enumerate(axis):
            r2 = x * x + y * y
            expected = (2.0 / math.pi) * math.exp(-2.0 * r2) * sum(
                pn * (-1.0) ** n * eval_laguerre(n, 4.0 * r2)
                for n, pn in enumerate(p)
            )
            assert field.values[iy, ix] == pytest.approx(expected, abs=1e-10)


def test_wigner_of_coherent_state():
    # off-diagonal terms and their phase: W(a) = (2/pi) exp(-2|a - b|^2)
    beta = 0.8 + 0.6j
    amplitudes = np.array(
        [
            math.exp(-abs(beta) ** 2 / 2) * beta**n / math.sqrt(math.factorial(n))
            for n in range(30)
        ]
    )
    rho = np.outer(amplitudes, amplitudes.conj())
    axis = np.linspace(-2.0, 2.0, 9)
    field = wigner(rho, axis, axis)
    alpha = axis[np.newaxis, :] + 1j * axis[:, np.newaxis]
    expected = (2.0 / math.pi) * np.exp(-2.0 * np.abs(alpha - beta) ** 2)
    np.testing.assert_allclose(field.values, expected, rtol=0, atol=1e-12)


def test_wigner_of_steady_state():
    model = make_fig2_model(n_h=0.507)
    space, result = solve_model(model, n_max=30)
    reduced = partial_trace_atom(result.state, space)
    axis = np.linspace(-4.0, 4.0, 41)
    field = wigner(reduced, axis, axis)
    # no phase preference: the value depends on |alpha| only
    radius = 1.5
    with pytest.warns(UserWarning, match="grid radius"):  # one-point grids
        samples = [
            field_value
            for theta in np.linspace(0.0, 2 * math.pi, 9)
            for field_value in [
                wigner(
                    reduced,
                    np.array([radius * math.cos(theta)]),
                    np.array([radius * math.sin(theta)]),
                ).values[0, 0]
            ]
        ]
    assert max(samples) - min(samples) < 1e-8
    # convention bound and normalization
    assert field.values.min() >= -2.0 / math.pi - 1e-9
    dx = axis[1] - axis[0]
    norm = field.values.sum() * dx * dx
    assert norm == pytest.approx(1.0, abs=0.02)


def test_wigner_warns_on_small_grid():
    p = np.exp(-np.arange(30) / 4.0)
    p /= p.sum()  # mean ~ 3.5
    rho = np.diag(p).astype(complex)
    with pytest.warns(UserWarning, match="grid radius"):
        wigner(rho, np.array([0.5]), np.array([0.0]))
