import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlaser import BathSpec, HilbertSpace, build_three_level
from heatlaser.core import (
    apply_liouvillian,
    build_atom_operators,
    build_cavity_operators,
    build_dissipators,
    build_interaction,
    build_liouvillian,
    build_sector_liouvillian,
    check_density_matrix,
    is_hermitian,
)
from heatlaser.solver import solve_model, steady_state

from conftest import make_fig2_model, make_fig5_model, random_four_level, random_three_level


def random_density_matrix(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


def test_hilbert_space_validation():
    space = HilbertSpace(3, 5)
    assert space.total_dim == 15
    assert space.n_max == 4
    with pytest.raises(ValueError):
        HilbertSpace(2, 5)
    with pytest.raises(ValueError):
        HilbertSpace(3, 1)


def test_cavity_ladder_entries():
    space = HilbertSpace(3, 2)  # N_max = 1
    a, a_dag = build_cavity_operators(space)
    fock_block = a[:2, :2]  # atom ground-state block
    assert fock_block[0, 1] == 1.0  # sqrt(1)
    assert np.count_nonzero(fock_block) == 1
    assert np.array_equal(a_dag, a.conj().T)

    space = HilbertSpace(3, 6)
    a, a_dag = build_cavity_operators(space)
    vacuum = np.zeros(space.total_dim)
    vacuum[0] = 1.0  # |g, 0>
    assert np.all(a @ vacuum == 0.0)
    number = a_dag @ a
    expected = np.tile(np.arange(6, dtype=float), 3)
    np.testing.assert_allclose(np.diag(number).real, expected, atol=0)
    assert np.abs(number - np.diag(np.diag(number))).max() == 0.0


@pytest.mark.parametrize("atom_dim", [3, 4])
def test_atom_operator_algebra(atom_dim):
    space = HilbertSpace(atom_dim, 4)
    ops = build_atom_operators(space)
    sm = ops["sigma_minus"]
    assert np.abs(sm @ sm).max() == 0.0  # nilpotent
    np.testing.assert_array_equal(ops["sigma_plus"] @ sm, ops["n_2"])
    np.testing.assert_array_equal(sm @ ops["sigma_plus"], ops["n_1"])
    np.testing.assert_array_equal(ops["sigma_z"], ops["n_2"] - ops["n_1"])
    total = ops["n_g"] + ops["n_1"] + ops["n_2"]
    if atom_dim == 4:
        total = total + ops["n_3"]
    np.testing.assert_array_equal(total, np.eye(space.total_dim, dtype=complex))


def test_hot_transition_targets_top_level():
    # |g><e2| on three levels, |g><e3| on four
    for atom_dim in (3, 4):
        space = HilbertSpace(atom_dim, 2)
        tau = build_atom_operators(space)["tau_h_minus"]
        top = atom_dim - 1
        assert tau[0 * 2, top * 2] == 1.0
        assert np.count_nonzero(tau) == 2  # identity on the 2-dim Fock factor


def test_four_level_operators_absent_on_three_level_space():
    ops = build_atom_operators(HilbertSpace(3, 3))
    assert "tau_a_minus" not in ops
    with pytest.raises(KeyError):
        ops["tau_a_minus"]


def test_atom_and_cavity_factors_commute():
    space = HilbertSpace(3, 5)
    a, a_dag = build_cavity_operators(space)
    ops = build_atom_operators(space)
    for name in ("sigma_minus", "tau_h_plus", "n_2", "sigma_z"):
        op = ops[name]
        np.testing.assert_array_equal(op @ a, a @ op)
        np.testing.assert_array_equal(op @ a_dag, a_dag @ op)


def test_interaction_is_hermitian_and_scales_with_g():
    space = HilbertSpace(3, 5)
    model = make_fig2_model()
    v = build_interaction(model, space)
    assert is_hermitian(v, tol=1e-14)
    v2 = build_interaction(make_fig2_model(g=28.0), space)
    np.testing.assert_allclose(v2, 2.0 * v, atol=0)


def test_liouvillian_preserves_trace(rng):
    model = make_fig2_model(n_h=0.8)
    space = HilbertSpace.for_model(model, 4)
    liouv = build_liouvillian(model, space)
    for _ in range(100):
        rho = random_density_matrix(rng, space.total_dim)
        out = apply_liouvillian(liouv, rho)
        assert abs(np.trace(out)) < 1e-10


def test_liouvillian_preserves_hermiticity(rng):
    for model in (make_fig2_model(n_h=0.8), make_fig5_model()):
        space = HilbertSpace.for_model(model, 3)
        liouv = build_liouvillian(model, space)
        for _ in range(20):
            rho = random_density_matrix(rng, space.total_dim)
            out = apply_liouvillian(liouv, rho)
            assert np.abs(out - out.conj().T).max() < 1e-12


def test_heisenberg_adjoint_annihilates_identity():
    model = make_fig5_model()
    space = HilbertSpace.for_model(model, 3)
    eye = np.eye(space.total_dim, dtype=complex)
    for jump, rate in build_dissipators(model, space):
        jdj = jump.conj().T @ jump
        adjoint = rate * (jump.conj().T @ eye @ jump - 0.5 * (jdj @ eye + eye @ jdj))
        assert np.abs(adjoint).max() < 1e-12


def test_pure_decay_steady_state():
    # g = 0 and empty baths: everything funnels into |g, 0>
    model = make_fig2_model(n_h=0.0, n_c=0.0, g=0.0)
    space = HilbertSpace.for_model(model, 4)
    result = steady_state(build_liouvillian(model, space))
    expected = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(result.state, expected, atol=1e-10)


def test_decoupled_atom_populations_match_bath_ratios():
    # g = 0 steady populations go as 1 : nc/(nc+1) : nh/(nh+1)
    nh, nc = 0.7, 0.2
    model = make_fig2_model(n_h=nh, n_c=nc, g=0.0)
    space = HilbertSpace.for_model(model, 3)
    result = steady_state(build_liouvillian(model, space))
    ops = build_atom_operators(space)
    pops = np.array(
        [np.trace(result.state @ ops[k]).real for k in ("n_g", "n_1", "n_2")]
    )
    weights = np.array([1.0, nc / (nc + 1), nh / (nh + 1)])
    np.testing.assert_allclose(pops, weights / weights.sum(), atol=1e-10)


def test_dimension_mismatch_rejected():
    model = make_fig2_model()
    with pytest.raises(ValueError):
        build_liouvillian(model, HilbertSpace(4, 4))
    with pytest.raises(ValueError):
        build_interaction(make_fig5_model(), HilbertSpace(3, 4))


def test_check_density_matrix():
    good = np.diag([0.5, 0.5, 0.0]).astype(complex)
    check_density_matrix(good)
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([0.7, 0.5, 0.0]).astype(complex))
    bad_herm = good.copy()
    bad_herm[0, 1] = 1e-3
    with pytest.raises(ValueError):
        check_density_matrix(bad_herm)
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5, 0.0]).astype(complex))


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    four=st.booleans(),
    n_max=st.integers(1, 8),
    empty_baths=st.lists(st.booleans(), min_size=3, max_size=3),
    uncoupled=st.booleans(),
)
def test_sector_block_matches_full_liouvillian(seed, four, n_max, empty_baths, uncoupled):
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    # an empty bath has a rate-0 upward channel and g = 0 removes the coupling:
    # the block must drop exactly what the full generator drops
    baths = {"hot": model.hot, "cold": model.cold}
    if four:
        baths["ancilla"] = model.ancilla
    emptied = {
        name: replace(bath, occupation=0.0)
        for (name, bath), empty in zip(baths.items(), empty_baths)
        if empty
    }
    model = replace(model, g=0.0 if uncoupled else model.g, **emptied)
    space = HilbertSpace.for_model(model, n_max)
    block, rows, cols = build_sector_liouvillian(model, space)
    full = build_liouvillian(model, space).tocsc()
    inside = rows * space.total_dim + cols
    # the block is the full generator restricted to (rows, cols)
    restricted = full[inside][:, inside]
    scale = np.abs(full).max()
    assert np.abs((restricted - block).toarray()).max() <= 1e-12 * scale
    # and no block column leaks outside the block
    outside = np.setdiff1d(np.arange(space.total_dim**2), inside)
    assert not np.any(full[outside][:, inside].data)
    if four and uncoupled and empty_baths[2]:
        return  # nothing leaves |e2, 0>: the steady state is not unique
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small cutoffs leave tail mass
        _, result = solve_model(model, n_max=n_max)
    reference = steady_state(full).state
    assert np.abs(result.state - reference).max() < 1e-10
