import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heatlaser import BathSpec, build_three_level, with_hot_occupation
from heatlaser.core import (
    CELL_OF,
    LEVEL_E2,
    LOWER_COLUMN,
    RUNG_CELLS,
    SLOT_OF,
    build_liouvillian,
    build_sector_liouvillian,
)
from heatlaser.solver import (
    SteadyStateError,
    partial_trace_atom,
    photon_distribution,
    solve_model,
    steady_state,
)

from conftest import (
    dense_bands,
    dense_state,
    make_fig2_model,
    make_fig5_model,
    random_four_level,
    random_three_level,
    sector_block_csc,
    slot_map,
    slot_operators,
)
from reference import apply_liouvillian, check_density_matrix


def random_density_matrix(rng, dim):
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


def test_full_space_reference_validation():
    # the reference needs a cavity of at least two Fock states, and a dense
    # state square with side atom_dim x fock
    model = make_fig2_model()
    assert build_liouvillian(model, 1).shape == (36, 36)
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            build_liouvillian(model, n_max)
    assert partial_trace_atom(np.eye(15), 3).shape == (5, 5)
    for shape, atom_dim in [((15, 15), 4), ((3, 3), 3), ((15, 14), 3), ((15,), 3), ((3, 5, 5), 3)]:
        with pytest.raises(ValueError, match="is not square with side"):
            partial_trace_atom(np.zeros(shape), atom_dim)


def test_liouvillian_preserves_trace(rng):
    model = make_fig2_model(n_h=0.8)
    liouv = build_liouvillian(model, 4)
    for _ in range(100):
        rho = random_density_matrix(rng, 3 * 5)
        out = apply_liouvillian(liouv, rho)
        assert abs(np.trace(out)) < 1e-10


def test_liouvillian_preserves_hermiticity(rng):
    for model in (make_fig2_model(n_h=0.8), make_fig5_model()):
        liouv = build_liouvillian(model, 3)
        for _ in range(20):
            rho = random_density_matrix(rng, model.atom_dim * 4)
            out = apply_liouvillian(liouv, rho)
            assert np.abs(out - out.conj().T).max() < 1e-12


def test_pure_decay_steady_state():
    # g = 0 and empty baths: everything funnels into |g, 0>
    model = make_fig2_model(n_h=0.0, n_c=0.0, g=0.0)
    result = steady_state(build_liouvillian(model, 4))
    expected = np.zeros((3 * 5, 3 * 5), dtype=complex)
    expected[0, 0] = 1.0
    np.testing.assert_allclose(result.state, expected, atol=1e-10)


def test_decoupled_atom_populations_match_bath_ratios():
    nh, nc, na = 0.7, 0.2, 0.3
    w3 = nh / (nh + 1)
    for model, weights in [
        # g = 0 steady populations go as 1 : nc/(nc+1) : nh/(nh+1)
        (make_fig2_model(n_h=nh, n_c=nc, g=0.0), [1.0, nc / (nc + 1), nh / (nh + 1)]),
        # four levels: the hot bath pumps e3, which the ancilla bath empties
        # into e2, so with w3 = nh/(nh+1) they go as 1 : nc/(nc+1) : w3 (na+1)/na : w3
        (make_fig5_model(n_h=nh, n_c=nc, n_a=na, g=0.0), [1.0, nc / (nc + 1), w3 * (na + 1) / na, w3]),
    ]:
        rho = steady_state(build_liouvillian(model, 3)).state
        # the trace over the Fock factor leaves the atom's reduced state
        shape = (model.atom_dim, 4) * 2
        pops = np.trace(rho.reshape(shape), axis1=1, axis2=3).diagonal().real
        weights = np.array(weights)
        np.testing.assert_allclose(pops, weights / weights.sum(), atol=1e-10)


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
        name: bath._replace(occupation=0.0)
        for (name, bath), empty in zip(baths.items(), empty_baths)
        if empty
    }
    model = model._replace(g=0.0 if uncoupled else model.g, **emptied)
    dim = model.atom_dim * (n_max + 1)
    cells, inside = build_sector_liouvillian(model, [model.n_h], [n_max])
    assert cells.dtype == np.float64
    block, rows, cols = sector_block_csc(cells, inside)
    full = build_liouvillian(model, n_max).tocsc()
    t, w, op_rows, op_cols = slot_map(rows, cols, n_max + 1)
    inside = op_rows * dim + op_cols
    # the block is the full generator restricted to the block's operators,
    # in the real unknowns x = T u with the rows W picks, and that is real
    restricted = (w @ full[inside][:, inside] @ t).toarray()
    scale = np.abs(full).max()
    assert np.abs(restricted.real - block.toarray()).max() <= 1e-12 * scale
    assert np.abs(restricted.imag).max() <= 1e-12 * scale
    # and no block column leaks outside the block
    outside = np.setdiff1d(np.arange(dim**2), inside)
    assert not np.any(full[outside][:, inside].data)
    if four and uncoupled and empty_baths[0] and empty_baths[2]:
        # nothing leaves |e2, 0> and nothing reaches it from |g, 0>: the
        # steady state is not unique
        with pytest.raises(SteadyStateError):
            solve_model(model, n_max=n_max)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small cutoffs leave tail mass
        result = solve_model(model, n_max=n_max)
    reference = steady_state(full).state
    state = dense_state(result)
    assert np.abs(state - reference).max() < 1e-10
    # the block's P_n is the partial trace of its dense form, bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small cutoffs leave tail mass
        traced = photon_distribution(state, model.atom_dim)
    assert np.array_equal(result.distribution.probabilities, traced.probabilities)


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    four=st.booleans(),
    n_max=st.integers(1, 8),
    empty_baths=st.lists(st.booleans(), min_size=3, max_size=3),
    uncoupled=st.booleans(),
)
def test_steady_state_is_real_up_to_photon_parity(seed, four, n_max, empty_baths, uncoupled):
    # the coupling changes sign under Z = (-1)^N and every jump is real, so
    # rho* and Z rho Z obey the same master equation: a unique steady state
    # has rho* = Z rho Z, and <e1, n + 1|rho|e2, n> = i y with y real
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    names = ("hot", "cold", "ancilla")[: 3 if four else 2]
    emptied = {
        name: getattr(model, name)._replace(occupation=0.0)
        for name, empty in zip(names, empty_baths)
        if empty
    }
    model = model._replace(g=0.0 if uncoupled else model.g, **emptied)
    assume(not (four and uncoupled and empty_baths[0] and empty_baths[2]))  # not unique
    rho = steady_state(build_liouvillian(model, n_max)).state
    size = np.abs(rho).max()
    fock, n = n_max + 1, np.arange(n_max)
    coherences = rho[fock + n + 1, 2 * fock + n]
    assert np.abs(coherences.real).max() <= 1e-12 * size
    parity = (-1.0) ** (np.arange(len(rho)) % fock)
    assert np.abs(rho.conj() - parity[:, np.newaxis] * rho * parity).max() <= 1e-12 * size


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    four=st.booleans(),
    cutoffs=st.lists(st.integers(1, 12), min_size=2, max_size=2, unique=True).map(sorted),
    empty_baths=st.lists(st.booleans(), min_size=3, max_size=3),
    uncoupled=st.booleans(),
)
def test_sector_block_nests_in_a_larger_cutoff(seed, four, cutoffs, empty_baths, uncoupled):
    # the block at cutoff N < M is the M-block on rungs 0..N + 1 and on the
    # slots with both photon numbers at most N, bit for bit, so a batch's
    # entries can be found once, at its largest cutoff
    small, large = cutoffs
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    names = ("hot", "cold", "ancilla")[: 3 if four else 2]
    emptied = {
        name: getattr(model, name)._replace(occupation=0.0)
        for name, empty in zip(names, empty_baths)
        if empty
    }
    model = model._replace(g=0.0 if uncoupled else model.g, **emptied)
    cells, (inside,) = build_sector_liouvillian(model, [model.n_h], [small])
    wide_cells, (wide_inside,) = build_sector_liouvillian(model, [model.n_h], [large])
    bands, wide = dense_bands(cells), dense_bands(wide_cells)
    rungs = small + 2
    # the same slots, less those with a photon number past N
    rows, _ = slot_operators(inside.shape, small)
    assert np.array_equal(inside, wide_inside[:rungs] & (rows >= 0))
    # band b of rung r acts on rung r + b - 1
    edge = np.zeros((1, inside.shape[1]), dtype=bool)
    padded = np.concatenate([edge, inside, edge])
    reach = np.stack([padded[:-2], inside, padded[2:]], axis=1)
    kept = inside[:, np.newaxis, :, np.newaxis] & reach[:, :, np.newaxis, :]
    restricted = np.where(kept, wide[0, :rungs], 0.0)
    assert np.array_equal(restricted.view(np.uint64), bands[0].view(np.uint64))


@settings(deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    four=st.booleans(),
    cutoffs=st.lists(st.integers(1, 12), min_size=2, max_size=5, unique=True),
)
def test_batch_assembles_each_point_as_alone(seed, four, cutoffs):
    # one engine at several hot occupations and distinct cutoffs in one
    # call: each point's cells on its own rungs and slots, and its slots,
    # are those of its own model assembled alone, bit for bit; past them
    # the cells are 0 and no slot is inside
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    n_h = rng.uniform(0.0, 5.0, len(cutoffs))
    cells, inside = build_sector_liouvillian(model, n_h, cutoffs)
    width = model.atom_dim + 1
    assert cells.shape == (len(cutoffs), max(cutoffs) + 2, width**2 + width + 2)
    assert inside.shape == cells.shape[:2] + (width,)
    for p, (occupation, n_max) in enumerate(zip(n_h.tolist(), cutoffs)):
        point = with_hot_occupation(model, occupation)
        alone, (alone_inside,) = build_sector_liouvillian(point, [point.n_h], [n_max])
        rungs = n_max + 2
        padded = np.zeros_like(cells[p])
        padded[:rungs] = alone[0]
        assert np.array_equal(cells[p].view(np.uint64), padded.view(np.uint64))
        assert np.array_equal(inside[p, :rungs], alone_inside) and not inside[p, rungs:].any()


@pytest.mark.parametrize("atom_dim", [3, 4])
def test_cell_table_names_each_band_entry_once(atom_dim):
    # the m x m same-rung block row-major, the upper band's diagonal, its
    # one cell in row LOWER_COLUMN of column e2, and the lower band's one
    # cell in row e2 of column LOWER_COLUMN: no (band, row, col) twice
    table, width = RUNG_CELLS[atom_dim], atom_dim + 1
    column, e2 = LOWER_COLUMN[atom_dim], SLOT_OF[LEVEL_E2, LEVEL_E2]
    assert len(table) == width**2 + width + 2
    assert len({tuple(entry) for entry in table.tolist()}) == len(table)
    rows, cols = np.divmod(np.arange(width**2), width)
    assert np.array_equal(table[: width**2], np.stack([np.ones_like(rows), rows, cols], axis=1))
    slots = np.arange(width)
    assert np.array_equal(table[width**2 : -2], np.stack([2 + 0 * slots, slots, slots], axis=1))
    assert table[-2].tolist() == [2, column, e2] and table[-1].tolist() == [0, e2, column]
    assert np.array_equal(CELL_OF[atom_dim][tuple(table.T)], np.arange(len(table)))
    assert np.count_nonzero(CELL_OF[atom_dim] >= 0) == len(table)


@pytest.mark.parametrize("n_max", [1, 2, 5])
def test_dark_state_is_the_unique_steady_state(n_max):
    # four levels, g = 0 and an empty ancilla: nothing leaves |e2, 0>, and the
    # hot bath feeds it from every other level, so it is the steady state
    model = make_fig5_model(n_a=0.0, g=0.0)
    fock = n_max + 1
    dark = np.zeros((4 * fock, 4 * fock), dtype=complex)
    dark[2 * fock, 2 * fock] = 1.0
    result = solve_model(model, n_max=n_max)
    assert np.abs(dense_state(result) - dark).max() < 1e-12
    reference = steady_state(build_liouvillian(model, n_max))
    assert np.abs(reference.state - dark).max() < 1e-12


def test_empty_hot_and_ancilla_baths():
    # with the coupling on, |e2, 0> emits into |e1, 1>: unique and solvable
    coupled = make_fig5_model(n_h=0.0, n_a=0.0)
    result = solve_model(coupled, n_max=4)
    reference = steady_state(build_liouvillian(coupled, 4)).state
    assert np.abs(dense_state(result) - reference).max() < 1e-10
    # with it off, |e2, 0> and the thermal g/e1 pair are two steady states
    with pytest.raises(SteadyStateError):
        solve_model(make_fig5_model(n_h=0.0, n_a=0.0, g=0.0), n_max=4)
