import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import splu
from scipy.special import eval_laguerre

import heatlaser.core
import heatlaser.solver
from heatlaser import (
    BathSpec,
    HilbertSpace,
    PhotonDistribution,
    TruncationError,
    build_four_level,
    build_liouvillian,
    partial_trace_atom,
    photon_distribution,
    scully_lamb_coefficients,
    solve_model,
    steady_distribution,
    steady_state,
    wigner,
    with_hot_occupation,
)
from heatlaser.core import (
    LEVEL_E1,
    LEVEL_E2,
    SLOT_OF,
    build_cavity_operators,
    build_sector_liouvillian,
)
from heatlaser.solver import (
    BATCH_RUNGS,
    EXACT_COLUMNS,
    MAX_N_MAX,
    SteadyStateError,
    exact_grid,
)

from conftest import (
    dense_state,
    make_fig2_model,
    make_fig5_model,
    random_four_level,
    random_three_level,
    sector_block_csc,
    slot_map,
)
from reference import check_density_matrix, evolve, expectation


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


def test_separate_closed_classes_are_not_unique():
    # no hot bath and no coupling: {g, e1} and {e2, e3} each hold a steady
    # state, and round-off leaves the rung sweep no exactly zero pivot here
    model = build_four_level(
        BathSpec(0.0, 0.5), BathSpec(32.0, 0.05), BathSpec(32.0, 0.3), 0.0, 1.0
    )
    with pytest.raises(SteadyStateError, match="not unique"):
        solve_model(model, n_max=2)


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
    numeric = expectation(dense_state(space, result), a_dag @ a).real
    analytic = steady_distribution(scully_lamb_coefficients(model)).mean
    assert abs(numeric - analytic) / numeric < 0.05


def test_steady_cavity_state_is_diagonal_and_positive():
    with pytest.warns(UserWarning, match="tail"):  # the fig2 point needs n_max > 16
        solved = [
            solve_model(model, n_max=16)
            for model in (make_fig2_model(n_h=0.6), make_fig5_model(n_h=0.3))
        ]
    for space, result in solved:
        state = dense_state(space, result)
        check_density_matrix(state)
        reduced = partial_trace_atom(state, space)
        off = reduced - np.diag(np.diag(reduced))
        assert np.abs(off).max() < 1e-9


def test_analytic_numeric_gap_shrinks_with_kappa():
    # the adiabatic elimination becomes exact as kappa / gamma -> 0
    gaps = []
    for kappa in (1.0, 0.5):
        model = make_fig2_model(n_h=1.0, kappa=kappa)
        space, result = solve_model(model, n_max=40)
        numeric = result.distribution
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
    chosen = result.distribution
    assert chosen.probabilities[-1] < 1e-8
    _, wide = solve_model(model, n_max=space.n_max + 30)
    wider = wide.distribution
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
    assert 1 <= space.n_max <= MAX_N_MAX
    assert result.distribution.probabilities[-1] < 1e-8
    # the closed form's support is the cutoff: its first rung past the peak
    # below 1e-12
    closed = steady_distribution(scully_lamb_coefficients(model))
    assert space.n_max == closed.n_max
    p = closed.probabilities
    assert p[closed.n_max] < 1e-12
    assert np.all(p[closed.peak_index : closed.n_max] >= 1e-12)


def test_solve_model_builds_no_dense_operators(monkeypatch):
    def embed(*args):
        raise AssertionError("built a dense (A F) x (A F) atom operator")

    monkeypatch.setattr(heatlaser.core, "build_atom_operators", embed)
    for model in (make_fig2_model(), make_fig5_model()):
        _, result = solve_model(model)
        assert result.distribution.probabilities[-1] < 1e-8


@pytest.mark.parametrize(
    "model, n_max",
    [(make_fig5_model(kappa=1 / 32), 199), (make_fig2_model(kappa=0.06), 176)],
)
def test_rung_sweep_matches_sparse_lu_at_large_cutoff(model, n_max):
    space, result = solve_model(model)
    assert space.n_max == n_max
    # the same block scattered to CSC, solved by LU with the equation of
    # |g, 0><g, 0| replaced by the trace row
    block, rows, cols = sector_block_csc(
        *build_sector_liouvillian(model, [model.n_h], [space.n_max])
    )
    assert block.dtype == np.float64
    ground = int(np.flatnonzero((rows == 0) & (cols == 0))[0])
    populations = np.flatnonzero(rows == cols)
    block = block.tolil()
    block[ground, :] = 0.0
    block[ground, populations] = 1.0
    rhs = np.zeros(rows.size)
    rhs[ground] = 1.0
    x = splu(block.tocsc()).solve(rhs)
    photons = rows[populations] % space.fock_dim
    reference = np.bincount(photons, weights=x[populations], minlength=space.fock_dim)
    numeric = result.distribution.probabilities
    assert np.abs(numeric - reference / reference.sum()).max() <= 1e-12


def test_large_point_solves_in_block_form():
    # fig5 at kappa / 32 and n_h = 5 holds about 230 photons: the automatic
    # cutoff is 341, and the state stays in block form, O(n_max) in memory
    model = make_fig5_model(n_h=5.0, kappa=1 / 32)
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no tail warning either
            space, result = solve_model(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.n_max == 341
    # one dense (4 x 342)^2 complex state alone takes 29.9 MB; the block
    # solve peaks near 3.2 MB
    assert peak < 4e6
    _, wide = solve_model(model, n_max=space.n_max + 30)
    assert result.distribution.mean == pytest.approx(wide.distribution.mean, rel=1e-8)
    assert result.distribution.variance == pytest.approx(wide.distribution.variance, rel=1e-8)


def test_solve_model_reports_stall():
    with pytest.raises(SteadyStateError, match="stalled") as err:
        solve_model(make_fig2_model(n_h=1.0), tol=1e-30)
    assert err.value.best_residual is not None and err.value.best_residual > 0


def test_stall_reports_the_scale_of_the_complex_block():
    # at g = 30 and slow baths the coupling g sqrt(n) is the largest |L_ij|,
    # far above every diagonal entry; the real block's coherence column sums
    # both partners and carries 2 g sqrt(n), and the gate keeps the former
    model, n_max, tol = make_fig2_model(g=30.0, gamma=1.0), 6, 1e-30
    space = HilbertSpace.for_model(model, n_max)
    bands, inside = build_sector_liouvillian(model, [model.n_h], [n_max])
    _, rows, cols = sector_block_csc(bands, inside)
    _, _, op_rows, op_cols = slot_map(rows, cols, space.fock_dim)
    inside = op_rows * space.total_dim + op_cols
    block = build_liouvillian(model, space).tocsc()[inside][:, inside]
    scale = np.abs(block).max()
    assert np.abs(bands).max() == pytest.approx(2.0 * scale, rel=1e-15)
    assert 2.0 * np.abs(block.diagonal()).max() < scale
    with pytest.raises(SteadyStateError, match="stalled") as err:
        solve_model(model, n_max=n_max, tol=tol)
    assert str(err.value).endswith(f"max|L_ij| = {tol * scale:.3e}")


def _assert_solo(model, grid, cutoffs, solved, points=None):
    # each point of an exact_grid, by default every one, is bit for bit the
    # solve_model of its engine at its cutoff: its row, its columns and its
    # residual, or else the message of the error that solve_model raises
    columns, rows, failures = solved
    for k in range(len(grid)) if points is None else points:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the tail warning, asserted apart
                _, solo = solve_model(with_hot_occupation(model, grid[k]), n_max=cutoffs[k])
        except (SteadyStateError, TruncationError) as exc:
            assert failures[k] == str(exc) and rows[k] is None
            assert all(math.isnan(columns[name][k]) for name in EXACT_COLUMNS)
            continue
        numeric = solo.distribution
        assert failures[k] is None
        assert np.array_equal(rows[k], numeric.probabilities)
        assert columns["mean_numeric"][k] == numeric.mean
        assert columns["variance_numeric"][k] == numeric.variance
        fano = columns["fano_numeric"][k]
        assert fano == numeric.fano or (math.isnan(fano) and math.isnan(numeric.fano))
        assert columns["tail"][k] == numeric.probabilities[-1]
        assert columns["residual"][k] == solo.residual


def test_batch_at_the_cutoff_bound_stays_small():
    # 16 four-level points at n_max 1000: the bands are pinned in place, so
    # the batch holds its real bands once (9.6 MB), and the traced peak is
    # 14.9 MB, in the rung sweep; holding them twice in complex form took
    # 74.2 MB, and the dense Fock indices of every slot another 1.3 MB.  At
    # cutoffs from 500 to 1000 it is 14.9 MB too: only the pinned population
    # rows are saved, and a slot past a point's cutoff gets just a unit
    # diagonal
    model, grid = make_fig5_model(), np.linspace(0.5, 5.0, 16)
    mixed = np.linspace(500, MAX_N_MAX, len(grid)).astype(int).tolist()
    for cutoffs in ([MAX_N_MAX] * len(grid), mixed):
        tracemalloc.start()
        try:
            solved = exact_grid(model, grid, cutoffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solved[2] == [None] * len(grid)
        assert peak < 25e6
        _assert_solo(model, grid, cutoffs, solved)


def _flow_balance_miss(model):
    # the photon flow across each edge n - 1 -> n, read off the rungs: the
    # cavity's loss kappa n P_n against the coupling's gain -2 g sqrt(n) y_n,
    # with i y_n the coherence <e1, n|rho|e2, n - 1> of rung n; returns the
    # largest miss relative to the largest term
    space, result = solve_model(model)
    n = np.arange(1, space.fock_dim)
    loss = model.kappa * n * result.distribution.probabilities[1:]
    gain = -2.0 * model.g * np.sqrt(n) * result.rungs[n, SLOT_OF[LEVEL_E1, LEVEL_E2]]
    return np.abs(loss - gain).max() / max(loss.max(), np.abs(gain).max())


@pytest.mark.parametrize("model", [make_fig2_model(n_h=2.0), make_fig5_model(n_h=5.0)])
def test_exact_flow_balances_on_every_edge(model):
    assert _flow_balance_miss(model) <= 1e-12


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), four=st.booleans())
def test_exact_flow_balances_on_random_engines(seed, four):
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    assert _flow_balance_miss(model) <= 1e-12


def test_cutoff_above_bound_raises_before_assembly(monkeypatch):
    def assemble(*args):
        raise AssertionError("assembled a block past the cutoff bound")

    monkeypatch.setattr(heatlaser.solver, "build_sector_liouvillian", assemble)
    # kappa = 0.002: the closed form holds its 1e-12 tail only past 3000 rungs
    with pytest.raises(TruncationError, match=r"needs n_max = \d+ > 1000"):
        solve_model(make_fig2_model(kappa=0.002))
    # the bound holds for an explicit cutoff too
    with pytest.raises(TruncationError, match=r"needs n_max = 1001 > 1000"):
        solve_model(make_fig2_model(), n_max=MAX_N_MAX + 1)


def _auto_cutoff(model):
    return steady_distribution(scully_lamb_coefficients(model)).n_max


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), four=st.booleans(), points=st.integers(1, 4))
def test_batch_solves_each_point_as_a_solo_solve(seed, four, points):
    # one engine at several hot occupations of mixed cutoffs in one call,
    # with n_h = 0, where the pump is off (A = 0, n_max 1)
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    grid = rng.uniform(0.01, 5.0, points).tolist()
    grid.insert(int(rng.integers(len(grid) + 1)), 0.0)
    cutoffs = [_auto_cutoff(with_hot_occupation(model, n_h)) for n_h in grid]
    assert 1 in cutoffs
    solved = exact_grid(model, grid, cutoffs)
    assert solved[2] == [None] * len(grid)
    assert [row.size - 1 for row in solved[1]] == cutoffs
    _assert_solo(model, grid, cutoffs, solved)


def test_singular_point_fails_alone(monkeypatch):
    # four levels, g = 0 and an empty ancilla: at every n_h > 0 the steady
    # state is the dark |e2, 0><e2, 0|.  Pinned at |g, 0>, which it leaves
    # empty, the point at n_h = 1 has a singular system, in the batch and
    # alone; the other keeps its own pin, e2
    dark = make_fig5_model(n_a=0.0, g=0.0)
    grid, cutoffs = [0.5, 1.0], [2, 3]
    pinned = heatlaser.solver._pinned_levels

    def pin_ground_at_one(model, n_h):
        return [0 if h == 1.0 else pin for h, pin in zip(n_h.tolist(), pinned(model, n_h))]

    monkeypatch.setattr(heatlaser.solver, "_pinned_levels", pin_ground_at_one)
    solved = exact_grid(dark, grid, cutoffs)
    assert solved[2][0] is None
    assert solved[2][1].startswith("rung sweep failed")
    _assert_solo(dark, grid, cutoffs, solved)


def test_batch_keeps_warnings_and_failures_per_point():
    # explicit cutoffs far too small: each point warns of its own tail, in
    # point order, and its state is that of a solo solve, bit for bit
    fig2, grid, cutoffs = make_fig2_model(), [1.0, 3.0], [3, 5]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solved = exact_grid(fig2, grid, cutoffs)
    assert [str(w.message).split(" = ")[0] for w in caught] == ["tail P[3]", "tail P[5]"]
    # each warning points at the line that called exact_grid
    assert all(w.filename == __file__ for w in caught)
    for n_h, n_max in zip(grid, cutoffs):
        with pytest.warns(UserWarning, match=rf"tail P\[{n_max}\]"):
            solve_model(with_hot_occupation(fig2, n_h), n_max=n_max)
    _assert_solo(fig2, grid, cutoffs, solved)
    # four levels, g = 0 and an empty ancilla: at n_h = 0 nothing reaches
    # e3, so {g, e1} and {e2} each hold a steady state, and that point fails
    # alone; its neighbours sit in the dark |e2, 0>
    dark, grid, cutoffs = make_fig5_model(n_a=0.0, g=0.0), [0.5, 0.0, 1.0], [2, 2, 2]
    solved = exact_grid(dark, grid, cutoffs)
    assert solved[2][1] == (
        "the steady state is not unique: levels [0, 1, 2] at n = 0 fall into separate closed classes"
    )
    for n_h in grid[::2]:
        space, solo = solve_model(with_hot_occupation(dark, n_h), n_max=2)
        e2 = 2 * space.fock_dim  # |e2, 0>
        assert dense_state(space, solo)[e2, e2] == pytest.approx(1.0, rel=0.0, abs=1e-12)
    _assert_solo(dark, grid, cutoffs, solved)


def test_solve_model_warns_at_its_caller():
    # the tail warning points at the line that called solve_model, as it
    # points at the line that called exact_grid
    with pytest.warns(UserWarning, match=r"tail P\[3\]") as caught:
        solve_model(make_fig2_model(), n_max=3)
    assert [w.filename for w in caught] == [__file__]


def test_invalid_occupations_fail_alone(monkeypatch):
    # a negative, NaN or infinite n_h gets its own ValueError, naming it,
    # and is never assembled; its neighbours get their solo solves, bit for
    # bit
    fig2 = make_fig2_model()
    grid = [1.0, math.nan, -1.0, math.inf, 2.0]
    low, high = (_auto_cutoff(with_hot_occupation(fig2, n_h)) for n_h in (1.0, 2.0))
    cutoffs = [low, 5, 5, 5, high]
    assembled = []
    assemble = heatlaser.solver.build_sector_liouvillian

    def counted(model, n_h, n_maxes):
        assembled.append(n_h.tolist())
        return assemble(model, n_h, n_maxes)

    monkeypatch.setattr(heatlaser.solver, "build_sector_liouvillian", counted)
    solved = exact_grid(fig2, grid, cutoffs)
    assert assembled == [[1.0, 2.0]]
    columns, rows, failures = solved
    for k in (1, 2, 3):
        assert failures[k] == f"hot bath occupation must be finite and >= 0, got {grid[k]}"
        assert rows[k] is None
        assert all(math.isnan(columns[name][k]) for name in EXACT_COLUMNS)
    _assert_solo(fig2, grid, cutoffs, solved, points=(0, 4))
    # the builder refuses them too: NaN would pass a check of the rates < 0
    with pytest.raises(ValueError, match="must be finite and >= 0, got nan"):
        build_sector_liouvillian(fig2, [1.0, math.nan], [3, 3])


def test_exact_grid_keeps_order_across_batches(monkeypatch):
    # one point at n_max 40 and 15 at n_max 1000 fill the budget exactly; the
    # point past the cutoff bound comes next and does not count, and the one
    # after it, a 17th at a largest cutoff of 1000, opens a second batch,
    # although its own 40 would fit; every cutoff lies far above the point's
    # own, so no tail warning fires
    fig2, grid = make_fig2_model(), np.linspace(0.5, 3.0, 19)
    cutoffs = [40] + [MAX_N_MAX] * 15 + [MAX_N_MAX + 1, 40, 40]
    assert 16 * (MAX_N_MAX + 2) == BATCH_RUNGS
    batches = []
    assemble = heatlaser.solver.build_sector_liouvillian

    def counted(model, n_h, n_maxes):
        batches.append(n_h.tolist())
        return assemble(model, n_h, n_maxes)

    monkeypatch.setattr(heatlaser.solver, "build_sector_liouvillian", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = exact_grid(fig2, grid, cutoffs)
    assert batches == [grid[:16].tolist(), grid[17:].tolist()]
    assert all(len(column) == len(grid) for column in solved[0].values())
    assert len(solved[1]) == len(solved[2]) == len(grid)
    assert solved[2][16] == f"cutoff needs n_max = {MAX_N_MAX + 1} > {MAX_N_MAX}"
    _assert_solo(fig2, grid, cutoffs, solved)


@pytest.mark.parametrize("make_model", [make_fig2_model, make_fig5_model])
def test_batch_sweeps_each_point_over_its_own_rungs(make_model, monkeypatch):
    # one batch of unsorted cutoffs from 1 to 1000, with the pump off at
    # n_h = 0: each point comes back in grid order, bit for bit its solo
    # solve, and the stacked rung solves take sum(cutoff + 2) matrices, not
    # points x (largest cutoff + 2)
    model = make_model()
    grid, cutoffs = [1e-4, 2.0, 0.0, 0.5, 5.0], [5, 1000, 1, 40, 300]
    assert len(grid) * (max(cutoffs) + 2) <= BATCH_RUNGS
    matrices = []
    solve = np.linalg.solve

    def counted(a, b):
        matrices.append(len(a))
        return solve(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "solve", counted)
        solved = exact_grid(model, grid, cutoffs)
    assert sum(matrices) == sum(n_max + 2 for n_max in cutoffs)
    assert len(matrices) == max(cutoffs) + 2
    assert solved[2] == [None] * len(grid)
    _assert_solo(model, grid, cutoffs, solved)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), four=st.booleans(), points=st.integers(1, 4))
def test_exact_grid_is_solve_model_as_columns(seed, four, points):
    # the columns of every point equal, bit for bit, what its solo state and
    # distribution give, in grid order, with the pump off at n_h = 0, an
    # invalid n_h and a cutoff past the bound failing alone
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    grid = [*rng.uniform(0.01, 5.0, points).tolist(), 0.0, -1.0, 1.0]
    cutoffs = [_auto_cutoff(with_hot_occupation(model, n_h)) for n_h in grid[:-2]]
    cutoffs += [3, MAX_N_MAX + 1]
    solved = exact_grid(model, grid, cutoffs)
    columns, rows, failures = solved
    assert failures[-2] == "hot bath occupation must be finite and >= 0, got -1.0"
    assert rows[-2] is None and all(math.isnan(columns[name][-2]) for name in EXACT_COLUMNS)
    assert failures[-1] == f"cutoff needs n_max = {MAX_N_MAX + 1} > {MAX_N_MAX}"
    _assert_solo(model, grid, cutoffs, solved, points=[*range(points + 1), points + 2])


# ---------------------------------------------------------------------------
# Wigner
# ---------------------------------------------------------------------------

def test_wigner_vacuum_and_single_photon():
    vacuum = PhotonDistribution(np.eye(12)[0])
    with pytest.warns(UserWarning, match="grid radius"):  # a one-point grid
        field = wigner(vacuum, np.array([0.0]), np.array([0.0]))
    assert field.values[0, 0] == pytest.approx(2.0 / math.pi, rel=1e-12)
    one = PhotonDistribution(np.eye(12)[1])
    with pytest.warns(UserWarning, match="grid radius"):
        field = wigner(one, np.array([0.0]), np.array([0.0]))
    assert field.values[0, 0] == pytest.approx(-2.0 / math.pi, rel=1e-12)


def test_wigner_matches_laguerre_form():
    # diagonal states: W(a) = (2/pi) sum_n p_n (-1)^n exp(-2 r^2) L_n(4 r^2)
    rng = np.random.default_rng(3)
    p = rng.uniform(0.2, 1.0, 6)
    p /= p.sum()
    axis = np.linspace(-2.5, 2.5, 7)
    field = wigner(PhotonDistribution(np.concatenate([p, np.zeros(18)])), axis, axis)
    for iy, y in enumerate(axis):
        for ix, x in enumerate(axis):
            r2 = x * x + y * y
            expected = (2.0 / math.pi) * math.exp(-2.0 * r2) * sum(
                pn * (-1.0) ** n * eval_laguerre(n, 4.0 * r2)
                for n, pn in enumerate(p)
            )
            assert field.values[iy, ix] == pytest.approx(expected, abs=1e-10)


def test_wigner_runs_once_per_radius_bit_for_bit():
    # wigner runs its recurrence on the distinct u = 4|a|^2 of the grid only;
    # every point must equal, bit for bit, the recurrence run on the whole grid
    def full_grid(p, re_axis, im_axis):
        u = 4.0 * np.abs(re_axis[np.newaxis, :] + 1j * im_axis[:, np.newaxis]) ** 2
        band = p * (-1.0) ** np.arange(p.size)
        prev, cur = np.zeros_like(u), np.exp(-0.5 * u)
        total = band[0] * cur
        for m in range(p.size - 1):
            prev, cur = cur, ((2 * m + 1 - u) * cur - m * prev) / (m + 1)
            total = total + band[m + 1] * cur
        return (2.0 / math.pi) * total

    _, result = solve_model(make_fig2_model(n_h=2.0))
    rng = np.random.default_rng(5)
    p = rng.uniform(0.0, 1.0, 9)
    grids = [
        (np.linspace(-2.0, 3.0, 11), np.array([-1.0, 0.0, 0.5, 1.0, 1.0])),  # u repeats
        (np.array([0.3]), np.array([-0.7])),
        (None, None),  # the default 101 x 101 grid
    ]
    for distribution in (result.distribution, PhotonDistribution(p / p.sum())):
        for re_axis, im_axis in grids:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a grid radius below the state's
                field = wigner(distribution, re_axis, im_axis)
            assert field.values.shape == (field.im_axis.size, field.re_axis.size)
            expected = full_grid(distribution.probabilities, field.re_axis, field.im_axis)
            assert np.array_equal(field.values, expected)
        assert field.values.shape == (101, 101)  # the default grid, last


def test_wigner_of_steady_state():
    model = make_fig2_model(n_h=0.507)
    space, result = solve_model(model, n_max=30)
    rho = dense_state(space, result)
    cavity = photon_distribution(rho, space)
    axis = np.linspace(-4.0, 4.0, 41)
    field = wigner(cavity, axis, axis)
    # W(a) = (2/pi) tr[rho D(a) P D+(a)] of the whole reduced state, with
    # D(a) = exp(a a+ - a* a) by expm on a Fock space padded well past the
    # cutoff (parity P = (-1)^n), at grid points off both axes
    reduced = partial_trace_atom(rho, space)
    fock, padded = space.fock_dim, space.fock_dim + 90
    lower = np.diag(np.sqrt(np.arange(1, padded, dtype=float)), 1)
    parity = (-1.0) ** np.arange(padded)
    for ix, iy in [(24, 27), (13, 30), (29, 12), (17, 18)]:
        alpha = complex(axis[ix], axis[iy])
        assert alpha.real != 0.0 and alpha.imag != 0.0
        shift = expm(alpha * lower.T - alpha.conjugate() * lower)[:fock]
        parity_at_alpha = (shift * parity) @ shift.conj().T
        reference = (2.0 / math.pi) * np.trace(reduced @ parity_at_alpha).real
        assert abs(field.values[iy, ix] - reference) <= 1e-9
    # convention bound and normalization
    assert field.values.min() >= -2.0 / math.pi - 1e-9
    dx = axis[1] - axis[0]
    norm = field.values.sum() * dx * dx
    assert norm == pytest.approx(1.0, abs=0.02)


def test_wigner_warns_on_small_grid():
    p = np.exp(-np.arange(30) / 4.0)
    p /= p.sum()  # mean ~ 3.5
    with pytest.warns(UserWarning, match="grid radius"):
        wigner(PhotonDistribution(p), np.array([0.5]), np.array([0.0]))
