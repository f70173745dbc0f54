import itertools
import math
import tracemalloc
import warnings
import weakref

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
    LOWER_COLUMN,
    RUNG_CELLS,
    SLOT_OF,
    build_sector_liouvillian,
)
from heatlaser.photonstats import BATCH_RUNGS
from heatlaser.solver import (
    EXACT_COLUMNS,
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
from reference import check_density_matrix, evolve, expectation, number_operator


def fock_state(atom_dim, n_max, atom_index, n):
    dim = atom_dim * (n_max + 1)
    rho = np.zeros((dim, dim), dtype=complex)
    idx = atom_index * (n_max + 1) + n
    rho[idx, idx] = 1.0
    return rho


def test_steady_state_pure_decay():
    model = make_fig2_model(n_h=0.0, n_c=0.0, g=0.0)
    result = steady_state(build_liouvillian(model, 5))
    assert result.method == "nullspace"
    assert result.residual < 1e-12
    np.testing.assert_allclose(result.state, fock_state(3, 5, 0, 0), atol=1e-10)


def test_steady_state_reports_stall():
    model = make_fig2_model(n_h=1.0)
    liouv = build_liouvillian(model, 10)
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
    zero = sp.csr_matrix((15**2, 15**2), dtype=complex)
    rho0 = fock_state(3, 4, 1, 2)
    np.testing.assert_array_equal(evolve(zero, rho0, 1.0), rho0)

    # bare cavity decay: <n>(t) = exp(-kappa t) starting from one photon
    bare = make_fig2_model(n_h=0.0, n_c=0.0, g=0.0, gamma=0.0)
    liouv = build_liouvillian(bare, 3)
    rho0 = fock_state(3, 3, 0, 1)
    number = number_operator(3, 3)
    for t in (0.5, 1.0, 2.0):
        rho_t = evolve(liouv, rho0, t)
        mean = expectation(rho_t, number).real
        assert mean == pytest.approx(math.exp(-t), abs=1e-6)


def test_evolve_rejects_bad_arguments():
    model = make_fig2_model()
    liouv = build_liouvillian(model, 6)
    with pytest.raises(ValueError):
        evolve(liouv, fock_state(3, 6, 0, 0), -1.0)
    with pytest.raises(ValueError):
        evolve(liouv, np.eye(3 * 7 - 1, dtype=complex), 1.0)


def test_evolve_reaches_steady_state():
    model = make_fig2_model(n_h=0.4)
    liouv = build_liouvillian(model, 12)
    target = steady_state(liouv).state
    rho = evolve(liouv, fock_state(3, 12, 0, 0), 30.0)
    assert np.abs(rho - target).max() < 1e-7


def test_partial_trace():
    rng = np.random.default_rng(7)
    atom = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    atom = atom @ atom.conj().T
    atom /= np.trace(atom)
    cav = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    cav = cav @ cav.conj().T
    cav /= np.trace(cav)
    product = np.kron(atom, cav)
    np.testing.assert_allclose(partial_trace_atom(product, 3), cav, atol=1e-14)
    assert np.trace(partial_trace_atom(product, 3)) == pytest.approx(
        np.trace(product).real
    )
    with pytest.raises(ValueError):
        partial_trace_atom(product, 4)


def test_photon_distribution_index_conventions():
    model = make_fig2_model(n_h=0.6)
    fock = 15
    rho = steady_state(build_liouvillian(model, fock - 1)).state
    with pytest.warns(UserWarning, match=r"tail P\[14\] = .* above 1e-8"):
        dist = photon_distribution(rho, 3)
    manual = np.array(
        [sum(rho[alpha * fock + n, alpha * fock + n].real for alpha in range(3)) for n in range(fock)]
    )
    np.testing.assert_allclose(dist.probabilities, manual / manual.sum(), atol=1e-12)


def test_photon_distribution_vacuum():
    model = make_fig2_model(n_h=0.0, n_c=0.0, g=0.0)
    rho = steady_state(build_liouvillian(model, 4)).state
    dist = photon_distribution(rho, 3)
    assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def test_expectation_basics():
    rho = fock_state(3, 3, 0, 0)
    eye = np.eye(12, dtype=complex)
    assert expectation(rho, eye) == pytest.approx(1.0)
    assert expectation(rho, number_operator(3, 3)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        expectation(rho, np.eye(5, dtype=complex))


def test_expectation_real_for_hermitian():
    model = make_fig2_model(n_h=0.7)
    rho = steady_state(build_liouvillian(model, 10)).state
    value = expectation(rho, number_operator(3, 10))
    assert abs(value.imag) < 1e-12


def test_mean_photon_number_against_theory():
    model = make_fig2_model(n_h=1.0)
    result = solve_model(model, n_max=40)
    numeric = expectation(dense_state(result), number_operator(3, 40)).real
    analytic = steady_distribution(scully_lamb_coefficients(model)).mean
    assert abs(numeric - analytic) / numeric < 0.05


def test_steady_cavity_state_is_diagonal_and_positive():
    with pytest.warns(UserWarning, match="tail"):  # the fig2 point needs n_max > 16
        models = (make_fig2_model(n_h=0.6), make_fig5_model(n_h=0.3))
        solved = [solve_model(model, n_max=16) for model in models]
    for model, result in zip(models, solved):
        state = dense_state(result)
        check_density_matrix(state)
        reduced = partial_trace_atom(state, model.atom_dim)
        off = reduced - np.diag(np.diag(reduced))
        assert np.abs(off).max() < 1e-9


def test_analytic_numeric_gap_shrinks_with_kappa():
    # the adiabatic elimination becomes exact as kappa / gamma -> 0
    gaps = []
    for kappa in (1.0, 0.5):
        model = make_fig2_model(n_h=1.0, kappa=kappa)
        numeric = solve_model(model, n_max=40).distribution
        # the closed form on its own support (cutoff 29 at kappa 1, 43 at
        # 0.5), cut at the exact cutoff of 40 and renormalised, or padded
        closed = steady_distribution(scully_lamb_coefficients(model)).probabilities
        closed = closed[: numeric.n_max + 1]
        analytic = np.pad(closed / closed.sum(), (0, numeric.n_max + 1 - closed.size))
        gaps.append(np.abs(numeric.probabilities - analytic).sum())
    assert gaps[1] < gaps[0]


def test_solve_model_retries_truncation():
    # the cutoff comes from the closed form up front, so no retry is needed:
    # this point holds ~27 photons and its exact tail needs n_max >= 62
    model = make_fig2_model(n_h=1.87, kappa=0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any tail warning should fail
        chosen = solve_model(model).distribution
    assert chosen.n_max >= 62
    assert chosen.probabilities[-1] < 1e-8
    wide = solve_model(model, n_max=chosen.n_max + 30)
    wider = wide.distribution
    assert chosen.mean == pytest.approx(wider.mean, rel=1e-8)
    assert chosen.variance == pytest.approx(wider.variance, rel=1e-8)
    # an explicit cutoff is used as given, and a heavy tail warns
    with pytest.warns(UserWarning, match="tail"):
        explicit = solve_model(model, n_max=12)
    assert explicit.distribution.n_max == 12


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), four=st.booleans())
def test_closed_form_cutoff_leaves_no_exact_tail(seed, four):
    rng = np.random.default_rng(seed)
    model = random_four_level(rng) if four else random_three_level(rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the tail warning must not fire
        result = solve_model(model)
    assert 1 <= result.distribution.n_max <= BATCH_RUNGS - 2
    assert result.distribution.probabilities[-1] < 1e-8
    # the closed form's support is the cutoff: its first rung past the peak
    # below 1e-12
    closed = steady_distribution(scully_lamb_coefficients(model))
    assert result.distribution.n_max == closed.n_max
    p = closed.probabilities
    assert p[closed.n_max] < 1e-12
    assert np.all(p[np.argmax(p) : closed.n_max] >= 1e-12)


def test_solve_model_builds_no_dense_operators(monkeypatch):
    def full_space(*args):
        raise AssertionError("built the full-space (A F)^2 Liouvillian")

    monkeypatch.setattr(heatlaser.core, "build_liouvillian", full_space)
    for model in (make_fig2_model(), make_fig5_model()):
        result = solve_model(model)
        assert result.distribution.probabilities[-1] < 1e-8


@pytest.mark.parametrize(
    "model, n_max",
    [(make_fig5_model(kappa=1 / 32), 199), (make_fig2_model(kappa=0.06), 176)],
)
def test_rung_sweep_matches_sparse_lu_at_large_cutoff(model, n_max):
    result = solve_model(model)
    assert result.distribution.n_max == n_max
    # the same block scattered to CSC, solved by LU with the equation of
    # |g, 0><g, 0| replaced by the trace row
    block, rows, cols = sector_block_csc(
        *build_sector_liouvillian(model, [model.n_h], [n_max])
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
    photons = rows[populations] % (n_max + 1)
    reference = np.bincount(photons, weights=x[populations], minlength=n_max + 1)
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
            result = solve_model(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.distribution.n_max == 341
    # one dense (4 x 342)^2 complex state alone takes 29.9 MB; the block
    # solve peaks near 0.2 MB traced (0.3 MB with the block as dense bands)
    assert peak < 4e6
    wide = solve_model(model, n_max=result.distribution.n_max + 30)
    assert result.distribution.mean == pytest.approx(wide.distribution.mean, rel=1e-8)
    assert result.distribution.variance == pytest.approx(wide.distribution.variance, rel=1e-8)


def test_solve_model_reports_stall(monkeypatch):
    monkeypatch.setattr(heatlaser.solver, "STEADY_TOL", 1e-30)
    with pytest.raises(SteadyStateError, match="stalled") as err:
        solve_model(make_fig2_model(n_h=1.0))
    assert err.value.best_residual is not None and err.value.best_residual > 0


def test_stall_reports_the_scale_of_the_complex_block(monkeypatch):
    # at g = 30 and slow baths the coupling g sqrt(n) is the largest |L_ij|,
    # far above every diagonal entry; the real block's coherence column sums
    # both partners and carries 2 g sqrt(n), and the gate keeps the former
    model, n_max, tol = make_fig2_model(g=30.0, gamma=1.0), 6, 1e-30
    cells, inside = build_sector_liouvillian(model, [model.n_h], [n_max])
    _, rows, cols = sector_block_csc(cells, inside)
    _, _, op_rows, op_cols = slot_map(rows, cols, n_max + 1)
    inside = op_rows * 3 * (n_max + 1) + op_cols
    block = build_liouvillian(model, n_max).tocsc()[inside][:, inside]
    scale = np.abs(block).max()
    assert np.abs(cells).max() == pytest.approx(2.0 * scale, rel=1e-15)
    assert 2.0 * np.abs(block.diagonal()).max() < scale
    monkeypatch.setattr(heatlaser.solver, "STEADY_TOL", tol)
    with pytest.raises(SteadyStateError, match="stalled") as err:
        solve_model(model, n_max=n_max)
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
                numeric, rungs, residual = solve_model(
                    with_hot_occupation(model, grid[k]), n_max=cutoffs[k]
                )
        except (SteadyStateError, TruncationError) as exc:
            assert failures[k] == str(exc) and rows[k] is None
            assert all(math.isnan(columns[name][k]) for name in EXACT_COLUMNS)
            continue
        # the rungs view the solo batch's solution: dropped, so that a batch
        # wrapper that checks each solution is freed sees this one go
        del rungs
        assert failures[k] is None
        assert np.array_equal(rows[k], numeric.probabilities)
        assert columns["mean_numeric"][k] == numeric.mean
        assert columns["variance_numeric"][k] == numeric.variance
        fano = columns["fano_numeric"][k]
        assert fano == numeric.fano or (math.isnan(fano) and math.isnan(numeric.fano))
        assert columns["tail"][k] == numeric.probabilities[-1]
        assert columns["residual"][k] == residual


def test_batch_at_the_cutoff_bound_stays_small():
    # 16 four-level points at n_max 1000 fill a batch: the block is pinned
    # in place, so the batch holds its real cells once (32 per rung-point,
    # 4.1 MB), and the traced peak is 7.1 MB; as three dense 5 x 5 bands
    # (9.6 MB) it was 12.6 MB, and holding them twice in complex form took
    # 74.2 MB.  At cutoffs from 500 to 1000 it is 7.1 MB too, under the
    # batch's 25 MB gate: only the cells of the pinned rungs are saved, and
    # a slot past a point's cutoff gets just a unit diagonal.  One point at
    # the cutoff bound fills a batch alone, and peaks at 7.4 MB (13.0 MB as
    # dense bands)
    model, sixteen = make_fig5_model(), np.linspace(0.5, 5.0, 16)
    mixed = np.linspace(500, 1000, 16).astype(int).tolist()
    cases = [
        (sixteen, [1000] * 16, 9e6),
        (sixteen, mixed, 25e6),
        (sixteen[:1], [BATCH_RUNGS - 2], 9e6),
    ]
    for grid, cutoffs, bound in cases:
        tracemalloc.start()
        try:
            solved = exact_grid(model, grid, cutoffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solved[2] == [None] * len(grid)
        assert peak < bound
        _assert_solo(model, grid, cutoffs, solved)


def _flow_balance_miss(model):
    # the photon flow across each edge n - 1 -> n, read off the rungs: the
    # cavity's loss kappa n P_n against the coupling's gain -2 g sqrt(n) y_n,
    # with i y_n the coherence <e1, n|rho|e2, n - 1> of rung n; returns the
    # largest miss relative to the largest term
    result = solve_model(model)
    n = np.arange(1, result.distribution.n_max + 1)
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
    # kappa = 1e-4: the closed form holds its 1e-12 tail only past 60 000
    # rungs
    with pytest.raises(TruncationError, match=r"n_max = 60696 is outside \[1, 16030\]"):
        solve_model(make_fig2_model(kappa=1e-4))
    # the bound holds for an explicit cutoff too, above it and below 1
    for n_max in (BATCH_RUNGS - 1, 0):
        with pytest.raises(TruncationError, match=rf"n_max = {n_max} is outside \[1, 16030\]"):
            solve_model(make_fig2_model(), n_max=n_max)


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
        solo = solve_model(with_hot_occupation(dark, n_h), n_max=2)
        e2 = 2 * 3  # |e2, 0> at fock 3
        assert dense_state(solo)[e2, e2] == pytest.approx(1.0, rel=0.0, abs=1e-12)
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
    # point past the cutoff bound comes next, is a batch of its own and is
    # never assembled, and the two points after it form a third batch; every
    # cutoff lies far above the point's own, so no tail warning fires
    fig2, grid = make_fig2_model(), np.linspace(0.5, 3.0, 19)
    cutoffs = [40] + [1000] * 15 + [BATCH_RUNGS - 1, 40, 40]
    assert 16 * (1000 + 2) == BATCH_RUNGS
    batches, assembled = [], []
    solve_batch = heatlaser.solver._solve_batch
    assemble = heatlaser.solver.build_sector_liouvillian

    def solved_batch(model, n_h, n_maxes):
        batches.append(list(n_h))
        return solve_batch(model, n_h, n_maxes)

    def counted(model, n_h, n_maxes):
        assembled.append(n_h.tolist())
        return assemble(model, n_h, n_maxes)

    monkeypatch.setattr(heatlaser.solver, "_solve_batch", solved_batch)
    monkeypatch.setattr(heatlaser.solver, "build_sector_liouvillian", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solved = exact_grid(fig2, grid, cutoffs)
    assert batches == [grid[:16].tolist(), grid[16:17].tolist(), grid[17:].tolist()]
    assert assembled == [grid[:16].tolist(), grid[17:].tolist()]
    assert all(len(column) == len(grid) for column in solved[0].values())
    assert len(solved[1]) == len(solved[2]) == len(grid)
    assert solved[2][16] == "cutoff n_max = 16031 is outside [1, 16030]"
    _assert_solo(fig2, grid, cutoffs, solved)


def test_exact_grid_warns_and_keeps_rows_per_point(monkeypatch):
    # two batches: a point at n_max 3 and 15 at n_max 1000 fill the first,
    # and the second holds two points at small cutoffs around an invalid n_h.
    # Every point that passes at a small cutoff warns of its tail, from
    # exact_grid and in point order, and the solver's batches warn nothing.
    # A batch's stacked solutions and padded P_n are freed before the next
    # batch is solved
    fig2 = make_fig2_model()
    grid = [1.0, *np.linspace(0.5, 3.0, 15).tolist(), 3.0, -1.0, 2.0]
    cutoffs = [3] + [1000] * 15 + [5, 5, 4]
    batches, padded = [], []
    solve_batch = heatlaser.solver._solve_batch

    def quiet_batch(model, n_h, n_maxes):
        assert all(ref() is None for ref in padded)
        with warnings.catch_warnings(record=True) as inside:
            warnings.simplefilter("always")
            solved = solve_batch(model, n_h, n_maxes)
        assert inside == []
        batches.append(list(n_h))
        row = next(row for row in solved[1] if row is not None)
        padded.extend([weakref.ref(solved[3]), weakref.ref(row.base)])
        return solved

    monkeypatch.setattr(heatlaser.solver, "_solve_batch", quiet_batch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        solved = exact_grid(fig2, grid, cutoffs)
    assert batches == [grid[:16], grid[16:]]
    assert len(padded) == 4 and all(ref() is None for ref in padded)
    assert [str(w.message).split(" = ")[0] for w in caught] == [
        "tail P[3]", "tail P[5]", "tail P[4]"
    ]
    assert all(w.filename == __file__ for w in caught)
    columns, rows, failures = solved
    assert failures[17] == "hot bath occupation must be finite and >= 0, got -1.0"
    for k, (row, n_max) in enumerate(zip(rows, cutoffs)):
        if k == 17:
            assert row is None
            continue
        # its own array, not a view of the batch's padded P_n
        assert row.size == n_max + 1 and row.flags.owndata and row.base is None
        assert columns["tail"][k] == row[-1]
    _assert_solo(fig2, grid, cutoffs, solved, points=[*range(17), 18])


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


@pytest.mark.parametrize(
    "model", [make_fig2_model(), make_fig5_model(), make_fig5_model(n_a=0.0, g=0.0)]
)
def test_rung_sweep_solves_one_column_above_rung_one(model, monkeypatch):
    # the sweep runs from the top rung down, and the rung below enters
    # through one column of the lower band: each rung from 2 up solves for
    # that one column, and rungs 1 and 0, the rungs of a pinned unit (e2's
    # at rung 1 for the dark e2 of fig5 with n_a = 0 and g = 0), also for
    # the pinned solution, two columns.  The stacked solves still take
    # sum(cutoff + 2) matrices in max(cutoff) + 2 calls
    grid, cutoffs = [1e-4, 2.0, 0.5, 5.0], [5, 300, 40, 1]
    shapes = []
    solve = np.linalg.solve

    def counted(a, b):
        shapes.append((len(a), b.shape[-1]))
        return solve(a, b)

    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tail warning of cutoff 1 at n_h 5
        patch.setattr(np.linalg, "solve", counted)
        solved = exact_grid(model, grid, cutoffs)
    assert solved[2] == [None] * len(grid)
    matrices, columns = zip(*shapes)
    assert columns == (1,) * max(cutoffs) + (2, 2)
    assert sum(matrices) == sum(n_max + 2 for n_max in cutoffs)
    assert len(matrices) == max(cutoffs) + 2


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["three", "four", "dark"]))
def test_rung_sweep_reads_one_lower_column_and_leaves_the_bands(seed, kind):
    # the sweep takes H_r = -T_r^-1 A_r as one column because the builder's
    # band 0, rung r - 1 onto rung r, is one cell of core.RUNG_CELLS, in
    # the column core.LOWER_COLUMN names, at n_h = 0, at unsorted cutoffs
    # from 1 up and for the dark e2 pin of fig5 with n_a = 0 and g = 0.
    # ROADMAP item 1's sum rows put entries of band 0 in more columns and
    # will add cells to the table.  The sweep only reads the pinned cells:
    # they are bit-identical after it, whether it returns or
    # np.linalg.solve raises, for the batch and for each point retried alone
    rng = np.random.default_rng(seed)
    if kind == "dark":
        model = make_fig5_model(n_a=0.0, g=0.0)
    else:
        model = random_four_level(rng) if kind == "four" else random_three_level(rng)
    grid = [0.0, *rng.uniform(0.01, 5.0, 3).tolist()]
    cutoffs = rng.permutation([1, *rng.integers(1, 60, 3).tolist()]).tolist()
    lower = RUNG_CELLS[model.atom_dim][-1]
    assert lower.tolist() == [0, SLOT_OF[LEVEL_E2, LEVEL_E2], LOWER_COLUMN[model.atom_dim]]
    assert build_sector_liouvillian(model, grid, cutoffs)[0][..., -1].any()
    sweep, swept = heatlaser.solver._rung_sweep, []

    def watched(cells, rhs, rungs):
        before = cells.copy()
        try:
            return sweep(cells, rhs, rungs)
        finally:
            swept.append(before.tobytes() == cells.tobytes())

    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the tail warnings of small cutoffs
        patch.setattr(heatlaser.solver, "_rung_sweep", watched)
        assert exact_grid(model, grid, cutoffs)[2].count(None) >= len(grid) - 1
        assert swept == [True]
        patch.setattr(np.linalg, "solve", singular)
        failures = exact_grid(model, grid, cutoffs)[2]
    singular = "rung sweep failed: a rung block is singular to working precision (Singular matrix)"
    assert failures.count(singular) >= len(grid) - 1
    # the batch, then each of its points alone
    assert swept == [True] * (len(grid) + 2 - (kind == "dark"))


@pytest.mark.parametrize("n_max", [None, 1, 5, 40])
def test_dark_e2_pin_solves_to_the_empty_cavity(n_max, monkeypatch):
    # fig5 with g = 0 and n_a = 0 traps the atom in the dark |e2, 0>, so the
    # pin is e2's population at rung 1, whose row holds the lower band's one
    # cell: the sweep sees that row zeroed, all but its unit diagonal, and
    # the state is the empty cavity within the residual gate
    model = make_fig5_model(g=0.0, n_a=0.0)
    table, e2 = RUNG_CELLS[4], SLOT_OF[LEVEL_E2, LEVEL_E2]
    pinned_rows = []
    sweep = heatlaser.solver._rung_sweep

    def watched(cells, rhs, rungs):
        pinned_rows.append(cells[0, 1, table[:, 1] == e2].tolist())
        return sweep(cells, rhs, rungs)

    monkeypatch.setattr(heatlaser.solver, "_rung_sweep", watched)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_model(model, n_max=n_max)
    row = table[table[:, 1] == e2]
    unit = ((row[:, 0] == 1) & (row[:, 2] == e2)).astype(float).tolist()
    assert table[-1, 1] == e2 and pinned_rows == [unit]
    assert result.distribution.probabilities[0] == pytest.approx(1.0, abs=1e-15)
    scale = np.abs(build_liouvillian(model, result.distribution.n_max).data).max()
    assert result.residual <= heatlaser.solver.STEADY_TOL * scale


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
    cutoffs += [3, BATCH_RUNGS - 1]
    solved = exact_grid(model, grid, cutoffs)
    columns, rows, failures = solved
    assert failures[-2] == "hot bath occupation must be finite and >= 0, got -1.0"
    assert rows[-2] is None and all(math.isnan(columns[name][-2]) for name in EXACT_COLUMNS)
    assert failures[-1] == "cutoff n_max = 16031 is outside [1, 16030]"
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

    result = solve_model(make_fig2_model(n_h=2.0))
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


def test_wigner_table_and_index_give_the_grid():
    # values is table[index] bit for bit, and rows of equal |im| (-0.0 and
    # 0.0 included) have equal index rows, on an asymmetric grid and on the
    # default one
    result = solve_model(make_fig2_model(n_h=2.0))
    grids = [
        (np.array([-1.5, -0.25, -0.0, 0.25, 0.7, 1.5, 2.0]), np.array([0.5, -0.5, -0.0, 0.0, 1.25, 2.5])),
        (None, None),
    ]
    for re_axis, im_axis in grids:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a grid radius below the state's
            field = wigner(result.distribution, re_axis, im_axis)
        assert field.index.shape == field.values.shape
        assert np.array_equal(field.table[field.index].view(np.int64), field.values.view(np.int64))
        assert np.array_equal(np.unique(field.index), np.arange(field.table.size))
        for a, b in itertools.combinations(range(field.im_axis.size), 2):
            if abs(field.im_axis[a]) == abs(field.im_axis[b]):
                assert np.array_equal(field.index[a], field.index[b])
    assert field.table.size < field.values.size  # the default grid repeats radii


def test_wigner_of_steady_state():
    model = make_fig2_model(n_h=0.507)
    rho = dense_state(solve_model(model, n_max=30))
    cavity = photon_distribution(rho, 3)
    axis = np.linspace(-4.0, 4.0, 41)
    field = wigner(cavity, axis, axis)
    # W(a) = (2/pi) tr[rho D(a) P D+(a)] of the whole reduced state, with
    # D(a) = exp(a a+ - a* a) by expm on a Fock space padded well past the
    # cutoff (parity P = (-1)^n), at grid points off both axes
    reduced = partial_trace_atom(rho, 3)
    fock, padded = 31, 31 + 90
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
