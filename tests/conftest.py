from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from heatlaser import BathSpec, build_four_level, build_three_level
from heatlaser.core import RUNG_CELLS, RUNG_SHIFT, RUNG_SLOTS, SLOT_PHASE

# the sweep-bright workload of the benchmark: 9 to 31 photons in the cavity
BRIGHT = Path(__file__).parents[1] / "perfbench" / "configs" / "bright.json"


def make_fig2_model(n_h=1.0, n_c=0.05, g=14.0, kappa=1.0, gamma=32.0):
    """Standard three-level configuration used throughout the suite."""
    return build_three_level(BathSpec(gamma, n_h), BathSpec(gamma, n_c), g, kappa)


def make_fig5_model(n_h=0.5, n_c=0.1, n_a=0.1, g=14.0, kappa=1.0, gamma=32.0):
    """Standard four-level configuration."""
    return build_four_level(
        BathSpec(gamma, n_h), BathSpec(gamma, n_c), BathSpec(gamma, n_a), g, kappa
    )


def random_three_level(rng):
    gh, gc = rng.uniform(0.5, 50.0, 2)
    nh, nc = rng.uniform(0.01, 5.0, 2)
    g = rng.uniform(0.5, 30.0)
    return build_three_level(BathSpec(gh, nh), BathSpec(gc, nc), g, 1.0)


def random_four_level(rng):
    gh, gc, ga = rng.uniform(0.5, 50.0, 3)
    nh, nc, na = rng.uniform(0.01, 5.0, 3)
    g = rng.uniform(0.5, 30.0)
    return build_four_level(BathSpec(gh, nh), BathSpec(gc, nc), BathSpec(ga, na), g, 1.0)


def slot_operators(shape, n_max):
    """The dense operator of every slot of a block in rung layout.

    Slot s of rung r holds the pair |l, r - RUNG_SHIFT[l]><l', r - RUNG_SHIFT[l']|
    with (l, l') = RUNG_SLOTS[s] (see core).  Returns ``(rows, cols)`` of
    ``shape``, (rungs, slots): the indices l (n_max + 1) + n of the pair's
    two states in the Fock layout of cutoff ``n_max``, or -1 where a photon
    number lies outside 0..n_max, a slot outside the block.
    """
    rung, slot = np.indices(shape)
    level = RUNG_SLOTS[slot]
    photons = rung[..., np.newaxis] - RUNG_SHIFT[level]
    inside = np.all((photons >= 0) & (photons <= n_max), axis=-1)
    pairs = np.where(inside[..., np.newaxis], level * (n_max + 1) + photons, -1)
    return pairs[..., 0], pairs[..., 1]


def dense_bands(cells):
    """The cells of ``build_sector_liouvillian`` scattered back to dense bands.

    ``cells`` has shape (P, R, K); returns an array of its dtype and of
    shape (P, R, 3, m, m) whose entry [p, r, b, i, j] is the cell that
    ``core.RUNG_CELLS`` names (b, i, j), 0 where the table names none.  Band
    1 maps rung r onto itself, band 0 rung r - 1 onto rung r and band 2
    rung r + 1 onto rung r.
    """
    atom_dim = next(dim for dim, table in RUNG_CELLS.items() if len(table) == cells.shape[-1])
    band, row, col = RUNG_CELLS[atom_dim].T
    bands = np.zeros(cells.shape[:2] + (3, atom_dim + 1, atom_dim + 1), dtype=cells.dtype)
    bands[:, :, band, row, col] = cells
    return bands


def sector_block_csc(cells, inside):
    """The real rung cells of ``build_sector_liouvillian`` scattered back to CSC.

    Returns ``(block, rows, cols)`` over the filled slots in rung-major
    order: column k of ``block`` is the real unknown of the operator
    |rows[k]><cols[k]| (see :func:`slot_operators` and :func:`slot_map`).
    Fails if ``inside`` is not the table's block or a band entry of
    :func:`dense_bands` sits in an empty slot or outside the rung range.
    ``cells`` and ``inside`` hold a batch of one, assembled at its own
    cutoff.
    """
    (bands,), (inside,) = dense_bands(cells), inside
    rows, cols = slot_operators(inside.shape, len(inside) - 2)
    assert np.array_equal(rows >= 0, inside)
    index = np.full(inside.shape, -1)
    index[inside] = np.arange(np.count_nonzero(inside))
    rung, band, row_slot, col_slot = np.nonzero(bands)
    col_rung = rung + band - 1
    assert np.all((col_rung >= 0) & (col_rung < len(bands)))
    to, at = index[rung, row_slot], index[col_rung, col_slot]
    assert np.all((to >= 0) & (at >= 0)), "a band entry sits in an empty slot"
    size = index.max() + 1
    data = bands[rung, band, row_slot, col_slot]
    return sp.csc_matrix((data, (to, at)), shape=(size, size)), rows[inside], cols[inside]


def slot_map(rows, cols, fock_dim):
    """The explicit map from the real slot unknowns u to the block's operators.

    ``rows`` and ``cols`` are the filled slots of :func:`sector_block_csc`.
    A population |i><i| has the coefficient u, a coherence
    |e1, n + 1><e2, n| has i u and its partner |e2, n><e1, n + 1| has -i u.
    Returns ``(T, W, op_rows, op_cols)``: x = T u over the operators
    |op_rows[k]><op_cols[k]|, the slots first and then the partners, and W,
    which keeps the equation of each slot's own pair, times -i for a
    coherence, and drops the partners'.
    """
    coherent = np.flatnonzero(rows != cols)
    assert np.all(rows[coherent] // fock_dim == 1) and np.all(cols[coherent] // fock_dim == 2)
    assert np.all(rows[coherent] % fock_dim == cols[coherent] % fock_dim + 1)
    slots, size = np.arange(rows.size), rows.size + coherent.size
    phase = np.where(rows != cols, 1j, 1.0)
    t = sp.csc_matrix(
        (np.concatenate([phase, np.full(coherent.size, -1j)]),
         (np.arange(size), np.concatenate([slots, coherent]))),
        shape=(size, rows.size),
    )
    w = sp.csc_matrix((np.conj(phase), (slots, slots)), shape=(rows.size, size))
    return t, w, np.concatenate([rows, cols[coherent]]), np.concatenate([cols, rows[coherent]])


def dense_state(result):
    """The (A F) x (A F) density matrix of a steady state in rung layout.

    ``solve_model`` returns the unknowns u of the charge-zero block by rung
    and slot, with atom_dim + 1 slots per rung, at the cutoff n_max of its
    distribution; the comparisons with the full-space references scatter
    them here through :func:`slot_operators`: the pair |l, n><l', n'| of a
    slot has the coefficient SLOT_PHASE[l, l'] u, so a coherence is i u and
    its partner -i u.
    """
    atom_dim, fock = result.rungs.shape[1] - 1, result.distribution.n_max + 1
    rows, cols = slot_operators(result.rungs.shape, fock - 1)
    inside = rows >= 0
    rows, cols = rows[inside], cols[inside]
    values = SLOT_PHASE[rows // fock, cols // fock] * result.rungs[inside]
    rho = np.zeros((atom_dim * fock,) * 2, dtype=complex)
    rho[rows, cols] = values
    rho[cols, rows] = np.conj(values)
    return rho


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
