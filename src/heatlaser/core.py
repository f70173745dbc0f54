"""Operators on the composite atom-cavity space and the Lindblad generator.

The composite Hilbert space is atom (x) Fock, cut at ``n_max`` photons,
with the atom index varying slowest, so the basis state |alpha, n> sits
at index alpha (n_max + 1) + n.  Density matrices are vectorized
row-major (C order), for which the superoperator of rho -> A rho B is
kron(A, B.T).

:func:`build_liouvillian` is the reference: the full (A F)^2 generator at
a cutoff n_max as a scipy sparse matrix, built from the bath jumps of
:func:`_bath_channels`, the cavity ladder and the coupling, with no dense
operator; scipy is imported only when it is called.  The steady-state
solve needs only the charge-zero block, in which the steady state has one
real unknown per population and per coherence pair.  Its layout is one
fixed table: level pair ``RUNG_SLOTS[s]`` in slot s of rung
n + ``RUNG_SHIFT[level]``, the same for every model and every cutoff;
``LOWER_COLUMN`` names the one slot of a rung that feeds the rung above.
:func:`build_sector_liouvillian`
assembles in it the real blocks of one model at a grid of hot-bath
occupations n_h, each point at its own cutoff, straight from the rates,
with no operator matrix: its entries are the terms of the rung equations
of the Lindblad form.  Ordered by rung, the block is block-tridiagonal,
and it is returned as its nonzero cells only: one float64 array of
``len(RUNG_CELLS[atom_dim])`` cells per rung, whose (band, row, col) that
fixed table names.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .models import FOUR_LEVEL, EngineModel

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "LEVEL_G",
    "LEVEL_E1",
    "LEVEL_E2",
    "LEVEL_E3",
    "build_liouvillian",
    "build_sector_liouvillian",
]

LEVEL_G, LEVEL_E1, LEVEL_E2, LEVEL_E3 = 0, 1, 2, 3
# The layout of the charge-zero block.  Every jump and the coupling shift
# n + c(level) by a definite amount for the U(1) charge c = (1/2, 0, 1, 1/4),
# so L maps |i><j| only onto operators of the same charge difference, and
# the pairs of equal charge are the populations and the coherences between
# |e1, n + 1> and |e2, n>.  The coupling g (sigma+ a + sigma- a+) changes sign
# under Z = (-1)^N and every jump is real, so rho* and Z rho Z obey the same
# master equation; the steady state is unique, so rho* = Z rho Z: the
# populations are real and <e1, n + 1|rho|e2, n> = i y with y real.
# |l, n> sits in rung n + RUNG_SHIFT[l], slot s of every rung holds the real
# unknown u_s of |l, .><l', .> for (l, l') = RUNG_SLOTS[s], and
# SLOT_OF[l, l'] is that slot (-1 for a pair outside the block, and for the
# partner (e2, e1) of the coherence slot).  A pair's coefficient is
# SLOT_PHASE[l, l'] times the unknown of its slot, so the partner's is -i y.
# e3 is last, so a three-level rung is the first four slots.
RUNG_SHIFT = np.array((0, 0, 1, 0))
RUNG_SLOTS = np.array(((0, 0), (1, 1), (1, 2), (2, 2), (3, 3)))  # g, e1, e2, e3 = 0..3
SLOT_OF = np.full((4, 4), -1)
SLOT_OF[tuple(RUNG_SLOTS.T)] = np.arange(len(RUNG_SLOTS))
SLOT_PHASE = np.array(((1, 1, 1, 1), (1, 1, 1j, 1), (1, -1j, 1, 1), (1, 1, 1, 1)))
# The one column of the lower band, rung r - 1 onto rung r: the cavity jump
# moves a pair one rung down and the coupling keeps its rung, so only a bath
# jump into e2, the one level of shift 1, from a level of shift 0 reaches a
# rung up: the hot g -> e2 of a three-level atom and the ancilla e3 -> e2 of
# a four-level one.  LOWER_COLUMN[atom_dim] is the slot of that source level.
LOWER_COLUMN = {3: int(SLOT_OF[LEVEL_G, LEVEL_G]), 4: int(SLOT_OF[LEVEL_E3, LEVEL_E3])}


def _cell_table(atom_dim):
    # the m x m block of rung r onto itself, row-major; the diagonal of rung
    # r + 1 onto rung r, the cavity jump's; that band's one other cell, the
    # jump out of e2 into the source level of LOWER_COLUMN; and the lower
    # band's one cell, the jump back into e2
    width, column = atom_dim + 1, LOWER_COLUMN[atom_dim]
    e2 = int(SLOT_OF[LEVEL_E2, LEVEL_E2])
    same = [(1, row, col) for row in range(width) for col in range(width)]
    upper = [(2, slot, slot) for slot in range(width)]
    return np.array(same + upper + [(2, column, e2), (0, e2, column)])


# The cells of a rung that the rung equations can fill, m^2 + m + 2 of them
# for m = atom_dim + 1 slots: cell k holds the entry of band
# RUNG_CELLS[atom_dim][k, 0] (0: rung r - 1 onto rung r, 1: onto itself, 2:
# rung r + 1 onto rung r) in row RUNG_CELLS[atom_dim][k, 1] and column
# RUNG_CELLS[atom_dim][k, 2]; every other entry of the three dense m x m
# bands is 0.  The first m^2 cells are the same-rung block, so a
# (..., m, m) reshape of them is a view; CELL_OF[atom_dim][band, row, col]
# is the cell of an entry, -1 for one that is always 0.
RUNG_CELLS = {atom_dim: _cell_table(atom_dim) for atom_dim in LOWER_COLUMN}


def _cell_of(table):
    width = table[:, 1].max() + 1
    cell_of = np.full((3, width, width), -1)
    cell_of[tuple(table.T)] = np.arange(len(table))
    return cell_of


CELL_OF = {atom_dim: _cell_of(table) for atom_dim, table in RUNG_CELLS.items()}
# the two slots a cell joins, each as (rung offset, slot), both (2, K): its
# target, row i of its own rung, and its source, column j of the rung r +
# b - 1 that band b reads; offsets count from rung r - 1, so they are >= 0
_CELL_ENDS = {
    atom_dim: (np.stack([np.ones_like(table[:, 0]), table[:, 0]]), table[:, 1:].T)
    for atom_dim, table in RUNG_CELLS.items()
}


def _bath_channels(model: EngineModel, nh) -> list[tuple[int, int, float | np.ndarray]]:
    """Every bath jump as (to_level, from_level, rate), in dissipator order.

    Each bath drives one level pair: upward at gamma * nbar, then downward
    at gamma * (nbar + 1).  The hot bath drives g <-> e2 of a three-level
    atom and g <-> e3 of a four-level one, the cold bath g <-> e1, and the
    ancilla bath e2 <-> e3.  The hot occupation is ``nh``, a float or an
    array, so the hot rates have its shape; the others are floats.
    """
    four = model.kind == FOUR_LEVEL
    baths = [
        (LEVEL_G, LEVEL_E3 if four else LEVEL_E2, model.gamma_h, nh),
        (LEVEL_G, LEVEL_E1, model.gamma_c, model.n_c),
    ]
    if four:
        baths.append((LEVEL_E2, LEVEL_E3, model.gamma_a, model.n_a))
    out = []
    for lower, upper, gamma, occupation in baths:
        out.append((upper, lower, gamma * occupation))
        out.append((lower, upper, gamma * (occupation + 1.0)))
    return out


def build_liouvillian(model: EngineModel, n_max: int) -> sp.csr_matrix:
    """Sparse generator L with d(vec rho)/dt = L vec(rho), the full-space reference.

    Interaction-picture master equation at exact resonance, at the cutoff
    ``n_max`` >= 1 (else ``ValueError``): i [rho, V] with
    V = g (sigma+ a + sigma- a+) and sigma+ = |e2><e1|, plus the dissipator
    rate (J (x) J - J+J (x) 1 / 2 - 1 (x) (J+J)^T / 2) of each real jump J:
    |to><from| (x) 1 for every channel of :func:`_bath_channels`, then a at
    kappa.  Independent of the rung equations; imports ``scipy.sparse``.
    """
    import scipy.sparse as sp

    if not n_max >= 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    atoms, photons = sp.identity(model.atom_dim), sp.identity(n_max + 1)
    eye = sp.identity(model.atom_dim * (n_max + 1), format="csr")

    def transition(to, low):  # |to><low| (x) 1
        jump = sp.csr_matrix(([1.0], ([to], [low])), shape=atoms.shape)
        return sp.kron(jump, photons, format="csr")

    a = sp.kron(atoms, sp.diags(np.sqrt(np.arange(1.0, n_max + 1)), 1), format="csr")
    sigma_plus = transition(LEVEL_E2, LEVEL_E1)
    v = model.g * (sigma_plus @ a + sigma_plus.T @ a.T)
    liouv = 1j * (sp.kron(eye, v.T) - sp.kron(v, eye))  # i (rho V - V rho)
    jumps = [(transition(to, low), rate) for to, low, rate in _bath_channels(model, model.n_h)]
    for jump, rate in jumps + [(a, model.kappa)]:
        jdj = jump.T @ jump
        liouv = liouv + rate * (
            sp.kron(jump, jump) - 0.5 * sp.kron(jdj, eye) - 0.5 * sp.kron(eye, jdj.T)
        )
    return liouv.tocsr()


def build_sector_liouvillian(
    model: EngineModel, n_h: np.ndarray, n_maxes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The charge-zero blocks of ``model`` at the hot occupations ``n_h``, as real cells.

    The block holds the operators of the rung table (``RUNG_SLOTS``): the
    populations and the coherences between |e1, n + 1> and |e2, n>, with
    their partners.  It is closed under L and holds the unique steady state.
    |l, n> sits in rung n + RUNG_SHIFT[l], from 0 to n_max + 1, and slot s
    of every rung holds the level pair RUNG_SLOTS[s].  Every jump moves a
    pair by at most one rung and the coupling keeps it, so L couples each
    rung only to itself and its two neighbours.  Point p is the model with
    the hot-bath occupation ``n_h[p]``, at its own cutoff ``n_maxes[p]``;
    n_h enters only through the hot rates, and each must satisfy
    0 <= n_h < inf, as a :class:`BathSpec` occupation does, or
    ``ValueError`` is raised.

    Row s is du_s/dt for the real unknown u_s of slot s: a population P is
    u, and the coherence |e1, n><e2, n - 1| is i y with y = u (its partner
    is -i y).  With the bath channels of :func:`_bath_channels` (rate
    gamma from level l to l'), the cavity decay kappa, the coupling
    V = g (sigma+ a + sigma- a+), and l, r the square roots of the photon
    numbers of a slot's two levels, the rung equations are

        dP_l/dt = - (sum of gamma out of l) P_l + (sum of gamma P_l' into l)
                  - kappa (l^2 + r^2) / 2 P_l + kappa l' r' P_l'
        dy/dt   = - (half of gamma out of e1 and out of e2) y
                  - kappa (l^2 + r^2) / 2 y + kappa l' r' y'
                  + g sqrt(n) (P_e1 - P_e2)

    plus -2 g sqrt(n) y in dP_e1/dt and +2 g sqrt(n) y in dP_e2/dt, where
    a primed P_l' or y' of the cavity terms is the same slot one rung up,
    with its own l' and r', and n is the photon number of e1 in the
    coherence.  A bath jump from l to l' reaches RUNG_SHIFT[l] -
    RUNG_SHIFT[l'] rungs down.  Each cell adds its terms to 0 in the order
    of the Lindblad form: the decays, per bath channel and then the
    cavity's, the bath jumps, the cavity jump, then -i V rho and rho (i V).
    Point p keeps a cell when both its target slot and its source slot lie
    inside p's block, every photon number at most its cutoff: its cells are
    those it gets when assembled alone, bit for bit, and 0 past its rung
    n_maxes[p] + 1.

    Returns ``(cells, inside)`` of the P points.  ``inside`` is a bool
    array of shape (P, R, m), R = max(n_maxes) + 2 and m = 1 + the atom
    dimension (e3 is the last slot), true on the slots of each point's
    block.  ``cells`` is float64 of shape (P, R, K), K = m^2 + m + 2:
    ``cells[p, r, k]`` is the entry of band b, in row i and column j, of
    the table row (b, i, j) = ``RUNG_CELLS[atom_dim][k]``, where band 1
    maps rung r onto itself, band 0 rung r - 1 onto rung r and band 2 rung
    r + 1 onto rung r; every entry the table leaves out is 0.  The cells of
    a row or column of a slot outside the point's block are 0.
    """
    n_h = np.asarray(n_h, dtype=float)
    bad = n_h[~((n_h >= 0) & (n_h < np.inf))]
    if bad.size:
        raise ValueError(f"hot bath occupation must be finite and >= 0, got {bad[0]}")
    channels = _bath_channels(model, n_h[:, np.newaxis])  # hot rates (P, 1), against (P, R)
    width, depth = model.atom_dim + 1, max(n_maxes) + 2
    cell, (offsets, ends) = CELL_OF[model.atom_dim], _CELL_ENDS[model.atom_dim]
    # at rung r a slot's levels hold r - s photons for their RUNG_SHIFT s, 0
    # or 1: ell and r, each (R, m), gather from the (2, R) sqrt(max(r - s, 0))
    shifts, rungs = RUNG_SHIFT[RUNG_SLOTS[:width]], np.arange(depth)[:, np.newaxis]
    ell, r = np.sqrt(np.maximum(rungs.T - [[0], [1]], 0))[shifts.T].transpose(0, 2, 1)
    square, coherence = width * width, SLOT_OF[LEVEL_E1, LEVEL_E2]
    e1, e2 = SLOT_OF[LEVEL_E1, LEVEL_E1], SLOT_OF[LEVEL_E2, LEVEL_E2]
    # written in full at allocation: np.zeros maps zero pages that the first
    # += reads and then copies, a second page fault on every page
    cells = np.full((len(n_h), depth, offsets.shape[1]), 0.0)
    # same[i, j] is the cell of row i and column j of band 1; the table
    # holds band 1's diagonal and band 2's as slices of cells
    same = cell[1]
    for _, low, rate in channels:
        cells[:, :, same[SLOT_OF[low, low], SLOT_OF[low, low]]] += rate * -1.0
        if low in (LEVEL_E1, LEVEL_E2):
            cells[:, :, same[coherence, coherence]] += rate * -0.5
    cells[:, :, : square : width + 1] += model.kappa * (-0.5 * (ell**2 + r**2))
    for to, low, rate in channels:
        band = RUNG_SHIFT[low] - RUNG_SHIFT[to] + 1
        cells[:, :, cell[band, SLOT_OF[to, to], SLOT_OF[low, low]]] += rate * 1.0
    cells[:, :-1, square : square + width] += model.kappa * (ell * r)[1:]
    # -i V rho, then rho (i V), with c = g sqrt(n): the coherence i y and
    # its partner -i y each add a term to the rows of P_e1 and P_e2
    c = model.g * ell[:, coherence]
    for _ in range(2):
        cells[:, :, same[e1, coherence]] += -c
        cells[:, :, same[e2, coherence]] += c
    cells[:, :, same[coherence, e1]] += c
    cells[:, :, same[coherence, e2]] += -c
    # each point's own slots; it drops every cell whose target or source
    # slot lies outside them (a cell of band b of rung r reads rung
    # r + b - 1).  Such cells lie only in the rungs past n_max + 1, which
    # are all outside, and in rungs 0 and 1 (the slots of e2), n_max (its
    # band 2) and n_max + 1 (the slots at n = n_max + 1): the rest of the
    # block is inside
    n_max = np.array(n_maxes)[:, np.newaxis]  # (P, 1)
    # (P, R, m): both photon numbers r - s of a slot lie in [0, n_max]
    inside = (rungs >= shifts.max(axis=1)) & (rungs <= n_max[..., np.newaxis] + shifts.min(axis=1))
    cells[np.arange(depth) > n_max + 1] = 0.0
    point = np.arange(len(n_h))[:, np.newaxis]
    edge = n_max * [0, 0, 1, 1] + [0, 1, 0, 1]  # rungs 0, 1, n_max and n_max + 1 (P, 4)
    outside = np.pad(~inside, ((0, 0), (1, 1), (0, 0)), constant_values=True)
    # per edge rung and cell, (P, 4, 2, K): whether its target and its
    # source slot are outside; the padded ``outside`` starts at rung -1
    reads = edge[..., np.newaxis, np.newaxis] + offsets
    out = outside[point[..., np.newaxis, np.newaxis], reads, ends]
    cells[point, edge] = np.where(out.any(axis=2), 0.0, cells[point, edge])
    return cells, inside
