"""Operators on the composite atom-cavity space and the Lindblad generator.

The composite Hilbert space is atom (x) Fock with the atom index varying
slowest, so the basis state |alpha, n> sits at index alpha * fock_dim + n.
Density matrices are vectorized row-major (C order), for which the
superoperator of rho -> A rho B is kron(A, B.T).

The public operator builders embed each operator as a dense (A F) x (A F)
matrix, and :func:`build_liouvillian` forms the full (A F)^2 generator from
them as a scipy sparse matrix; they are the reference, and scipy is imported
only when :func:`build_liouvillian` is called.  The steady-state solve needs
only the charge-zero block, in which the steady state has one real unknown
per population and per coherence pair.  Its layout is one fixed table:
level pair ``RUNG_SLOTS[s]`` in slot s of rung n + ``RUNG_SHIFT[level]``,
the same for every model and every cutoff.  :func:`build_sector_liouvillian`
assembles the real blocks of a whole batch of models in it, each at its
own cutoff, straight from the rates, with no operator matrix: every entry
is a rate times a unit value, found once per call and kind of model by
index arithmetic over the basis states, since every jump and the coupling
send a basis state to at most one basis state.
Ordered by rung, the block is block-tridiagonal, and it is returned as
dense float64 numpy bands.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .models import FOUR_LEVEL, EngineModel

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "LEVEL_G",
    "LEVEL_E1",
    "LEVEL_E2",
    "LEVEL_E3",
    "HilbertSpace",
    "Dissipator",
    "build_cavity_operators",
    "build_atom_operators",
    "build_interaction",
    "build_dissipators",
    "build_liouvillian",
    "build_sector_liouvillian",
    "apply_liouvillian",
    "is_hermitian",
    "check_density_matrix",
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


@dataclass(frozen=True)
class HilbertSpace:
    """Composite space of a 3- or 4-level atom and a truncated cavity mode."""

    atom_dim: int
    fock_dim: int

    def __post_init__(self):
        if self.atom_dim not in (3, 4):
            raise ValueError(f"atom_dim must be 3 or 4, got {self.atom_dim}")
        if self.fock_dim < 2:
            raise ValueError(f"fock_dim must be >= 2, got {self.fock_dim}")

    @property
    def total_dim(self) -> int:
        return self.atom_dim * self.fock_dim

    @property
    def n_max(self) -> int:
        return self.fock_dim - 1

    @classmethod
    def for_model(cls, model: EngineModel, n_max: int) -> "HilbertSpace":
        return cls(model.atom_dim, n_max + 1)


class Dissipator(NamedTuple):
    """One Lindblad jump channel: rate * (L rho L+ - {L+ L, rho} / 2)."""

    jump: np.ndarray
    rate: float


def _atom_projector(space, i, j):
    m = np.zeros((space.atom_dim, space.atom_dim), dtype=complex)
    m[i, j] = 1.0
    return m


def _embed_atom(space, op):
    return np.kron(op, np.eye(space.fock_dim, dtype=complex))


def _embed_fock(space, op):
    return np.kron(np.eye(space.atom_dim, dtype=complex), op)


def build_cavity_operators(space: HilbertSpace):
    """Annihilation and creation operators embedded in the composite space.

    <n-1| a |n> = sqrt(n) on the Fock factor, identity on the atom factor.
    """
    a_fock = np.diag(np.sqrt(np.arange(1, space.fock_dim, dtype=float)), 1).astype(complex)
    a = _embed_fock(space, a_fock)
    return a, a.conj().T


def build_atom_operators(space: HilbertSpace) -> dict[str, np.ndarray]:
    """Atomic transition and projection operators on the composite space.

    Keys: ``tau_h_minus/plus`` (hot transition, g<->e2 for a 3-level atom and
    g<->e3 for a 4-level one), ``tau_c_minus/plus`` (cold, g<->e1),
    ``sigma_minus/plus`` (lasing, e1<->e2), ``sigma_z`` = n_2 - n_1, and the
    level projectors ``n_g``, ``n_1``, ``n_2`` (plus ``n_3``,
    ``tau_a_minus/plus`` on a 4-level space).  Operators only defined for a
    4-level atom are simply absent from the dict on a 3-level space.
    """
    four = space.atom_dim == 4
    upper_hot = LEVEL_E3 if four else LEVEL_E2
    ops = {
        "tau_h_minus": _atom_projector(space, LEVEL_G, upper_hot),
        "tau_c_minus": _atom_projector(space, LEVEL_G, LEVEL_E1),
        "sigma_minus": _atom_projector(space, LEVEL_E1, LEVEL_E2),
        "n_g": _atom_projector(space, LEVEL_G, LEVEL_G),
        "n_1": _atom_projector(space, LEVEL_E1, LEVEL_E1),
        "n_2": _atom_projector(space, LEVEL_E2, LEVEL_E2),
    }
    if four:
        ops["tau_a_minus"] = _atom_projector(space, LEVEL_E2, LEVEL_E3)
        ops["n_3"] = _atom_projector(space, LEVEL_E3, LEVEL_E3)
    ops["sigma_z"] = ops["n_2"] - ops["n_1"]
    for name in ("tau_h", "tau_c", "sigma", "tau_a"):
        key = name + "_minus"
        if key in ops:
            ops[name + "_plus"] = ops[key].conj().T
    return {name: _embed_atom(space, op) for name, op in ops.items()}


def build_interaction(model: EngineModel, space: HilbertSpace) -> np.ndarray:
    """Resonant Jaynes-Cummings coupling g (sigma+ a + sigma- a+)."""
    _check_dims(model, space)
    a, a_dag = build_cavity_operators(space)
    atom = build_atom_operators(space)
    return model.g * (atom["sigma_plus"] @ a + atom["sigma_minus"] @ a_dag)


def _bath_channels(model: EngineModel) -> list[tuple[int, int, float]]:
    """Every bath jump as (to_level, from_level, rate), in dissipator order.

    Each bath drives one level pair: upward at gamma * nbar, then downward
    at gamma * (nbar + 1).  The hot bath drives g <-> e2 of a three-level
    atom and g <-> e3 of a four-level one, the cold bath g <-> e1, and the
    ancilla bath e2 <-> e3.
    """
    four = model.kind == FOUR_LEVEL
    baths = [
        (LEVEL_G, LEVEL_E3 if four else LEVEL_E2, model.hot),
        (LEVEL_G, LEVEL_E1, model.cold),
    ]
    if four:
        baths.append((LEVEL_E2, LEVEL_E3, model.ancilla))
    out = []
    for lower, upper, bath in baths:
        out.append((upper, lower, bath.gamma * bath.occupation))
        out.append((lower, upper, bath.gamma * (bath.occupation + 1.0)))
    return out


def build_dissipators(model: EngineModel, space: HilbertSpace) -> list[Dissipator]:
    """All jump channels of the model: thermal baths plus cavity decay.

    Each bath contributes an upward channel at rate gamma * nbar and a
    downward channel at rate gamma * (nbar + 1); the cavity leaks photons
    at rate kappa into a vacuum environment.
    """
    _check_dims(model, space)
    a, _ = build_cavity_operators(space)
    out = [
        Dissipator(_embed_atom(space, _atom_projector(space, to_level, from_level)), rate)
        for to_level, from_level, rate in _bath_channels(model)
    ]
    out.append(Dissipator(a, model.kappa))
    return out


def build_liouvillian(model: EngineModel, space: HilbertSpace) -> sp.csr_matrix:
    """Sparse generator L with d(vec rho)/dt = L vec(rho).

    Interaction-picture master equation at exact resonance: the coherent part
    is i [rho, V] with V the Jaynes-Cummings coupling, plus one Lindblad
    dissipator per jump channel of :func:`build_dissipators`.  The full-space
    reference; imports ``scipy.sparse`` when called.
    """
    import scipy.sparse as sp

    _check_dims(model, space)
    d = space.total_dim
    eye = sp.identity(d, dtype=complex, format="csr")
    v = sp.csr_matrix(build_interaction(model, space))
    # i [rho, V] = i (rho V - V rho)
    terms = [1j * (sp.kron(eye, v.T) - sp.kron(v, eye))]
    for jump, rate in build_dissipators(model, space):
        if rate < 0:
            raise ValueError(f"negative dissipator rate {rate}")
        if rate == 0.0:
            continue
        j = sp.csr_matrix(jump)
        jdj = (j.conj().T @ j).tocsr()
        terms.append(
            rate
            * (
                sp.kron(j, j.conj())
                - 0.5 * sp.kron(jdj, eye)
                - 0.5 * sp.kron(eye, jdj.T)
            )
        )
    liouv = terms[0]
    for term in terms[1:]:
        liouv = liouv + term
    return liouv.tocsr()


def build_sector_liouvillian(
    models: Sequence[EngineModel], n_maxes: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The charge-zero blocks of several generators, as real bands over rungs.

    The block holds the operators of the rung table (``RUNG_SLOTS``): the
    populations and the coherences between |e1, n + 1> and |e2, n>, with
    their partners.  It is closed under L and holds the unique steady state.
    |l, n> sits in rung n + RUNG_SHIFT[l], from 0 to n_max + 1, and slot s
    of every rung holds the level pair RUNG_SLOTS[s].  Every jump moves a
    pair by at most one rung and the coupling keeps it, so L couples each
    rung only to itself and its two neighbours.  The layout is the same at
    every cutoff, and so are the entries: no jump raises n, and the only
    term a cutoff removes, the emission out of |e2, N>, leads out of the
    block at cutoff N.  So the entries are found once per kind of model, at
    the batch's largest cutoff, and model p keeps those whose source and
    target pairs have every photon number at most its own cutoff
    ``n_maxes[p]``: its bands are those it gets when assembled alone, bit
    for bit, and 0 past its rung n_maxes[p] + 1.

    The unknowns are real: a pair |l, .><l', .> has the coefficient
    SLOT_PHASE[l, l'] u_s for the unknown u_s of its slot, so i y and its
    partner -i y share the coherence slot.  Row s is the equation of its
    own pair times conj(SLOT_PHASE[l, l']), which is real for a state of
    that form, and the partner's equation, the conjugate of the
    coherence's, is dropped.  A population's entry in a coherence column
    therefore sums the equal entries of both partners, twice the |L_ij| of
    the complex block.

    Returns ``(bands, rows, cols)`` of the P models.  Slot s of rung r of
    model p is the operator |rows[p, r, s]><cols[p, r, s]|, with |l, n> at
    index l (n_maxes[p] + 1) + n, the model's own Fock layout.  ``rows``
    and ``cols`` have shape (P, R, m), R = max(n_maxes) + 2 and m = 1 + the
    largest atom dimension (e3 is the last slot), and are -1 on every slot
    outside the model's block: past its cutoff, or above its levels.
    ``bands`` is float64 of shape (P, R, 3, m, m): ``bands[p, r, 1]`` maps
    rung r onto itself, ``bands[p, r, 0]`` rung r - 1 onto rung r and
    ``bands[p, r, 2]`` rung r + 1 onto rung r.  Rows and columns of slots
    outside the model's block are 0.

    L[rho] = K rho + rho K+ + sum_r r J rho J+ with
    K = -i V - (1/2) sum_r r J+ J, over the jump channels of
    :func:`build_dissipators` and the coupling of :func:`build_interaction`.
    No operator is formed as a matrix.  Each jump J and the coupling V send
    a basis state to at most one basis state, and J+ J is diagonal, so each
    is held as a target index (-1 where the column is zero) and a value per
    basis state.  Each part of L, -(1/2)(J+ J rho + rho J+ J) and J rho J+
    for every jump, -i V rho and rho (-i V)+, then maps each operator |i><j|
    onto at most one |i'><j'|, whose rung and slot the table gives.  Every
    entry is one rate of theta = (the ``_bath_channels`` rates, kappa, g)
    times a unit value, the product of the part's value and both phases,
    and ``np.add.at`` adds theta_k x unit into each cell in one fixed
    order: a model's bands do not depend on the batch it comes in.  Raises
    ``RuntimeError`` if the block leaks, couples rungs further apart or has
    a unit that is not exactly real.
    """
    width = max(model.atom_dim for model in models) + 1
    n_max = max(n_maxes)
    fock, depth = n_max + 1, n_max + 2
    rung, slot = np.divmod(np.arange(depth * width), width)
    pair_level = RUNG_SLOTS[slot]
    pair_photons = rung[:, np.newaxis] - RUNG_SHIFT[pair_level]
    filled = np.all((pair_photons >= 0) & (pair_photons <= n_max), axis=1)
    pair_states = pair_level * fock + pair_photons  # |l, n> at l fock + n

    state = np.arange(4 * fock)
    level, photons = np.divmod(state, fock)
    state_rung = photons + RUNG_SHIFT[level]
    root = np.sqrt(photons.astype(float))
    cavity = np.where(photons > 0, state - 1, -1)
    # -i V without g, for the coupling V = sigma+ a + sigma- a+
    absorb = (level == LEVEL_E1) & (photons > 0)
    emit = (level == LEVEL_E2) & (photons < n_max)
    coupling_to = np.where(absorb, state + fock - 1, np.where(emit, state - fock + 1, -1))
    coupling = -1j * np.where(absorb, root, np.where(emit, np.sqrt(photons + 1.0), 0.0))

    # the phase each row is multiplied by; 0 drops the partner's equation
    row_phase = np.conj(SLOT_PHASE)
    row_phase[LEVEL_E2, LEVEL_E1] = 0.0
    found = []  # per kind: its points, their rates, and its entries
    kinds = [model.kind for model in models]
    for kind in dict.fromkeys(kinds):
        points = [p for p, other in enumerate(kinds) if other == kind]
        group = [models[p] for p in points]
        theta = np.array([[rate for *_, rate in _bath_channels(m)] + [m.kappa, m.g] for m in group])
        if np.any(theta[:, :-1] < 0):
            raise ValueError(f"negative dissipator rate {theta[:, :-1].min()}")
        own = group[0].atom_dim + 1  # the kind's slots
        # each jump as a target (-1 where it sends the state to 0) and a
        # value per basis state: the baths, then the cavity
        channels = _bath_channels(group[0])
        hops = [np.where(level == low, state + (to - low) * fock, -1) for to, low, _ in channels]
        target = np.array(hops + [cavity])
        value = np.array([level == low for _, low, _ in channels] + [root], dtype=float)
        # every operator |i><j| of the block at the largest cutoff, at its
        # slot: each slot's own pair, then the partner of each coherence
        column = np.flatnonzero(filled & (slot < own))
        partner = column[slot[column] == SLOT_OF[LEVEL_E1, LEVEL_E2]]
        i, j = np.hstack([pair_states[column].T, pair_states[partner].T[::-1]])
        column = np.concatenate([column, partner])
        # the parts of L: -(1/2)(J+ J rho + rho J+ J) and J rho J+ for each
        # jump J, then -i V rho and rho (-i V)+; per part, its maps on the
        # left and on the right of |i><j|, its rate index, and its unit on
        # |i><j|: its value times the phase of |i><j| and that of the row
        n = len(target)
        decay, jump = -0.5 * (value[:, i] ** 2 + value[:, j] ** 2), value[:, i] * value[:, j]
        units = np.vstack([decay, jump, coupling[i], np.conj(coupling[j])])
        left = np.vstack([np.tile(state, (n, 1)), target, coupling_to, state])[:, i]
        right = np.vstack([np.tile(state, (n, 1)), target, state, coupling_to])[:, j]
        units *= SLOT_PHASE[level[i], level[j]] * row_phase[level[left], level[right]]
        part, k = np.nonzero(units)
        at, unit, param = column[k], units[part, k], np.array([*range(n), *range(n), n, n])[part]
        to_i, to_j = left[part, k], right[part, k]
        del decay, jump, units, left, right  # the per-part arrays are dead
        to_rung, to_slot = state_rung[to_i], SLOT_OF[level[to_i], level[to_j]]
        outside = (to_i < 0) | (to_j < 0) | (to_slot < 0) | (to_slot >= own) | (unit.imag != 0)
        if np.any(outside | (state_rung[to_j] != to_rung)):
            raise RuntimeError("the Liouvillian maps the real charge-zero block outside itself")
        band = rung[at] - to_rung + 1
        if np.any((band < 0) | (band > 2)):
            raise RuntimeError("the Liouvillian couples rungs more than one apart")
        cell = ((to_rung * 3 + band) * width + to_slot) * width + slot[at]
        # the largest photon number of each entry's source and target pair
        reach = photons[np.stack([i[k], j[k], to_i, to_j])].max(axis=0)
        found.append((points, theta, cell, reach, param, unit.real.copy()))
    # the bands are allocated once the work arrays are freed, so that at
    # n_max 1000 the batch's memory peak lies outside the assembly
    del part, k, at, unit, to_i, to_j, to_rung, to_slot, outside, band
    bands = np.zeros((len(models), depth * 3 * width * width))
    for points, theta, cell, reach, param, unit in found:
        for point, rates in zip(points, theta):
            kept = reach <= n_maxes[point]
            np.add.at(bands[point], cell[kept], rates[param[kept]] * unit[kept])
    # each model's own slots, in its own Fock layout
    cutoff = np.array(n_maxes)[:, np.newaxis]
    dims = np.array([model.atom_dim for model in models])[:, np.newaxis]
    inside = filled & (pair_photons.max(axis=1) <= cutoff) & (slot <= dims)
    pairs = pair_level.T[:, np.newaxis] * (cutoff + 1) + pair_photons.T[:, np.newaxis]
    rows, cols = np.where(inside, pairs, -1).reshape(2, len(models), depth, width)
    return bands.reshape(len(models), depth, 3, width, width), rows, cols


def apply_liouvillian(liouv: sp.spmatrix, rho: np.ndarray) -> np.ndarray:
    """Evaluate L[rho] as a matrix of the same shape as rho."""
    return (liouv @ rho.reshape(-1)).reshape(rho.shape)


def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.abs(mat - mat.conj().T).max() <= tol)


def check_density_matrix(
    rho: np.ndarray,
    trace_tol: float = 1e-10,
    herm_tol: float = 1e-10,
    min_eigenvalue: float = -1e-8,
) -> None:
    """Raise ValueError unless rho is a valid density matrix.

    Checks unit trace, Hermiticity, and spectrum bounded below by
    ``min_eigenvalue`` (small negative values absorb round-off).
    """
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > trace_tol:
        raise ValueError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    herm = np.abs(rho - rho.conj().T).max()
    if herm > herm_tol:
        raise ValueError(f"Hermiticity violated by {herm:.3e}")
    evmin = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if evmin < min_eigenvalue:
        raise ValueError(f"negative eigenvalue {evmin:.3e}")


def _check_dims(model: EngineModel, space: HilbertSpace) -> None:
    if model.atom_dim != space.atom_dim:
        raise ValueError(
            f"{model.kind} model needs atom_dim {model.atom_dim}, "
            f"space has {space.atom_dim}"
        )
