"""Operators on the composite atom-cavity space and the Lindblad generator.

The composite Hilbert space is atom (x) Fock with the atom index varying
slowest, so the basis state |alpha, n> sits at index alpha * fock_dim + n.
Density matrices are vectorized row-major (C order), for which the
superoperator of rho -> A rho B is kron(A, B.T).

The public operator builders embed each operator as a dense (A F) x (A F)
matrix, and :func:`build_liouvillian` forms the full (A F)^2 generator from
them as a scipy sparse matrix; they are the reference, and scipy is imported
only when :func:`build_liouvillian` is called.  The steady-state solve needs
only the charge-zero block, which :func:`build_sector_liouvillian` assembles
straight from the rates by index arithmetic over the basis states, with no
operator matrix: every jump and the coupling send a basis state to at most
one basis state, so each is a target index and a value per state.  Ordered
by rung, the block is block-tridiagonal, and it is returned as dense numpy
bands.
"""

from __future__ import annotations

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
# U(1) charge c(level) of each level: every jump and the coupling shift
# n + c by a definite amount, so L maps |i><j| only onto operators with the
# same q(i) - q(j).  The coupling needs c(e2) - c(e1) = 1; the fractions keep
# every other level pair out of the q = 0 block.  Dyadic values keep n + c exact.
LEVEL_CHARGE = (0.5, 0.0, 1.0, 0.25)


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
    model: EngineModel, space: HilbertSpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The charge-zero block of the generator, as dense bands over rungs.

    The block holds the operators |i><j| for every pair of basis states of
    equal charge n + c(level) (see ``LEVEL_CHARGE``); it is closed under L
    and holds the unique steady state.  Its unknowns are grouped by rung
    floor(n + c), from 0 to n_max + 1.  A rung holds at most 6 unknowns (5
    for a three-level atom): the populations of |g, r>, |e3, r>, |e1, r>
    and |e2, r - 1> and the two coherences between the last two.  Every
    jump shifts the charge by less than one and the coupling keeps it, so L
    couples each rung only to itself and its two neighbours.

    Returns ``(bands, rows, cols)``.  Unknown s of rung r is the operator
    |rows[r, s]><cols[r, s]|; ``rows`` and ``cols`` have shape (R, m), with
    m the most unknowns in a rung, and are -1 in the empty slots of smaller
    rungs.  ``bands`` has shape (R, 3, m, m): ``bands[r, 1]`` maps rung r
    onto itself, ``bands[r, 0]`` rung r - 1 onto rung r and ``bands[r, 2]``
    rung r + 1 onto rung r (``bands[0, 0]`` and ``bands[R - 1, 2]`` are 0).
    Rows and columns of empty slots are 0.

    L[rho] = K rho + rho K+ + sum_r r J rho J+ with
    K = -i V - (1/2) sum_r r J+ J, over the jump channels of
    :func:`build_dissipators` and the coupling of :func:`build_interaction`.
    No operator is formed as a matrix.  Each jump J and the coupling V send
    a basis state to at most one basis state, and sum_r r J+ J is diagonal,
    so each is held as a target index (-1 where the column is zero) and a
    value per basis state.  K rho, rho K+ and r J rho J+ then map each
    unknown onto one entry each (two for the coupling), found by index
    arithmetic: with the pairs in row-major order, |i><j| is pair
    start(i) + rank(j), where rank(j) counts the states of j's charge below
    j, and each pair has a fixed rung and slot.
    """
    _check_dims(model, space)
    d = space.total_dim
    level, photons = np.divmod(np.arange(d), space.fock_dim)
    charge_value = np.array(LEVEL_CHARGE)[level] + photons
    _, charge, size = np.unique(charge_value, return_inverse=True, return_counts=True)
    members = np.argsort(charge, kind="stable")  # states grouped by charge
    first = np.cumsum(size) - size
    rank = np.empty(d, dtype=np.intp)
    rank[members] = np.arange(d) - first[charge[members]]
    width = size[charge]
    start = np.cumsum(width) - width
    rows = np.repeat(np.arange(d), width)
    cols = members[np.repeat(first[charge] - start, width) + np.arange(rows.size)]
    # rung and slot of every pair, slots in row-major order within a rung
    rung = np.floor(charge_value[rows]).astype(np.intp)
    per_rung = np.bincount(rung)
    by_rung = np.argsort(rung, kind="stable")
    slot = np.empty(rows.size, dtype=np.intp)
    slot[by_rung] = np.arange(rows.size) - (np.cumsum(per_rung) - per_rung)[rung[by_rung]]

    root = np.sqrt(photons.astype(float))

    def atom_jump(to_level, from_level):
        on = level == from_level
        return np.where(on, to_level * space.fock_dim + photons, -1), on.astype(float)

    # the cavity a and the coupling g (sigma+ a + sigma- a+)
    cavity = (np.where(photons > 0, np.arange(d) - 1, -1), root)
    absorb = (level == LEVEL_E1) & (photons > 0)
    emit = (level == LEVEL_E2) & (photons < space.n_max)
    coupling_to = np.where(absorb, LEVEL_E2 * space.fock_dim + photons - 1, -1)
    coupling_to = np.where(emit, LEVEL_E1 * space.fock_dim + photons + 1, coupling_to)
    coupling = model.g * np.where(absorb, root, np.where(emit, np.sqrt(photons + 1.0), 0.0))

    channels = [(rate, *atom_jump(to, frm)) for to, frm, rate in _bath_channels(model)]
    channels.append((model.kappa, *cavity))
    decay = np.zeros(d)  # the diagonal of -(1/2) sum_r r J+ J
    jumps = []
    for rate, target, value in channels:
        if rate < 0:
            raise ValueError(f"negative dissipator rate {rate}")
        if rate > 0:
            decay = decay - 0.5 * rate * (value * value)
            jumps.append((rate, target, value))

    column = np.arange(rows.size)
    k_coupling = -1j * coupling
    # (column, i, j, value) of K rho + rho K+ (diagonal and coupling parts)
    # and of every r J rho J+
    parts = [
        (column, rows, cols, decay[rows] + decay[cols]),
        (column, coupling_to[rows], cols, k_coupling[rows]),
        (column, rows, coupling_to[cols], np.conj(k_coupling[cols])),
    ]
    parts += [
        (column, target[rows], target[cols], (rate * value[rows]) * value[cols])
        for rate, target, value in jumps
    ]
    at, i, j, data = (np.concatenate(field) for field in zip(*parts))
    keep = (i >= 0) & (j >= 0) & (data != 0)
    at, i, j, data = at[keep], i[keep], j[keep], data[keep]
    if np.any(charge[i] != charge[j]):
        raise RuntimeError("the Liouvillian maps the charge-zero block outside itself")
    to = start[i] + rank[j]
    band = rung[at] - rung[to] + 1
    if np.any((band < 0) | (band > 2)):
        raise RuntimeError("the Liouvillian couples rungs more than one apart")
    bands = np.zeros((per_rung.size, 3, per_rung.max(), per_rung.max()), dtype=complex)
    np.add.at(bands, (rung[to], band, slot[to], slot[at]), data)
    rung_rows = np.full((per_rung.size, per_rung.max()), -1, dtype=np.intp)
    rung_cols = rung_rows.copy()
    rung_rows[rung, slot] = rows
    rung_cols[rung, slot] = cols
    return bands, rung_rows, rung_cols


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
