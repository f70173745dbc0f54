"""Operators on the composite atom-cavity space and the Lindblad generator.

The composite Hilbert space is atom (x) Fock with the atom index varying
slowest, so the basis state |alpha, n> sits at index alpha * fock_dim + n.
Density matrices are vectorized row-major (C order), for which the
superoperator of rho -> A rho B is kron(A, B.T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .models import FOUR_LEVEL, EngineModel

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


def build_dissipators(model: EngineModel, space: HilbertSpace) -> list[Dissipator]:
    """All jump channels of the model: thermal baths plus cavity decay.

    Each bath contributes an upward channel at rate gamma * nbar and a
    downward channel at rate gamma * (nbar + 1); the cavity leaks photons
    at rate kappa into a vacuum environment.
    """
    _check_dims(model, space)
    a, _ = build_cavity_operators(space)
    atom = build_atom_operators(space)
    baths = [("tau_h", model.hot), ("tau_c", model.cold)]
    if model.kind == FOUR_LEVEL:
        baths.append(("tau_a", model.ancilla))
    out = []
    for name, bath in baths:
        out.append(Dissipator(atom[name + "_plus"], bath.gamma * bath.occupation))
        out.append(Dissipator(atom[name + "_minus"], bath.gamma * (bath.occupation + 1.0)))
    out.append(Dissipator(a, model.kappa))
    return out


def build_liouvillian(model: EngineModel, space: HilbertSpace) -> sp.csr_matrix:
    """Sparse generator L with d(vec rho)/dt = L vec(rho).

    Interaction-picture master equation at exact resonance: the coherent part
    is i [rho, V] with V the Jaynes-Cummings coupling, plus one Lindblad
    dissipator per jump channel of :func:`build_dissipators`.
    """
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


def _outer_columns(left, right, rows, cols):
    """Entries of (left|rows[k]>)(right|cols[k]>)^+ for every k.

    Returns (k, i, j, value) arrays, one element per nonzero product.
    """
    left = sp.csc_matrix(left)[:, rows]
    right = sp.csc_matrix(right)[:, cols]
    left_k = np.repeat(np.arange(rows.size), np.diff(left.indptr))
    # pair each left entry with every right entry of the same column k
    reps = np.diff(right.indptr)[left_k]
    pick_l = np.repeat(np.arange(left.nnz), reps)
    first = np.cumsum(reps) - reps
    pick_r = np.repeat(right.indptr[left_k] - first, reps) + np.arange(reps.sum())
    return (
        left_k[pick_l],
        left.indices[pick_l],
        right.indices[pick_r],
        left.data[pick_l] * np.conj(right.data[pick_r]),
    )


def build_sector_liouvillian(
    model: EngineModel, space: HilbertSpace
) -> tuple[sp.csc_matrix, np.ndarray, np.ndarray]:
    """The charge-zero block of the generator, assembled without the full space.

    Returns ``(L_q0, rows, cols)``: column k of the sparse ``L_q0`` is the
    operator |rows[k]><cols[k]|, for every pair of basis states of equal
    charge n + c(level) (see ``LEVEL_CHARGE``), in row-major order.  The
    block is closed under L and holds the unique steady state.  It is built
    as L[rho] = K rho + rho K+ + sum_r r J rho J+ with
    K = -i V - (1/2) sum_r r J+ J, from the same :func:`build_interaction`
    and :func:`build_dissipators` as :func:`build_liouvillian`.
    """
    _check_dims(model, space)
    d = space.total_dim
    charge = (
        np.array(LEVEL_CHARGE[: space.atom_dim])[:, np.newaxis]
        + np.arange(space.fock_dim)
    ).ravel()
    rows, cols = np.nonzero(charge[:, np.newaxis] == charge[np.newaxis, :])
    jumps = []
    for jump, rate in build_dissipators(model, space):
        if rate < 0:
            raise ValueError(f"negative dissipator rate {rate}")
        if rate > 0:
            jumps.append((rate, sp.csc_matrix(jump)))
    k_op = -1j * sp.csc_matrix(build_interaction(model, space))
    for rate, jump in jumps:
        k_op = k_op - 0.5 * rate * (jump.conj().T @ jump)
    eye = sp.identity(d, dtype=complex, format="csc")
    sandwiches = [(k_op, eye), (eye, k_op)] + [(rate * jump, jump) for rate, jump in jumps]
    parts = [_outer_columns(left, right, rows, cols) for left, right in sandwiches]
    k, i, j, data = (np.concatenate(column) for column in zip(*parts))
    keys, out = rows * d + cols, i * d + j
    pos = np.minimum(np.searchsorted(keys, out), keys.size - 1)
    if not np.array_equal(keys[pos], out):
        raise RuntimeError("the Liouvillian maps the charge-zero block outside itself")
    block = sp.csc_matrix((data, (pos, k)), shape=(keys.size, keys.size))
    return block, rows, cols


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
