"""Exact numerics on the master equation.

Steady states (an LU null-space solve on the charge-zero block or the full
space), time evolution, reduced cavity states, photon distributions,
expectation values, and Wigner functions.  These provide the independent
check against the closed-form theory in :mod:`heatlaser.photonstats`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply, splu

from .core import HilbertSpace, build_sector_liouvillian
from .models import FOUR_LEVEL, EngineModel
from .photonstats import PhotonDistribution

__all__ = [
    "SteadyStateResult",
    "SteadyStateError",
    "WignerField",
    "steady_state",
    "evolve",
    "partial_trace_atom",
    "photon_distribution",
    "expectation",
    "wigner",
    "solve_model",
    "DEFAULT_N_MAX",
]

# default Fock truncations; the tail is validated post hoc with retry
DEFAULT_N_MAX = {False: 40, True: 60}


class SteadyStateError(RuntimeError):
    """Raised when the steady state is not unique or misses the residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class SteadyStateResult:
    """A steady state with its defect |L[rho]|_inf and the producing method."""

    state: np.ndarray
    residual: float
    method: str


@dataclass(frozen=True)
class WignerField:
    """Wigner quasi-probability sampled on a rectangular phase-space grid."""

    re_axis: np.ndarray
    im_axis: np.ndarray
    values: np.ndarray


def _system_dim(liouv):
    n2 = liouv.shape[0]
    d = math.isqrt(n2)
    if d * d != n2 or liouv.shape[0] != liouv.shape[1]:
        raise ValueError(f"Liouvillian shape {liouv.shape} is not a squared square")
    return d


def _nullspace_solve(liouv, rows, cols, d, tol):
    """Steady state of L restricted to the basis |rows[k]><cols[k]|.

    Solves L x = 0 by LU with the first row, the equation of the basis
    element rows[0] = cols[0] = 0, replaced by the trace constraint.  The
    basis must be closed under L; the residual is then |L x|_inf of the
    Hermitian, unit-trace state.
    """
    coo = liouv.tocoo()
    keep = coo.row != 0
    diagonal = np.flatnonzero(rows == cols)
    mat_rows = np.concatenate([coo.row[keep], np.zeros(diagonal.size, dtype=coo.row.dtype)])
    mat_cols = np.concatenate([coo.col[keep], diagonal])
    data = np.concatenate([coo.data[keep], np.ones(diagonal.size, dtype=complex)])
    mat = sp.csc_matrix((data, (mat_rows, mat_cols)), shape=liouv.shape)
    rhs = np.zeros(rows.size, dtype=complex)
    rhs[0] = 1.0
    try:
        x = splu(mat).solve(rhs)
    except RuntimeError as exc:  # singular factorization
        raise SteadyStateError(f"null-space solve failed: {exc}") from exc
    rho = np.zeros((d, d), dtype=complex)
    rho[rows, cols] = x
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    res = float(np.abs(liouv @ rho[rows, cols]).max())
    if not res < tol:
        raise SteadyStateError(f"null-space solve stalled at residual {res:.3e}", res)
    return SteadyStateResult(rho, res, "nullspace")


def steady_state(liouv: sp.spmatrix, tol: float = 1e-9) -> SteadyStateResult:
    """Stationary density matrix of a full-space Liouvillian.

    Solves the sparse linear system L vec(rho) = 0 with one row replaced by
    the trace constraint (LU factorization).  Raises
    :class:`SteadyStateError` when the factorization is singular, i.e. the
    steady state is not unique, or when the residual |L[rho]|_inf does not
    fall below ``tol``.
    """
    d = _system_dim(liouv)
    rows, cols = np.divmod(np.arange(d * d), d)
    return _nullspace_solve(liouv, rows, cols, d, tol)


def evolve(liouv: sp.spmatrix, rho0: np.ndarray, t_final: float) -> np.ndarray:
    """Propagate rho0 for t_final: exp(L t_final) vec(rho0).

    Uses ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)), which picks its own steps from the norm
    of L t_final.  Warns if the trace drifts by more than 1e-8 over the run.
    """
    d = _system_dim(liouv)
    if rho0.shape != (d, d):
        raise ValueError(f"state shape {rho0.shape} does not match dimension {d}")
    if t_final < 0:
        raise ValueError("t_final must be non-negative")
    vec = expm_multiply(liouv * t_final, rho0.reshape(-1).astype(complex))
    rho = vec.reshape(d, d)
    drift = abs(np.trace(rho).real - complex(np.trace(rho0)).real)
    if drift > 1e-8:
        warnings.warn(f"trace drifted by {drift:.3e} during evolution", stacklevel=2)
    return rho


def partial_trace_atom(rho: np.ndarray, space: HilbertSpace) -> np.ndarray:
    """Reduced cavity state, tracing out the atom factor."""
    d = space.total_dim
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match space dim {d}")
    blocks = rho.reshape(space.atom_dim, space.fock_dim, space.atom_dim, space.fock_dim)
    return np.einsum("aman->mn", blocks)


def photon_distribution(
    rho: np.ndarray, space: HilbertSpace, tail_tol: float = 1e-6
) -> PhotonDistribution:
    """Photon-number distribution of the cavity, P_n = <n| tr_atom rho |n>.

    Tiny negative diagonal entries from round-off are clipped; the vector is
    renormalized.  Warns when the truncation rung still carries more than
    ``tail_tol`` probability.
    """
    reduced = partial_trace_atom(rho, space)
    p = np.clip(np.real(np.diag(reduced)), 0.0, None)
    total = p.sum()
    if total <= 0:
        raise ValueError("state carries no photon-number probability")
    p = p / total
    if p[-1] >= tail_tol:
        warnings.warn(
            f"truncation rung holds P[{space.n_max}] = {p[-1]:.3e}; "
            "increase the Fock cutoff",
            stacklevel=2,
        )
    return PhotonDistribution(p)


def expectation(rho: np.ndarray, operator: np.ndarray) -> complex:
    """tr(rho O); real up to round-off for Hermitian O."""
    if rho.shape != operator.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {operator.shape}")
    return complex(np.einsum("ij,ji->", rho, operator))


def wigner(
    cavity_rho: np.ndarray,
    re_axis: np.ndarray | None = None,
    im_axis: np.ndarray | None = None,
) -> WignerField:
    """Wigner function by displaced parity, W(a) = (2/pi) tr[rho D(a) P D+(a)].

    D(a) is the displacement operator and P the photon-number parity.  The
    value is computed by the Cahill-Glauber Laguerre sum, exactly for the
    given finite rho and with no padded Fock space (u = 4|a|^2):

        W(a) = (2/pi) e^{-u/2} [ sum_m rho_mm (-1)^m L_m(u)
               + 2 Re sum_{k>=1} (2a)^k sum_m rho_{m,m+k} (-1)^m
                 sqrt(m!/(m+k)!) L_m^k(u) ]

    The phase convention: rho_{m,m+k} is weighted by (2a)^k, so a coherent
    state |b> peaks at a = b.  rho must be Hermitian: only its upper
    diagonals are read.  Each diagonal k runs the three-term Laguerre
    recurrence over the whole grid; diagonals that are zero are skipped.
    Default grid: 101 x 101 over [-4, 4]^2.
    """
    fock = cavity_rho.shape[0]
    if cavity_rho.shape != (fock, fock):
        raise ValueError("cavity state must be a square matrix")
    if re_axis is None:
        re_axis = np.linspace(-4.0, 4.0, 101)
    if im_axis is None:
        im_axis = np.linspace(-4.0, 4.0, 101)
    re_axis = np.asarray(re_axis, dtype=float)
    im_axis = np.asarray(im_axis, dtype=float)

    mean_n = float(np.real(np.arange(fock) @ np.diag(cavity_rho)))
    radius = float(max(np.abs(re_axis).max(), np.abs(im_axis).max()))
    if radius < 1.2 * math.sqrt(mean_n + 1.0):
        warnings.warn(
            f"grid radius {radius:.2f} small for a state with <n> = {mean_n:.2f}",
            stacklevel=2,
        )

    alpha = re_axis[np.newaxis, :] + 1j * im_axis[:, np.newaxis]
    u = 4.0 * np.abs(alpha) ** 2
    two_r = np.sqrt(u)
    phase = np.exp(1j * np.angle(alpha))
    # start_k = e^{-u/2} (2|a|)^k / sqrt(k!), the square root of a Poisson
    # weight, so it stays in [0, 1] and neither it nor the recurrence overflows
    start = np.exp(-0.5 * u)
    rotation = np.ones_like(alpha)
    total = np.zeros_like(u)
    for k in range(fock):
        if k:
            start = start * two_r / math.sqrt(k)
            rotation = rotation * phase
        band = np.diagonal(cavity_rho, k) * (-1.0) ** np.arange(fock - k)
        if not band.any():
            continue
        # l_m = e^{-u/2} (2|a|)^k sqrt(m!/(m+k)!) L_m^k(u) obeys
        # sqrt((m+1)(m+1+k)) l_{m+1} = (2m+1+k-u) l_m - sqrt(m(m+k)) l_{m-1}
        prev, cur = np.zeros_like(u), start
        acc = band[0] * cur
        for m in range(band.size - 1):
            prev, cur = cur, (
                (2 * m + 1 + k - u) * cur - math.sqrt(m * (m + k)) * prev
            ) / math.sqrt((m + 1) * (m + 1 + k))
            acc = acc + band[m + 1] * cur
        total += np.real(acc) if k == 0 else 2.0 * np.real(rotation * acc)
    return WignerField(re_axis, im_axis, (2.0 / math.pi) * total)


def solve_model(
    model: EngineModel,
    n_max: int | None = None,
    tol: float = 1e-9,
    tail_tol: float = 1e-8,
    retry_on_tail: bool = True,
) -> tuple[HilbertSpace, SteadyStateResult]:
    """Steady state of an engine with the Fock-truncation policy applied.

    Solves only the charge-zero block of :func:`build_sector_liouvillian`,
    which holds the unique steady state, by the same LU null-space solve as
    :func:`steady_state`; the residual is that of the full-space generator,
    because the block is closed.  Raises :class:`SteadyStateError` when the
    steady state is not unique or misses ``tol``.

    Defaults to N_max = 40 (three-level) or 60 (four-level).  After solving,
    the photon-number tail is checked against ``tail_tol``; on violation the
    cutoff grows by 1.5x and the solve repeats (up to three times) unless
    ``retry_on_tail`` is disabled.
    """
    if n_max is None:
        n_max = DEFAULT_N_MAX[model.kind == FOUR_LEVEL]
    attempts = 4 if retry_on_tail else 1
    for attempt in range(attempts):
        space = HilbertSpace.for_model(model, n_max)
        block, rows, cols = build_sector_liouvillian(model, space)
        result = _nullspace_solve(block, rows, cols, space.total_dim, tol)
        reduced = partial_trace_atom(result.state, space)
        tail = float(np.clip(np.real(reduced[-1, -1]), 0.0, None))
        if tail < tail_tol or attempt == attempts - 1:
            if tail >= tail_tol:
                warnings.warn(
                    f"tail P[{n_max}] = {tail:.3e} still above {tail_tol:.1e}",
                    stacklevel=2,
                )
            return space, result
        n_max = math.ceil(1.5 * n_max)
    raise AssertionError("unreachable")
