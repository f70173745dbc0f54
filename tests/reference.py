"""Test oracles: independent routes and checks that no command calls.

Each is a second way to a quantity the package computes, or a validity
check of a dense state, used only to cross-check the package:

- :func:`evolve` propagates a dense state under the full-space Liouvillian
  ``core.build_liouvillian``, and :func:`expectation` takes tr(rho O) of an
  observable such as :func:`number_operator`, the time-domain route to the
  steady state and its moments;
- :func:`apply_liouvillian` and :func:`check_density_matrix` check a dense
  state;
- :func:`elimination_flow` solves the atomic sector at two photon rungs,
  an independent route to ``photonstats.coefficient_flow``.
"""

import math
import warnings

import numpy as np
from scipy.sparse.linalg import expm_multiply

from heatlaser.models import THREE_LEVEL
from heatlaser.solver import _system_dim


def evolve(liouv, rho0, t_final):
    """Propagate rho0 for t_final: exp(L t_final) vec(rho0).

    Uses ``scipy.sparse.linalg.expm_multiply`` (Al-Mohy & Higham, SIAM J.
    Sci. Comput. 33, 488 (2011)), which picks its own steps from the norm of
    L t_final.  Warns if the trace drifts by more than 1e-8 over the run.
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


def expectation(rho, operator):
    """tr(rho O); real up to round-off for Hermitian O."""
    if rho.shape != operator.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {operator.shape}")
    return complex(np.einsum("ij,ji->", rho, operator))


def number_operator(atom_dim, n_max):
    """a+ a on atom (x) Fock at cutoff n_max: diagonal, the photon number of each basis state."""
    return np.diag(np.tile(np.arange(n_max + 1, dtype=complex), atom_dim))


def apply_liouvillian(liouv, rho):
    """Evaluate L[rho] as a matrix of the same shape as rho."""
    return (liouv @ rho.reshape(-1)).reshape(rho.shape)


def check_density_matrix(rho, trace_tol=1e-10, herm_tol=1e-10, min_eigenvalue=-1e-8):
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


def _three_level_system(model, n, p_nm1, p_n):
    """8-variable steady system of the atomic sector at photon rungs (n-1, n).

    Unknowns (complex): populations gg, 11, 22 at rung n; gg, 11, 22 at rung
    n-1; and the two lasing coherences r12 = rho_{12;n,n-1},
    r21 = rho_{21;n-1,n}.
    """
    ghp, ghm = model.gamma_h * model.n_h, model.gamma_h * (model.n_h + 1.0)
    gcp, gcm = model.gamma_c * model.n_c, model.gamma_c * (model.n_c + 1.0)
    ig_s = 1j * model.g * math.sqrt(n)
    half = 0.5 * (ghm + gcm)
    mat = np.zeros((8, 8), dtype=complex)
    rhs = np.zeros(8, dtype=complex)
    # columns: 0 gg_n, 1 11_n, 2 22_n, 3 gg_{n-1}, 4 11_{n-1}, 5 22_{n-1}, 6 r12, 7 r21
    mat[0, 6], mat[0, 7], mat[0, 1], mat[0, 0] = ig_s, -ig_s, -gcm, gcp
    mat[1, 7], mat[1, 6], mat[1, 5], mat[1, 3] = ig_s, -ig_s, -ghm, ghp
    mat[2, 1], mat[2, 5], mat[2, 6] = ig_s, -ig_s, -half
    mat[3, 1], mat[3, 5], mat[3, 7] = -ig_s, ig_s, -half
    mat[4, 1], mat[4, 0], mat[4, 2] = gcm, -(gcp + ghp), ghm
    mat[5, 4], mat[5, 3], mat[5, 5] = gcm, -(gcp + ghp), ghm
    mat[6, 0] = mat[6, 1] = mat[6, 2] = 1.0
    mat[7, 3] = mat[7, 4] = mat[7, 5] = 1.0
    rhs[6], rhs[7] = p_n, p_nm1
    return mat, rhs, (6, 7)


def _four_level_system(model, n, p_nm1, p_n):
    """10-variable analogue for the four-level engine (extra e3 populations)."""
    ghp, ghm = model.gamma_h * model.n_h, model.gamma_h * (model.n_h + 1.0)
    gcp, gcm = model.gamma_c * model.n_c, model.gamma_c * (model.n_c + 1.0)
    gap, gam = model.gamma_a * model.n_a, model.gamma_a * (model.n_a + 1.0)
    ig_s = 1j * model.g * math.sqrt(n)
    half = 0.5 * (gap + gcm)
    mat = np.zeros((10, 10), dtype=complex)
    rhs = np.zeros(10, dtype=complex)
    # columns: 0-3 gg,11,22,33 at rung n; 4-7 the same at rung n-1; 8 r12, 9 r21
    mat[0, 8], mat[0, 9], mat[0, 1], mat[0, 0] = ig_s, -ig_s, -gcm, gcp
    mat[1, 9], mat[1, 8], mat[1, 6], mat[1, 7] = ig_s, -ig_s, -gap, gam
    mat[2, 1], mat[2, 6], mat[2, 8] = ig_s, -ig_s, -half
    mat[3, 1], mat[3, 6], mat[3, 9] = -ig_s, ig_s, -half
    mat[4, 1], mat[4, 0], mat[4, 3] = gcm, -(gcp + ghp), ghm
    mat[5, 2], mat[5, 3], mat[5, 0] = gap, -(gam + ghm), ghp
    mat[6, 5], mat[6, 4], mat[6, 7] = gcm, -(gcp + ghp), ghm
    mat[7, 6], mat[7, 7], mat[7, 4] = gap, -(gam + ghm), ghp
    mat[8, 0] = mat[8, 1] = mat[8, 2] = mat[8, 3] = 1.0
    mat[9, 4] = mat[9, 5] = mat[9, 6] = mat[9, 7] = 1.0
    rhs[8], rhs[9] = p_n, p_nm1
    return mat, rhs, (8, 9)


def elimination_flow(model, n, p_nm1, p_n):
    """Coherent photon flow at rung n from the atomic steady-state system.

    Solves the closed 8-variable (three-level) or 10-variable (four-level)
    linear system for the atomic populations and lasing coherences at the
    photon rungs (n-1, n), given the rung probabilities, and returns
    i g sqrt(n) (rho_{12;n,n-1} - rho_{21;n-1,n}).  Agrees with
    ``photonstats.coefficient_flow`` to rounding; a fully independent check
    of the closed-form coefficients.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    build = _three_level_system if model.kind == THREE_LEVEL else _four_level_system
    mat, rhs, (i12, i21) = build(model, n, p_nm1, p_n)
    try:
        sol = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"degenerate engine rates: {exc}") from exc
    flow = 1j * model.g * math.sqrt(n) * (sol[i12] - sol[i21])
    scale = max(1.0, abs(flow.real))
    if abs(flow.imag) > 1e-9 * scale:
        raise ValueError(f"elimination flow is not real: {flow}")
    return float(flow.real)
