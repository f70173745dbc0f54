"""Exact numerics on the master equation.

:func:`solve_model` sweeps the rungs of the charge-zero block by block
Thomas in numpy, in real arithmetic over one real unknown per population
and per coherence pair, and returns the steady state in the block's rung
layout, those unknowns by rung and slot (:class:`BlockState`), with its
photon distribution, in O(n_max) memory and time; :func:`exact_grid`
does so for one engine over a grid of hot-bath occupations n_h, one
stacked sweep per batch, each point in its own layout and over its own
rungs, and returns the columns of a sweep.  They are the independent
check on the closed-form theory in :mod:`heatlaser.photonstats`.  The
dense (A F)^2 :func:`steady_state`, :func:`partial_trace_atom` and
:func:`photon_distribution` are the full-space references (the first
imports scipy when called).  :func:`wigner` maps a photon distribution to
phase space, by default on 101 x 101 points over [-h, h]^2 with
h = max(4, 1.2 sqrt(<n> + 1)), so a bright state's ring stays on the grid.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    LEVEL_E1,
    LEVEL_E2,
    RUNG_SHIFT,
    RUNG_SLOTS,
    SLOT_OF,
    HilbertSpace,
    _bath_channels,
    build_sector_liouvillian,
)
from .models import EngineModel
from .photonstats import (
    PhotonDistribution,
    TruncationError,
    _runs,
    scully_lamb_coefficients,
    steady_distribution,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "BlockState",
    "SteadyStateResult",
    "SteadyStateError",
    "WignerField",
    "steady_state",
    "partial_trace_atom",
    "photon_distribution",
    "wigner",
    "solve_model",
    "exact_grid",
]

# largest Fock cutoff solve_model and exact_grid accept; see solve_model
MAX_N_MAX = 1000

# rung-points, (points) x (largest cutoff + 2), per batch of steady-state
# solves.  A batch holds the real rung bands of all its points at once, so
# its memory grows with its rung-points; the budget is the batch of 16
# four-level points at the cutoff bound MAX_N_MAX, whose traced peak of
# 14.9 MB test_solver.py gates, and it holds a whole preset grid (fig2: 60
# points at n_max <= 33, 2 100 rung-points)
BATCH_RUNGS = 16 * (MAX_N_MAX + 2)


class SteadyStateError(RuntimeError):
    """Raised when the steady state is not unique or misses the residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


SteadyStateResult = namedtuple("SteadyStateResult", "state residual method")
SteadyStateResult.__doc__ = (
    """A dense steady state of :func:`steady_state`, its defect |L[rho]|_inf and method."""
)

WignerField = namedtuple("WignerField", "re_axis im_axis values")
WignerField.__doc__ = """Wigner quasi-probability sampled on a rectangular phase-space grid."""


def _system_dim(liouv):
    n2 = liouv.shape[0]
    d = math.isqrt(n2)
    if d * d != n2 or liouv.shape[0] != liouv.shape[1]:
        raise ValueError(f"Liouvillian shape {liouv.shape} is not a squared square")
    return d


def _stall(residual, scale, tol):
    """The :class:`SteadyStateError` of a residual above ``tol`` x max|L_ij|, or None."""
    if not residual <= tol * scale:
        return SteadyStateError(
            f"steady-state solve stalled at residual {residual:.3e} > {tol:.1e} x "
            f"max|L_ij| = {tol * scale:.3e}",
            residual,
        )
    return None


def steady_state(liouv: sp.spmatrix, tol: float = 1e-9) -> SteadyStateResult:
    """Stationary density matrix of a full-space Liouvillian.

    Solves the sparse linear system L vec(rho) = 0 with its first row, the
    equation of |0><0|, replaced by the trace constraint (LU factorization,
    ``scipy.sparse.linalg.splu``; scipy is imported when called).  Raises
    :class:`SteadyStateError` when the factorization is singular, i.e. the
    steady state is not unique, or when the residual |L[rho]|_inf of the
    Hermitian, unit-trace state exceeds ``tol`` times the largest |L_ij|, so
    that round-off, which grows with the rates, is judged relative to the
    scale of L.  The reported residual is absolute.  The reference for
    :func:`solve_model`.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    d = _system_dim(liouv)
    coo = liouv.tocoo()
    keep = coo.row != 0
    diagonal = np.arange(d) * (d + 1)
    mat_rows = np.concatenate([coo.row[keep], np.zeros(d, dtype=coo.row.dtype)])
    mat_cols = np.concatenate([coo.col[keep], diagonal])
    data = np.concatenate([coo.data[keep], np.ones(d, dtype=complex)])
    mat = sp.csc_matrix((data, (mat_rows, mat_cols)), shape=liouv.shape)
    rhs = np.zeros(d * d, dtype=complex)
    rhs[0] = 1.0
    try:
        x = splu(mat).solve(rhs)
    except RuntimeError as exc:  # singular factorization
        raise SteadyStateError(f"null-space solve failed: {exc}") from exc
    rho = x.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real
    res = float(np.abs(liouv @ rho.reshape(-1)).max())
    stall = _stall(res, float(np.abs(liouv.data).max(initial=0.0)), tol)
    if stall is not None:
        raise stall
    return SteadyStateResult(rho, res, "nullspace")


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


def wigner(
    distribution: PhotonDistribution,
    re_axis: np.ndarray | None = None,
    im_axis: np.ndarray | None = None,
) -> WignerField:
    """Wigner function of the cavity state sum_n P_n |n><n|.

    W(a) = (2/pi) tr[rho D(a) P D+(a)], with D(a) the displacement operator
    and P the photon-number parity, is for a state diagonal in n the radial
    Laguerre sum (u = 4|a|^2)

        W(a) = (2/pi) e^{-u/2} sum_n P_n (-1)^n L_n(u),

    exact for the given finite distribution, with no padded Fock space.  A
    diagonal state is all there is to map: the engine conserves the charge
    n + c(level), so the steady state lives in the charge-zero block, and
    tracing out the atom pairs equal levels, which in that block have equal
    n.  The recurrence runs once per distinct radius u of the grid (a
    symmetric grid repeats each u up to eight times), and each point takes
    the value of its u.  Default grid: 101 x 101 over [-h, h]^2 with
    h = max(4, 1.2 sqrt(<n> + 1)); an explicit axis whose reach is below
    that radius warns.
    """
    p = distribution.probabilities
    mean_n = distribution.mean
    half_width = max(4.0, 1.2 * math.sqrt(mean_n + 1.0))
    if re_axis is None:
        re_axis = np.linspace(-half_width, half_width, 101)
    if im_axis is None:
        im_axis = np.linspace(-half_width, half_width, 101)
    re_axis = np.asarray(re_axis, dtype=float)
    im_axis = np.asarray(im_axis, dtype=float)

    radius = float(max(np.abs(re_axis).max(), np.abs(im_axis).max()))
    if radius < 1.2 * math.sqrt(mean_n + 1.0):
        warnings.warn(
            f"grid radius {radius:.2f} small for a state with <n> = {mean_n:.2f}",
            stacklevel=2,
        )

    u = 4.0 * np.abs(re_axis[np.newaxis, :] + 1j * im_axis[:, np.newaxis]) ** 2
    # W depends on u only: run the recurrence once per distinct u.  The
    # inverse is reshaped, since its shape differs across numpy releases
    u, where = np.unique(u, return_inverse=True)
    band = p * (-1.0) ** np.arange(p.size)
    # l_m = e^{-u/2} L_m(u) lies in [-1, 1], so neither it nor the
    # recurrence (m+1) l_{m+1} = (2m+1-u) l_m - m l_{m-1} overflows
    prev, cur = np.zeros_like(u), np.exp(-0.5 * u)
    total = band[0] * cur
    for m in range(p.size - 1):
        prev, cur = cur, ((2 * m + 1 - u) * cur - m * prev) / (m + 1)
        total = total + band[m + 1] * cur
    values = ((2.0 / math.pi) * total)[where.reshape(im_axis.size, re_axis.size)]
    return WignerField(re_axis, im_axis, values)


def _rung_sweep(bands, rhs, rungs):
    """Solve a batch of block-tridiagonal systems by block Thomas.

    ``bands`` has shape (P, R, 3, m, m) and ``rhs`` shape (P, R, m), one
    system per point p over its first ``rungs[p]`` rungs, solved in the
    dtype of ``bands``.  Forward elimination over the rungs keeps, per rung
    r, the solution [G_r | y_r] of S_r [G_r | y_r] = [C_r | b_r - A_r y_{r-1}]
    with the Schur complement S_r = B_r - A_r G_{r-1} (A, B, C the lower,
    diagonal and upper blocks); back substitution is x_r = y_r - G_r x_{r+1}.
    This is a matrix continued fraction (Risken, *The Fokker-Planck
    Equation*, ch. 9): nothing past a point's last rung feeds back into it,
    so its recursion stops there.  ``rungs`` is ascending, so the points
    that reach rung r are a suffix of the batch, a view, and each rung takes
    one stacked solve and one stacked matmul over that suffix: the batch
    costs sum(rungs) matrices, as its points solved alone do.  numpy runs
    LAPACK and BLAS once per matrix, so a point gets the numbers a batch of
    one gives it.  Past a point's last rung its rows keep ``rhs``.  There is
    no pivoting across rungs; a singular S_r of any point raises
    ``np.linalg.LinAlgError`` for the whole batch.
    """
    lower, diag = bands[:, :, 0], bands[:, :, 1]
    width = diag.shape[-1]
    work = np.concatenate([bands[:, :, 2], rhs[..., np.newaxis]], axis=-1)
    # starts[r]: the first point that reaches rung r
    starts = np.searchsorted(rungs, np.arange(bands.shape[1]), side="right").tolist()
    prev, first = np.zeros((len(bands), width, width + 1), dtype=bands.dtype), 0
    for r, start in enumerate(starts):
        coupled = lower[start:, r] @ prev[start - first :]  # [A_r G_{r-1} | A_r y_{r-1}]
        work[start:, r, :, width] -= coupled[:, :, width]
        prev = work[start:, r] = np.linalg.solve(
            diag[start:, r] - coupled[:, :, :width], work[start:, r]
        )
        first = start
    x = work[..., width:]
    for r in range(bands.shape[1] - 2, -1, -1):
        start = starts[r + 1]
        x[start:, r] -= work[start:, r, :, :width] @ x[start:, r + 1]
    return x[..., 0].copy()  # contiguous, and the workspace is freed on return


def _apply_bands(bands, x):
    """L x for a batch of vectors laid out by rung, shape (P, R, m)."""
    out = np.einsum("prij,prj->pri", bands[:, :, 1], x)
    out[:, 1:] += np.einsum("prij,prj->pri", bands[:, 1:, 0], x[:, :-1])
    out[:, :-1] += np.einsum("prij,prj->pri", bands[:, :-1, 2], x[:, 1:])
    return out


def _pinned_levels(model, n_h):
    """Per n_h of the grid, a level l whose vacuum population <l, 0|rho|l, 0> is nonzero.

    Every bath jump of positive rate moves the atom between its levels, and
    with g != 0 the coupling takes |e2, 0> to |e1, 1>, which decays to
    |e1, 0>; the cavity empties from every level.  So the closed classes of
    the steady state are those of this graph on the levels at n = 0, one
    graph per n_h from one ``_bath_channels`` call, whose reachability is
    one stacked matrix power.  A point gets the first level of its one
    closed class, which the steady state populates, or a
    :class:`SteadyStateError` if it has more than one.
    """
    to_level, from_level, rates = zip(*_bath_channels(model, n_h))
    dim = model.atom_dim
    step = np.tile(np.eye(dim, dtype=int), (len(n_h), 1, 1))
    step[:, from_level, to_level] |= np.stack(np.broadcast_arrays(*rates), axis=1) > 0
    step[:, LEVEL_E2, LEVEL_E1] |= model.g != 0
    reach = np.linalg.matrix_power(step, dim) > 0
    # l is closed when it comes back from every level it reaches
    closed = np.all(reach.swapaxes(1, 2) | ~reach, axis=2)
    unique = np.all(reach | ~(closed[:, :, np.newaxis] & closed[:, np.newaxis]), axis=(1, 2))
    return [
        first if one else SteadyStateError(
            "the steady state is not unique: levels "
            f"{np.flatnonzero(levels).tolist()} at n = 0 fall into separate closed classes"
        )
        for levels, one, first in zip(closed, unique, closed.argmax(axis=1).tolist())
    ]


# a steady state in rung layout: rungs[r, s] is the real unknown u of slot s
# of rung r, whose operator core.RUNG_SLOTS and RUNG_SHIFT name: the pair
# |l, r - RUNG_SHIFT[l]><l', r - RUNG_SHIFT[l']| for (l, l') = RUNG_SLOTS[s].
# A population is u; the coherence |e1, n + 1><e2, n| is i u and its
# partner -i u
BlockState = namedtuple("BlockState", "rungs distribution residual")

# |L_ij| of the complex block from the real bands: a population's entry in
# the coherence column sums the equal entries of both partners, so it is
# halved (see build_sector_liouvillian)
_HALVED = 1.0 - 0.5 * np.outer(np.equal(*RUNG_SLOTS.T), np.not_equal(*RUNG_SLOTS.T))


def _sweep_points(system, rhs, rungs):
    """The batch's rung-sweep solutions, and per point the error it raised or None.

    A stacked solve fails as a whole when any point's system is singular,
    so such a batch is solved again one point at a time, and only the
    singular points get a :class:`SteadyStateError`.  Their rows of the
    solution keep the right-hand side, the pinned unit, so that the
    finishing pass runs on finite numbers.
    """
    try:
        return _rung_sweep(system, rhs, rungs), [None] * len(system)
    except np.linalg.LinAlgError as exc:
        if len(system) == 1:
            error = SteadyStateError(f"rung sweep failed: {exc}")
            error.__cause__ = exc
            return rhs.copy(), [error]
    x, errors = rhs.copy(), []
    for p in range(len(system)):
        x[[p]], (error,) = _sweep_points(system[[p]], rhs[[p]], rungs[p : p + 1])
        errors.append(error)
    return x, errors


def _solve_batch(model, n_h, n_maxes, tol):
    """One batch of points, solved: ``(outcomes, row, x, p, residuals)``.

    ``outcomes`` holds per point, in the order of ``n_h``, the error it
    raised or, when its steady state passed, its :class:`HilbertSpace`.
    ``row`` maps each point that passed to its row of the stacked arrays:
    the unit-trace solutions ``x`` in rung layout, the residuals, and the
    photon distributions ``p``, zero past each point's cutoff and
    normalised once, as ``p / p.sum()``.  The tail warnings fire here, in
    the order of ``n_h``.

    The live points are assembled in one call and swept in one stacked
    rung sweep, in ascending order of cutoff, each n_h with its own: each
    rung then sweeps a suffix of the batch (``_rung_sweep``), and a grid
    that is already in that order reaches the builder as it is.  The pinned
    levels are one stacked reachability pass, and the residuals, their
    scales and the photon distributions a few array operations over the
    stacked solution.  Per point remain the checks of its n_h and cutoff,
    and two sums over its own rungs, since numpy's pairwise sum groups the
    terms of a padded row otherwise: its trace, a masked sum, and that of
    its P_n.
    """
    outcomes = []
    for occupation, n_max, pin in zip(n_h.tolist(), n_maxes, _pinned_levels(model, n_h)):
        try:
            if not 0 <= occupation < math.inf:
                raise ValueError(f"hot bath occupation must be finite and >= 0, got {occupation}")
            if n_max > MAX_N_MAX:
                raise TruncationError(f"cutoff needs n_max = {n_max} > {MAX_N_MAX}")
            space = HilbertSpace.for_model(model, n_max)
        except (TruncationError, ValueError) as exc:
            outcomes.append(exc)
        else:
            outcomes.append(pin if isinstance(pin, Exception) else (space, pin))
    live = [k for k, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
    if not live:
        return outcomes, {}, None, None, []
    live.sort(key=n_maxes.__getitem__)
    spaces, pinned = zip(*(outcomes[k] for k in live))
    cutoffs = [space.n_max for space in spaces]
    bands, inside = build_sector_liouvillian(model, n_h[live], cutoffs)
    # the pinned population's equation becomes x = 1, and that of every slot
    # outside the point's block x = 0: its row and column are already 0, so
    # it needs only a unit diagonal.  Both are set in place, and undone for
    # the residual and its scale once the sweep has returned, the failed
    # points' included; only the pinned rows are saved
    pinned = np.array(pinned)
    point, rung, slot = np.arange(len(live)), RUNG_SHIFT[pinned], SLOT_OF[pinned, pinned]
    rhs = np.zeros(inside.shape)
    rhs[point, rung, slot] = 1.0
    saved = bands[point, rung, :, slot]
    bands[point, rung, :, slot] = 0.0
    bands[point, rung, 1, slot, slot] = 1.0
    diagonal = np.einsum("prss->prs", bands[:, :, 1])  # a view
    np.copyto(diagonal, 1.0, where=~inside)
    x, errors = _sweep_points(bands, rhs, [n_max + 2 for n_max in cutoffs])
    np.copyto(diagonal, 0.0, where=~inside)
    bands[point, rung, :, slot] = saved

    width = x.shape[-1]
    populations = inside & np.equal(*RUNG_SLOTS[:width].T)
    x /= np.array([x[j][populations[j]].sum() for j in point.tolist()])[:, np.newaxis, np.newaxis]
    residuals = np.abs(_apply_bands(bands, x)).max(axis=(1, 2)).tolist()
    # max|bands| per point, without an |bands| temporary
    scales = np.maximum(bands.max(axis=1), -bands.min(axis=1)) * _HALVED[:width, :width]
    scales = scales.max(axis=(1, 2, 3)).tolist()
    # the reduced cavity state is diagonal: P_n sums the populations of the
    # levels at n, |l, n> in rung n + RUNG_SHIFT[l], added level by level
    # as the partial trace adds them
    depth = x.shape[1] - 1
    p = sum(x[:, RUNG_SHIFT[l] : depth + RUNG_SHIFT[l], SLOT_OF[l, l]] for l in range(width - 1))
    p = np.clip(p, 0.0, None)
    row = {}
    for j, (k, error) in enumerate(zip(live, errors)):
        error = error or _stall(residuals[j], scales[j], tol)
        if error is None:
            row[k] = j
        outcomes[k] = error or spaces[j]
    # in point order, pointing at the line that called solve_model or
    # exact_grid
    for k in sorted(row):
        n_max = outcomes[k].n_max
        if p[row[k], n_max] > 1e-8:
            warnings.warn(f"tail P[{n_max}] = {p[row[k], n_max]:.3e} above 1e-8", stacklevel=3)
    passed = list(row.values())
    p[passed] /= np.array([p[j, : cutoffs[j] + 1].sum() for j in passed])[:, np.newaxis]
    return outcomes, row, x, p, residuals


def _grid_columns(outcomes, row, x, p, residuals):
    """A solved batch (``_solve_batch``) as :func:`exact_grid` returns it.

    The columns are array operations over the rows that passed, but for
    the reductions over each point's own P_n: the second normalisation,
    ``arange @ p`` and ``arange**2 @ p``, whose sums group their terms by
    the row's length, and ``mean**2``, Python's ``pow``, which rounds apart
    from numpy's square in about one case of a thousand.
    """
    size = len(outcomes)
    failures = [str(outcome) if isinstance(outcome, Exception) else None for outcome in outcomes]
    columns = {name: np.full(size, math.nan) for name in EXACT_COLUMNS}
    rows = [None] * size
    if row:
        points, at = list(row), list(row.values())
        focks = [outcomes[k].fock_dim for k in points]
        q = p[at]
        q /= np.array([q_k[:fock].sum() for q_k, fock in zip(q, focks)])[:, np.newaxis]
        numbers = np.arange(q.shape[1], dtype=float)
        squares = numbers * numbers
        mean, variance = [], []
        for k, q_k, fock in zip(points, q, focks):
            rows[k] = q_k = q_k[:fock]
            mean.append(float(numbers[:fock] @ q_k))
            variance.append(float(squares[:fock] @ q_k) - mean[-1] ** 2)
        mean, variance = np.array(mean), np.array(variance)
        columns["mean_numeric"][points] = mean
        columns["variance_numeric"][points] = variance
        columns["fano_numeric"][points] = np.divide(
            variance, mean, out=np.full(len(points), math.nan), where=mean > 0
        )
        columns["tail"][points] = q[np.arange(len(points)), np.array(focks) - 1]
        columns["residual"][points] = np.array(residuals)[at]
    return {name: column.tolist() for name, column in columns.items()}, rows, failures


# the columns of exact_grid, named as a sweep record names them
EXACT_COLUMNS = ("mean_numeric", "variance_numeric", "fano_numeric", "tail", "residual")


def exact_grid(
    model: EngineModel, n_h: Sequence[float], n_maxes: Sequence[int], tol: float = 1e-9
) -> tuple[dict[str, list[float]], list[np.ndarray | None], list[str | None]]:
    """Steady states of ``model`` at every hot occupation of ``n_h``, as sweep columns.

    Point k, the model with the hot-bath occupation ``n_h[k]``, is solved
    at the cutoff ``n_maxes[k]`` exactly as :func:`solve_model` solves that
    engine, with the same tail warning, in point order; n_h enters only
    through the hot rates, so no model is built per point.  A negative, NaN
    or infinite n_h fails with a ``ValueError`` and is not assembled.

    The grid is cut into batches of consecutive points, each taking points
    while (points) x (largest cutoff + 2) stays within ``BATCH_RUNGS``
    rung-points, so every preset grid is one batch; a point whose cutoff
    is above ``MAX_N_MAX`` does not count, since it gets a
    :class:`TruncationError` before any assembly.  The blocks of a batch
    are assembled in one call, each point at its own cutoff and in its own
    layout (see :func:`build_sector_liouvillian`), and swept in one stacked
    rung sweep (``_rung_sweep``), each point over its own rungs only, so
    numpy's cost per call is paid once per rung for the whole batch, and
    the sweep takes sum(cutoff + 2) rung solves.  A batch's bands are
    stacked to its largest cutoff, so its memory grows with its
    rung-points.  A four-level rung holds 0.6 kB per point in its
    3 x 5 x 5 real bands, pinned in place, and a batch peaks at about 1.5
    times that, in the rung sweep's workspace; the builder returns only the
    bands and a bool mask of each point's slots, the sweep's workspace is
    freed on return, and the batches are solved one after another.  So 16
    points at n_max 1000 peak at 14.9 MB (traced; 0.06-0.09 s untraced on a
    2-vCPU Xeon); one dense state there would take 256 MB.

    Returns ``(columns, rows, failures)``, each over the points:

    - ``columns`` maps each name of ``EXACT_COLUMNS`` to a list of floats:
      the mean, variance and Fano factor of the photon distribution, its
      tail P[n_max] and the residual, NaN where the point failed;
    - ``rows`` holds that distribution, or None where the point failed;
    - ``failures`` holds None, or the message of the
      :class:`TruncationError`, :class:`SteadyStateError` or ``ValueError``
      of the point, so that one point's failure stays its own.

    Every value equals, bit for bit, what the :class:`PhotonDistribution`
    and the residual of the :class:`BlockState` of :func:`solve_model` give
    for that point; no distribution object or state is built.
    """
    n_h = np.asarray(n_h, dtype=float)
    sizes = [n_max + 2 if n_max <= MAX_N_MAX else 0 for n_max in n_maxes]
    columns, rows, failures = {name: [] for name in EXACT_COLUMNS}, [], []
    for start, end in _runs(sizes, BATCH_RUNGS):
        batch = _solve_batch(model, n_h[start:end], n_maxes[start:end], tol)
        batch_columns, batch_rows, batch_failures = _grid_columns(*batch)
        for name, values in batch_columns.items():
            columns[name] += values
        rows += batch_rows
        failures += batch_failures
    return columns, rows, failures


def solve_model(
    model: EngineModel, n_max: int | None = None, tol: float = 1e-9
) -> tuple[HilbertSpace, BlockState]:
    """Steady state of an engine by one rung sweep over the charge-zero block.

    The block (:func:`build_sector_liouvillian`) is closed and holds the
    unique steady state, so its residual is the full-space one.  One
    population |s><s| is pinned to 1 in place of its own equation, the
    block-tridiagonal system is solved by block Thomas over the rungs in
    real arithmetic, and the unit-trace state, Hermitian by construction,
    is returned in the block's rung layout (:class:`BlockState`) with its
    photon distribution.  The trace is the left null vector of L, so the
    pinned system is nonsingular exactly when the steady state is unique and
    populates s.  s is |l, 0> for the first level l of the one closed class
    of the jump graph (see ``_pinned_levels``): |g, 0> unless, say, a
    four-level atom with g = 0 and an empty ancilla bath is trapped in the
    dark |e2, 0>.  The engine is solved as a batch of one point, the
    model's own n_h, so :func:`exact_grid` gets the same numbers.

    Raises :class:`SteadyStateError` when the jump graph has more than one
    closed class or a rung's Schur complement is singular (the steady state
    is not unique), or when the residual |L[rho]|_inf exceeds ``tol`` times
    the largest |L_ij| of the block, a bound relative to the rates.  That is
    the entry of the complex block, over every operator, not the real band
    of a population in a coherence column, which sums both partners.  There
    is no pivoting across rungs, and the residual is the check.

    With ``n_max=None`` the cutoff is the ``n_max`` of the closed-form
    distribution :func:`steady_distribution`, whose support ends at the
    first rung past its peak where P_n < 1e-12 (n_max = 1 with the pump off,
    A = 0); an explicit ``n_max`` is used as given.  Any cutoff above
    ``MAX_N_MAX`` = 1000, automatic or explicit, raises
    :class:`TruncationError` before any assembly.  The state takes O(n_max)
    memory and time (see :func:`exact_grid`).  A warning is raised if the
    exact P[n_max] exceeds 1e-8.
    """
    if n_max is None:
        n_max = steady_distribution(scully_lamb_coefficients(model)).n_max
    (space,), _, x, p, residuals = _solve_batch(
        model, np.array([model.n_h], dtype=float), [n_max], tol
    )
    if isinstance(space, Exception):
        raise space
    return space, BlockState(
        x[0, : space.n_max + 2, : space.atom_dim + 1].copy(),
        PhotonDistribution(p[0, : space.fock_dim]),
        residuals[0],
    )
