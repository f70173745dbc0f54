"""Exact numerics on the master equation.

:func:`solve_model` sweeps the rungs of the charge-zero block top down by
block Thomas in numpy, in real arithmetic over one real unknown per
population and per coherence pair and over the block's nonzero cells only
(``core.RUNG_CELLS``), and returns one :class:`BlockState`,
its photon distribution and those unknowns by rung and slot, in O(n_max)
memory and time; :func:`exact_grid` does so for one engine over a grid
of hot-bath occupations n_h, one stacked sweep per batch, each point in
its own layout and over its own rungs, and returns the columns of a
sweep.  Both finish a point alike from its row of the batch's zero-padded
stack of P_n, clipped at 0: they fail it if that misses unit mass, warn
its tail, divide it by its sum once and take its moments, with the
helpers of :class:`PhotonDistribution`.  Every sum of a row, the trace of
its state included, adds left to right (``photonstats._total``), so the
zeros past a point's cutoff change no bit, and :func:`exact_grid` finishes
a whole batch in a few array operations with the numbers
:func:`solve_model` gives each point alone.  Both solve a point at a cutoff
1 <= n_max <= 16 030, which fills one batch of ``BATCH_RUNGS`` rung-points
alone, in about 0.17 s.  They are the independent check on the
closed-form theory in :mod:`heatlaser.photonstats`.  The dense (A F)^2
:func:`steady_state` of ``core.build_liouvillian(model, n_max)``,
:func:`partial_trace_atom` and :func:`photon_distribution`, which take
the state and ``atom_dim``, are the full-space references (the first
imports scipy when called; the last needs a unit-trace state).
:func:`wigner` maps a photon distribution to phase space, by default on
101 x 101 points over [-h, h]^2 with h = max(4, 1.2 sqrt(<n> + 1)), so a
bright state's ring stays on the grid.  W is radial: it is computed once
per distinct radius, and :class:`WignerField` carries that table and each
point's radius, besides the full grid, so that a writer can format each
distinct value once.
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
    LOWER_COLUMN,
    RUNG_CELLS,
    RUNG_SHIFT,
    RUNG_SLOTS,
    SLOT_OF,
    _bath_channels,
    build_sector_liouvillian,
)
from .models import EngineModel
from .photonstats import (
    BATCH_RUNGS,
    PhotonDistribution,
    TruncationError,
    _row_moments,
    _runs,
    _total,
    _unit,
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


class SteadyStateError(RuntimeError):
    """Raised when the steady state is not unique, misses the residual or is out of range."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


SteadyStateResult = namedtuple("SteadyStateResult", "state residual method")
SteadyStateResult.__doc__ = (
    """A dense steady state of :func:`steady_state`, its defect |L[rho]|_inf and method."""
)

WignerField = namedtuple("WignerField", "re_axis im_axis values table index")
WignerField.__doc__ = """Wigner quasi-probability sampled on a rectangular phase-space grid.

``values[iy, ix]`` is W at ``re_axis[ix] + i im_axis[iy]``.  W is radial, so
it is also given once per distinct radius u = 4|a|^2 of the grid, in
increasing u: ``table`` holds W at each, and the integer array ``index``, of
the shape of ``values``, the radius of each point, so that
``values == table[index]``.  ``index`` depends on |re| and |im| only, so
rows of equal |im| are equal.
"""


def _system_dim(liouv):
    n2 = liouv.shape[0]
    d = math.isqrt(n2)
    if d * d != n2 or liouv.shape[0] != liouv.shape[1]:
        raise ValueError(f"Liouvillian shape {liouv.shape} is not a squared square")
    return d


STEADY_TOL = 1e-9  # the residual gate, relative to the largest |L_ij|


def _stall(residual, scale, tol):
    """The :class:`SteadyStateError` of a residual above ``tol`` x max|L_ij|, or None."""
    if not residual <= tol * scale:
        return SteadyStateError(
            f"steady-state solve stalled at residual {residual:.3e} > {tol:.1e} x "
            f"max|L_ij| = {tol * scale:.3e}",
            residual,
        )
    return None


def steady_state(liouv: sp.spmatrix, tol: float = STEADY_TOL) -> SteadyStateResult:
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


def partial_trace_atom(rho: np.ndarray, atom_dim: int) -> np.ndarray:
    """Reduced cavity state of ``rho`` on atom (x) Fock, square with side ``atom_dim`` x fock."""
    fock = len(rho) // atom_dim
    if rho.shape != (atom_dim * fock,) * 2 or fock < 2:
        raise ValueError(f"state shape {rho.shape} is not square with side {atom_dim} x fock >= 2")
    blocks = rho.reshape(atom_dim, fock, atom_dim, fock)
    return np.einsum("aman->mn", blocks)


def photon_distribution(rho: np.ndarray, atom_dim: int) -> PhotonDistribution:
    """Photon-number distribution of the cavity, P_n = <n| tr_atom rho |n>.

    ``rho`` must have unit trace: tiny negative diagonal entries from
    round-off are clipped, and :class:`PhotonDistribution` normalises the
    rest once, or raises ``ValueError`` if they miss 1 by more than 1e-9.
    Warns, as :func:`solve_model` does, when the truncation rung P[n_max]
    exceeds 1e-8 before that normalisation.
    """
    p = np.clip(np.real(np.diag(partial_trace_atom(rho, atom_dim))), 0.0, None)
    distribution = PhotonDistribution(p)
    _warn_tail(p)
    return distribution


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
    n.  u depends on |re| and |im| only, so it is taken once per pair of a
    distinct |re| and a distinct |im|, and the recurrence runs once per
    distinct u (a symmetric grid repeats each u up to eight times): the
    result's ``table`` holds W at each distinct u, its ``index`` each
    point's u, and its ``values`` the full grid ``table[index]``.  Default
    grid: 101 x 101 over [-h, h]^2 with h = max(4, 1.2 sqrt(<n> + 1)); an
    explicit axis whose reach is below that radius warns.
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

    # W depends on u only, and u on |re| and |im| only: hypot ignores signs,
    # so u over the distinct |re| and |im| keeps its bits, and the
    # recurrence runs once per distinct u.  The inverses are reshaped, since
    # their shapes differ across numpy releases
    re_abs, re_where = np.unique(np.abs(re_axis), return_inverse=True)
    im_abs, im_where = np.unique(np.abs(im_axis), return_inverse=True)
    u = 4.0 * np.abs(re_abs[np.newaxis, :] + 1j * im_abs[:, np.newaxis]) ** 2
    u, where = np.unique(u, return_inverse=True)
    where = where.reshape(im_abs.size, re_abs.size)
    index = where[np.ix_(im_where.reshape(-1), re_where.reshape(-1))]
    band = p * (-1.0) ** np.arange(p.size)
    # l_m = e^{-u/2} L_m(u) lies in [-1, 1], so neither it nor the
    # recurrence (m+1) l_{m+1} = (2m+1-u) l_m - m l_{m-1} overflows
    prev, cur = np.zeros_like(u), np.exp(-0.5 * u)
    total = band[0] * cur
    for m in range(p.size - 1):
        prev, cur = cur, ((2 * m + 1 - u) * cur - m * prev) / (m + 1)
        total = total + band[m + 1] * cur
    table = (2.0 / math.pi) * total
    return WignerField(re_axis, im_axis, table[index], table, index)


def _rung_sweep(cells, rhs, rungs):
    """Solve a batch of block-tridiagonal systems by block Thomas, top down.

    ``cells`` has shape (P, R, K), the cells of ``core.RUNG_CELLS`` per
    rung, and ``rhs`` shape (P, R, m), one system
    A_r x_{r-1} + B_r x_r + C_r x_{r+1} = f_r per point p over its first
    ``rungs[p]`` rungs (A, B, C the lower, diagonal and upper blocks),
    solved in the dtype of ``cells``, which the sweep only reads.  It runs
    from each point's top rung down, keeping x_r = z_r + H_r x_{r-1} with
    H_r = -T_r^{-1} A_r and z_r = T_r^{-1} (f_r - C_r z_{r+1}), where
    T_r = B_r + C_r H_{r+1}; then x_0 = z_0, and a forward pass gives the
    rest.  This is the matrix continued fraction run from the top (Risken,
    *The Fokker-Planck Equation*, ch. 9): nothing past a point's last rung
    feeds back into it, so its recursion starts there.  A_r has one nonzero
    cell, in row e2 of column j (``core.LOWER_COLUMN``), so H_r = h_r e_j^T
    is one column, h_r = -T_r^{-1} A_r e_j, and T_r is B_r with only its
    column j changed, by C_r h_{r+1}.  C_r is a diagonal and one cell, in
    row j of column e2, so C_r v is an elementwise product and that cell
    times v[e2], added to entry j, and the vector is added to T_r's column
    at once.  ``rhs`` is 0 above rung ``max(RUNG_SHIFT)``, the highest rung
    of a pinned unit, so z_r = 0 there: each rung above it solves for h_r
    alone, one right-hand-side column, and each rung up to it for
    [h_r | z_r], two.  Above it x_r = h_r x_{r-1}[j], so the entries j are
    a running product of the h_r[j], one ``np.cumprod`` along the rungs,
    which multiplies in a loop's order and gives a loop's bits.

    ``rungs`` is ascending, so the points that reach rung r are a suffix of
    the batch, a view, and each rung takes one stacked solve over that
    suffix: the batch costs sum(rungs) matrices, as its points solved alone
    do.  numpy runs LAPACK once per matrix, so a point gets the numbers a
    batch of one gives it.  Past a point's last rung its rows are 0.  There
    is no pivoting across rungs; a singular T_r of any point raises
    ``np.linalg.LinAlgError`` for the whole batch.
    """
    points, depth, width = rhs.shape
    square = width * width
    same = cells[..., :square].reshape(points, depth, width, width)  # B_r, a view
    # C_r, rung r + 1 onto rung r: its diagonal, as (P, R, m, 1), and its
    # one other cell, in row j of column e2, as (P, R, 1)
    diagonal, off = cells[..., square : square + width, np.newaxis], cells[..., -2:-1]
    column, top = LOWER_COLUMN[width - 1], int(RUNG_SHIFT.max())
    e2, fed = SLOT_OF[LEVEL_E2, LEVEL_E2], slice(column, column + 1)
    # -A_r e_j, as (P, R, m, 1), negated as a whole, so that its zero rows
    # are -0.0, the bits of -A_r e_j; their sign reaches the solve
    feed = np.zeros((points, depth, width, 1), dtype=cells.dtype)
    feed[:, :, e2, 0] = cells[..., -1]
    np.negative(feed, out=feed)
    # h[:, r] = h_r, 0 above each point's top rung, and z[:, r] = z_r
    h = np.zeros((points, depth + 1, width, 1), dtype=cells.dtype)
    z = np.zeros((points, top + 2, width, 1), dtype=cells.dtype)

    def upper(start, r, v):  # C_r v, for v of shape (P', m, 1)
        out = diagonal[start:, r] * v
        entry = out[:, column]  # a view, added to in place
        entry += off[start:, r] * v[:, e2]
        return out

    # starts[r]: the first point that reaches rung r
    starts = np.searchsorted(rungs, np.arange(depth), side="right").tolist()
    for r in range(depth - 1, -1, -1):
        start = starts[r]
        block = same[start:, r].copy()
        changed = block[..., fed]  # column j of T_r, a view
        changed += upper(start, r, h[start:, r + 1])
        if r > top:
            h[start:, r] = np.linalg.solve(block, feed[start:, r])
        else:
            right = rhs[start:, r, :, np.newaxis] - upper(start, r, z[start:, r + 1])
            solved = np.linalg.solve(block, np.concatenate([feed[start:, r], right], axis=-1))
            h[start:, r], z[start:, r] = solved[..., :1], solved[..., 1:]
    h, z = h[:, :depth, :, 0], z[..., 0]
    x = np.empty(rhs.shape, dtype=cells.dtype)
    x[:, 0] = z[:, 0]
    for r in range(1, top + 1):
        x[:, r] = z[:, r] + h[:, r] * x[:, r - 1, column, np.newaxis]
    # x_r[j] for r >= top: x_top[j] times h_{top+1}[j] ... h_r[j], in order
    carry = np.cumprod(np.concatenate([x[:, top, fed], h[:, top + 1 :, column]], axis=1), axis=1)
    np.multiply(h[:, top + 1 :], carry[:, :-1, np.newaxis], out=x[:, top + 1 :])
    return x


def _apply_cells(cells, x):
    """L x for a batch of vectors laid out by rung, shape (P, R, m), from the cells."""
    points, depth, width = x.shape
    square, column, e2 = width * width, LOWER_COLUMN[width - 1], SLOT_OF[LEVEL_E2, LEVEL_E2]
    same = cells[..., :square].reshape(points, depth, width, width)
    out = np.einsum("prij,prj->pri", same, x)
    # rung r - 1 onto rung r: the one cell, row e2 of column j
    out[:, 1:, e2] += cells[:, 1:, -1] * x[:, :-1, column]
    # rung r + 1 onto rung r: the diagonal, and the one cell in row j of
    # column e2, added to it before the sum
    upper = cells[:, :-1, square : square + width] * x[:, 1:]
    upper[..., column] += cells[:, :-1, -2] * x[:, 1:, e2]
    out[:, :-1] += upper
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


# the steady state of solve_model; distribution comes first, as perfbench's
# tracer reads the cutoff as state[0].n_max.  rungs, (n_max + 2, atom_dim +
# 1), are in rung layout: rungs[r, s] is the real unknown u of slot s of
# rung r, whose operator core.RUNG_SLOTS and RUNG_SHIFT name: the pair
# |l, r - RUNG_SHIFT[l]><l', r - RUNG_SHIFT[l']| for (l, l') = RUNG_SLOTS[s].
# A population is u; the coherence |e1, n + 1><e2, n| is i u and its
# partner -i u
BlockState = namedtuple("BlockState", "distribution rungs residual")

# |L_ij| of the complex block from the real cells: a population's entry in
# the coherence column sums the equal entries of both partners, so its cell
# is halved (see build_sector_liouvillian)
_POPULATION = np.equal(*RUNG_SLOTS.T)  # per slot
_HALVED = {
    atom_dim: 1.0 - 0.5 * (_POPULATION[table[:, 1]] & ~_POPULATION[table[:, 2]])
    for atom_dim, table in RUNG_CELLS.items()
}


def _pin_rows(table):
    # per slot s, (m, K): the cells to keep when s is pinned, those whose
    # row is not s, and the cells of its pinned row, a unit diagonal in
    # the same-rung block and 0 elsewhere
    band, row, col = table.T
    slots = np.arange(row.max() + 1)[:, np.newaxis]
    return row != slots, ((band == 1) & (row == slots) & (col == slots)) * 1.0


_PINNED = {atom_dim: _pin_rows(table) for atom_dim, table in RUNG_CELLS.items()}


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
            message = f"rung sweep failed: a rung block is singular to working precision ({exc})"
            error = SteadyStateError(message)
            error.__cause__ = exc
            return rhs.copy(), [error]
    x, errors = rhs.copy(), []
    for p in range(len(system)):
        x[[p]], (error,) = _sweep_points(system[[p]], rhs[[p]], rungs[p : p + 1])
        errors.append(error)
    return x, errors


# past gamma_h (n_h + 1) eps >= kappa the cavity loss on the hot pair's
# population diagonals is rounded away entirely, and no photon leaves
_EPS = float(np.finfo(float).eps)


def _warn_tail(p):
    # warn when a point's tail P[n_max] passes 1e-8, pointing at the line
    # that called solve_model, exact_grid or photon_distribution
    if p[-1] > 1e-8:
        warnings.warn(f"tail P[{p.size - 1}] = {p[-1]:.3e} above 1e-8", stacklevel=3)


def _solve_batch(model, n_h, n_maxes):
    """One batch of points, solved: ``(errors, p, residuals, x)``.

    ``errors`` holds per point, in the order of ``n_h``, the error it raised
    or None.  ``p`` is the batch's padded stack of photon distributions, one
    row per point in that order: P_0 .. P_n_max of a point that passed,
    clipped at 0 but not normalised, zero past its cutoff.  ``residuals``
    is an array of the points' residuals, NaN where a point was not swept.
    ``x`` stacks the unit-trace solutions in rung layout of the points that
    were swept, in ascending order of cutoff, so that of a batch of one is
    ``x[0]``; it is None when no point was swept.

    The live points are assembled in one call and swept in one stacked
    rung sweep, in ascending order of cutoff, each n_h with its own: each
    rung then sweeps a suffix of the batch (``_rung_sweep``), and a grid
    that is already in that order reaches the builder as it is.  The pinned
    levels are one stacked reachability pass, and the traces, residuals,
    their scales and the photon distributions a few array operations over
    the stacked solution.  A trace adds a point's populations left to right
    (``photonstats._total``), with zeros past its own rungs, so a point
    gets the trace it gets alone, and the sum of its clipped P_n.  Per point
    remain only the checks of its n_h and cutoff and the messages of the
    points that fail.
    """
    n_h, errors = np.asarray(n_h, dtype=float), []
    pins = _pinned_levels(model, n_h)
    # a point's first error of its n_h, cutoff or closed classes
    for occupation, n_max, pin in zip(n_h.tolist(), n_maxes, pins):
        hot = model.gamma_h * (occupation + 1.0)
        if not 0 <= occupation < math.inf:
            pin = ValueError(f"hot bath occupation must be finite and >= 0, got {occupation}")
        elif hot * _EPS >= model.kappa:
            pin = SteadyStateError(
                f"n_h = {occupation} is past the float range of the rung equations: the hot "
                f"rate gamma_h (n_h + 1) = {hot:.3e} rounds the cavity loss kappa = "
                f"{model.kappa} away on the population diagonals"
            )
        elif not 1 <= n_max <= BATCH_RUNGS - 2:
            pin = TruncationError(f"cutoff n_max = {n_max} is outside [1, {BATCH_RUNGS - 2}]")
        errors.append(pin if isinstance(pin, Exception) else None)
    residuals = np.full(len(errors), math.nan)
    live = sorted((k for k, error in enumerate(errors) if error is None), key=n_maxes.__getitem__)
    if not live:
        return errors, np.zeros((len(errors), 2)), residuals, None
    cutoffs = [n_maxes[k] for k in live]
    cells, inside = build_sector_liouvillian(model, n_h[live], cutoffs)
    # the pinned population's equation becomes x = 1, and that of every slot
    # outside the point's block x = 0: its row and column are already 0, so
    # it needs only a unit diagonal.  Both are set in place, and undone for
    # the residual and its scale once the sweep has returned, the failed
    # points' included; only the cells of the pinned rungs are saved
    pinned = np.array([pins[k] for k in live])
    point, rung, slot = np.arange(len(live)), RUNG_SHIFT[pinned], SLOT_OF[pinned, pinned]
    width = inside.shape[-1]
    rhs = np.zeros(inside.shape)
    rhs[point, rung, slot] = 1.0
    kept, unit = _PINNED[width - 1]
    saved = cells[point, rung]
    cells[point, rung] = np.where(kept[slot], saved, unit[slot])
    diagonal = cells[..., : width * width : width + 1]  # B_r's diagonal, a view
    np.copyto(diagonal, 1.0, where=~inside)
    x, swept = _sweep_points(cells, rhs, [n_max + 2 for n_max in cutoffs])
    np.copyto(diagonal, 0.0, where=~inside)
    cells[point, rung] = saved

    populations = inside & _POPULATION[:width]
    x /= _total(np.where(populations, x, 0.0).reshape(len(x), -1))[:, np.newaxis, np.newaxis]
    defects = np.abs(_apply_cells(cells, x)).max(axis=(1, 2))
    # max|L_ij| per point, without an |cells| temporary
    scales = np.maximum(cells.max(axis=1), -cells.min(axis=1)) * _HALVED[width - 1]
    scales = scales.max(axis=1)
    residuals[live] = defects
    # the reduced cavity state is diagonal: P_n sums the populations of the
    # levels at n, |l, n> in rung n + RUNG_SHIFT[l], added level by level
    # as the partial trace adds them
    depth = x.shape[1] - 1
    p = np.zeros((len(errors), depth))
    p[live] = sum(
        x[:, RUNG_SHIFT[l] : depth + RUNG_SHIFT[l], SLOT_OF[l, l]] for l in range(width - 1)
    )
    np.clip(p, 0.0, None, out=p)
    stalled = ~(defects <= STEADY_TOL * scales)
    # the clipped P_n of a unit-trace state miss 1 only by its negative
    # populations; PhotonDistribution's bound, 1e-9 relative
    totals = _total(p)[live].tolist()
    unbalanced = [not math.isclose(total, 1.0, rel_tol=1e-9) for total in totals]
    for j in np.flatnonzero(stalled | unbalanced | [e is not None for e in swept]).tolist():
        stall = swept[j] or _stall(float(defects[j]), float(scales[j]), STEADY_TOL)
        errors[live[j]] = stall or SteadyStateError(
            "the steady state has negative populations: clipped at 0, its P_n sum to "
            f"{totals[j]}, expected 1"
        )
    return errors, p, residuals, x


# the columns of exact_grid, named as a sweep record names them
EXACT_COLUMNS = ("mean_numeric", "variance_numeric", "fano_numeric", "tail", "residual")


def exact_grid(
    model: EngineModel, n_h: Sequence[float], n_maxes: Sequence[int]
) -> tuple[dict[str, list[float]], list[np.ndarray | None], list[str | None]]:
    """Steady states of ``model`` at every hot occupation of ``n_h``, as sweep columns.

    Point k, the model with the hot-bath occupation ``n_h[k]``, is solved
    at the cutoff ``n_maxes[k]`` exactly as :func:`solve_model` solves that
    engine, with the same tail warning, in point order; n_h enters only
    through the hot rates, so no model is built per point.  A negative, NaN
    or infinite n_h fails with a ``ValueError``, and one with
    gamma_h (n_h + 1) eps >= kappa with a :class:`SteadyStateError` (see
    :func:`solve_model`); neither is assembled.  So do a point whose
    clipped P_n miss 1, once swept, as :func:`solve_model` fails it.

    The grid is cut into batches of consecutive points, each taking points
    while (points) x (largest cutoff + 2) stays within ``BATCH_RUNGS``
    rung-points, so every preset grid is one batch; a point whose cutoff
    is above 16 030 fills a batch alone and gets a :class:`TruncationError`
    before any assembly.  A point's residual gate is :func:`solve_model`'s,
    ``STEADY_TOL`` x the largest |L_ij| of its block.  The blocks of a batch
    are assembled in one call, each point at its own cutoff and in its own
    layout (see :func:`build_sector_liouvillian`), and swept in one stacked
    rung sweep (``_rung_sweep``), each point over its own rungs only, so
    numpy's cost per call is paid once per rung for the whole batch, and
    the sweep takes sum(cutoff + 2) rung solves.  A batch's cells are
    stacked to its largest cutoff, so its memory grows with its
    rung-points.  A four-level rung holds 0.26 kB per point in its 32 real
    cells (``core.RUNG_CELLS``), pinned in place, and a batch peaks at
    about 1.7 times that, in the residual and the rung sweep, which keep a
    few vectors per rung and point; the builder returns only the cells and
    a bool mask of each point's slots, and the batches are solved one after
    another.  So 16 points at n_max 1000 peak at 7.1 MB, in the residual,
    and one at 16 030 at 7.4 MB (5.5 MB on three levels), in the builder,
    over its 4.1 MB of cells (traced; untraced, fig5 takes 0.025 s and 0.17 s,
    the medians of 15 runs on a 2-vCPU Xeon); one dense state at n_max 1000
    would take 256 MB.

    Returns ``(columns, rows, failures)``, each over the points:

    - ``columns`` maps each name of ``EXACT_COLUMNS`` to a list of floats:
      the mean, variance and Fano factor of the photon distribution, its
      tail P[n_max] and the residual, NaN where the point failed;
    - ``rows`` holds that distribution, or None where the point failed;
    - ``failures`` holds None, or the message of the
      :class:`TruncationError`, :class:`SteadyStateError` or ``ValueError``
      of the point, so that one point's failure stays its own.

    A point that passed is finished as :func:`solve_model` finishes it: its
    tail warning, in point order, and then its P_n divided by its sum once
    and its moments, from ``photonstats._unit`` and ``_row_moments``, the
    helpers of :class:`PhotonDistribution`.  Here they run once over the
    batch's padded stack of rows: each sum adds a row left to right, so
    the zeros past a point's cutoff change no bit, and every value equals,
    bit for bit, what :func:`solve_model` gives for that point.  Each row
    is then copied out at its own length; no distribution object or state
    is built.
    """
    columns, rows, failures = np.full((len(EXACT_COLUMNS), len(n_maxes)), math.nan), [], []
    for start, end in _runs([n_max + 2 for n_max in n_maxes], BATCH_RUNGS):
        errors, p, residuals = _solve_batch(model, n_h[start:end], n_maxes[start:end])[:3]
        passed = np.flatnonzero([error is None for error in errors])
        cutoffs = np.array(n_maxes[start:end])[passed]
        p, last = p[passed], (np.arange(passed.size), cutoffs)  # last: each row's P[n_max]
        for j in np.flatnonzero(p[last] > 1e-8).tolist():
            _warn_tail(p[j, : cutoffs[j] + 1])
        q = _unit(p)
        mean, variance = _row_moments(q)
        fano = np.full(passed.size, math.nan)
        np.divide(variance, mean, out=fano, where=mean > 0.0)
        columns[:, start + passed] = mean, variance, fano, q[last], residuals[passed]
        batch_rows = [None] * len(errors)
        for j, (k, n_max) in enumerate(zip(passed.tolist(), cutoffs.tolist())):
            batch_rows[k] = q[j, : n_max + 1].copy()
        rows += batch_rows
        failures += [None if error is None else str(error) for error in errors]
        del p, q  # the batch's padded arrays go before the next batch is solved
    return dict(zip(EXACT_COLUMNS, columns.tolist())), rows, failures


def solve_model(model: EngineModel, n_max: int | None = None) -> BlockState:
    """Steady state of an engine by one rung sweep over the charge-zero block.

    The block (:func:`build_sector_liouvillian`) is closed and holds the
    unique steady state, so its residual is the full-space one.  One
    population |s><s| is pinned to 1 in place of its own equation, the
    block-tridiagonal system is solved by block Thomas over the rungs, top
    down, in real arithmetic, and the unit-trace state, Hermitian by
    construction, is returned as one :class:`BlockState`, its photon
    distribution (whose ``n_max`` is the cutoff) first.  The trace is the
    left null vector of L, so the pinned system is nonsingular exactly when
    the steady state is unique and populates s.  s is |l, 0> for the first
    level l of the one closed class of the jump graph (see
    ``_pinned_levels``): |g, 0> unless, say, a four-level atom with g = 0
    and an empty ancilla bath is trapped in the dark |e2, 0>.  The engine is
    solved as a batch of one point, the model's own n_h, so
    :func:`exact_grid` gets the same numbers.

    Raises :class:`SteadyStateError` when the jump graph has more than one
    closed class or a rung's block T_r of the sweep is singular to working
    precision (the steady state is not unique, or the pinned system is too
    ill-conditioned for the sweep), when gamma_h (n_h + 1) eps >= kappa,
    past which the cavity loss on the hot pair's population diagonals is
    rounded away entirely (n_h >= 1.4e14 at the preset rates), or when the
    residual |L[rho]|_inf exceeds ``STEADY_TOL`` (1e-9) times the largest
    |L_ij| of the block, a bound relative to the rates.  That is the entry
    of the complex block, over every operator, not the real cell of a
    population in a coherence column, which sums both partners.  There is
    no pivoting across rungs, and the residual is the check.  It checks the
    solve only: the largest |L_ij| is about gamma_h (n_h + 1), so an error
    made at assembly, such as the slow rates (kappa, g, gamma_c n_c) rounded
    away on population diagonals near gamma_h n_h, is not seen.  The system
    solved is then a different one, solved stably; it fails only once its
    negative populations, clipped at 0, leave the P_n 1e-9 relative off 1
    (fig5 from n_h of about 1e13).

    With ``n_max=None`` the cutoff is the ``n_max`` of the closed-form
    distribution :func:`steady_distribution`, whose support ends at the
    first rung past its peak where P_n < 1e-12 (n_max = 1 with the pump off,
    A = 0); an explicit ``n_max`` is used as given.  Any cutoff outside
    [1, 16 030] (n_max + 2 > ``BATCH_RUNGS``), automatic or explicit, raises
    :class:`TruncationError` before any assembly.  The state takes O(n_max)
    memory and time, about 0.17 s at 16 030 (see :func:`exact_grid`).  A
    warning is raised if the exact P[n_max] exceeds 1e-8, before
    :class:`PhotonDistribution` normalises it, once.
    """
    if n_max is None:
        n_max = steady_distribution(scully_lamb_coefficients(model)).n_max
    (error,), p, (residual,), x = _solve_batch(model, [model.n_h], [n_max])
    if error is not None:
        raise error
    _warn_tail(p[0])
    return BlockState(PhotonDistribution(p[0]), x[0], float(residual))
