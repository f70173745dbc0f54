"""Fully quantum photon statistics of the heat-engine laser.

The cavity diagonal P_n obeys a birth-death chain with stimulated emission
rate A, stimulated absorption rate A_b, saturation nonlinearity B, and cavity
loss kappa:

    dP_n/dt =   n [A P_{n-1} - A_b P_n] / (1 + n B/A)
            - (n+1) [A P_n - A_b P_{n+1}] / (1 + (n+1) B/A)
            + kappa [(n+1) P_{n+1} - n P_n].

This module evaluates the coefficients from the engine parameters, the exact
steady distribution of the chain, its closed-form moments, and the output
power.  The test suite re-derives the coherent flow by solving the full
atomic-sector linear system, an independent numerical route against the
closed forms.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .models import THREE_LEVEL, EngineModel, _Validated
from .semiclassical import _coupling, _gain, _inversion, _phi_zero, _structure, structure_constants

__all__ = [
    "LaserCoefficients",
    "PhotonDistribution",
    "Moments",
    "TruncationError",
    "scully_lamb_coefficients",
    "steady_distribution",
    "closed_form_grid",
    "distribution_moments",
    "coefficient_flow",
    "output_power",
]

# the one memory budget of both routes, in rung-points: (points) x (largest
# cutoff + 2) of one batch of exact solves (heatlaser.solver.exact_grid),
# and (chains) x (largest support) of one stacked closed-form pass (see
# closed_form_grid); a larger item runs alone.  It is also the one bound on
# a point: a cutoff is solvable when 1 <= n_max <= BATCH_RUNGS - 2 = 16 030.
# A four-level rung-point holds 32 cells of the exact block, so 16 such
# points at n_max 1000 peak at 7.1 MB traced, and one at 16 030 at 7.4 MB
# (test_solver.py); every preset grid is one closed-form stack
BATCH_RUNGS = 16 * 1002

# the largest condition number (X + Y) / mean of the closed-form mean
# X - Y + Y P_0 (see distribution_moments).  It multiplies the relative error
# of P_0, round-off and the cut row's missing tail near 1e-12, so up to it
# the mean is good to about 1e-9.  Below threshold it can reach 1e31; past
# it the moments are sums over the cut row.  Over each preset grid's range
# it stays below 40
MOMENT_COND = 1e3

# the refusal of a chain whose support passes 1e6 rungs
_TOO_WIDE = "distribution support exceeds 1e6 photons"


class TruncationError(RuntimeError):
    """Raised when a photon distribution does not fit a cutoff.

    The closed form raises it when a chain's support passes 1e6 rungs, the
    exact route when a cutoff is outside [1, ``BATCH_RUNGS`` - 2].
    """


class LaserCoefficients(_Validated, namedtuple("LaserCoefficients", "A A_b B kappa")):
    """Rates of the photon-number birth-death chain.

    ``A`` is the stimulated emission rate, ``A_b`` the stimulated absorption
    rate, ``B`` the saturation nonlinearity, and ``kappa`` the cavity loss.
    The net linear gain A - A_b equals the semi-classical gain G.
    """

    __slots__ = ()

    def __new__(cls, A: float, A_b: float, B: float, kappa: float):
        for name, value in (("A", A), ("A_b", A_b), ("B", B)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if kappa <= 0:
            raise ValueError(f"kappa must be positive, got {kappa}")
        return super().__new__(cls, A, A_b, B, kappa)


class PhotonDistribution:
    """Normalized photon-number distribution P_0 .. P_Nmax.

    ``probabilities`` is a read-only array: the vector it is built from,
    which must sum to 1 within 1e-9, clipped at 0 and divided by its sum,
    the one normalisation after the closed form's cut or the exact solve.
    Both the sum and the moments, ``mean`` and ``variance``, add left to
    right (``_total``), so a row of a zero-padded stack that is normalised
    and summed as a whole gets these same bits.
    """

    def __init__(self, probabilities: np.ndarray):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probabilities must be a non-empty 1-d vector")
        if p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min()}")
        total = _total(p)
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError(f"probabilities sum to {total}, expected 1")
        p = _unit(np.clip(p, 0.0, None))
        p.flags.writeable = False
        self.probabilities = p
        self.mean, self.variance = map(float, _row_moments(p))

    @property
    def n_max(self) -> int:
        return self.probabilities.size - 1

    @property
    def fano(self) -> float:
        m = self.mean
        return self.variance / m if m > 0 else math.nan


Moments = namedtuple("Moments", "mean variance peak fano")
Moments.__doc__ = """Closed-form moments of the steady photon distribution."""


def scully_lamb_coefficients(model: EngineModel) -> LaserCoefficients:
    """Birth-death coefficients (A, A_b, B) of the engine.

    Three-level: A = 4 g^2 nh (nc+1) / (Gamma Phi) and
    A_b = 4 g^2 nc (nh+1) / (Gamma Phi).  Four-level: the primed variants
    A' = 4 g^2 nh (nc+1) (na+1) / (Gamma' Phi') and
    A_b' = 4 g^2 nc na (nh+1) / (Gamma' Phi').  In both cases
    B = A * 4 g^2 Psi / (Gamma Phi).
    """
    coeffs = _coefficients(model, structure_constants(model), model.n_h)
    return LaserCoefficients(*coeffs, model.kappa)


def _coefficients(model, sc, nh):
    # (A, A_b, B) from the structure constants at the hot occupation nh; sc
    # and nh may hold arrays (see semiclassical._structure)
    scale = _coupling(model) / (sc.Gamma * sc.Phi)
    if model.kind == THREE_LEVEL:
        emission = scale * nh * (model.n_c + 1.0)
        absorption = scale * model.n_c * (nh + 1.0)
    else:
        emission = scale * nh * (model.n_c + 1.0) * (model.n_a + 1.0)
        absorption = scale * model.n_c * model.n_a * (nh + 1.0)
    return emission, absorption, emission * scale * sc.Psi


def _total(a):
    """The sum of ``a`` along its last axis, added left to right.

    Zeros past a row's end leave its sum unchanged bit for bit, so a row of
    a zero-padded stack sums as it does alone.  numpy's pairwise ``sum``
    and BLAS ``@`` group a row's terms by its length, and would not (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 4).
    """
    return np.cumsum(a, axis=-1)[..., -1]


def _unit(p):
    # p divided by its sum along the last axis: the one normalisation of a
    # photon distribution, a row alone or each row of a zero-padded stack
    return p / _total(p)[..., np.newaxis]


def _normalized(A, A_b, B, kappa, sizes):
    """P_0 .. P_{size - 1} of a stack of chains, each normalised over its own size.

    ``A``, ``A_b``, ``B`` and ``sizes`` are arrays over the chains.  Returns
    a (chains, largest size) array, zero past each chain's size.  Each row is
    summed by ``_total``, so it equals the recursion run for that chain
    alone, bit for bit.
    """
    width = sizes.max()
    A, A_b, B = A[:, np.newaxis], A_b[:, np.newaxis], B[:, np.newaxis]
    logp = np.empty((sizes.size, width))
    logp[:, 0] = 0.0
    # log P_n/P_{n-1} = log A - log(A_b + kappa (1 + n B/A)), in place: a
    # fresh array per step costs more in page faults than in arithmetic
    ratios = logp[:, 1:]
    np.multiply(np.arange(1, width, dtype=float), B, out=ratios)
    ratios /= A
    ratios += 1.0
    ratios *= kappa
    ratios += A_b
    np.log(ratios, out=ratios)
    np.subtract(np.log(A), ratios, out=ratios)
    np.cumsum(logp, axis=1, out=logp)
    logp[np.arange(width) >= sizes[:, np.newaxis]] = -np.inf
    logp -= logp.max(axis=1, keepdims=True)
    p = np.exp(logp, out=logp)
    p /= _total(p)[:, np.newaxis]
    return p


def _support_sizes(A, A_b, B, kappa):
    # rungs 0 .. n0 + 41 of each chain's one-pass support (see
    # steady_distribution), or 0 where n0 + 41 would pass 1e6
    # n0 + 41 > 1e6, multiplied out so that B = 0 (no n0 at all) never
    # divides.  A side past the float range is inf, still right against a
    # finite other side: a bath rate of 1e-300 puts kappa B near 1e305
    with np.errstate(over="ignore"):
        gap = 2.0 * A - A_b - kappa
        kb = kappa * B
        fits = (gap < 0.0) | (A * gap < (1_000_000 - 40) * kb)
    grows = fits & (gap > 0.0)
    n0 = np.zeros(A.shape, dtype=int)
    n0[grows] = (A[grows] * gap[grows] / kb[grows]).astype(int)
    return np.where(fits, n0 + 42, 0)


def _cut_distributions(A, A_b, B, kappa):
    """The chains' closed forms, cut at their cutoffs, stack by stack.

    ``A``, ``A_b`` and ``B`` are arrays over chains.  Yields per stack
    ``(chains, n_maxes, p)``: the indices of its chains, ascending, each
    chain's cutoff, the first rung past its peak where P_n < 1e-12 (see
    :func:`steady_distribution`), and its row, zero past that rung and left
    for its one normalisation, ``_unit``.  The pump-off chains (A = 0) come
    first, as one stack of rows [1, 0] at n_max = 1.  The others are
    stacked in order while (chains) x (largest support) stays within
    ``BATCH_RUNGS``.  A chain whose support passes 1e6 rungs is in no stack,
    and nothing is allocated for it.
    """
    off = np.flatnonzero(A == 0.0)
    if off.size:
        yield off, np.ones(off.size, dtype=int), np.tile([1.0, 0.0], (off.size, 1))
    sizes = np.where(A > 0.0, _support_sizes(A, A_b, B, kappa), 0)
    for start, end in _runs(sizes.tolist(), BATCH_RUNGS):
        kept = start + np.flatnonzero(sizes[start:end])
        if kept.size:
            p = _normalized(A[kept], A_b[kept], B[kept], kappa, sizes[kept])
            rungs = np.arange(p.shape[1])
            past = rungs >= p.argmax(axis=1)[:, np.newaxis]
            n_maxes = np.argmax(past & (p < 1e-12), axis=1)
            p[rungs > n_maxes[:, np.newaxis]] = 0.0
            yield kept, n_maxes, p


def _runs(sizes, budget):
    """Consecutive runs ``(start, end)`` of items, each within ``budget``.

    A run takes items while (items) x (largest size) stays within
    ``budget``: it is cut before item k when it already holds an item and
    (items + 1) x max(largest, sizes[k]) exceeds it, so an item larger
    than the budget runs alone.  An item of size 0 does not count.  Lazy.
    """
    start, counted, largest = 0, 0, 0
    for k, size in enumerate(sizes):
        if size and counted and (counted + 1) * max(largest, size) > budget:
            yield start, k
            start, counted, largest = k, 0, 0
        counted, largest = counted + (size > 0), max(largest, size)
    if start < len(sizes):
        yield start, len(sizes)


def steady_distribution(coeffs: LaserCoefficients) -> PhotonDistribution:
    """Stationary distribution of the birth-death chain, on its own support.

    Built from the detailed-balance recursion
    P_n / P_{n-1} = A / [A_b + kappa (1 + n B/A)], accumulated in log space
    so that far-above-threshold distributions never overflow.  The support
    is found in one pass.  The ratio falls with n and is below 1/2 past
    rung n0 = A (2A - A_b - kappa) / (kappa B) (past rung 0 when
    2A - A_b - kappa < 0), so the recursion is run to n0 + 41: P there is
    below 2^-41 < 1e-12, and so is the geometric tail past it.  The
    distribution is cut at the first rung past its peak where P_n < 1e-12
    and normalised once.  That rung is the Fock cutoff of the exact solve
    (:func:`heatlaser.solver.solve_model`), so the result's ``n_max`` is the
    cutoff and its probabilities the closed form to compare there; with the
    pump off (A = 0) it is [1, 0], n_max = 1.  When n0 + 41 would exceed 1e6
    rungs, or B = 0 leaves every ratio at 1/2 or above, it raises
    :class:`TruncationError` before anything is allocated.  This is one
    chain of the stacked pass of :func:`closed_form_grid`, which evaluates a
    whole sweep grid at once, bit for bit as point by point.
    """
    chain = [np.array([value]) for value in coeffs[:3]]
    stack = next(_cut_distributions(*chain, coeffs.kappa), None)
    if stack is None:
        raise TruncationError(_TOO_WIDE)
    _, (n_max,), p = stack
    return PhotonDistribution(p[0, : n_max + 1])


def coefficient_flow(coeffs: LaserCoefficients, n: int, p_nm1: float, p_n: float) -> float:
    """Closed-form net coherent photon flow across the (n-1, n) edge.

    Equals n [A P_{n-1} - A_b P_n] / (1 + n B/A), the gain side of the
    birth-death chain; the test suite recomputes the same quantity from the
    atomic linear system.  With the pump off (A = 0) it is the unsaturated
    absorption -n A_b P_n, since B/A stays finite only through the pump.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if coeffs.A == 0.0:
        return float(-n * coeffs.A_b * p_n)
    return float(n * (coeffs.A * p_nm1 - coeffs.A_b * p_n) / (1.0 + n * coeffs.B / coeffs.A))


def distribution_moments(coeffs: LaserCoefficients) -> Moments:
    """Closed-form mean, variance, peak location, and Fano factor.

    Uses the auxiliary quantities X = A^2 / (kappa B) and
    Y = A (kappa + A_b) / (kappa B):

        mean     = X - Y + Y P_0,
        <n^2>    = (mean + 1) X - mean Y,
        variance = X - Y P_0 mean,
        peak n*  = (A / kappa B)(A - A_b - kappa).

    P_0 is taken from the automatic-support :func:`steady_distribution`,
    so a support past 1e6 rungs raises its :class:`TruncationError` first.
    With the pump off (A = 0) the moments are (0, 0, 0, nan); B <= 0 with
    A > 0 raises ``ValueError``.  The peak is >= 0 exactly when the gain
    A - A_b reaches kappa.  Where the mean cancels, (X + Y) / mean >
    ``MOMENT_COND``, far below threshold, the mean and variance are the sums
    over that distribution instead (on cancellation see Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., section 1.7).  These
    rules are those of every point of :func:`closed_form_grid`: one helper
    finishes both, here on a one-chain stack.
    """
    q = steady_distribution(coeffs).probabilities
    chain = [np.array([value]) for value in coeffs[:3]]
    return Moments(*_chain_moments(*chain, coeffs.kappa, q[np.newaxis])[:, 0].tolist())


def _chain_moments(A, A_b, B, kappa, q):
    """The moments of distribution_moments over a stack of chains.

    ``A``, ``A_b`` and ``B`` are arrays over the chains and ``q`` their
    normalised rows, zero-padded to one width.  Returns an array of shape
    (4, chains): the mean, variance, peak and Fano factor of each.  A
    pump-off chain (A = 0) gets (0, 0, 0, nan), and B <= 0 with A > 0
    raises ``ValueError``.  The rows whose mean cancels are summed as one
    stack by ``_row_moments``, so each chain's values are those it gets
    alone, bit for bit.
    """
    on = A > 0.0
    if np.any(B[on] <= 0.0):
        raise ValueError("saturation B must be positive when A > 0")
    moments = np.zeros((4, A.size))
    moments[3] = math.nan
    mean, variance, peak, lossy = _moments(A[on], A_b[on], B[on], kappa, q[on, 0])
    moments[:3, on] = mean, variance, peak
    if lossy.any():
        lossy = np.flatnonzero(on)[lossy]
        moments[:2, lossy] = _row_moments(q[lossy])
    np.divide(moments[1], moments[0], out=moments[3], where=moments[0] > 0.0)
    return moments


def _moments(A, A_b, B, kappa, p0):
    # mean, variance and peak of distribution_moments, and whether the mean
    # cancels past MOMENT_COND; the arguments may be arrays over chains with
    # A > 0 and B > 0 (see _chain_moments)
    kb = kappa * B
    x = A * A / kb
    y = A * (kappa + A_b) / kb
    mean = x - y + y * p0
    variance = x - y * p0 * mean
    peak = (A / kb) * (A - A_b - kappa)
    lossy = x + y > MOMENT_COND * np.abs(mean)
    return mean, variance, peak, lossy


def _row_moments(p):
    # mean and variance of the probabilities p of rungs 0, 1, ... along the
    # last axis, summed by _total: a row of a zero-padded stack gets the
    # bits it gets alone
    n = np.arange(p.shape[-1])
    mean = _total(n * p)
    deviation = n - mean[..., np.newaxis]
    return mean, _total(deviation * deviation * p)


def output_power(model: EngineModel, mean_n: float) -> float:
    """Radiated power of the cavity, lasing_frequency * kappa * <n>.

    ``mean_n`` may be an array, NaN where there is no mean.  An empty
    cavity radiates 0, also where lasing_frequency * kappa overflows.
    """
    if np.min(mean_n) < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_n}")
    power = np.where(mean_n == 0, 0.0, model.lasing_frequency * model.kappa * mean_n)
    return power if power.ndim else float(power)


# the sweep columns of closed_form_grid
GRID_COLUMNS = (
    "gain_over_kappa",
    "inversion0",
    "A",
    "A_b",
    "B",
    "mean_analytic",
    "variance_analytic",
    "fano_analytic",
    "power",
)


def closed_form_grid(model: EngineModel, n_h: np.ndarray):
    """The closed form of ``model`` at every hot occupation of ``n_h``, as arrays.

    Returns ``(columns, cutoffs, rows, failures)``, each over the points:

    - ``columns`` maps each name of ``GRID_COLUMNS`` to a list of floats:
      :func:`lasing_gain` / kappa, :func:`population_inversion`, the
      :func:`scully_lamb_coefficients`, the :func:`distribution_moments`
      and the :func:`output_power` at the mean; NaN where the point failed.
      A power past the floating-point range, as a ladder near 1e308 gives,
      is inf, and 0.0 at a zero mean, also where lasing_frequency * kappa
      alone is inf; it raises no ``RuntimeWarning`` and fails no point;
    - ``cutoffs`` holds the ``n_max`` of :func:`steady_distribution`, the
      Fock cutoff of the exact solve, or None where the point failed;
    - ``rows`` holds that distribution's probabilities where the exact
      route can solve the cutoff, n_max + 2 <= ``BATCH_RUNGS``, else None,
      so a sweep keeps only the rows it compares with an exact solve;
    - ``failures`` holds None, or the message of the error those functions
      raise at the point: a zero bath rate fails every point, a support past
      1e6 rungs or a negative mean its own point.  So does an n_h so large
      that the coefficients leave the floating-point range (Gamma Phi, A,
      A_b or B not finite, or B = 0 with A > 0), with a message naming it
      and no ``RuntimeWarning``.

    Every value equals, bit for bit, what those functions give point by
    point: they share this function's code.  n_h enters only through the
    hot-bath rates, so the rates and coefficients are array expressions
    over the grid.  The distributions come as the zero-padded stacks of
    ``_cut_distributions``, bounded by ``BATCH_RUNGS``, with nothing
    allocated for a support past 1e6 rungs.  Each stack is normalised once
    and finished by ``_chain_moments``, the helper of
    :func:`distribution_moments`, in a few array operations: every sum adds
    a row left to right (``_total``), so the padding changes no bit.  A
    one-point grid is the closed form of ``distribution``.
    """
    n_h = np.asarray(n_h, dtype=float)
    size = n_h.size
    rows, failures = [None] * size, [None] * size
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sc = _structure(model, n_h)
            inversion0 = _inversion(model, sc, n_h)
            A, A_b, B = _coefficients(model, sc, n_h)
            columns = np.full((len(GRID_COLUMNS), size), math.nan)  # in GRID_COLUMNS order
            columns[:5] = _gain(model, sc, inversion0) / model.kappa, inversion0, A, A_b, B
            lost = ~np.isfinite(sc.Gamma * sc.Phi) | ~np.isfinite(columns[:5]).all(axis=0)
    except ValueError as exc:
        return dict.fromkeys(GRID_COLUMNS, [math.nan] * size), [None] * size, rows, [str(exc)] * size
    lost |= (A > 0.0) & ~(B > 0.0)
    cutoffs = np.full(size, -1)
    live = np.flatnonzero(~lost)
    for chains, n_maxes, p in _cut_distributions(A[live], A_b[live], B[live], model.kappa):
        points = live[chains]
        q = _unit(p)
        mean, variance, _, fano = _chain_moments(A[points], A_b[points], B[points], model.kappa, q)
        columns[5:8, points] = mean, variance, fano
        cutoffs[points] = n_maxes
        for k, row, n_max in zip(points.tolist(), q, n_maxes.tolist()):
            if n_max + 2 <= BATCH_RUNGS:
                rows[k] = row[: n_max + 1]
    negative = columns[5] < 0.0  # the refusal of output_power
    failed = lost | (cutoffs < 0) | negative
    for k in np.flatnonzero(failed).tolist():
        if sc.Phi[k] == 0:
            failures[k] = _phi_zero(n_h[k])
        elif lost[k]:
            failures[k] = f"closed-form rates out of floating-point range at n_h = {n_h[k]}"
        elif negative[k]:
            failures[k] = f"mean photon number must be >= 0, got {float(columns[5, k])}"
        else:
            failures[k] = _TOO_WIDE
        rows[k] = None
    columns[:, failed] = math.nan
    with np.errstate(over="ignore", invalid="ignore"):
        columns[8] = output_power(model, columns[5])
    cutoffs = np.where(failed, None, cutoffs).tolist()
    return dict(zip(GRID_COLUMNS, columns.tolist())), cutoffs, rows, failures
