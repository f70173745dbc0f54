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

import functools
import math
from collections import namedtuple

import numpy as np

from .models import THREE_LEVEL, EngineModel, _Validated
from .semiclassical import _gain, _inversion, _structure, structure_constants

__all__ = [
    "LaserCoefficients",
    "PhotonDistribution",
    "Moments",
    "TruncationError",
    "scully_lamb_coefficients",
    "steady_distribution",
    "closed_form_grid",
    "pn_derivative",
    "distribution_moments",
    "coefficient_flow",
    "output_power",
    "saturated_power",
    "rough_estimate_mean",
]

# rung-cells, (chains) x (largest support + 1), of one stacked closed-form
# pass (see closed_form_grid).  A stack holds a few float arrays of that
# shape at once, 0.5 MB each at the budget, so its memory does not grow with
# the spread of a grid's supports; a chain larger than the budget is stacked
# alone.  Every preset grid is one stack (fig2: 60 chains of <= 62 rungs).
SUPPORT_RUNGS = 1 << 16

# rung-points, (points) x (largest cutoff + 2), of one batch of exact solves
# (heatlaser.solver.exact_grid), and the one bound on a point: a cutoff is
# solvable when 1 <= n_max <= BATCH_RUNGS - 2 = 16 030.  16 four-level points
# at n_max 1000, or one at 16 030, peak near 15 MB traced (test_solver.py)
BATCH_RUNGS = 16 * 1002

# the largest condition number (X + Y) / mean of the closed-form mean
# X - Y + Y P_0 (see distribution_moments).  It multiplies the relative error
# of P_0, round-off and the cut row's missing tail near 1e-12, so up to it
# the mean is good to about 1e-9.  Below threshold it can reach 1e31; past
# it the moments are sums over the cut row.  Over each preset grid's range
# it stays below 40
MOMENT_COND = 1e3


class TruncationError(RuntimeError):
    """Raised when a photon distribution does not fit the requested cutoff."""


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
    clipped at 0 and normalised.
    """

    def __init__(self, probabilities: np.ndarray):
        p = np.asarray(probabilities, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("probabilities must be a non-empty 1-d vector")
        if p.min() < -1e-12:
            raise ValueError(f"negative probability {p.min()}")
        total = p.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-9):
            raise ValueError(f"probabilities sum to {total}, expected 1")
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        p.flags.writeable = False
        self.probabilities = p

    @property
    def n_max(self) -> int:
        return self.probabilities.size - 1

    @functools.cached_property
    def mean(self) -> float:
        return float(np.arange(self.probabilities.size) @ self.probabilities)

    @property
    def variance(self) -> float:
        n = np.arange(self.probabilities.size)
        return float((n * n) @ self.probabilities - self.mean**2)

    @property
    def peak_index(self) -> int:
        return int(np.argmax(self.probabilities))

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
    scale = 4.0 * model.g**2 / (sc.Gamma * sc.Phi)
    if model.kind == THREE_LEVEL:
        emission = scale * nh * (model.n_c + 1.0)
        absorption = scale * model.n_c * (nh + 1.0)
    else:
        emission = scale * nh * (model.n_c + 1.0) * (model.n_a + 1.0)
        absorption = scale * model.n_c * model.n_a * (nh + 1.0)
    return emission, absorption, emission * scale * sc.Psi


def _normalized(A, A_b, B, kappa, sizes):
    """P_0 .. P_{size - 1} of a stack of chains, each normalised over its own size.

    ``A``, ``A_b``, ``B`` and ``sizes`` are arrays over the chains.  Returns
    a (chains, largest size) array, zero past each chain's size.  Each row is
    reduced over its own size only, so it equals the recursion run for that
    chain alone, bit for bit.
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
    for row, size in zip(logp, sizes.tolist()):
        row[size:] = -np.inf
    logp -= logp.max(axis=1, keepdims=True)
    p = np.exp(logp, out=logp)
    p /= np.array([row[:size].sum() for row, size in zip(p, sizes.tolist())])[:, np.newaxis]
    return p


def _support_sizes(A, A_b, B, kappa):
    # rungs 0 .. n0 + 41 of each chain's one-pass support (see
    # steady_distribution), or 0 where n0 + 41 would pass 1e6
    gap = 2.0 * A - A_b - kappa
    kb = kappa * B
    # n0 + 41 > 1e6, multiplied out so that B = 0 (no n0 at all) never divides
    fits = (gap < 0.0) | (A * gap < (1_000_000 - 40) * kb)
    grows = fits & (gap > 0.0)
    n0 = np.zeros(A.shape, dtype=int)
    n0[grows] = (A[grows] * gap[grows] / kb[grows]).astype(int)
    return np.where(fits, n0 + 42, 0)


def _cut_distributions(A, A_b, B, kappa):
    """Each chain's closed form cut at its cutoff, stack by stack.

    ``A``, ``A_b`` and ``B`` are arrays over chains with A > 0.  Yields, in
    their order, the distribution of :func:`steady_distribution` with its
    automatic support, before the normalisation of
    :class:`PhotonDistribution`, or the :class:`TruncationError` of a chain
    whose support passes 1e6 rungs, for which nothing is allocated.
    Consecutive chains are stacked while (chains) x (largest support + 1)
    stays within ``SUPPORT_RUNGS``, and a stack is evaluated only when its
    first chain is asked for.
    """
    sizes = _support_sizes(A, A_b, B, kappa)
    for start, end in _runs(sizes.tolist(), SUPPORT_RUNGS):
        yield from _cut_stack(A[start:end], A_b[start:end], B[start:end], kappa, sizes[start:end])


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


def _cut_stack(A, A_b, B, kappa, sizes):
    # one stack of _cut_distributions: each row cut at the first rung past its
    # peak where P_n < 1e-12 and renormalised
    fits = sizes > 0
    cut = iter(())
    if fits.any():
        p = _normalized(A[fits], A_b[fits], B[fits], kappa, sizes[fits])
        peak = p.argmax(axis=1)
        past = np.arange(p.shape[1]) >= peak[:, np.newaxis]
        ends = np.argmax(past & (p < 1e-12), axis=1) + 1
        cut = iter([row[:end] / row[:end].sum() for row, end in zip(p, ends.tolist())])
    for ok in fits.tolist():
        yield next(cut) if ok else TruncationError("distribution support exceeds 1e6 photons")


def steady_distribution(
    coeffs: LaserCoefficients, n_max: int | None = None, tail_tol: float = 1e-8
) -> PhotonDistribution:
    """Stationary distribution of the birth-death chain.

    Built from the detailed-balance recursion
    P_n / P_{n-1} = A / [A_b + kappa (1 + n B/A)], accumulated in log space
    so that far-above-threshold distributions never overflow.  An explicit
    ``n_max`` runs the recursion to that rung and raises
    :class:`TruncationError` when P_Nmax >= ``tail_tol``.

    With ``n_max=None`` the support is found in one pass.  The ratio falls
    with n and is below 1/2 past rung n0 = A (2A - A_b - kappa) / (kappa B)
    (past rung 0 when 2A - A_b - kappa < 0), so the recursion is run to
    n0 + 41: P there is below 2^-41 < 1e-12, and so is the geometric tail
    past it.  The distribution is cut at the first rung past its peak where
    P_n < 1e-12 and renormalised.  That rung is the Fock cutoff of the exact
    solve (:func:`heatlaser.solver.solve_model`), so the result's ``n_max``
    is the cutoff and its probabilities the closed form to compare there;
    with the pump off (A = 0) it is [1, 0], n_max = 1.  When n0 + 41 would
    exceed 1e6 rungs, or B = 0 leaves every ratio at 1/2 or above, it raises
    :class:`TruncationError` before anything is allocated.  This is one
    chain of the stacked pass of :func:`closed_form_grid`, which evaluates a
    whole sweep grid at once, bit for bit as point by point.
    """
    if coeffs.A == 0.0:
        size = 2 if n_max is None else n_max + 1
        p = np.zeros(size)
        p[0] = 1.0
        return PhotonDistribution(p)
    chain = np.array([coeffs.A]), np.array([coeffs.A_b]), np.array([coeffs.B]), coeffs.kappa
    if n_max is not None:
        if n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {n_max}")
        (p,) = _normalized(*chain, np.array([n_max + 1]))
        if p[-1] >= tail_tol:
            raise TruncationError(
                f"P[{n_max}] = {p[-1]:.3e} >= {tail_tol:.1e}; increase n_max"
            )
        return PhotonDistribution(p)
    (p,) = _cut_distributions(*chain)
    if isinstance(p, TruncationError):
        raise p
    return PhotonDistribution(p)


def _upward_flow(coeffs, n, p_nm1, p_n):
    # net coherent flow across the (n-1, n) edge; the A = 0 limit keeps the
    # unsaturated absorption term since B/A -> finite only through the pump
    if coeffs.A == 0.0:
        return -n * coeffs.A_b * p_n
    return n * (coeffs.A * p_nm1 - coeffs.A_b * p_n) / (1.0 + n * coeffs.B / coeffs.A)


def coefficient_flow(coeffs: LaserCoefficients, n: int, p_nm1: float, p_n: float) -> float:
    """Closed-form net coherent photon flow across the (n-1, n) edge.

    Equals n [A P_{n-1} - A_b P_n] / (1 + n B/A), the gain side of the
    birth-death chain; the test suite recomputes the same quantity from the
    atomic linear system.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return float(_upward_flow(coeffs, n, p_nm1, p_n))


def pn_derivative(coeffs: LaserCoefficients, probabilities: np.ndarray) -> np.ndarray:
    """Time derivative of the photon-number distribution.

    Written as flows across rung edges so the total probability is conserved
    identically, including at the truncation edge.
    """
    p = np.asarray(probabilities, dtype=float)
    top = p.size - 1
    n = np.arange(1, top + 1, dtype=float)
    coherent = _upward_flow(coeffs, n, p[:-1], p[1:])
    decay = coeffs.kappa * n * p[1:]
    net_up = coherent - decay
    deriv = np.zeros_like(p)
    deriv[1:] += net_up
    deriv[:-1] -= net_up
    return deriv


def distribution_moments(
    coeffs: LaserCoefficients, *, distribution: PhotonDistribution | None = None
) -> Moments:
    """Closed-form mean, variance, peak location, and Fano factor.

    Uses the auxiliary quantities X = A^2 / (kappa B) and
    Y = A (kappa + A_b) / (kappa B):

        mean     = X - Y + Y P_0,
        <n^2>    = (mean + 1) X - mean Y,
        variance = X - Y P_0 mean,
        peak n*  = (A / kappa B)(A - A_b - kappa).

    P_0 is taken from the automatic-support :func:`steady_distribution`,
    or from ``distribution`` when a caller that already holds it passes it.
    The peak is >= 0 exactly when the gain A - A_b reaches kappa.  Where
    the mean cancels, (X + Y) / mean > ``MOMENT_COND``, far below threshold,
    the mean and variance are the sums over that distribution instead (on
    cancellation see Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., section 1.7).
    """
    if coeffs.A == 0.0:
        return Moments(0.0, 0.0, 0.0, math.nan)
    if coeffs.B <= 0.0:
        raise ValueError("saturation B must be positive when A > 0")
    if distribution is None:
        distribution = steady_distribution(coeffs)
    p = distribution.probabilities
    mean, variance, peak, lossy = _moments(coeffs.A, coeffs.A_b, coeffs.B, coeffs.kappa, p[0])
    if lossy:
        mean, variance = _row_moments(p)
    return Moments(float(mean), float(variance), float(peak), float(_fano(mean, variance)))


def _moments(A, A_b, B, kappa, p0):
    # mean, variance and peak of distribution_moments, and whether the mean
    # cancels past MOMENT_COND; the arguments may be arrays over chains with
    # A > 0 and B > 0
    kb = kappa * B
    x = A * A / kb
    y = A * (kappa + A_b) / kb
    mean = x - y + y * p0
    variance = x - y * p0 * mean
    peak = (A / kb) * (A - A_b - kappa)
    lossy = x + y > MOMENT_COND * np.abs(mean)
    return mean, variance, peak, lossy


def _row_moments(p):
    # mean and variance of the probabilities p of rungs 0, 1, ..., as sums
    n = np.arange(p.size)
    mean = n @ p
    deviation = n - mean
    return mean, (deviation * deviation) @ p


def _fano(mean, variance):
    return np.divide(variance, mean, out=np.full(np.shape(mean), math.nan), where=mean > 0)


def output_power(model: EngineModel, mean_n: float) -> float:
    """Radiated power of the cavity, lasing_frequency * kappa * <n>.

    ``mean_n`` may be an array, NaN where there is no mean.
    """
    if np.min(mean_n) < 0:
        raise ValueError(f"mean photon number must be >= 0, got {mean_n}")
    return model.lasing_frequency * model.kappa * mean_n


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
      and the :func:`output_power` at the mean; NaN where the point failed;
    - ``cutoffs`` holds the ``n_max`` of :func:`steady_distribution`, the
      Fock cutoff of the exact solve, or None where the point failed;
    - ``rows`` holds that distribution's probabilities where the exact
      route can solve the cutoff, n_max + 2 <= ``BATCH_RUNGS``, else None,
      so a sweep keeps only the rows it compares with an exact solve;
    - ``failures`` holds None, or the message of the error those functions
      raise at the point: a zero bath rate fails every point, a support past
      1e6 rungs its own point, with nothing allocated for it.

    Every value equals, bit for bit, what those functions give point by
    point: they share this function's code.  n_h enters only through the
    hot-bath rates, so each formula is one array expression over the grid,
    and the distributions come from the stacks of ``_cut_distributions``,
    bounded by ``SUPPORT_RUNGS``.  Per point remain the reductions of each
    row over its own support and the normalisation of
    :class:`PhotonDistribution`, repeated here.
    """
    n_h = np.asarray(n_h, dtype=float)
    size = n_h.size
    cutoffs, rows = [None] * size, [None] * size
    try:
        sc = _structure(model, n_h)
    except ValueError as exc:
        return dict.fromkeys(GRID_COLUMNS, [math.nan] * size), cutoffs, rows, [str(exc)] * size
    failures = [None] * size
    inversion0 = _inversion(model, sc, n_h)
    A, A_b, B = _coefficients(model, sc, n_h)
    pumped = A > 0.0
    p0 = np.ones(size)
    for i in np.flatnonzero(~pumped).tolist():
        cutoffs[i], rows[i] = 1, np.array([1.0, 0.0])
    chains = _cut_distributions(A[pumped], A_b[pumped], B[pumped], model.kappa)
    for i, p in zip(np.flatnonzero(pumped).tolist(), chains):
        if isinstance(p, TruncationError):
            failures[i] = str(p)
            continue
        total = p.sum()
        p0[i], cutoffs[i] = p[0] / total, p.size - 1
        if cutoffs[i] + 2 <= BATCH_RUNGS:
            rows[i] = p / total
    failed = np.array([failure is not None for failure in failures])
    # the pump off gives the moments (0, 0, nan)
    mean, variance, fano = np.zeros(size), np.zeros(size), np.full(size, math.nan)
    live = pumped & (B > 0.0) & ~failed
    lossy = np.zeros(size, dtype=bool)
    mean[live], variance[live], _, lossy[live] = _moments(
        A[live], A_b[live], B[live], model.kappa, p0[live]
    )
    for i in np.flatnonzero(lossy).tolist():
        row = rows[i]
        if row is None:  # too long to keep: cut it again, bit for bit
            (p,) = _cut_distributions(A[i : i + 1], A_b[i : i + 1], B[i : i + 1], model.kappa)
            row = p / p.sum()
        mean[i], variance[i] = _row_moments(row)
    fano[live] = _fano(mean[live], variance[live])
    # B underflowed to 0, or a negative mean: the point functions refuse these
    for i in np.flatnonzero(pumped & ~failed & ((B <= 0.0) | (mean < 0.0))).tolist():
        try:
            coeffs = LaserCoefficients(A[i], A_b[i], B[i], model.kappa)
            output_power(model, distribution_moments(coeffs).mean)
        except ValueError as exc:
            failures[i], failed[i] = str(exc), True
            cutoffs[i] = rows[i] = None
    mean[failed] = math.nan
    values = (
        _gain(model, sc, inversion0) / model.kappa,
        inversion0,
        A,
        A_b,
        B,
        mean,
        variance,
        fano,
        output_power(model, mean),
    )
    columns = [np.where(failed, math.nan, value).tolist() for value in values]
    return dict(zip(GRID_COLUMNS, columns)), cutoffs, rows, failures


def saturated_power(model: EngineModel) -> float:
    """Far-above-threshold power, lasing_frequency * (A/B)(A - A_b - kappa).

    Valid once P_0 is negligible; below threshold the full expression
    ``output_power(model, distribution_moments(...).mean)`` must be used.
    """
    coeffs = scully_lamb_coefficients(model)
    if coeffs.A == 0.0:
        return 0.0
    return model.lasing_frequency * (coeffs.A / coeffs.B) * (
        coeffs.A - coeffs.A_b - coeffs.kappa
    )


def rough_estimate_mean(model: EngineModel) -> float:
    """Order-of-magnitude cavity photon number for a symmetric 3-level engine.

    Assumes gamma_h = gamma_c = gamma and a near-empty cold bath:

        <n> ~ gamma nh / [kappa (3 nh + 2)]
              - (gamma^2 / 4 g^2)(nh + 1)(2 nh + 1) / (3 nh + 2).
    """
    if model.kind != THREE_LEVEL:
        raise ValueError("the rough estimate applies to the three-level model only")
    if not math.isclose(model.gamma_h, model.gamma_c, rel_tol=1e-12):
        raise ValueError("the rough estimate assumes gamma_h = gamma_c")
    gamma, nh = model.gamma_h, model.n_h
    first = gamma * nh / (model.kappa * (3 * nh + 2))
    second = (gamma**2 / (4 * model.g**2)) * (nh + 1) * (2 * nh + 1) / (3 * nh + 2)
    return first - second
