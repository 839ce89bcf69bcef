"""Fringe normalization and sinusoid fitting.

The model is A sin^2(f x + p) + B = c0 + c1 cos 2fx + c2 sin 2fx, fitted
by weighted variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10,
413, 1973): the three linear coefficients are solved exactly at each trial
f, and f alone is searched by Gauss-Newton steps.  Weights come from the
binomial error of the normalized count ratio, and the covariance is
rescaled by the reduced chi-square so the reported sigmas stay honest when
the noise model is off.  Of an interferogram's two detector fringes, which
sum to 1 at every step, only one is fitted; the other's fit is its exact
mirror (fit_interferograms).  Counts are sorted, normalized and fitted as
(rows, n_steps) blocks (fit_counts), and normalize is the one-row case.  A
fitted block stays arrays through the mirror map, the A + 2B > 0 check and
the visibility with its propagated sigma; only then is each row's
FitResult or InvalidFitError built.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .interferometer import VisibilityValue

__all__ = [
    "FitInputError",
    "InvalidFitError",
    "NormalizedFringe",
    "FitResult",
    "normalize",
    "fit_sinusoid",
    "fit_sinusoids",
    "fit_counts",
    "fit_interferograms",
    "visibility_from_fit",
    "propagate",
]

MAX_ITERATIONS = 200
RELATIVE_TOL = 1e-10
# Rows fitted together.  A block's work arrays are a few tens of kB at 32
# rows of 100 points.  A block iterates until its slowest row stops, so
# larger blocks spend less time per fit on hard, low-count fringes, but
# they raise the peak memory of a campaign or sweep by megabytes at
# several hundred rows.
FIT_BLOCK_ROWS = 32


class FitInputError(ValueError):
    """Data unusable for fitting (too few points with counts)."""


class InvalidFitError(ValueError):
    """A fit result that cannot yield a visibility (A + 2B <= 0)."""


@dataclass(frozen=True)
class NormalizedFringe:
    """Count ratio d/(d1+d2) versus phase, with binomial sigmas.

    Zero-total points carry no information and are dropped before this
    object is built; n_excluded records how many.
    """

    phase: np.ndarray
    ratio: np.ndarray
    sigma: np.ndarray
    detector: int = 1
    n_excluded: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase", np.asarray(self.phase, dtype=float))
        object.__setattr__(self, "ratio", np.asarray(self.ratio, dtype=float))
        object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))
        n = self.phase.shape[0]
        if self.ratio.shape != (n,) or self.sigma.shape != (n,):
            raise ValueError("phase, ratio, and sigma must have identical length")
        if np.any(self.ratio < 0.0) or np.any(self.ratio > 1.0):
            raise ValueError("ratios must lie in [0, 1]")
        if np.any(self.sigma <= 0.0):
            raise ValueError("sigmas must be positive")

    @property
    def n_points(self) -> int:
        return self.phase.shape[0]


def _sigma(k: int) -> property:
    """The square root of the k-th diagonal covariance entry, clamped at zero."""
    return property(lambda self: math.sqrt(max(self.covariance[k, k], 0.0)))


@dataclass(frozen=True)
class FitResult:
    """Fitted A sin^2(f x + p) + B with covariance in (A, f, p, B) order.

    A >= 0, f >= 0, and p in [0, pi) by convention (sin^2 is even and
    pi-periodic, so each fit has one such form); low_signal marks amplitudes
    within 2 sigma of zero.  n_excluded is copied from the fitted fringe.
    """

    amplitude: float
    frequency: float
    phase: float
    offset: float
    covariance: np.ndarray
    visibility: VisibilityValue
    converged: bool
    iterations: int
    residual_norm: float
    n_points: int
    low_signal: bool
    n_excluded: int

    sigma_amplitude, sigma_frequency, sigma_phase, sigma_offset = map(_sigma, range(4))

    def model(self, x: np.ndarray) -> np.ndarray:
        params = np.array([self.amplitude, self.frequency, self.phase, self.offset])
        return _model(np.asarray(x, dtype=float), params)


# a fit's result, or the error that stopped it
FitOutcome = FitResult | FitInputError | InvalidFitError


def normalize(ig, detector: int = 1) -> NormalizedFringe:
    """Normalize one detector's counts to the per-step total.

    The binomial sigma sqrt(r (1-r) / n) is floored at 1/(n+2) so points
    that happen to land at ratio 0 or 1 keep a finite weight.  The kept
    points are stable-sorted by phase, because the fit's spectral start
    assumes an ordered grid; sorted input passes through unchanged.
    Raises FitInputError for fewer than 8 points with counts, or for
    points with counts spanning less than one fringe (2 pi), where the
    frequency is not determined.  This is the one-row case of the block
    normalization in fit_counts.
    """
    if detector not in (1, 2):
        raise ValueError(f"detector must be 1 or 2, got {detector!r}")
    _, [error], groups = _normalize_rows(*_one_row(ig), detector=detector)
    if error is not None:
        raise error
    [(_, phase, ratio, sigma, n_excluded)] = groups
    return NormalizedFringe(phase=phase[0], ratio=ratio[0], sigma=sigma[0],
                            detector=detector, n_excluded=int(n_excluded[0]))


def _one_row(ig) -> tuple[np.ndarray, ...]:
    """(1, n) float arrays of an interferogram's phase, d1 and d2, sorted by phase."""
    return _sorted_by_phase(*(np.asarray(getattr(ig, name), dtype=float)[None]
                              for name in ("phase_rad", "counts_d1", "counts_d2")))


def _sorted_by_phase(phase: np.ndarray, d1: np.ndarray,
                     d2: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three (rows, n) arrays with each row stable-sorted by phase."""
    if np.all(phase[:, 1:] >= phase[:, :-1]):  # a stable sort leaves these as they are
        return phase, d1, d2
    order = np.argsort(phase, axis=-1, kind="stable")
    return tuple(np.take_along_axis(a, order, axis=-1) for a in (phase, d1, d2))


def _fitted_detectors(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The detector fit_interferograms fits, per row of phase-sorted counts.

    It is the one with more counts; on equal totals, the one with more
    counts at the first phase-sorted step where the two differ; detector 1
    when the columns are equal.  The rule swaps with the detectors and does
    not depend on the order of the steps (the sums run in phase order).
    """
    c1, c2 = d1.sum(axis=-1), d2.sum(axis=-1)
    differ = d1 != d2
    rows = np.arange(len(d1))
    first = np.argmax(differ, axis=-1)
    tie = (c1 == c2) & differ[rows, first]
    c1 = np.where(tie, d1[rows, first], c1)
    c2 = np.where(tie, d2[rows, first], c2)
    return np.where(c1 >= c2, 1, 2)


def _normalize_rows(phase: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                    detector: int | None = None):
    """normalize on each row of phase-sorted (rows, n) float arrays.

    Returns (detector, errors, groups): the detector normalized in each row
    (the given one, or _fitted_detectors when detector is None), each row's
    FitInputError or None, and the usable rows grouped by kept length as
    (rows, phase, ratio, sigma, n_excluded) with (len(rows), kept) arrays.
    """
    total = d1 + d2
    keep = total > 0
    width = total.shape[-1]
    n_usable = np.count_nonzero(keep, axis=-1)
    errors: list[FitInputError | None] = [None] * len(total)
    for i in np.flatnonzero(n_usable < 8):
        errors[i] = FitInputError(
            f"need at least 8 points with nonzero total counts, got {n_usable[i]}")
    detectors = np.full(len(total), detector or 1)
    usable = np.flatnonzero(n_usable >= 8)
    if usable.size == 0:
        return detectors, errors, []
    first = np.argmax(keep[usable], axis=-1)
    last = width - 1 - np.argmax(keep[usable, ::-1], axis=-1)
    span = phase[usable, last] - phase[usable, first]
    short = ~(span >= 2.0 * math.pi - 1e-9)
    for i, s in zip(usable[short], span[short]):
        errors[i] = FitInputError(
            f"points with counts must span at least one full fringe (2 pi), got {float(s)!r}")
    usable = usable[~short]
    if detector is None:
        detectors[usable] = _fitted_detectors(d1[usable], d2[usable])
    n = np.where(keep, total, 1.0)
    r = np.where(detectors[:, None] == 1, d1, d2) / n
    sigma = np.maximum(np.sqrt(r * (1.0 - r) / n), 1.0 / (n + 2.0))
    groups = []
    for kept, rows in _by_length(n_usable[usable]).items():
        rows = usable[rows]
        arrays = (phase[rows], r[rows], sigma[rows])
        if kept < width:
            mask = keep[rows]
            arrays = tuple(a[mask].reshape(len(rows), kept) for a in arrays)
        groups.append((rows, *arrays, np.full(len(rows), width - kept)))
    return detectors, errors, groups


def _by_length(lengths) -> dict[int, np.ndarray]:
    """The indices of each distinct value of lengths, in order of first appearance."""
    lengths = np.asarray(lengths)
    return {n: np.flatnonzero(lengths == n) for n in dict.fromkeys(lengths.tolist())}


def _model(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """A sin^2(f x + p) + B; params is (4,) or (..., 4) against x of (..., n)."""
    a, f, p, b = (params[..., k, None] for k in range(4))
    s = np.sin(f * x + p)
    return a * s * s + b


def _jacobian(x: np.ndarray, params: np.ndarray) -> np.ndarray:
    """d model / d (A, f, p, B), shape (..., n, 4)."""
    a, f, p, b = (params[..., k, None] for k in range(4))
    arg = f * x + p
    s = np.sin(arg)
    s2 = np.sin(2.0 * arg)
    return np.stack([s * s, a * x * s2, a * s2, np.ones_like(s)], axis=-1)


def _solve_rows(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched solve of lhs @ step = rhs; returns (step, solved mask).

    A singular matrix fails the whole batched call, so the rows are then
    solved one at a time and only the singular ones are marked unsolved
    (their step is zero).  Each row goes through the same stacked call
    either way, so a row's step does not depend on its neighbours.
    """
    try:
        return np.linalg.solve(lhs, rhs[..., None])[..., 0], np.ones(len(lhs), dtype=bool)
    except np.linalg.LinAlgError:
        step = np.zeros_like(rhs)
        solved = np.zeros(len(lhs), dtype=bool)
        for i in range(len(lhs)):
            try:
                step[i] = np.linalg.solve(lhs[i:i + 1], rhs[i:i + 1, :, None])[0, :, 0]
                solved[i] = True
            except np.linalg.LinAlgError:
                pass
        return step, solved


def _project(x: np.ndarray, w: np.ndarray, y: np.ndarray, f: np.ndarray):
    """The model c0 + c1 cos 2fx + c2 sin 2fx at a fixed f per row.

    Returns the weighted least-squares (c0, c1, c2) per row, their weighted
    squared residual, and the Gauss-Newton step on f from there: the f part
    of the 4x4 Gauss-Newton step, whose normal matrix reduces to the Schur
    complement of its linear block, the f derivative with the three columns
    projected out.  The columns are centred to zero weighted mean, which
    separates c0 and leaves 2x2 solves.  Collinear columns leave c1 = c2 = 0,
    a valid but worse fit, and a zero step.
    """
    wsum = np.sum(w, axis=-1, keepdims=True)

    def centred(v):
        return v - np.sum(w * v, axis=-1, keepdims=True) / wsum

    def residual(v):
        """v less its weighted least squares on the centred columns, and the fit."""
        coef, _ = _solve_rows(gram, (weighted @ v[..., None])[..., 0])
        return v - (coef[:, None] @ cols)[:, 0], coef[:, :1], coef[:, 1:]

    arg = 2.0 * f[:, None] * x
    cos, sin = np.cos(arg), np.sin(arg)
    cols = np.stack([centred(cos), centred(sin)], axis=1)
    weighted = w[:, None] * cols
    gram = weighted @ cols.swapaxes(1, 2)
    resid, c1, c2 = residual(centred(y))
    deriv = residual(centred(2.0 * x * (c2 * cos - c1 * sin)))[0]
    curvature = np.sum(w * deriv * deriv, axis=-1)
    step = np.divide(np.sum(w * deriv * resid, axis=-1), curvature,
                     out=np.zeros_like(curvature), where=curvature > 0.0)
    c0 = np.sum(w * (y - c1 * cos - c2 * sin), axis=-1, keepdims=True) / wsum
    return np.concatenate([c0, c1, c2], axis=-1), np.sum(w * resid * resid, axis=-1), step


def _amplitude_form(f: float, c0: float, c1: float, c2: float) -> tuple[float, ...]:
    """(A, f, p, B) of c0 + c1 cos 2fx + c2 sin 2fx, with f >= 0 and p in [0, pi).

    A sin^2(f x + p) + B = B + A/2 - (A/2) cos 2p cos 2fx + (A/2) sin 2p sin 2fx.
    """
    if f < 0.0:  # sin^2 is even under (f, p) -> (-f, -p)
        f, c2 = -f, -c2
    a = 2.0 * math.hypot(c1, c2)
    p = 0.5 * math.atan2(c2, -c1)
    return a, f, p + math.pi if p < 0.0 else p, c0 - 0.5 * a


def _fit_block(x: np.ndarray, y: np.ndarray, sigma: np.ndarray,
               n_excluded: np.ndarray) -> tuple:
    """Variable projection on (rows, n) fringe arrays, one state per row.

    f is the only nonlinear parameter: each trial f gets its exact linear
    fit, and f moves by Gauss-Newton steps.  Rows that stop leave the
    active set, and the rest iterate on.  The arithmetic of each row is
    independent of the other rows.

    Returns the block before the A + 2B > 0 check as (params, cov,
    converged, iterations, residual_norm, n_points, n_excluded): (rows, 4)
    (A, f, p, B) with A, f >= 0 and p in [0, pi), (rows, 4, 4)
    covariances, per-row arrays, and the rows' common length n.
    """
    w = 1.0 / (sigma * sigma)
    rows, n = x.shape

    # the fringe oscillates at 2f, so bin k of the n-point spectrum maps to
    # f = pi k / (n dx).  The band the scan resolves runs from bin 1 up to
    # half a bin below the Nyquist frequency, excluded; the search starts
    # at the strongest bin below the Nyquist bin.
    dx = (x[:, -1] - x[:, 0]) / (n - 1)
    lowest = math.pi / (n * dx)
    highest = lowest * (0.5 * (n - 1))
    spectrum = np.abs(np.fft.rfft(y - np.mean(y, axis=-1, keepdims=True), axis=-1))
    f = lowest * (np.argmax(spectrum[:, 1:(n + 1) // 2], axis=-1) + 1)
    coef, chi2, step = _project(x, w, y, f)
    converged = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=np.int64)
    # a step is at most one bin, as the chi-square has a local minimum about
    # every bin, and is halved at each rejected trial
    scale = np.ones(rows)
    active = np.arange(rows)
    for _ in range(MAX_ITERATIONS):
        iterations[active] += 1
        width = lowest[active]
        trial = f[active] + scale[active] * np.clip(step[active], -width, width)
        coef_trial, chi2_trial, step_trial = _project(x[active], w[active], y[active], trial)
        accept = chi2_trial <= chi2[active]
        reduction = chi2[active] - chi2_trial
        moved = active[accept]
        f[moved], coef[moved] = trial[accept], coef_trial[accept]
        chi2[moved], step[moved] = chi2_trial[accept], step_trial[accept]
        scale[active] = np.where(accept, 1.0, 0.5 * scale[active])
        done = accept & (reduction <= RELATIVE_TOL * np.maximum(chi2[active], 1e-300))
        converged[active[done]] = True
        # below the band the chi-square falls on toward f = 0, where A grows
        # without bound, and the fit can only end unconverged: stop it now
        active = active[~(done | (np.abs(f[active]) < width))]
        if active.size == 0:
            break

    params = np.array([_amplitude_form(f[i], *coef[i]) for i in range(rows)])
    # a fit outside the band, or one that the band's upper edge beats (the
    # data alternate near the Nyquist frequency), is not a resolved fringe
    converged &= ((params[:, 1] >= lowest) & (params[:, 1] < highest)
                  & (chi2 <= _project(x, w, y, highest)[1]))
    jac = _jacobian(x, params)
    hess = (jac * w[..., None]).swapaxes(-1, -2) @ jac
    # the covariance is the (pseudo-)inverse of J^T W J at the optimum,
    # rescaled by the reduced chi-square (n >= 8 points)
    cov = np.linalg.pinv(hess) * (chi2 / (n - 4))[:, None, None]
    return params, cov, converged, iterations, np.sqrt(chi2), n, n_excluded


# the linear map of (A, f, p, B) -> (A, f, p + pi/2, 1 - A - B)
_MIRROR = np.array([[1.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [-1.0, 0.0, 0.0, -1.0]])


def _mirror(params: np.ndarray, cov: np.ndarray, *rest) -> tuple:
    """The fitted block of the complementary fringes 1 - r, in closed form.

    1 - A sin^2(f x + p) - B = A sin^2(f x + p + pi/2) + (1 - A - B) is an
    exact reparameterization, so the covariances are transported with its
    linear map; the residuals only change sign, so every other array stays.
    """
    a, f, p, b = params.T
    mirrored = np.stack([a, f, np.fmod(p + 0.5 * math.pi, math.pi), 1.0 - a - b], axis=-1)
    return (mirrored, _MIRROR @ cov @ _MIRROR.T, *rest)


def _visibilities(params: np.ndarray,
                  cov: np.ndarray) -> list[VisibilityValue | InvalidFitError]:
    """Each row's visibility A/(A+2B), with the sigma propagated from the
    (A, B) block of its covariance, or its InvalidFitError (A + 2B <= 0)."""
    denom = params[:, 0] + 2.0 * params[:, 3]
    valid = denom > 0.0
    a, b, d = params[valid, 0], params[valid, 3], denom[valid]
    grad = np.stack([2.0 * b / (d * d), -2.0 * a / (d * d)], axis=-1)
    sigma = propagate(grad, cov[valid][:, 0::3, 0::3])
    # fit noise can push B a hair negative on bright data; the fringe
    # contrast itself is still bounded
    visibilities = map(VisibilityValue, np.clip(a / d, 0.0, 1.0).tolist(), sigma.tolist())
    return [next(visibilities) if ok
            else InvalidFitError(f"A + 2B must be positive, got {q!r}")
            for ok, q in zip(valid.tolist(), denom.tolist())]


def _outcomes(params: np.ndarray, cov: np.ndarray, converged: np.ndarray,
              iterations: np.ndarray, residual_norm: np.ndarray, n_points: int,
              n_excluded: np.ndarray) -> list[FitResult | InvalidFitError]:
    """The FitResult of each row of a fitted block, or its InvalidFitError."""
    low_signal = params[:, 0] <= 2.0 * np.sqrt(np.maximum(cov[:, 0, 0], 0.0))
    rows = zip(_visibilities(params, cov), params.tolist(), cov, converged.tolist(),
               iterations.tolist(), residual_norm.tolist(), low_signal.tolist(),
               n_excluded.tolist())
    return [visibility if isinstance(visibility, InvalidFitError) else FitResult(
                *p, covariance=c, visibility=visibility, converged=conv, iterations=its,
                residual_norm=r, n_points=n_points, low_signal=low, n_excluded=excl)
            for visibility, p, c, conv, its, r, low, excl in rows]


def _fit_groups(groups) -> Iterator[tuple[list[int], tuple]]:
    """(rows, fitted block) for groups of (rows, x, y, sigma, n_excluded),
    fitted FIT_BLOCK_ROWS rows at a time."""
    for rows, x, y, sigma, n_excluded in groups:
        for start in range(0, len(rows), FIT_BLOCK_ROWS):
            block = slice(start, start + FIT_BLOCK_ROWS)
            yield rows[block].tolist(), _fit_block(x[block], y[block], sigma[block],
                                                   n_excluded[block])


def fit_sinusoids(fringes: Sequence[NormalizedFringe]) -> list[FitOutcome]:
    """Weighted variable-projection fits of many fringes, one result per fringe.

    Each fit searches f from the strongest bin of the discrete spectrum
    below the Nyquist bin; every trial f (an iteration) gets its exact
    linear fit.  It stops when an accepted step reduces the weighted squared
    residual by less than 1e-10 relative, or at once when an accepted f
    falls below the band the scan resolves (FFT bin 1 up to half a bin
    below the Nyquist frequency).  converged is False after 200
    iterations, for an f outside that band, or when the fit at its upper
    edge has a smaller chi-square.  Fringes are grouped by length and
    fitted FIT_BLOCK_ROWS at a time; a fringe's result does not depend on
    which others share its block.

    Each entry is a FitResult, or the FitInputError (fewer than 8 points)
    or InvalidFitError (A + 2B <= 0) of that fringe, returned rather than
    raised so one bad fringe does not cost the others their fits.
    """
    results: list = [FitInputError(f"need at least 8 points, got {fringe.n_points}")
                     if fringe.n_points < 8 else None for fringe in fringes]
    groups = [(rows, *(np.stack([getattr(fringes[i], name) for i in rows])
                       for name in ("phase", "ratio", "sigma")),
               np.array([fringes[i].n_excluded for i in rows]))
              for n, rows in _by_length([fringe.n_points for fringe in fringes]).items()
              if n >= 8]
    for rows, block in _fit_groups(groups):
        for i, outcome in zip(rows, _outcomes(*block)):
            results[i] = outcome
    return results


def fit_sinusoid(fringe: NormalizedFringe) -> FitResult:
    """fit_sinusoids for one fringe; its FitInputError or InvalidFitError is raised."""
    result = fit_sinusoids([fringe])[0]
    if isinstance(result, ValueError):
        raise result
    return result


def fit_counts(phase: np.ndarray, counts_d1: np.ndarray,
               counts_d2: np.ndarray) -> list[tuple[FitOutcome, FitOutcome]]:
    """fit_interferograms on count blocks: the (d1, d2) outcomes of each row.

    The arguments are (rows, n_steps) arrays, or broadcast to that shape
    (a scan's one phase grid serves every row).  Rows are sorted,
    normalized and checked together, then fitted FIT_BLOCK_ROWS at a time
    in groups of equal kept length; a row's outcomes do not depend on the
    other rows.
    """
    arrays = (np.ascontiguousarray(a, dtype=float)
              for a in np.broadcast_arrays(phase, counts_d1, counts_d2))
    detectors, errors, groups = _normalize_rows(*_sorted_by_phase(*arrays))
    outcomes: list = [(err, err) for err in errors]
    for rows, block in _fit_groups(groups):
        for i, fitted, mirrored in zip(rows, _outcomes(*block), _outcomes(*_mirror(*block))):
            outcomes[i] = (fitted, mirrored) if detectors[i] == 1 else (mirrored, fitted)
    return outcomes


def fit_interferograms(
    interferograms: Iterable,
) -> Iterator[tuple[FitOutcome, FitOutcome]]:
    """Fit each interferogram once, yielding its (d1, d2) outcomes.

    normalize divides by the per-step total d1 + d2, so one detector's
    fringe is 1 minus the other's, with the same sigmas.  Only the fringe
    of _fitted_detectors is fitted; the other detector's result follows
    from that fit by the exact map _mirror: A, f, the sigmas of A, f and p,
    converged, iterations, residual_norm, n_points, n_excluded and
    low_signal are the fitted detector's, p moves by pi/2 and B becomes
    1 - A - B.  Each detector gets its own A + 2B > 0 check, so an
    InvalidFitError on one side can come with a valid fit on the other.

    The fitted entry is fit_sinusoid(normalize(ig, detector)) exactly; an
    interferogram that normalize refuses gets its FitInputError on both
    sides.  The input is consumed FIT_BLOCK_ROWS interferograms (one block
    of fringes) at a time, in order, so a generator is never held in
    memory whole; each block's scans of equal length go to fit_counts
    together.
    """
    interferograms = iter(interferograms)
    while block := list(itertools.islice(interferograms, FIT_BLOCK_ROWS)):
        outcomes: list = [None] * len(block)
        for rows in _by_length([len(ig.phase_rad) for ig in block]).values():
            stacked = (np.stack([np.asarray(getattr(block[i], name), dtype=float)
                                 for i in rows])
                       for name in ("phase_rad", "counts_d1", "counts_d2"))
            for i, pair in zip(rows, fit_counts(*stacked)):
                outcomes[i] = pair
        yield from outcomes


def visibility_from_fit(fit: FitResult) -> VisibilityValue:
    """Visibility A/(A+2B) with the sigma propagated from the (A, B) block;
    InvalidFitError for A + 2B <= 0.  This is the one-row case of the fit's
    own visibility."""
    params = np.array([[fit.amplitude, fit.frequency, fit.phase, fit.offset]])
    [visibility] = _visibilities(params, fit.covariance[None])
    if isinstance(visibility, InvalidFitError):
        raise visibility
    return visibility


def propagate(gradient: np.ndarray, covariance: np.ndarray) -> float | np.ndarray:
    """First-order uncertainty sqrt(g^T C g) of a gradient of length k, or of
    each of a stack of (..., k) gradients with its (..., k, k) covariance.

    Tiny negative quadratic forms (numerical) are clamped to zero, with one
    warning that lists them, rather than raised.  The forms are computed on
    a C-contiguous copy of the covariances, so a stacked row gets the same
    bits as its own call.
    """
    g = np.asarray(gradient, dtype=float)
    c = np.ascontiguousarray(covariance, dtype=float)
    if c.shape != g.shape + g.shape[-1:]:
        raise ValueError(f"gradient of shape {g.shape} needs covariance of shape "
                         f"{g.shape + g.shape[-1:]}, got shape {c.shape}")
    q = (g[..., None, :] @ c @ g[..., :, None])[..., 0, 0]
    negative = q < 0.0
    if np.any(negative):
        forms = ", ".join(map(repr, q[negative].tolist()))
        warnings.warn(f"clamping negative quadratic form {forms} to zero", stacklevel=2)
        q = np.where(negative, 0.0, q)
    sigma = np.sqrt(q)
    return float(sigma) if g.ndim == 1 else sigma
