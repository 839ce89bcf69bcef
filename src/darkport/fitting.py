"""Fringe normalization and sinusoid fitting.

The model is A sin^2(f x + p) + B = c0 + c1 cos 2fx + c2 sin 2fx, fitted
by weighted variable projection (Golub & Pereyra, SIAM J. Numer. Anal. 10,
413, 1973): the three linear coefficients are solved exactly at each trial
f, and f alone is searched by Gauss-Newton steps.  Weights come from the
binomial error of the normalized count ratio, and the covariance is
rescaled by the reduced chi-square so the reported sigmas stay honest when
the noise model is off.  Of an interferogram's two detector fringes, which
sum to 1 at every step, only one is fitted; the other's fit is its exact
mirror (fit_interferograms).
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
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
        s = np.sin(self.frequency * np.asarray(x, dtype=float) + self.phase)
        return self.amplitude * s * s + self.offset


# a fit's result, or the error that stopped it
FitOutcome = FitResult | FitInputError | InvalidFitError


@dataclass(frozen=True)
class _Fit:
    """A fitted row before the A + 2B > 0 check: (A, f, p, B) with A, f >= 0
    and p in [0, pi), and covariance, with the fields FitResult copies
    unchanged."""

    params: np.ndarray
    covariance: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    n_points: int
    n_excluded: int


def normalize(ig, detector: int = 1) -> NormalizedFringe:
    """Normalize one detector's counts to the per-step total.

    The binomial sigma sqrt(r (1-r) / n) is floored at 1/(n+2) so points
    that happen to land at ratio 0 or 1 keep a finite weight.  The kept
    points are stable-sorted by phase, because the fit's spectral start
    assumes an ordered grid; sorted input passes through unchanged.
    Raises FitInputError for fewer than 8 points with counts, or for
    points with counts spanning less than one fringe (2 pi), where the
    frequency is not determined.
    """
    if detector not in (1, 2):
        raise ValueError(f"detector must be 1 or 2, got {detector!r}")
    d1 = np.asarray(ig.counts_d1, dtype=float)
    d2 = np.asarray(ig.counts_d2, dtype=float)
    phase = np.asarray(ig.phase_rad, dtype=float)
    order = np.argsort(phase, kind="stable")
    d1, d2, phase = d1[order], d2[order], phase[order]
    total = d1 + d2
    keep = total > 0
    n_usable = int(np.count_nonzero(keep))
    if n_usable < 8:
        raise FitInputError(
            f"need at least 8 points with nonzero total counts, got {n_usable}")
    phase = phase[keep]
    span = float(phase[-1] - phase[0])
    if not span >= 2.0 * math.pi - 1e-9:
        raise FitInputError(
            f"points with counts must span at least one full fringe (2 pi), got {span!r}")
    n = total[keep]
    num = d1[keep] if detector == 1 else d2[keep]
    r = num / n
    sigma = np.maximum(np.sqrt(r * (1.0 - r) / n), 1.0 / (n + 2.0))
    return NormalizedFringe(phase=phase, ratio=r, sigma=sigma,
                            detector=detector, n_excluded=int(len(total) - n_usable))


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


def _fit_block(fringes: Sequence[NormalizedFringe]) -> list[_Fit]:
    """Variable projection on fringes of equal length, one state per row.

    f is the only nonlinear parameter: each trial f gets its exact linear
    fit, and f moves by Gauss-Newton steps.  Rows that stop leave the
    active set, and the rest iterate on.  The arithmetic of each row is
    independent of the other rows.
    """
    x, y, sigma = (np.stack([getattr(fr, name) for fr in fringes])
                   for name in ("phase", "ratio", "sigma"))
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
        active = active[~done]
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
    return [_Fit(params=params[i], covariance=cov[i], converged=bool(converged[i]),
                 iterations=int(iterations[i]), residual_norm=math.sqrt(chi2[i]),
                 n_points=n, n_excluded=fringes[i].n_excluded) for i in range(rows)]


# the linear map of (A, f, p, B) -> (A, f, p + pi/2, 1 - A - B)
_MIRROR = np.array([[1.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0],
                    [-1.0, 0.0, 0.0, -1.0]])


def _mirror(fit: _Fit) -> _Fit:
    """The fit of the complementary fringe 1 - r, in closed form.

    1 - A sin^2(f x + p) - B = A sin^2(f x + p + pi/2) + (1 - A - B) is an
    exact reparameterization, so the covariance is transported with its
    linear map; the residuals only change sign, so every other field stays.
    """
    a, f, p, b = fit.params
    params = np.array([a, f, math.fmod(p + 0.5 * math.pi, math.pi), 1.0 - a - b])
    return replace(fit, params=params, covariance=_MIRROR @ fit.covariance @ _MIRROR.T)


def _outcome(fit: _Fit) -> FitResult | InvalidFitError:
    """The FitResult of a fitted row, or its InvalidFitError (A + 2B <= 0)."""
    a, f, p, b = (float(q) for q in fit.params)
    try:
        visibility = _visibility(a, b, fit.covariance)
    except InvalidFitError as err:
        return err
    return FitResult(
        amplitude=a, frequency=f, phase=p, offset=b, covariance=fit.covariance,
        visibility=visibility, converged=fit.converged, iterations=fit.iterations,
        residual_norm=fit.residual_norm, n_points=fit.n_points,
        low_signal=a <= 2.0 * math.sqrt(max(fit.covariance[0, 0], 0.0)),
        n_excluded=fit.n_excluded)


def _fit_rows(fringes: Sequence[NormalizedFringe]) -> list[_Fit | FitInputError]:
    """fit_sinusoids before the A + 2B > 0 check."""
    results: list = [None] * len(fringes)
    by_length: dict[int, list[int]] = {}
    for i, fringe in enumerate(fringes):
        if fringe.n_points < 8:
            results[i] = FitInputError(f"need at least 8 points, got {fringe.n_points}")
        else:
            by_length.setdefault(fringe.n_points, []).append(i)
    for rows in by_length.values():
        for start in range(0, len(rows), FIT_BLOCK_ROWS):
            block = rows[start:start + FIT_BLOCK_ROWS]
            for i, fit in zip(block, _fit_block([fringes[i] for i in block])):
                results[i] = fit
    return results


def fit_sinusoids(fringes: Sequence[NormalizedFringe]) -> list[FitOutcome]:
    """Weighted variable-projection fits of many fringes, one result per fringe.

    Each fit searches f from the strongest bin of the discrete spectrum
    below the Nyquist bin; every trial f (an iteration) gets its exact
    linear fit.  It stops when an accepted step reduces the weighted squared
    residual by less than 1e-10 relative.  converged is False after 200
    iterations, for an f outside the band the scan resolves (FFT bin 1 up
    to half a bin below the Nyquist frequency), or when the fit at that
    upper edge has a smaller chi-square.  Fringes are grouped by length and
    fitted FIT_BLOCK_ROWS at a time; a fringe's result does not depend on
    which others share its block.

    Each entry is a FitResult, or the FitInputError (fewer than 8 points)
    or InvalidFitError (A + 2B <= 0) of that fringe, returned rather than
    raised so one bad fringe does not cost the others their fits.
    """
    return [fit if isinstance(fit, FitInputError) else _outcome(fit)
            for fit in _fit_rows(fringes)]


def fit_sinusoid(fringe: NormalizedFringe) -> FitResult:
    """fit_sinusoids for one fringe; its FitInputError or InvalidFitError is raised."""
    result = fit_sinusoids([fringe])[0]
    if isinstance(result, ValueError):
        raise result
    return result


def _fitted_detector(ig) -> int:
    """The detector whose fringe fit_interferograms fits.

    It is the one with more counts; on equal totals, the one with more
    counts at the first phase-sorted step where the two differ; detector 1
    when the columns are equal.  The rule swaps with the detectors and does
    not depend on the order of the rows (the sums run in phase order).
    """
    order = np.argsort(np.asarray(ig.phase_rad, dtype=float), kind="stable")
    d1 = np.asarray(ig.counts_d1, dtype=float)[order]
    d2 = np.asarray(ig.counts_d2, dtype=float)[order]
    c1, c2 = d1.sum(), d2.sum()
    if c1 == c2:
        differ = np.flatnonzero(d1 != d2)
        if differ.size:
            c1, c2 = d1[differ[0]], d2[differ[0]]
    return 1 if c1 >= c2 else 2


def fit_interferograms(
    interferograms: Iterable,
) -> Iterator[tuple[FitOutcome, FitOutcome]]:
    """Fit each interferogram once, yielding its (d1, d2) outcomes.

    normalize divides by the per-step total d1 + d2, so one detector's
    fringe is 1 minus the other's, with the same sigmas.  Only the fringe
    of _fitted_detector is fitted; the other detector's result follows from
    that fit by the exact map _mirror: A, f, the sigmas of A, f and p,
    converged, iterations, residual_norm, n_points, n_excluded and
    low_signal are the fitted detector's, p moves by pi/2 and B becomes
    1 - A - B.  Each detector gets its own A + 2B > 0 check, so an
    InvalidFitError on one side can come with a valid fit on the other.

    The fitted entry is fit_sinusoid(normalize(ig, detector)) exactly; an
    interferogram that normalize refuses gets its FitInputError on both
    sides.  The input is consumed FIT_BLOCK_ROWS interferograms (one block
    of fringes) at a time, in order, so a generator is never held in
    memory whole.
    """
    interferograms = iter(interferograms)
    while block := list(itertools.islice(interferograms, FIT_BLOCK_ROWS)):
        detectors = [_fitted_detector(ig) for ig in block]
        fringes = []
        for ig, detector in zip(block, detectors):
            try:
                fringes.append(normalize(ig, detector=detector))
            except FitInputError as err:
                fringes.append(err)
        fits = iter(_fit_rows([f for f in fringes if isinstance(f, NormalizedFringe)]))
        for detector, fringe in zip(detectors, fringes):
            fit = fringe if isinstance(fringe, FitInputError) else next(fits)
            if isinstance(fit, FitInputError):
                yield fit, fit
                continue
            fitted, mirrored = _outcome(fit), _outcome(_mirror(fit))
            yield (fitted, mirrored) if detector == 1 else (mirrored, fitted)


def _visibility(a: float, b: float, cov: np.ndarray) -> VisibilityValue:
    denom = a + 2.0 * b
    if denom <= 0.0:
        raise InvalidFitError(f"A + 2B must be positive, got {denom!r}")
    value = a / denom
    grad = np.array([2.0 * b / (denom * denom), -2.0 * a / (denom * denom)])
    cov_ab = np.array([[cov[0, 0], cov[0, 3]], [cov[3, 0], cov[3, 3]]])
    sigma = propagate(grad, cov_ab)
    # fit noise can push B a hair negative on bright data; the fringe
    # contrast itself is still bounded
    return VisibilityValue(value=min(max(value, 0.0), 1.0), sigma=sigma)


def visibility_from_fit(fit: FitResult) -> VisibilityValue:
    """Visibility A/(A+2B) with the sigma propagated from the (A, B) block."""
    return _visibility(fit.amplitude, fit.offset, fit.covariance)


def propagate(gradient: np.ndarray, covariance: np.ndarray) -> float:
    """First-order uncertainty sqrt(g^T C g).

    Tiny negative quadratic forms (numerical) are clamped to zero with a
    warning rather than raised.
    """
    g = np.asarray(gradient, dtype=float)
    c = np.asarray(covariance, dtype=float)
    if c.shape != (g.shape[0], g.shape[0]):
        raise ValueError(f"gradient of length {g.shape[0]} needs a matching square "
                         f"covariance, got shape {c.shape}")
    q = float(g @ c @ g)
    if q < 0.0:
        warnings.warn(f"clamping negative quadratic form {q!r} to zero", stacklevel=2)
        q = 0.0
    return math.sqrt(q)
