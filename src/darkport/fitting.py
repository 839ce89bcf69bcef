"""Fringe normalization and sinusoid fitting.

The model is A sin^2(f x + p) + B fitted by weighted Levenberg-Marquardt
(damped Gauss-Newton with Marquardt diagonal scaling).  Weights come from
the binomial error of the normalized count ratio, and the covariance is
rescaled by the reduced chi-square so the reported sigmas stay honest when
the noise model is off.
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
    "fit_interferograms",
    "visibility_from_fit",
    "propagate",
]

MAX_ITERATIONS = 200
RELATIVE_TOL = 1e-10
DAMPING_INIT = 1e-3
DAMPING_STEP = 10.0
DAMPING_MAX = 1e12
# Rows fitted together.  A block's work arrays are a few tens of kB at 32
# rows of 100 points.  Larger blocks spend less time per fit on hard,
# low-count fringes but raise the peak memory of a campaign or sweep by
# megabytes at several hundred rows.
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


@dataclass(frozen=True)
class FitResult:
    """Fitted A sin^2(f x + p) + B with covariance in (A, f, p, B) order.

    A >= 0, f >= 0, and p in [0, pi) by convention (the sign and phase
    degeneracies of sin^2 are folded away); low_signal marks amplitudes
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

    @property
    def sigma_amplitude(self) -> float:
        return math.sqrt(max(self.covariance[0, 0], 0.0))

    @property
    def sigma_frequency(self) -> float:
        return math.sqrt(max(self.covariance[1, 1], 0.0))

    @property
    def sigma_phase(self) -> float:
        return math.sqrt(max(self.covariance[2, 2], 0.0))

    @property
    def sigma_offset(self) -> float:
        return math.sqrt(max(self.covariance[3, 3], 0.0))

    def model(self, x: np.ndarray) -> np.ndarray:
        s = np.sin(self.frequency * np.asarray(x, dtype=float) + self.phase)
        return self.amplitude * s * s + self.offset


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


def _weighted_sq(w: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.sum(w * r * r, axis=-1)


def _normal_equations(x, w, params, resid):
    """Gauss-Newton Hessian J^T W J, shape (rows, 4, 4), and gradient J^T W r."""
    jac = _jacobian(x, params)
    jw_t = (jac * w[..., None]).swapaxes(-1, -2)
    return jw_t @ jac, (jw_t @ resid[..., None])[..., 0]


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


def _covariances(hess: np.ndarray) -> np.ndarray:
    """Row-wise inverse, with the pseudo-inverse for singular rows."""
    try:
        return np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        out = np.empty_like(hess)
        for i in range(len(hess)):
            try:
                out[i] = np.linalg.inv(hess[i:i + 1])[0]
            except np.linalg.LinAlgError:
                out[i] = np.linalg.pinv(hess[i])
        return out


def _starting_points(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Starting (A, f, p, B) per row: B = min, A = max - min, f from the
    spectrum, and the best of a 16-point phase grid over [0, pi)."""
    b0 = np.min(y, axis=-1)
    a0 = np.max(y, axis=-1) - b0
    # dominant nonzero spectral peak of the detrended ratio; the fringe
    # oscillates at 2f, so bin k of an n-point grid maps to f = pi k / (n dx)
    n = x.shape[-1]
    dx = (x[:, -1] - x[:, 0]) / (n - 1)
    spectrum = np.abs(np.fft.rfft(y - np.mean(y, axis=-1, keepdims=True), axis=-1))
    k = np.argmax(spectrum[:, 1:], axis=-1) + 1
    f0 = math.pi * k / (n * dx)
    params = np.stack([a0, f0, np.zeros_like(a0), b0], axis=-1)
    best = params.copy()
    best_chi2 = _weighted_sq(w, y - _model(x, best))
    # a later phase replaces the first only when strictly better
    for p0 in np.linspace(0.0, math.pi, 16, endpoint=False)[1:]:
        params[:, 2] = p0
        chi2 = _weighted_sq(w, y - _model(x, params))
        better = chi2 < best_chi2
        best[better] = params[better]
        best_chi2[better] = chi2[better]
    return best


def _fit_block(fringes: Sequence[NormalizedFringe]) -> list[FitResult | InvalidFitError]:
    """Levenberg-Marquardt on fringes of equal length, one state per row.

    Every row keeps its own parameters, damping and chi-square; rows that
    converge or give up leave the active set, and the rest iterate on.
    The arithmetic of each row is independent of the other rows.
    """
    x = np.stack([fr.phase for fr in fringes])
    y = np.stack([fr.ratio for fr in fringes])
    sigma = np.stack([fr.sigma for fr in fringes])
    w = 1.0 / (sigma * sigma)
    rows = len(fringes)

    params = _starting_points(x, y, w)
    resid = y - _model(x, params)
    chi2 = _weighted_sq(w, resid)
    converged = np.zeros(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=np.int64)
    # state of the active rows; idx maps them back to block rows.  ra is
    # the residual at pa, carried over from the step that set pa.
    idx = np.arange(rows)
    xa, ya, wa, pa, ra, ca = x, y, w, params, resid, chi2
    damping = np.full(rows, DAMPING_INIT)
    diag = np.arange(4)
    for _ in range(MAX_ITERATIONS):
        iterations[idx] += 1
        hess, grad = _normal_equations(xa, wa, pa, ra)
        # Marquardt scaling; zero-curvature directions (flat data makes the
        # f and p columns vanish at A = 0) get unit damping so the solve
        # stays regular and those components simply do not move
        scale = hess[:, diag, diag]
        scale[scale <= 0.0] = 1.0
        lhs = hess.copy()
        lhs[:, diag, diag] += damping[:, None] * scale
        step, solved = _solve_rows(lhs, grad)
        trial = pa + step
        resid_trial = ya - _model(xa, trial)
        chi2_trial = _weighted_sq(wa, resid_trial)
        accept = solved & (chi2_trial <= ca)
        reduction = ca - chi2_trial
        pa = np.where(accept[:, None], trial, pa)
        ra = np.where(accept[:, None], resid_trial, ra)
        ca = np.where(accept, chi2_trial, ca)
        damping = np.where(accept, np.maximum(damping / DAMPING_STEP, 1e-15),
                           damping * DAMPING_STEP)
        done_ok = accept & (reduction <= RELATIVE_TOL * np.maximum(ca, 1e-300))
        done = done_ok | (~accept & (damping > DAMPING_MAX))
        if done.any():
            converged[idx[done_ok]] = True
            params[idx[done]] = pa[done]
            chi2[idx[done]] = ca[done]
            keep = ~done
            idx, xa, ya, wa, pa, ra, ca, damping = (
                v[keep] for v in (idx, xa, ya, wa, pa, ra, ca, damping))
            if idx.size == 0:
                break
    params[idx] = pa
    chi2[idx] = ca

    hess, _ = _normal_equations(x, w, params, y - _model(x, params))
    # the covariance is rescaled by the reduced chi-square (n >= 8 points)
    cov = _covariances(hess) * (chi2 / (x.shape[-1] - 4))[:, None, None]
    results = []
    for i in range(rows):
        row_params, row_cov = _renormalize(params[i], cov[i])
        a, f, p, b = (float(q) for q in row_params)
        sigma_a = math.sqrt(max(row_cov[0, 0], 0.0))
        try:
            visibility = _visibility(a, b, row_cov)
        except InvalidFitError as err:
            results.append(err)
            continue
        results.append(FitResult(
            amplitude=a, frequency=f, phase=p, offset=b, covariance=row_cov,
            visibility=visibility, converged=bool(converged[i]),
            iterations=int(iterations[i]), residual_norm=math.sqrt(chi2[i]),
            n_points=x.shape[-1], low_signal=a <= 2.0 * sigma_a,
            n_excluded=fringes[i].n_excluded))
    return results


def _renormalize(params: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold the sign and phase degeneracies of A sin^2(f x + p) + B away.

    Each rewrite is an exact reparameterization, so the covariance is
    transported with the corresponding linear map.
    """
    a, f, p, b = params
    if a < 0.0:
        # -|A| sin^2(t) + B = |A| sin^2(t + pi/2) + (B - |A|)
        t = np.array([[-1.0, 0.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0],
                      [1.0, 0.0, 0.0, 1.0]])
        a, p, b = -a, p + 0.5 * math.pi, b + params[0]
        cov = t @ cov @ t.T
    if f < 0.0:
        t = np.diag([1.0, -1.0, -1.0, 1.0])
        f, p = -f, -p
        cov = t @ cov @ t.T
    p = math.fmod(p, math.pi)
    if p < 0.0:
        p += math.pi
    return np.array([a, f, p, b]), cov


def fit_sinusoids(fringes: Sequence[NormalizedFringe]) -> list[FitOutcome]:
    """Weighted Levenberg-Marquardt fits of many fringes, one result per fringe.

    Each fit starts from B = min, A = max - min, f from the discrete
    spectrum, and the best of a phase grid over [0, pi); it stops when an
    accepted step reduces the weighted squared residual by less than 1e-10
    relative, or after 200 iterations (then converged=False).  Fringes are
    grouped by length and fitted FIT_BLOCK_ROWS at a time; a fringe's
    result does not depend on which others share its block.

    Each entry is a FitResult, or the FitInputError (fewer than 8 points)
    or InvalidFitError (A + 2B <= 0) of that fringe, returned rather than
    raised so one bad fringe does not cost the others their fits.
    """
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
            for i, result in zip(block, _fit_block([fringes[i] for i in block])):
                results[i] = result
    return results


def fit_sinusoid(fringe: NormalizedFringe) -> FitResult:
    """fit_sinusoids for one fringe; its FitInputError or InvalidFitError is raised."""
    result = fit_sinusoids([fringe])[0]
    if isinstance(result, ValueError):
        raise result
    return result


def fit_interferograms(
    interferograms: Iterable,
) -> Iterator[tuple[FitOutcome, FitOutcome]]:
    """Fit detector 1 and detector 2 of each interferogram, yielding (d1, d2).

    Each entry is as in fit_sinusoids; a fringe that normalize refuses
    gets its FitInputError.  The input is consumed half a block of
    interferograms at a time (one block of fringes), in order, so a
    generator is never held in memory whole.
    """
    interferograms = iter(interferograms)
    while block := list(itertools.islice(interferograms, FIT_BLOCK_ROWS // 2)):
        fringes = []
        for ig in block:
            for detector in (1, 2):
                try:
                    fringes.append(normalize(ig, detector=detector))
                except FitInputError as err:
                    fringes.append(err)
        fits = iter(fit_sinusoids([f for f in fringes if isinstance(f, NormalizedFringe)]))
        results = [f if isinstance(f, FitInputError) else next(fits) for f in fringes]
        yield from zip(results[::2], results[1::2])


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
