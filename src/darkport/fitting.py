"""Fringe normalization and sinusoid fitting.

The model is A sin^2(f x + p) + B = c0 + c1 cos 2fx + c2 sin 2fx, linear
in (c0, c1, c2) at a fixed f.  phase_rad is the Mach-Zehnder phase in the
simulated scan and the CSV format alike, so f = 1/2 is known: every command
fits each block of rows of one kept length by one weighted least-squares
solve at that f (_fit_block).  The block's fits stay arrays, one _FIT record
per row and detector, which the campaign reads as they are;
fit_interferograms and fit_sinusoid build FitResult objects from them.  A
failed fit records the code of its message in one table, _REASONS; its
exception is built only where the fit leaves the engine.  Rows sharing a
phase grid share its geometry, computed once (_shared_rows).
fit_sinusoid searches f too, one row at a time, by variable projection
(Golub & Pereyra, SIAM J. Numer. Anal. 10, 413, 1973).  Weights come from
the binomial error of the count ratio.  The covariance is the inverse
normal matrix of that solve, with f's row added by block inversion where f
is searched, mapped to (A, f, p, B) and rescaled by the reduced chi-square
so the sigmas stay honest when the noise model is off.  Of the two
detector fringes, which sum to 1, only one is fitted.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator

import numpy as np

from .interferometer import VisibilityValue

__all__ = [
    "FitInputError",
    "InvalidFitError",
    "NormalizedFringe",
    "FitResult",
    "normalize",
    "fit_sinusoid",
    "fit_interferograms",
    "propagate",
]

MAX_ITERATIONS = 200
RELATIVE_TOL = 1e-10
# f of the data paths: the fringe is sin^2(phase_rad / 2 + p)
_FRINGE_FREQUENCY = 0.5
# rows per _fit_rows call where fit_interferograms, cli.cmd_fit and analysis.records_from_runs
# stream their input: one call on 1,600 fit rows raised fit's peak RSS from 42 to 65 MB
# (analysis._slot_fits streams a campaign slot in blocks of its own _SLOT_ROWS)
_STREAM_ROWS = 64
# a larger step total n = d1 + d2 lets the fit's weights (n + 2)^2 overflow
_MAX_TOTAL = 1e150
# Why a fit has no result, in order of precedence: reason k > 0 of a _FIT record is
# _REASONS[k - 1] with its detail.  1-6 are _normalize_rows' input checks (Interferogram's are
# the first three), 7 _fit_block's three points and 8 (InvalidFitError) _visibilities' A + 2B <= 0.
_REASONS = ("phase_rad must be finite",
            *(f"{name} must be finite and non-negative" for name in ("counts_d1", "counts_d2")),
            f"counts_d1 + counts_d2 above {_MAX_TOTAL!r} at a step, "
            "where the fit's weights overflow",
            "need at least 8 points with nonzero total counts, got {:.0f}",
            "points with counts must span at least one full fringe (2 pi), got {!r}",
            "points with counts must lie at three or more points of the fringe (mod 2 pi)",
            "A + 2B must be positive, got {!r}")


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
        for name in ("phase", "ratio", "sigma"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.phase.shape[0]
        if self.ratio.shape != (n,) or self.sigma.shape != (n,):
            raise ValueError("phase, ratio, and sigma must have identical length")
        # written so that NaN fails each check
        if not np.all(np.isfinite(self.phase)):
            raise ValueError("phases must be finite")
        if not np.all((self.ratio >= 0.0) & (self.ratio <= 1.0)):
            raise ValueError("ratios must lie in [0, 1]")
        if not np.all((self.sigma > 0.0) & (self.sigma < math.inf)):
            raise ValueError("sigmas must be positive and finite")

    @property
    def n_points(self) -> int:
        return self.phase.shape[0]


@dataclass(frozen=True)
class FitResult:
    """Fitted A sin^2(f x + p) + B with covariance in (A, f, p, B) order.

    A >= 0, f >= 0, and p in [0, pi) by convention (sin^2 is even and
    pi-periodic, so each fit has one such form); low_signal marks amplitudes
    within 2 sigma of zero.  n_excluded is copied from the fitted fringe.
    From fit_interferograms, f is the known 1/2 with variance 0, iterations
    is 0, and converged is a chi-square test (_fit_block).  The diagonal of
    covariance holds the variances of (A, f, p, B).
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


# a fit's result, or the error that stopped it
FitOutcome = FitResult | FitInputError | InvalidFitError


def _error(reason: int, detail: float) -> FitInputError | InvalidFitError:
    """The exception of a nonzero reason code and its detail."""
    error = InvalidFitError if reason == len(_REASONS) else FitInputError
    return error(_REASONS[reason - 1].format(float(detail)))  # a numpy float reprs as np.float64


def normalize(ig, detector: int = 1) -> NormalizedFringe:
    """Normalize one detector's counts to the per-step total.

    The binomial sigma sqrt(r (1-r) / n) is floored at 1/(n+2) so points
    that happen to land at ratio 0 or 1 keep a finite weight.  The kept
    points are stable-sorted by phase (sorted input passes unchanged), as
    fit_sinusoid's spectral start assumes an ordered grid.  Raises
    FitInputError for fewer than 8 points with counts, for points with
    counts spanning less than one fringe (2 pi), or for a step total above
    _MAX_TOTAL.  This is the one-row case of the normalization in _fit_rows.
    """
    if detector not in (1, 2):
        raise ValueError(f"detector must be 1 or 2, got {detector!r}")
    # copies, as the fringe may hold _normalize_rows' phase rows as they are
    phase, d1, d2 = _sorted_by_phase(*(np.array(getattr(ig, name), dtype=float)[None]
                                       for name in ("phase_rad", "counts_d1", "counts_d2")))
    [reason], [detail], groups = _normalize_rows(phase, d1, d2, detector)
    if reason:
        raise _error(reason, detail)
    [(_, phase, ratio, sigma, n_excluded)] = groups
    return NormalizedFringe(phase=phase[0], ratio=ratio[0], sigma=sigma[0],
                            detector=detector, n_excluded=int(n_excluded[0]))


def _sorted_by_phase(phase: np.ndarray, d1: np.ndarray,
                     d2: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three (rows, n) arrays with each row stable-sorted by phase."""
    if np.all(phase[:, 1:] >= phase[:, :-1]):  # a stable sort leaves these as they are
        return phase, d1, d2
    order = np.argsort(phase, axis=-1, kind="stable")
    return tuple(np.take_along_axis(a, order, axis=-1) for a in (phase, d1, d2))


def _fitted_detectors(d1: np.ndarray, d2: np.ndarray) -> np.ndarray:
    """The detector fit_interferograms fits, per row of phase-sorted counts:
    the one with more counts; on equal totals, the one with more counts at
    the first step where the two differ; detector 1 when the columns are
    equal.  The rule swaps with the detectors and ignores the step order
    (its sums run in phase order)."""
    if d1.shape[-1] == 0:  # rows with no steps, which _normalize_rows refuses
        return np.ones(len(d1), dtype=np.int64)
    with np.errstate(over="ignore"):  # only in rows that _normalize_rows refuses
        c1, c2 = d1.sum(axis=-1), d2.sum(axis=-1)
    differ = d1 != d2
    rows = np.arange(len(d1))
    first = np.argmax(differ, axis=-1)
    tie = (c1 == c2) & differ[rows, first]
    c1 = np.where(tie, d1[rows, first], c1)
    c2 = np.where(tie, d2[rows, first], c2)
    return np.where(c1 >= c2, 1, 2)


def _normalize_rows(phase: np.ndarray, d1: np.ndarray, d2: np.ndarray, detectors):
    """normalize on each row of phase-sorted (rows, n) float arrays: the
    counts of detector detectors (1 or 2, or one per row) over d1 + d2.

    Returns (reason, detail, groups): each row's _FIT reason code (0, or
    the first of codes 1-6 it fails) and detail, and the rows of reason 0
    grouped by kept length as (rows, phase, ratio, sigma, n_excluded) with
    (len(rows), kept) arrays.  Rows that Interferogram refuses get zero
    counts so that nothing below warns.
    """
    refused = [~np.isfinite(phase).all(axis=-1),
               *(~(np.isfinite(c) & (c >= 0)).all(axis=-1) for c in (d1, d2))]
    over = d1 > _MAX_TOTAL - d2  # tested before d1 + d2 can overflow
    zeroed = over | np.any(refused, axis=0)[:, None]
    if zeroed.any():
        d1, d2 = np.where(zeroed, 0.0, d1), np.where(zeroed, 0.0, d2)
    counts = np.where(np.reshape(detectors, (-1, 1)) == 1, d1, d2)
    total = d1 + d2
    keep = total > 0
    width = total.shape[-1]
    n_usable = np.count_nonzero(keep, axis=-1)
    span = np.zeros(len(total))
    if width:  # argmax needs a step
        rows = np.arange(len(total))
        last = width - 1 - np.argmax(keep[:, ::-1], axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: inf >= 2 pi; nan: refused
            span = phase[rows, last] - phase[rows, np.argmax(keep, axis=-1)]
    failed = np.array([*refused, over.any(axis=-1), n_usable < 8, ~(span >= math.tau - 1e-9)])
    reason = np.where(failed.any(axis=0), np.argmax(failed, axis=0) + 1, 0)  # first broken rule
    detail = np.where(reason == 5, n_usable, np.where(reason == 6, span, 0.0))
    usable = np.flatnonzero(reason == 0)
    n = total if keep.all() else np.where(keep, total, 1.0)
    r = counts / n
    sigma = np.maximum(np.sqrt(r * (1.0 - r) / n), 1.0 / (n + 2.0))
    groups = []
    for kept, rows in _by_length(n_usable[usable]).items():
        rows = usable[rows]
        arrays = phase, r, sigma  # as they are where every row keeps every step
        if len(rows) < len(keep) or kept < width:
            # one block-wide selector: rows ascend, so a[sel] reads them in order
            sel = np.zeros_like(keep)
            sel[rows] = keep[rows]
            arrays = (a[sel].reshape(len(rows), kept) for a in arrays)
        groups.append((rows, *arrays, np.full(len(rows), width - kept)))
    return reason, detail, groups


def _by_length(lengths) -> dict[int, np.ndarray]:
    """The indices of each distinct value of lengths, in order of first appearance."""
    lengths = np.asarray(lengths)
    return {n: np.flatnonzero(lengths == n) for n in dict.fromkeys(lengths.tolist())}


def _project(x: np.ndarray, w: np.ndarray, y: np.ndarray, f: np.ndarray, step: bool = False):
    """The weighted least-squares (c0, c1, c2) of c0 + c1 cos 2fx + c2 sin 2fx
    at a fixed f per row, their weighted squared residual, and the inverse
    normal matrix of (c0, c1, c2, f), whose f row and column are 0.

    cos and sin of 2fx are computed once per distinct row (_shared_rows).
    The columns are centred to their weighted means m, which leaves a 2x2
    gram a row.  Its pseudo-inverse G gives the fit (least-norm for collinear
    columns) and the inverse normal matrix: G for (c1, c2), -G m with c0 and
    1/sum(w) + m^T G m for c0.  With step, also the Gauss-Newton step on f
    along the f derivative with the columns projected out, and f joins by
    block inversion: b b^T / kappa with b = (beta, -1), for the derivative's
    fit beta and its weighted squared residual kappa.
    """
    wsum = np.sum(w, axis=-1, keepdims=True)

    def mean(v):
        return np.sum(w * v, axis=-1, keepdims=True) / wsum

    def fit(v):
        """The (c0, c1, c2) of v, and v less its fit."""
        v = v - (v_mean := mean(v))
        c12 = (gram_inv @ (weighted @ v[..., None]))[..., 0]
        c0 = v_mean - np.sum(c12 * m, axis=-1, keepdims=True)
        return np.concatenate([c0, c12], axis=-1), v - (c12[:, None] @ cols)[:, 0]

    cos, sin = _shared_rows(lambda arg: np.stack([np.cos(arg), np.sin(arg)], axis=1),
                            2.0 * f[:, None] * x).swapaxes(0, 1)
    m = np.concatenate([mean(cos), mean(sin)], axis=-1)
    cols = np.stack([cos - m[:, :1], sin - m[:, 1:]], axis=1)
    weighted = w[:, None] * cols
    gram_inv = np.linalg.pinv(weighted @ cols.swapaxes(1, 2))
    coef, resid = fit(y)
    cov = np.zeros((len(f), 4, 4))
    cov[:, 1:3, 1:3] = gram_inv
    cov[:, 0, 1:3] = cov[:, 1:3, 0] = -(gram_inv @ m[..., None])[..., 0]
    cov[:, 0, 0] = 1.0 / wsum[:, 0] - np.sum(m * cov[:, 0, 1:3], axis=-1)
    fitted = coef, np.sum(w * resid * resid, axis=-1), cov
    if not step:
        return fitted
    beta, deriv = fit(2.0 * x * (coef[:, 2:] * cos - coef[:, 1:2] * sin))
    curvature = np.sum(w * deriv * deriv, axis=-1)
    inverse = np.divide(1.0, curvature, out=np.zeros_like(curvature), where=curvature > 0.0)
    b = np.concatenate([beta, np.full((len(f), 1), -1.0)], axis=-1)
    cov += b[:, :, None] * b[:, None, :] * inverse[:, None, None]
    return *fitted, np.sum(w * deriv * resid, axis=-1) * inverse


# A fit per [row, side] of a block: the fitted fringe and its mirror (_fit_block) or detectors 1
# and 2 (_fit_rows).  reason is its failure's code in _REASONS (0: none) and detail the number
# its message quotes; usable is converged with reason 0.  The campaign reads value (A/(A+2B)
# clipped to [0, 1]), sigma and usable; _fit_columns all but usable.  np.zeros is a blank fit.
_FIT = np.dtype([("value", float), ("sigma", float), ("usable", bool), ("params", float, 4),
                 ("cov", float, (4, 4)), ("converged", bool), ("residual_norm", float),
                 ("n_points", int), ("n_excluded", int), ("reason", np.int8), ("detail", float)])


def _chi2_bound(dof: int) -> float:
    """The one-sided 5-sigma quantile (tail 2.9e-7) of a chi-square of dof degrees
    of freedom, taking (chi2 / dof)^(1/3) as normal with mean 1 - c and variance c
    (Wilson & Hilferty, PNAS 17, 684, 1931)."""
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + 5.0 * math.sqrt(c)) ** 3


def _shared_rows(func: Callable[[np.ndarray], np.ndarray], a: np.ndarray) -> np.ndarray:
    """func(a) for a func that maps each row of the (rows, n) float array a
    on its own, evaluated on a's first row and on the rows that differ from
    it in some bit (-0.0 is not 0.0), and gathered back to every row.
    Where no row differs, every row reads the first row's result through one
    read-only view."""
    if len(a) == 1:
        return func(a)
    bits = a.view(np.uint64)
    own = np.any(bits != bits[:1], axis=-1)
    if not own.any():
        first = func(a[:1])
        return np.broadcast_to(first, (len(a), *first.shape[1:]))
    own[:1] = True
    return func(a[own])[np.where(own, np.cumsum(own) - 1, 0)]


def _on_a_line(x: np.ndarray) -> np.ndarray:
    """Whether each row's points (cos x, sin x) lie on a line (_fit_block)."""
    points = np.stack([np.cos(x), np.sin(x)], axis=-1)
    points -= points.mean(axis=1, keepdims=True)
    spread = np.linalg.svd(points, compute_uv=False)[:, -1]  # the smaller singular value
    return spread <= x.shape[1] ** 1.5 * np.finfo(float).eps * (1.0 + np.max(np.abs(x), axis=-1))


def _fit_block(x: np.ndarray, y: np.ndarray, sigma: np.ndarray,
               n_excluded: np.ndarray) -> np.ndarray:
    """The _FIT fits at f = 1/2 of (rows, n) fringe arrays and of the mirror
    fringes 1 - y, whose coefficients (1 - c0, -c1, -c2) have the same
    inverse normal matrix.

    Each row's arithmetic is its own, so its fit does not depend on the
    other rows.  converged is the goodness of fit chi2 <= _chi2_bound(dof), with
    dof = n - 3.  (c0, c1, c2) need three distinct points of the fringe
    (mod 2 pi); at fewer, the points (cos x, sin x) lie on a line, so the
    smaller eigenvalue of their covariance, spread^2 / n, is within the
    rounding (n eps (1 + |x|))^2 of cos x (_on_a_line, run once per distinct
    grid by _shared_rows).  Every row is fitted; such a row is then blanked,
    with reason 7 on both sides.
    """
    n = x.shape[1]
    few = _shared_rows(_on_a_line, x)
    f = np.full(len(x), _FRINGE_FREQUENCY)
    coef, chi2, cov = _project(x, 1.0 / (sigma * sigma), y, f)
    dof = n - 3
    fits = _fits(n, dof, f, (coef, [1, 0, 0] - coef), cov, chi2, chi2 <= _chi2_bound(dof),
                 n_excluded)
    fits[few] = 0
    fits["reason"][few] = 7
    return fits


def _visibilities(params: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each row's visibility A/(A+2B) and its sigma, propagated from the
    (A, B) block of its covariance, and its reason and detail: 0 and 0
    where A + 2B > 0, else 8 and A + 2B, with value and sigma 0."""
    denom = params[:, 0] + 2.0 * params[:, 3]
    valid = denom > 0.0
    a, b, d = params[valid, 0], params[valid, 3], denom[valid]
    grad = np.stack([2.0 * b / (d * d), -2.0 * a / (d * d)], axis=-1)
    value, sigma = np.zeros((2, len(denom)))
    # fit noise can push B a hair negative on bright data; the fringe
    # contrast itself is still bounded
    value[valid] = np.clip(a / d, 0.0, 1.0)
    sigma[valid] = propagate(grad, cov[valid][:, 0::3, 0::3])
    return value, sigma, np.where(valid, 0, 8), np.where(valid, 0.0, denom)


def _fits(n: int, dof: int, f: np.ndarray, sides: tuple, cov: np.ndarray, chi2: np.ndarray,
          converged: np.ndarray, n_excluded: np.ndarray) -> np.ndarray:
    """The _FIT fits of n-point rows fitted at f, with a side for each (c0, c1, c2)
    array in sides, whose inverse normal matrix of (c0, c1, c2, f) is cov.

    A sin^2(f x + p) + B = B + A/2 - (A/2) cos 2p cos 2fx + (A/2) sin 2p sin 2fx,
    so with h = |(c1, c2)|: A = 2h, p = atan2(c2, -c1)/2 mod pi and B = c0 - h.
    The covariance is cov carried through the Jacobian of that map, whose p
    row is 0 where h = 0, and rescaled by the reduced chi-square chi2 / dof.
    All sides go through one pass, stacked row-major as fits.reshape(-1).
    """
    coef = np.stack(sides, axis=1).reshape(-1, 3)
    f, cov, scale = (np.repeat(a, len(sides), axis=0) for a in (f, cov, chi2 / dof))
    h = np.hypot(coef[:, 1], coef[:, 2])
    turn = np.arctan2(coef[:, 2], -coef[:, 1])  # 2p
    params = np.stack([2.0 * h, f, np.mod(0.5 * turn, math.pi), coef[:, 0] - h], axis=-1)
    unit = np.stack([-np.cos(turn), np.sin(turn)], axis=-1)  # (c1, c2) / h
    jac = np.zeros((len(h), 4, 4))  # d(A, f, p, B) / d(c0, c1, c2, f)
    jac[:, 0, 1:3], jac[:, 3, 1:3] = 2.0 * unit, -unit
    jac[:, 1, 3] = jac[:, 3, 0] = 1.0
    jac[:, 2, 1:3] = (np.divide(0.5, h, out=np.zeros_like(h), where=h > 0.0)[:, None]
                      * unit[:, ::-1] * [1.0, -1.0])
    fits = np.zeros((len(chi2), len(sides)), _FIT)
    flat = fits.reshape(-1)
    flat["params"] = params
    flat["cov"] = jac @ cov @ jac.swapaxes(1, 2) * scale[:, None, None]
    flat["value"], flat["sigma"], flat["reason"], flat["detail"] = _visibilities(
        params, flat["cov"])
    for name, a in (("converged", converged), ("residual_norm", np.sqrt(chi2)),
                    ("n_points", n), ("n_excluded", n_excluded)):
        fits[name] = np.reshape(a, (-1, 1))
    fits["usable"] = fits["converged"] & (fits["reason"] == 0)
    return fits


def _fit_columns(fits: np.ndarray, iterations: int = 0) -> tuple[list, dict]:
    """Each fit of (rows, sides) _FIT fits, row by row: its error (None, or
    the FitInputError or InvalidFitError of its reason code), and
    fit's report as columns, an array per field and a dict of two for
    visibility.  Each sigma_ column is the root of its variance, 0 where
    that is negative."""
    fits = fits.reshape(-1)
    params, variances = fits["params"], np.diagonal(fits["cov"], axis1=-2, axis2=-1)
    sigmas = np.sqrt(np.where(variances < 0.0, 0.0, variances))
    names = ("amplitude", "frequency", "phase", "offset")
    errors = [_error(reason, detail) if reason else None
              for reason, detail in zip(fits["reason"].tolist(), fits["detail"].tolist())]
    return errors, {
        **dict(zip(names, params.T)), **dict(zip(["sigma_" + name for name in names], sigmas.T)),
        **{name: fits[name] for name in ("converged", "residual_norm", "n_points", "n_excluded")},
        "visibility": {"value": fits["value"], "sigma": fits["sigma"]},
        "iterations": np.full(len(fits), iterations),
        "low_signal": params[:, 0] <= 2.0 * sigmas[:, 0]}


def _outcomes(fits: np.ndarray, iterations: int = 0) -> list[tuple[FitOutcome, ...]]:
    """Each row's outcome on each side of (rows, sides) _FIT fits: its
    _fit_columns error, or a FitResult of its columns."""
    errors, columns = _fit_columns(fits, iterations)
    vis = {name: a.tolist() for name, a in columns.pop("visibility").items()}
    columns = {name: a.tolist() for name, a in columns.items()} | {
        "covariance": fits["cov"].reshape(-1, 4, 4),
        "visibility": map(VisibilityValue, vis["value"], vis["sigma"])}
    flat = [error if error is not None else FitResult(*values) for error, *values in
            zip(errors, *(columns[field.name] for field in fields(FitResult)))]
    return list(zip(*[iter(flat)] * fits.shape[1]))  # one tuple of sides per row


def fit_sinusoid(fringe: NormalizedFringe) -> FitResult:
    """Weighted variable-projection fit of one fringe, f included.

    f starts at the strongest bin of the spectrum below the Nyquist bin and
    moves by Gauss-Newton steps; each trial f (an iteration) gets its exact
    linear fit.  Bin k of the n-point spectrum is f = pi k / (n dx), as the
    fringe oscillates at 2f, and the band the scan resolves runs from bin 1
    up to half a bin below the Nyquist frequency.  The fit stops when an
    accepted step lowers the chi-square by less than 1e-10 relative, or
    once an accepted f falls below the band.  converged is False after 200
    iterations, for an f outside the band, or when the fit at its upper
    edge has a smaller chi-square.  Raises FitInputError for fewer than 8
    points and InvalidFitError for A + 2B <= 0.
    """
    n = fringe.n_points
    if n < 8:
        raise FitInputError(f"need at least 8 points, got {n}")
    x, y = fringe.phase[None], fringe.ratio[None]
    w = 1.0 / (fringe.sigma * fringe.sigma)[None]
    lowest = math.pi / (n * ((x[0, -1] - x[0, 0]) / (n - 1)))
    highest = lowest * (0.5 * (n - 1))
    spectrum = np.abs(np.fft.rfft(y - np.mean(y, axis=-1, keepdims=True), axis=-1))
    f = lowest * (np.argmax(spectrum[:, 1:(n + 1) // 2], axis=-1) + 1)
    coef, chi2, cov, step = _project(x, w, y, f, step=True)
    # a step is at most one bin, as the chi-square has a local minimum about
    # every bin, and is halved at each rejected trial
    scale, converged = 1.0, False
    for iterations in range(1, MAX_ITERATIONS + 1):
        trial = f + scale * np.clip(step, -lowest, lowest)
        projected = _project(x, w, y, trial, step=True)
        reduction = chi2[0] - projected[1][0]
        if reduction >= 0.0:
            f, (coef, chi2, cov, step), scale = trial, projected, 1.0
            converged = reduction <= RELATIVE_TOL * max(chi2[0], 1e-300)
        else:
            scale *= 0.5
        # below the band the chi-square falls on toward f = 0, where A grows
        # without bound, and the fit can only end unconverged: stop it now
        if converged or abs(f[0]) < lowest:
            break
    # a fit outside the band, or one that the band's upper edge beats (the
    # data alternate near the Nyquist frequency), is not a resolved fringe
    converged = (converged and lowest <= abs(f[0]) < highest
                 and chi2[0] <= _project(x, w, y, np.array([highest]))[1][0])
    [(result,)] = _outcomes(_fits(n, n - 4, f, (coef,), cov, chi2, np.array([converged]),
                                  np.array([fringe.n_excluded])), iterations)
    if isinstance(result, InvalidFitError):
        raise result
    return result


def _fit_rows(phase: np.ndarray, counts_d1: np.ndarray, counts_d2: np.ndarray) -> np.ndarray:
    """The (rows, 2) _FIT fits of detectors 1 and 2 of (rows, n_steps) count
    arrays, or arrays that broadcast to that shape.  Rows are sorted,
    normalized and checked together, then each group of equal kept length
    is fitted by one solve (_fit_block); a row's fits do not depend on the
    other rows."""
    phase, d1, d2 = _sorted_by_phase(*(np.ascontiguousarray(a, dtype=float)
                                       for a in np.broadcast_arrays(phase, counts_d1, counts_d2)))
    detectors = _fitted_detectors(d1, d2)
    reason, detail, groups = _normalize_rows(phase, d1, d2, detectors)
    fits = np.zeros((len(reason), 2), _FIT)
    fits["reason"], fits["detail"] = reason[:, None], detail[:, None]
    for rows, x, y, sigma, n_excluded in groups:
        sides = np.where(detectors[rows, None] == 1, [0, 1], [1, 0])
        fits[rows[:, None], sides] = _fit_block(x, y, sigma, n_excluded)
    return fits


def fit_interferograms(interferograms: Iterable) -> Iterator[tuple[FitOutcome, FitOutcome]]:
    """Fit each interferogram once, yielding its (d1, d2) outcomes.

    The fit is at the known f = 1/2 (see FitResult).  Only the fringe of
    _fitted_detectors is fitted; the other is 1 minus it with the same
    sigmas, so its coefficients are (1 - c0, -c1, -c2): p moves by pi/2,
    B becomes 1 - A - B, and the rest is the fitted detector's, apart from
    its own A + 2B > 0 check.  An interferogram that normalize refuses, or
    whose points with counts lie at fewer than three points of the fringe
    (mod 2 pi), gets its FitInputError on both sides.  The input is read
    _STREAM_ROWS interferograms at a time.
    """
    interferograms = iter(interferograms)
    while block := list(itertools.islice(interferograms, _STREAM_ROWS)):
        yield from _outcomes(_fit_by_length([(ig.phase_rad, ig.counts_d1, ig.counts_d2)
                                             for ig in block]))


def _fit_by_length(block: list) -> np.ndarray:
    """_fit_rows, once per length, on rows that are (phase, d1, d2) arrays."""
    fits = np.zeros((len(block), 2), _FIT)
    for rows in _by_length([len(row[0]) for row in block]).values():
        fits[rows] = _fit_rows(*np.stack([block[i] for i in rows], axis=1))
    return fits


def propagate(gradient: np.ndarray, covariance: np.ndarray) -> float | np.ndarray:
    """First-order uncertainty sqrt(g^T C g) of a gradient of length k, or of
    each of a stack of (..., k) gradients with its (..., k, k) covariance.

    Tiny negative quadratic forms (numerical) are clamped to zero, with one
    warning that lists them.  The forms are computed on a C-contiguous copy
    of the covariances, so a stacked row gets the bits of its own call.
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
