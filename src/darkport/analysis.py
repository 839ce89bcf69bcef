"""Campaign-level statistics and the non-commutativity bound.

The chain is: fitted visibilities per run -> Delta V and Gamma-ratio
distributions -> theta bound.  The Gamma ratio is the headline observable
because the Sagnac's own visibility cancels from it; a campaign mean
further than 5 standard errors from 1 raises the non-commutativity flag.
Fits arrive as the fit engine's arrays (fitting._FIT) and the statistics
are array expressions over them; campaign and sweep build no RunRecord.
Records are the library's edge (campaign_records, records_from_runs), and
the statistics of records convert them back to slot fits once.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import ClassVar, Iterable, Sequence

import numpy as np

from . import photonsim
from .config import ConfigError, ExperimentConfig
from .fitting import _FIT, _STREAM_ROWS, _fit_by_length, _fit_rows
from .interferometer import (
    NonPhysicalVisibilityError,
    SagnacModel,
    VisibilityValue,
    gamma_of_model,
    gamma_ratio,
    theta_bound,
)
from .photonsim import RunPair, ScanConfig

# normalize, fit_sinusoid and simulate_campaign are not called here, but
# the benchmark's tracer (perfbench/tracing.py) patches them under this
# module's name
from .fitting import fit_sinusoid, normalize  # noqa: F401
from .photonsim import simulate_campaign  # noqa: F401

__all__ = [
    "TooFewFitsError",
    "RunRecord",
    "DeltaVStats",
    "GammaRatioStats",
    "BoundReport",
    "SweepPoint",
    "SweepResult",
    "DETECTION_SIGMA",
    "records_from_runs",
    "campaign_records",
    "delta_v_statistics",
    "gamma_ratio_distribution",
    "bound_from_campaign",
    "sensitivity_sweep",
]

DETECTION_SIGMA = 5.0
# the fields of a slot's fits that campaign_records and the sweep read
_SLOT = np.dtype([(name, _FIT[name]) for name in ("value", "sigma", "usable")])


class TooFewFitsError(ValueError):
    """Too few usable fits for a campaign statistic."""


@dataclass(frozen=True)
class RunRecord:
    """Per-run fitted visibilities, one per detector and configuration.

    The slots are named for the headline campaign (NIM-only reference,
    BOTH toggled); LC-only campaigns reuse them as off/on.  Per
    configuration one detector is fitted and the other is its exact mirror
    (fitting.fit_interferograms), so v_nim_d1 and v_nim_d2 carry one
    measurement, not two, and so do the v_both slots.  A slot is None
    when its fit failed or did not converge, which marks the record
    partial; statistics use only detector pairs with both slots present.
    """

    run_index: int
    v_nim_d1: VisibilityValue | None = None
    v_nim_d2: VisibilityValue | None = None
    v_both_d1: VisibilityValue | None = None
    v_both_d2: VisibilityValue | None = None

    @property
    def is_partial(self) -> bool:
        return None in (self.v_nim_d1, self.v_nim_d2, self.v_both_d1, self.v_both_d2)


@dataclass(frozen=True)
class DeltaVStats:
    """Pooled Delta V = V_both - V_nim statistics over detectors and runs."""

    values: np.ndarray
    mean: float
    std: float
    stderr: float

    @property
    def n_values(self) -> int:
        return int(self.values.shape[0])


@dataclass(frozen=True)
class GammaRatioStats:
    """Per-point Gamma ratios with campaign mean and two sigma estimates.

    stderr is the scatter-based standard error of the mean;
    mean_point_sigma is the average per-point propagated sigma, reported
    alongside because the two need not agree when the noise model is off.
    """

    values: np.ndarray
    point_sigmas: np.ndarray
    mean: float
    std: float
    stderr: float
    mean_point_sigma: float
    n_excluded: int

    @property
    def n_values(self) -> int:
        return int(self.values.shape[0])

    @property
    def noncommutative(self) -> bool:
        return abs(self.mean - 1.0) > DETECTION_SIGMA * self.stderr


@dataclass(frozen=True)
class BoundReport:
    """Everything the campaign says about phase commutativity."""

    n_values: int
    n_complete_runs: int
    delta_v_mean: float
    delta_v_std: float
    delta_v_stderr: float
    gamma_ratio_mean: float
    gamma_ratio_stderr: float
    gamma_ratio_point_sigma: float
    theta_central_deg: float
    theta_conservative_deg: float
    noncommutative: bool
    delta_v_hist: tuple[tuple[float, int], ...]
    gamma_ratio_hist: tuple[tuple[float, int], ...]


def _records(indices: Iterable[int], fits: np.ndarray) -> list[RunRecord]:
    """One record per run from (runs, 4) fits (fitting._FIT or _SLOT) of its
    slots v_nim_d1, v_nim_d2, v_both_d1 and v_both_d2, with None where a fit
    is not usable."""
    rows = zip(*(fits[name].tolist() for name in ("value", "sigma", "usable")))
    return [RunRecord(idx, *(VisibilityValue(v, s) if ok else None for v, s, ok in zip(*row)))
            for idx, row in zip(indices, rows, strict=True)]


def records_from_runs(runs: Iterable[RunPair]) -> list[RunRecord]:
    """Fit every interferogram of every run; failures leave None slots.

    The runs are read _STREAM_ROWS // 2 at a time, so a generator of runs
    is never held in memory whole.
    """
    runs, records = iter(runs), []
    while block := list(itertools.islice(runs, _STREAM_ROWS // 2)):
        fits = _fit_by_length([(ig.phase_rad, ig.counts_d1, ig.counts_d2)
                               for run in block for ig in (run.nim, run.both)])
        # a run's reference then toggled (d1, d2) fits
        records += _records([run.run_index for run in block], fits.reshape(-1, 4))
    return records


# rows per _slot_fits block, so a default slot of 200 runs is one block: one block in place of
# 64-row ones raised the peak RSS of a default campaign from 39.2 to 39.8 MB and of a default
# sweep from 38.6 to 40.0 MB (x86-64, numpy 2.4), at about 11 kB of fit work arrays a row
_SLOT_ROWS = 256


def _slot_fits(model: SagnacModel, slot: int, scan: ScanConfig, master_seed: int,
               indices: Sequence[int]) -> np.ndarray:
    """The (runs, 2) _SLOT fits of one configuration's slot in the given runs,
    detector 1 then 2.

    Run idx draws from seed (master_seed, idx, slot), a row of one (runs, 3)
    uint64 array; the rows go through photonsim.draw_counts and
    fitting._fit_rows as (rows, n_steps) count blocks with no Interferogram
    per run, _SLOT_ROWS rows at a time, so a default slot of 200 runs is one
    block.  A row depends only on the model's expected rates, the scan and
    its seed.
    """
    phase = scan.phases()
    # refused as SeedSequence refuses them: a bool or a non-integer, then a negative int
    master_seed, *runs = photonsim._as_entropy([master_seed, *indices])
    if min([master_seed, *runs]) < 0:
        raise ValueError("expected non-negative integer")
    seeds = np.empty((len(runs), 3), np.uint64)
    seeds[:, 0], seeds[:, 1], seeds[:, 2] = master_seed, runs, slot  # OverflowError past 64 bits
    fits = np.zeros((len(runs), 2), _SLOT)
    for start in range(0, len(runs), _SLOT_ROWS):
        block = slice(start, start + _SLOT_ROWS)
        d1, d2 = photonsim.draw_counts(model, scan, seeds[block])
        fits[block] = _fit_rows(phase, d1, d2)[list(_SLOT.names)]
    return fits


def campaign_records(reference: SagnacModel, toggled: SagnacModel, scan: ScanConfig,
                     master_seed: int, indices: Iterable[int]) -> list[RunRecord]:
    """Simulate and fit the toggle runs with the given indices.

    Run idx draws its reference and toggled interferograms from seeds
    (master_seed, idx, 0) and (master_seed, idx, 1), exactly as simulate_run
    with seed (master_seed, idx) does, so the records equal
    records_from_runs of those runs, and any split of the indices over
    calls gives the same records.  Each slot is simulated and fitted on
    its own (_slot_fits), then the two are joined run by run.
    """
    photonsim.check_pair(reference, toggled)
    indices = list(indices)
    return _records(indices, np.concatenate([_slot_fits(model, slot, scan, master_seed, indices)
                                             for slot, model in enumerate((reference, toggled))],
                                            axis=1))


def _pairs(reference: np.ndarray, toggled: np.ndarray) -> tuple[np.ndarray, ...]:
    """V_both, its sigma, V_nim and its sigma of each detector pair of the
    slots' (runs, 2) fits with both fits usable: run-major, detector 1 then
    2.  Every statistic pairs its fits here, from slots or from records."""
    usable = reference["usable"] & toggled["usable"]
    return tuple(fits[name][usable] for fits in (toggled, reference)
                 for name in ("value", "sigma"))


def _record_fits(records: Sequence[RunRecord]) -> tuple[np.ndarray, np.ndarray]:
    """The reference and toggled slots' (runs, 2) _SLOT fits of records, as
    _slot_fits gives them: v_nim_d1 and v_nim_d2, then v_both_d1 and
    v_both_d2, usable where not None.  Nothing else converts records."""
    fits = np.array([(0.0, 0.0, False) if v is None else (v.value, v.sigma, True)
                     for rec in records
                     for v in (rec.v_nim_d1, rec.v_nim_d2, rec.v_both_d1, rec.v_both_d2)],
                    dtype=_SLOT).reshape(-1, 4)
    return fits[:, :2], fits[:, 2:]


def _mean_std_stderr(values: np.ndarray, what: str) -> tuple[float, float, float]:
    """Mean, sample standard deviation and standard error of the mean of
    at least 2 values (what names them in the TooFewFitsError)."""
    if len(values) < 2:
        raise TooFewFitsError(f"need at least 2 {what} values, got {len(values)}")
    std = float(np.std(values, ddof=1))
    return float(np.mean(values)), std, std / math.sqrt(values.size)


def delta_v_statistics(records: Sequence[RunRecord]) -> DeltaVStats:
    """Delta V mean, sample std, and standard error, pooled over detectors."""
    return _delta_v_statistics(_pairs(*_record_fits(records)))


def _delta_v_statistics(pairs: tuple[np.ndarray, ...]) -> DeltaVStats:
    """delta_v_statistics of _pairs."""
    values = pairs[0] - pairs[2]  # V_both - V_nim
    return DeltaVStats(values, *_mean_std_stderr(values, "Delta V"))


def gamma_ratio_distribution(records: Sequence[RunRecord]) -> GammaRatioStats:
    """Per-point Gamma ratios pooled over detectors and runs.

    Points with non-physical visibilities are excluded with a warning
    rather than failing the campaign.  At least 2 usable points are needed:
    one value has no scatter, so no stderr to test the mean against.
    """
    return _gamma_ratio_statistics(_pairs(*_record_fits(records)))


def _gamma_ratio_statistics(pairs: tuple[np.ndarray, ...], stacklevel: int = 3) -> GammaRatioStats:
    """gamma_ratio_distribution of _pairs: each point as gamma_ratio computes
    it, and each non-physical point's warning from gamma_ratio of that point,
    at stacklevel (3: the caller of a public statistic, the sweep or _bound)."""
    v_both, s_both, v_nim, s_nim = pairs
    physical = (v_both >= 0.0) & (v_both < 1.0) & (v_nim >= 0.0) & (v_nim < 1.0)
    for both, sigma_both, nim, sigma_nim in zip(*(a[~physical].tolist() for a in pairs)):
        try:
            gamma_ratio(VisibilityValue(both, sigma_both), VisibilityValue(nim, sigma_nim))
        except NonPhysicalVisibilityError as err:
            warnings.warn(f"excluding non-physical point: {err}", stacklevel=stacklevel)
    # gamma_ratio's arithmetic, elementwise (np.sqrt rounds as math.sqrt does)
    a, b = v_both[physical], v_nim[physical]
    num, den = (1.0 - a) * (1.0 + a), (1.0 - b) * (1.0 + b)
    values = np.sqrt(num / den)
    terms = (-a / np.sqrt(num * den) * s_both[physical], b * values / den * s_nim[physical])
    point_sigmas = np.array(list(map(math.hypot, *(t.tolist() for t in terms))), dtype=float)
    mean, std, stderr = _mean_std_stderr(values, "Gamma-ratio")
    return GammaRatioStats(values=values, point_sigmas=point_sigmas, mean=mean, std=std,
                           stderr=stderr, mean_point_sigma=float(np.mean(point_sigmas)),
                           n_excluded=int(np.count_nonzero(~physical)))


def _histogram(values: np.ndarray, bins="fd") -> tuple[tuple[float, int], ...]:
    """Histogram as (bin_center, count) rows of the 2 or more values that the
    campaign statistics accept; Freedman-Diaconis by default.

    Degenerate samples (zero spread) collapse to a single bin instead of
    tripping the automatic bin-width estimate.
    """
    arr = np.asarray(values, dtype=float)
    if np.ptp(arr) == 0.0:
        return ((float(arr[0]), int(arr.size)),)
    counts, edges = np.histogram(arr, bins=bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return tuple((float(c), int(n)) for c, n in zip(centers, counts))


def bound_from_campaign(records: Sequence[RunRecord], bins="fd") -> BoundReport:
    """Assemble the campaign's bound report: _bound of the records' slot fits."""
    return _bound(*_record_fits(records), bins, stacklevel=4)  # 4: our caller


def _bound(reference: np.ndarray, toggled: np.ndarray, bins="fd", stacklevel=3) -> BoundReport:
    """The bound report of the two slots' (runs, 2) _SLOT fits.

    theta uses the Gamma-ratio campaign mean and its scatter stderr; both
    the central (acos of the mean) and conservative (acos of mean minus
    one stderr) conventions are reported.  A run is complete when its four
    fits are usable.  stacklevel is _gamma_ratio_statistics'.
    """
    pairs = _pairs(reference, toggled)
    dv, gr = _delta_v_statistics(pairs), _gamma_ratio_statistics(pairs, stacklevel)
    theta = theta_bound(gr.mean, gr.stderr)
    return BoundReport(
        n_values=dv.n_values,
        n_complete_runs=int(np.count_nonzero(reference["usable"].all(1)
                                             & toggled["usable"].all(1))),
        delta_v_mean=dv.mean,
        delta_v_std=dv.std,
        delta_v_stderr=dv.stderr,
        gamma_ratio_mean=gr.mean,
        gamma_ratio_stderr=gr.stderr,
        gamma_ratio_point_sigma=gr.mean_point_sigma,
        theta_central_deg=theta.central_deg,
        theta_conservative_deg=theta.conservative_deg,
        noncommutative=gr.noncommutative,
        delta_v_hist=_histogram(dv.values, bins),
        gamma_ratio_hist=_histogram(gr.values, bins),
    )


@dataclass(frozen=True)
class SweepPoint:
    """One injected epsilon: closed-form shift and empirical significance."""

    epsilon: float
    gamma_shift: float
    significance: float


@dataclass(frozen=True)
class SweepResult:
    points: tuple[SweepPoint, ...]
    min_detectable_epsilon: float | None
    threshold_sigma: ClassVar[float] = DETECTION_SIGMA


def sensitivity_sweep(epsilon_grid: Iterable[float],
                      config: ExperimentConfig) -> SweepResult:
    """Detection reach versus a phase (0, eps, 0) in the toggled element.

    gamma_shift is the closed-form Gamma_reference - Gamma_toggled (up to 2
    when the defect saturates).  The significance compares what the
    visibility chain can actually see, |Gamma_toggled|/Gamma_reference
    (visibilities only measure |Gamma|), against the empirical scatter of a
    simulated campaign at that epsilon; epsilon = 0 therefore gives exactly 0.
    min_detectable_epsilon is the detecting epsilon (significance at least
    DETECTION_SIGMA) of smallest magnitude, the first in grid order on a tie.

    Each epsilon's statistic is that of campaign_records of its pair, but
    it is read from the slots' fit arrays with no record built, and a
    slot's fits are computed once per call for each distinct (expected
    rates, slot): the scan, seeds and runs are the same at every epsilon,
    so a configuration that epsilon does not touch (the reference in the
    default roles), a repeated epsilon or -0.0 reuses them bit for bit.
    """
    runs = range(config.n_runs)
    fits: dict[tuple[bytes, int], np.ndarray] = {}

    def slot_fits(model: SagnacModel, slot: int) -> np.ndarray:
        key = (np.stack(photonsim.expected_rates(model, config.scan)).tobytes(), slot)
        if key not in fits:
            fits[key] = _slot_fits(model, slot, config.scan, config.master_seed, runs)
        return fits[key]

    points = []
    for eps in epsilon_grid:
        reference, toggled = config.with_epsilon(float(eps)).build_pair()
        g_ref = gamma_of_model(reference)
        g_tog = gamma_of_model(toggled)
        if g_ref <= 0.0:
            raise ConfigError(f"reference configuration must have Gamma > 0, got {g_ref!r} "
                              f"at epsilon {eps!r}")
        shift = g_ref - g_tog
        visible_deviation = abs(1.0 - abs(g_tog) / g_ref)
        stats = _gamma_ratio_statistics(_pairs(slot_fits(reference, 0), slot_fits(toggled, 1)))
        if visible_deviation == 0.0:
            significance = 0.0
        elif stats.stderr > 0.0:
            significance = visible_deviation / stats.stderr
        else:
            significance = math.inf
        points.append(SweepPoint(epsilon=float(eps), gamma_shift=shift,
                                 significance=significance))
    detecting = [p.epsilon for p in points if p.significance >= DETECTION_SIGMA]
    return SweepResult(points=tuple(points), min_detectable_epsilon=min(detecting, key=abs,
                                                                        default=None))
