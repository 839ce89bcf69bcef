"""Monte Carlo heralded-photon interferograms.

A heralded single-photon source is modeled as a Poisson count source: at
each stage phase the two detectors receive independent Poisson draws whose
means follow the Mach-Zehnder fringe fed by the Sagnac ports.  Every
interferogram is drawn from its own seed path, so a campaign is
reproducible run by run regardless of execution order or grouping.

draw_counts is the one drawer: it computes one configuration's rates
once and draws a (rows, n_steps) count block, row by row, each row from
its own SeedSequence.  simulate_interferogram is its one-row case, and
simulate_run draws each of its two slots that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .interferometer import SagnacModel, dark_port_prob, mz_visibility_from_ports

__all__ = [
    "ScanConfig",
    "Interferogram",
    "RunPair",
    "analytic_visibility",
    "expected_rates",
    "check_pair",
    "draw_counts",
    "simulate_interferogram",
    "simulate_run",
    "simulate_campaign",
]

# numpy's Poisson sampler rejects a mean above this (lam value too large)
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)
# the most steps a scan may have, 1,000 times the default: larger scans are
# refused at validation instead of failing to allocate their phase grid
_MAX_STEPS = 10 ** 5


@dataclass(frozen=True)
class ScanConfig:
    """Phase scan of the Mach-Zehnder stage.

    mean_counts_per_step is the expected heralded detections per step at
    unit transmission; element losses scale it down.  It must be positive
    and at most numpy's Poisson limit (about 9.2234e18), which then bounds
    every detector mean.
    """

    n_steps: int = 100
    phase_start: float = 0.0
    phase_end: float = 2.0 * math.tau
    mean_counts_per_step: float = 20000.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 8 <= self.n_steps <= _MAX_STEPS:
            raise ValueError(f"n_steps must lie in [8, {_MAX_STEPS}], got {self.n_steps!r}")
        span = abs(self.phase_end - self.phase_start)
        if not math.isfinite(span):
            raise ValueError(f"phase span must be finite, got {span!r}")
        if span < math.tau - 1e-9:
            raise ValueError("phase span must cover at least one full fringe (2 pi)")
        if not 0.0 < self.mean_counts_per_step <= _POISSON_LAM_MAX:
            raise ValueError(f"mean_counts_per_step must lie in (0, {_POISSON_LAM_MAX!r}], "
                             f"got {self.mean_counts_per_step!r}")
        if not (type(self.rng_seed) is int and 0 <= self.rng_seed < 2 ** 64):
            raise ValueError(f"rng_seed must be a 64-bit unsigned integer, got {self.rng_seed!r}")

    def phases(self) -> np.ndarray:
        return np.linspace(self.phase_start, self.phase_end, self.n_steps)


@dataclass(frozen=True)
class Interferogram:
    """Counts at the two detectors versus stage phase.

    Simulated counts are int64 Poisson draws; counts read from a CSV may
    be floats (the arrays keep whichever dtype they were given).
    """

    phase_rad: np.ndarray
    counts_d1: np.ndarray
    counts_d2: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "phase_rad", np.asarray(self.phase_rad, dtype=float))
        object.__setattr__(self, "counts_d1", np.asarray(self.counts_d1))
        object.__setattr__(self, "counts_d2", np.asarray(self.counts_d2))
        n = self.phase_rad.shape[0]
        if self.counts_d1.shape != (n,) or self.counts_d2.shape != (n,):
            raise ValueError("phase and count arrays must have identical length")
        for name, c in (("counts_d1", self.counts_d1), ("counts_d2", self.counts_d2)):
            if not np.all(np.isfinite(np.asarray(c, dtype=float))) or np.any(c < 0):
                raise ValueError(f"{name} must be finite and non-negative")

    @property
    def n_steps(self) -> int:
        return self.phase_rad.shape[0]


@dataclass(frozen=True)
class RunPair:
    """One run: the reference-configuration interferogram and the toggled one.

    For the headline campaign the slots are NIM-only and BOTH; an LC-only
    campaign reuses them as LC-off and LC-on.
    """

    run_index: int
    nim: Interferogram
    both: Interferogram


def analytic_visibility(model: SagnacModel) -> float:
    """Mach-Zehnder fringe visibility implied by the model's port probabilities."""
    return mz_visibility_from_ports(dark_port_prob(model))


def expected_rates(model: SagnacModel, scan: ScanConfig) -> tuple[np.ndarray, np.ndarray]:
    """Expected counts per step at the two detectors."""
    v = analytic_visibility(model)
    n_eff = scan.mean_counts_per_step * model.intensity_transmission()
    lam1 = n_eff * (0.5 + 0.5 * v * np.cos(scan.phases()))
    lam2 = n_eff - lam1
    return lam1, lam2


def _as_entropy(seed) -> tuple:
    return (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)


def draw_counts(
    model: SagnacModel,
    scan: ScanConfig,
    seeds: Sequence,
) -> tuple[np.ndarray, np.ndarray]:
    """Counts at the two detectors of one configuration, one row per seed.

    Returns two (rows, n_steps) int64 arrays.  Row k is drawn from its own
    Generator on SeedSequence(seeds[k]) (an int or tuple of ints), detector
    1 first, so it depends on nothing but the model, the scan and its seed.
    """
    rates = np.stack(expected_rates(model, scan))
    counts = np.empty((len(seeds), 2, scan.n_steps), dtype=np.int64)
    for k, seed in enumerate(seeds):
        # one call draws d1 then d2, as two calls on the same stream would
        rng = np.random.default_rng(np.random.SeedSequence(_as_entropy(seed)))
        counts[k] = rng.poisson(rates)
    return counts[:, 0], counts[:, 1]


def simulate_interferogram(
    model: SagnacModel,
    scan: ScanConfig,
    *,
    seed=None,
) -> Interferogram:
    """Draw one interferogram; deterministic given the seed.

    ``seed`` (an int or tuple of ints) overrides scan.rng_seed; run and
    campaign helpers use tuples to give every draw its own stream.
    """
    d1, d2 = draw_counts(model, scan, [scan.rng_seed if seed is None else seed])
    return Interferogram(phase_rad=scan.phases(), counts_d1=d1[0], counts_d2=d2[0])


def check_pair(model_nim: SagnacModel, model_both: SagnacModel) -> None:
    """Raise ValueError unless the two models can form one toggle run.

    They must share the Sagnac visibility and reflection; they are meant to
    differ only in which elements are active.
    """
    if model_nim.visibility_v != model_both.visibility_v:
        raise ValueError("paired models must share visibility_v")
    if model_nim.reflection != model_both.reflection:
        raise ValueError("paired models must share the reflection unit")


def simulate_run(
    model_nim: SagnacModel,
    model_both: SagnacModel,
    scan: ScanConfig,
    *,
    run_index: int = 0,
    seed=None,
) -> RunPair:
    """Simulate one toggle run: reference configuration, then toggled.

    The two interferograms are drawn from the run seed extended by slot 0
    and slot 1, so each has its own stream.  The models must pass
    check_pair.
    """
    check_pair(model_nim, model_both)
    entropy = _as_entropy(scan.rng_seed if seed is None else seed)
    nim, both = (simulate_interferogram(model, scan, seed=entropy + (slot,))
                 for slot, model in enumerate((model_nim, model_both)))
    return RunPair(run_index=run_index, nim=nim, both=both)


def simulate_campaign(
    models: tuple[SagnacModel, SagnacModel],
    scan: ScanConfig,
    n_runs: int,
    master_seed: int,
) -> list[RunPair]:
    """n_runs independent toggle runs, seeded as (master_seed, run_index).

    Each run's counts depend only on its own seed pair, so runs can be
    regenerated individually or in parallel without changing any result.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs!r}")
    model_nim, model_both = models
    return [
        simulate_run(model_nim, model_both, scan, run_index=idx,
                     seed=(int(master_seed), idx))
        for idx in range(n_runs)
    ]
