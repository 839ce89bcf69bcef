"""Monte Carlo heralded-photon interferograms.

A heralded single-photon source is modeled as a Poisson count source: at
each stage phase the two detectors receive independent Poisson draws whose
means follow the Mach-Zehnder fringe fed by the Sagnac ports.  Every draw
is tied to an explicit seed path, so a campaign is reproducible run by run
regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .interferometer import SagnacModel, dark_port_prob, mz_visibility_from_ports

__all__ = [
    "ScanConfig",
    "Interferogram",
    "RunPair",
    "analytic_visibility",
    "expected_rates",
    "simulate_interferogram",
    "simulate_run",
    "simulate_campaign",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ScanConfig:
    """Phase scan of the Mach-Zehnder stage.

    mean_counts_per_step is the expected heralded detections per step at
    unit transmission; element losses scale it down.
    """

    n_steps: int = 100
    phase_start: float = 0.0
    phase_end: float = 2.0 * TWO_PI
    mean_counts_per_step: float = 20000.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_steps < 8:
            raise ValueError(f"n_steps must be >= 8, got {self.n_steps!r}")
        if not (math.isfinite(self.phase_start) and math.isfinite(self.phase_end)):
            raise ValueError("phase_start and phase_end must be finite")
        if abs(self.phase_end - self.phase_start) < TWO_PI - 1e-9:
            raise ValueError("phase span must cover at least one full fringe (2 pi)")
        if not 0.0 < self.mean_counts_per_step < math.inf:
            raise ValueError(f"mean_counts_per_step must be positive and finite, "
                             f"got {self.mean_counts_per_step!r}")
        if not 0 <= int(self.rng_seed) < 2 ** 64:
            raise ValueError(f"rng_seed must be a 64-bit unsigned integer, got {self.rng_seed!r}")

    def phases(self) -> np.ndarray:
        return np.linspace(self.phase_start, self.phase_end, self.n_steps)


@dataclass(frozen=True)
class Interferogram:
    """Counts at the two detectors versus stage phase.

    Counts are integer-valued Poisson draws; in noiseless diagnostic mode
    they are the float expected values instead (the arrays keep whichever
    dtype they were generated with).
    """

    phase_rad: np.ndarray
    counts_d1: np.ndarray
    counts_d2: np.ndarray
    label: str = ""
    seed: tuple = ()

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
        object.__setattr__(self, "seed", tuple(self.seed))

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


def simulate_interferogram(
    model: SagnacModel,
    scan: ScanConfig,
    *,
    label: str = "",
    seed=None,
    noiseless: bool = False,
) -> Interferogram:
    """Draw one interferogram; deterministic given the seed.

    ``seed`` (an int or tuple of ints) overrides scan.rng_seed; run and
    campaign helpers use tuples to give every draw its own stream.  With
    ``noiseless`` the Poisson step is skipped and the expected values are
    returned, which is the diagnostic mode used to check fit convergence
    against the analytic visibility.
    """
    entropy = _as_entropy(scan.rng_seed if seed is None else seed)
    lam1, lam2 = expected_rates(model, scan)
    if noiseless:
        d1, d2 = lam1, lam2
    else:
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        d1 = rng.poisson(lam1)
        d2 = rng.poisson(lam2)
    return Interferogram(phase_rad=scan.phases(), counts_d1=d1, counts_d2=d2,
                         label=label, seed=entropy)


def simulate_run(
    model_nim: SagnacModel,
    model_both: SagnacModel,
    scan: ScanConfig,
    *,
    run_index: int = 0,
    seed=None,
    labels: tuple[str, str] = ("nim", "both"),
    noiseless: bool = False,
) -> RunPair:
    """Simulate one toggle run: reference configuration, then toggled.

    The two interferograms get independent noise streams derived from the
    run seed.  The models must share the Sagnac visibility and reflection;
    they are meant to differ only in which elements are active.
    """
    if model_nim.visibility_v != model_both.visibility_v:
        raise ValueError("paired models must share visibility_v")
    if model_nim.reflection != model_both.reflection:
        raise ValueError("paired models must share the reflection unit")
    entropy = _as_entropy(scan.rng_seed if seed is None else seed)
    nim = simulate_interferogram(model_nim, scan, label=labels[0],
                                 seed=entropy + (0,), noiseless=noiseless)
    both = simulate_interferogram(model_both, scan, label=labels[1],
                                  seed=entropy + (1,), noiseless=noiseless)
    return RunPair(run_index=run_index, nim=nim, both=both)


def simulate_campaign(
    models: tuple[SagnacModel, SagnacModel],
    scan: ScanConfig,
    n_runs: int,
    master_seed: int,
    *,
    labels: tuple[str, str] = ("nim", "both"),
    noiseless: bool = False,
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
                     seed=(int(master_seed), idx), labels=labels, noiseless=noiseless)
        for idx in range(n_runs)
    ]
