"""Monte Carlo heralded-photon interferograms.

A heralded single-photon source is modeled as a Poisson count source: at
each stage phase the two detectors receive independent Poisson draws whose
means follow the Mach-Zehnder fringe fed by the Sagnac ports.  Every
interferogram is drawn from its own seed path, so a campaign is
reproducible run by run regardless of execution order or grouping.

draw_counts is the one drawer: it computes one configuration's rates
once and draws a (rows, n_steps) count block, each row from its own
Generator(PCG64) on SeedSequence(seed).  A campaign slot's seeds come as
one array of entropy words (_run_seeds), which are hashed and mixed in
uint32 array arithmetic (numpy's SeedSequence algorithm, NEP 19) into
each row's 4 uint64 PCG64 state words, bit for bit as SeedSequence's
generate_state gives them; every other seed is numpy's own SeedSequence.
simulate_interferogram is the one-row case, simulate_run draws each of
its two slots that way, and simulate_campaign draws each slot's runs as
one block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fitting import _REASONS
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

# numpy's SeedSequence at its default pool of 4 uint32 words: the hash
# constants of its mixing (A) and output (B) steps, and of its mix function
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_steps(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) uint32 constants of n successive hashmix steps
    whose hash constant starts at init and is multiplied by mult each step."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts[:-1], np.uint32), np.array(consts[1:], np.uint32)


# the 16 A steps of an entropy of at most 4 words: 4 fill the pool, then 3
# per pool word mix it into the other three
_STEPS_A = _hash_steps(_INIT_A, _MULT_A, 16)
_FILL = tuple(c[:4] for c in _STEPS_A)
# the constants that hash pool word src into each pool word; src's own slot
# (1) gives a result that is thrown away
_CROSS = tuple(tuple(np.insert(c[4 + 3 * src:7 + 3 * src], src, 1) for c in _STEPS_A)
               for src in range(4))
# generate_state(4, np.uint64): 8 uint32 words, twice round the pool
_OUTPUT = tuple(c.reshape(2, 4) for c in _hash_steps(_INIT_B, _MULT_B, 8))


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
        if not np.all(np.isfinite(self.phase_rad)):
            raise ValueError(_REASONS[0])  # the fit's wording (fitting._REASONS)
        for text, c in zip(_REASONS[1:3], (self.counts_d1, self.counts_d2)):
            if not np.all(np.isfinite(np.asarray(c, dtype=float))) or np.any(c < 0):
                raise ValueError(text)

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
    entropy = seed if isinstance(seed, (tuple, list, np.ndarray)) else (seed,)
    if any(type(s) is bool or not isinstance(s, (int, np.integer)) for s in entropy):
        raise ValueError(f"seed must be an integer or a sequence of integers, got {seed!r}")
    return tuple(map(int, entropy))


def _run_seeds(master_seed: int, indices: Sequence[int], slot: int) -> np.ndarray:
    """The (runs, k) uint64 array of seeds (master_seed, idx, slot), one row
    per index: master_seed as its SeedSequence words (one below 2^32, else
    two, least significant first), then idx, then slot."""
    # refused as SeedSequence refuses them: a bool or a non-integer, then a negative int
    master_seed, *runs = _as_entropy([master_seed, *indices])
    if min([master_seed, *runs]) < 0:
        raise ValueError("expected non-negative integer")
    seeds = np.empty((len(runs), 4), np.uint64)
    seeds[:, 2], seeds[:, 3] = runs, slot  # OverflowError past 64 bits, as for master_seed:
    seeds[:, 0], seeds[:, 1] = master_seed & _MASK32, np.uint64(master_seed) >> 32
    return seeds if master_seed > _MASK32 else np.delete(seeds, 1, axis=1)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of uint32 values at one step's constants."""
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of uint32 pool words x with hashed words y."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _pool_state(words: np.ndarray) -> np.ndarray:
    """SeedSequence(e).generate_state(4, np.uint64) of each row's entropy
    words e in a (rows, n <= 4) uint32 array, as a (rows, 4) uint64 array:
    the pool is filled, mixed and read out for all rows at once."""
    rows, n = words.shape
    pool = np.zeros((rows, 4), np.uint32)
    pool[:, :n] = words
    pool = _hashmix(pool, *_FILL)
    for src, consts in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[:, src, None], *consts))
        mixed[:, src] = pool[:, src]  # a word is not mixed into itself
        pool = mixed
    state = _hashmix(pool[:, None, :], *_OUTPUT).reshape(rows, 8)
    # word pairs read as little-endian uint64, as numpy does on any machine
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _seed_state(seeds: Sequence) -> np.ndarray:
    """SeedSequence(seed).generate_state(4, np.uint64) of each seed (an int
    or a sequence of ints) as one (len(seeds), 4) uint64 array.

    An integer (rows, k <= 4) array whose entries all lie in [0, 2^32), such
    as a campaign slot's _run_seeds, is k words a seed, seeded in one pass
    (_pool_state).  Every other seed is numpy's own SeedSequence, imported
    at the first such draw as numpy.random is (_generator_of_state).
    """
    if (isinstance(seeds, np.ndarray) and seeds.ndim == 2 and seeds.shape[1] <= 4
            and seeds.dtype.kind in "iu" and np.all((seeds >= 0) & (seeds <= _MASK32))):
        return _pool_state(seeds.astype(np.uint32))
    from numpy.random import SeedSequence
    return np.array([SeedSequence(_as_entropy(seed)).generate_state(4, np.uint64)
                     for seed in seeds], np.uint64).reshape(len(seeds), 4)


@functools.cache
def _generator_of_state():
    """A function from a row's 4 uint64 state words to the Generator(PCG64)
    that default_rng builds on the SeedSequence they come from.

    numpy.random is imported here, at the first draw: imported with the
    package, it would add its import time to the start of every command
    (12-14 ms with numpy 2.4 on a shared 2-core x86_64 machine).
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """A seed sequence that holds the state words PCG64 asks it for."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("StateWords holds 4 uint64 words only")
            return self.words

    return lambda words: Generator(PCG64(StateWords(words)))


def draw_counts(
    model: SagnacModel,
    scan: ScanConfig,
    seeds: Sequence,
) -> tuple[np.ndarray, np.ndarray]:
    """Counts at the two detectors of one configuration, one row per seed.

    Returns two (rows, n_steps) int64 arrays.  Row k is drawn from its own
    Generator(PCG64) on SeedSequence(seeds[k]) (an int or a sequence of ints;
    seeds may be a (rows, k) integer array), detector 1 first, so it depends
    on nothing but the model, the scan and its seed.  The SeedSequence states
    of all rows are computed first (_seed_state), those of a seed word array
    in one array pass; each row's PCG64 is then built from its state words.
    """
    rates = np.stack(expected_rates(model, scan))
    state = _seed_state(seeds)
    generator = _generator_of_state()
    counts = np.empty((len(state), 2, scan.n_steps), dtype=np.int64)
    for k, words in enumerate(state):
        # one call draws d1 then d2, as two calls on the same stream would
        counts[k] = generator(words).poisson(rates)
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
    regenerated individually or in parallel without changing any result:
    run idx equals simulate_run with seed (master_seed, idx).  Each slot's
    runs are one draw_counts block, from _run_seeds (master_seed, idx,
    slot); master_seed must be an integer in [0, 2^64).
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs!r}")
    model_nim, model_both = models
    check_pair(model_nim, model_both)
    phase = scan.phases()
    slots = [draw_counts(model, scan, _run_seeds(master_seed, range(n_runs), slot))
             for slot, model in enumerate((model_nim, model_both))]
    return [RunPair(idx, *(Interferogram(phase.copy(), d1[idx], d2[idx]) for d1, d2 in slots))
            for idx in range(n_runs)]
