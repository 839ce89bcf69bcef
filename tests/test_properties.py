"""Property tests (hypothesis, derandomized so the suite stays deterministic).

The fit front end must not care how its input is split, which detector is
called which, or in what order the rows of a scan arrive; the closed-form
loop model must agree with the brute-force propagation oracle.
"""

import math

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from darkport.config import ExperimentConfig
from darkport.fitting import (
    FitInputError,
    FitResult,
    InvalidFitError,
    fit_interferograms,
    fit_sinusoid,
    normalize,
)
from darkport.interferometer import PhaseElement, SagnacModel, dark_port_prob, propagate_state
from darkport.photonsim import Interferogram, ScanConfig, simulate_interferogram
from darkport.quaternion import PhaseVector, Quaternion

# shrinking is off: a failing example is reported as drawn, in seconds
# rather than minutes of refitting
PROPERTY = settings(derandomize=True, max_examples=10, deadline=None, database=None,
                    phases=[Phase.generate])


def _pool():
    """Bright, low-count (some capped or A + 2B < 0) and shorter scans, both
    configurations, and one all-zero scan that normalize refuses."""
    pair = ExperimentConfig().build_pair()
    igs = []
    for k, counts in enumerate((20000.0, 200.0, 5.0, 50.0) * 4):
        scan = ScanConfig(n_steps=60 if k % 7 == 3 else 100, mean_counts_per_step=counts)
        igs.append(simulate_interferogram(pair[k % 2], scan, seed=(90, k)))
    # detector 1 runs to the iteration cap, detector 2 fits A + 2B < 0
    igs.append(simulate_interferogram(pair[0], ScanConfig(mean_counts_per_step=5.0),
                                      seed=(5, 30)))
    phase = ScanConfig().phases()
    igs.append(Interferogram(phase, np.zeros(phase.size), np.zeros(phase.size)))
    return igs


POOL = _pool()
ZERO = len(POOL) - 1


def _fit_one(ig, detector):
    try:
        return fit_sinusoid(normalize(ig, detector=detector))
    except (FitInputError, InvalidFitError) as err:
        return err


REFERENCE = [(_fit_one(ig, 1), _fit_one(ig, 2)) for ig in POOL]


def _same_fit(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in FitResult.__dataclass_fields__)


def _same_pairs(got, want):
    return len(got) == len(want) and all(
        _same_fit(g1, w1) and _same_fit(g2, w2) for (g1, g2), (w1, w2) in zip(got, want))


def test_pool_covers_every_outcome():
    outcomes = {type(fit) for pair in REFERENCE for fit in pair}
    assert outcomes == {FitResult, FitInputError, InvalidFitError}
    assert isinstance(REFERENCE[ZERO][0], FitInputError)
    assert any(isinstance(fit, FitResult) and not fit.converged
               for pair in REFERENCE for fit in pair)
    excluded = [(fit.n_excluded, normalize(ig, detector=d).n_excluded)
                for ig, pair in zip(POOL, REFERENCE) for d, fit in zip((1, 2), pair)
                if isinstance(fit, FitResult)]
    assert all(got == want for got, want in excluded)
    assert any(got > 0 for got, _ in excluded)


@PROPERTY
@given(picks=st.lists(st.integers(0, ZERO - 1), min_size=16, max_size=24),
       zero_at=st.integers(0, 24),
       cuts=st.lists(st.integers(0, 25), max_size=4))
def test_fit_interferograms_is_split_invariant(picks, zero_at, cuts):
    picks.insert(min(zero_at, len(picks)), ZERO)
    want = [REFERENCE[k] for k in picks]
    igs = [POOL[k] for k in picks]
    assert _same_pairs(list(fit_interferograms(iter(igs))), want)
    bounds = [0, *sorted(min(c, len(igs)) for c in cuts), len(igs)]
    split = [pair for a, b in zip(bounds, bounds[1:]) for pair in fit_interferograms(igs[a:b])]
    assert _same_pairs(split, want)


@PROPERTY
@given(picks=st.lists(st.integers(0, ZERO), min_size=1, max_size=20))
def test_swapping_the_detectors_swaps_the_fits(picks):
    swapped = [Interferogram(POOL[k].phase_rad, POOL[k].counts_d2, POOL[k].counts_d1)
               for k in picks]
    got = list(fit_interferograms(swapped))
    assert _same_pairs([(d2, d1) for d1, d2 in got], [REFERENCE[k] for k in picks])


@PROPERTY
@given(data=st.data())
def test_row_order_does_not_change_the_fits(data):
    k = data.draw(st.integers(0, ZERO))
    ig = POOL[k]
    perm = np.array(data.draw(st.permutations(range(ig.n_steps))))
    shuffled = Interferogram(ig.phase_rad[perm], ig.counts_d1[perm], ig.counts_d2[perm])
    assert _same_pairs(list(fit_interferograms([shuffled])), [REFERENCE[k]])


_ANGLE = st.floats(-math.pi, math.pi)


@st.composite
def _loops(draw):
    axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    norm = float(np.linalg.norm(axis))
    if norm < 1e-3:
        axis, norm = np.array([0.0, 1.0, 0.0]), 1.0
    n_elements = draw(st.integers(2, 4))
    elements = tuple(
        PhaseElement(f"e{k}", PhaseVector(draw(_ANGLE), draw(_ANGLE), draw(_ANGLE)),
                     amplitude_transmission=draw(st.floats(0.01, 1.0)))
        for k in range(n_elements))
    return SagnacModel(visibility_v=draw(st.floats(0.0, 1.0)),
                       reflection=Quaternion(0.0, *(axis / norm)), elements=elements)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(model=_loops())
def test_closed_form_matches_the_propagation_oracle(model):
    closed = dark_port_prob(model)
    full = propagate_state(model)
    assert abs(closed.p_dark - full.p_dark) <= 1e-12
    assert abs(closed.p_bright - full.p_bright) <= 1e-12
