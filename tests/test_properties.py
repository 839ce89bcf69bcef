"""Property tests (hypothesis, derandomized so the suite stays deterministic).

The fit front end must not care how its input is split, which detector is
called which, or in what order the rows of a scan arrive; a campaign's
count blocks must give the records of its runs fitted one by one, and
its fit arrays the bound report of those records, binned as numpy's
Freedman-Diaconis rule bins them; a block's one-pass seeding must give each
seed's SeedSequence state; the closed-form loop model must agree with the
brute-force propagation oracle; quaternion algebra, the interferogram CSV
format and the JSON reports, whole or a column at a time, must hold for any
input.
"""

import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from darkport.analysis import (
    TooFewFitsError,
    _bound,
    _histogram,
    _slot_fits,
    bound_from_campaign,
    campaign_records,
    records_from_runs,
)
from darkport.config import ExperimentConfig
from darkport.fitting import (
    FitInputError,
    FitResult,
    InvalidFitError,
    _visibilities,
    fit_interferograms,
    normalize,
)
from darkport.interferometer import (
    PhaseElement,
    PortProbabilities,
    SagnacModel,
    dark_port_prob,
    propagate_state,
)
from darkport.photonsim import (
    Interferogram,
    ScanConfig,
    _pool_state,
    _seed_state,
    simulate_interferogram,
    simulate_run,
)
from darkport.quaternion import ONE, PhaseVector, Quaternion, conj, mul, norm, qexp
from darkport.reports import (
    CsvFormatError,
    JsonText,
    dumps_json,
    encode_columns,
    format_float,
    read_interferogram_block,
    read_interferogram_csv,
    write_interferogram_csv,
)

from helpers import known_fit, same_fit

# shrinking is off: a failing example is reported as drawn, in seconds
# rather than minutes of refitting
PROPERTY = settings(derandomize=True, max_examples=10, deadline=None, database=None,
                    phases=[Phase.generate])


def _equal_totals():
    """Detector 2 counts detector 1's fringe a quarter scan later: equal
    totals, so the first phase-sorted step where they differ decides."""
    ig = simulate_interferogram(ExperimentConfig().build_pair()[1],
                                ScanConfig(mean_counts_per_step=200.0), seed=(90, 99))
    return Interferogram(ig.phase_rad, ig.counts_d1, np.roll(ig.counts_d1, 25))


def _hard():
    """Detector 2, the fitted one, reads -1 - 2 cos x (A + 2B = -2) where that
    lies in [0, 1], wobbling far beyond its binomial sigma, and no counts
    elsewhere: it fits A + 2B < 0, and its mirror on detector 1 is a valid
    fit that is not converged."""
    phase = ScanConfig().phases()
    ratio = -1.0 - 2.0 * np.cos(phase) + 0.01 * (-1.0) ** np.arange(phase.size)
    lit = (ratio >= 0.0) & (ratio <= 1.0)
    d2 = np.where(lit, np.round(1e6 * ratio), 0.0)
    return Interferogram(phase, np.where(lit, 1e6 - d2, 0.0), d2)


def _pool():
    """Bright, low-count and shorter scans, both configurations, _hard, a scan
    with equal detector totals, one whose steps sit at two points of the
    fringe, which the fit refuses, and one all-zero scan that normalize
    refuses."""
    pair = ExperimentConfig().build_pair()
    igs = []
    for k, counts in enumerate((20000.0, 200.0, 5.0, 50.0) * 4):
        scan = ScanConfig(n_steps=60 if k % 7 == 3 else 100, mean_counts_per_step=counts)
        igs.append(simulate_interferogram(pair[k % 2], scan, seed=(90, k)))
    igs.append(_hard())
    igs.append(_equal_totals())
    d1 = np.where(np.arange(100) % 2, 30.0, 70.0)
    igs.append(Interferogram(0.3 + math.pi * np.arange(100), d1, 120.0 - d1))
    phase = ScanConfig().phases()
    igs.append(Interferogram(phase, np.zeros(phase.size), np.zeros(phase.size)))
    return igs


POOL = _pool()
ZERO = len(POOL) - 1
TIE, TWO_POINTS = ZERO - 2, ZERO - 1


def _chosen(ig):
    """The fitted detector: more counts, else more counts at the first
    phase-sorted step where the columns differ, else detector 1."""
    order = np.argsort(ig.phase_rad, kind="stable")
    d1, d2 = ig.counts_d1[order], ig.counts_d2[order]
    if d1.sum() != d2.sum():
        return 1 if d1.sum() > d2.sum() else 2
    differ = np.flatnonzero(d1 != d2)
    return 1 if differ.size == 0 or d1[differ[0]] > d2[differ[0]] else 2


def _reference(ig):
    """The one-row fit of the chosen detector's normalize(ig, chosen), and the
    other detector's outcome from its mirror."""
    chosen = _chosen(ig)
    try:
        pair = known_fit(normalize(ig, detector=chosen))
    except FitInputError as err:
        return err, err
    return pair if chosen == 1 else pair[::-1]


REFERENCE = [_reference(ig) for ig in POOL]


def _same_pairs(got, want):
    return len(got) == len(want) and all(
        same_fit(g1, w1) and same_fit(g2, w2) for (g1, g2), (w1, w2) in zip(got, want))


def test_pool_covers_every_outcome():
    outcomes = {type(fit) for pair in REFERENCE for fit in pair}
    assert outcomes == {FitResult, FitInputError, InvalidFitError}
    assert isinstance(REFERENCE[ZERO][0], FitInputError)
    assert [str(err) for err in REFERENCE[TWO_POINTS] if isinstance(err, FitInputError)] == [
        "points with counts must lie at three or more points of the fringe (mod 2 pi)"] * 2
    assert {frozenset(map(type, pair)) for pair in REFERENCE} >= {
        frozenset((FitResult, InvalidFitError))}
    tie = POOL[TIE]
    assert tie.counts_d1.sum() == tie.counts_d2.sum()
    assert not np.array_equal(tie.counts_d1, tie.counts_d2)
    assert any(isinstance(fit, FitResult) and not fit.converged
               for pair in REFERENCE for fit in pair)
    excluded = [(fit.n_excluded, normalize(ig, detector=d).n_excluded)
                for ig, pair in zip(POOL, REFERENCE) for d, fit in zip((1, 2), pair)
                if isinstance(fit, FitResult)]
    assert all(got == want for got, want in excluded)
    assert any(got > 0 for got, _ in excluded)


def test_one_row_visibility_is_the_fit_visibility_bit_for_bit():
    # the one-row visibility and the block's, on fitted and mirrored sides
    checked = [0, 0]
    for pair in fit_interferograms(POOL):
        for side, fit in enumerate(pair):
            if isinstance(fit, FitResult):
                params = np.array([[fit.amplitude, fit.frequency, fit.phase, fit.offset]])
                value, sigma, reason, _ = _visibilities(params, fit.covariance[None])
                assert reason.tolist() == [0]
                assert (value[0].hex(), sigma[0].hex()) == (
                    fit.visibility.value.hex(), fit.visibility.sigma.hex())
                checked[side] += 1
    assert min(checked) >= 10


def _lstsq_oracle(fringe):
    """(c0, c1, c2) of c0 + c1 cos x + c2 sin x by np.linalg.lstsq on the
    sqrt(w)-scaled design, the chi-square, and V = |(c1, c2)| / c0 with its
    first-order sigma from the inverse normal matrix times the reduced
    chi-square."""
    design = np.stack([np.ones(fringe.n_points), np.cos(fringe.phase), np.sin(fringe.phase)],
                      axis=-1) / fringe.sigma[:, None]
    coef = np.linalg.lstsq(design, fringe.ratio / fringe.sigma, rcond=None)[0]
    chi2 = np.sum((design @ coef - fringe.ratio / fringe.sigma) ** 2)
    cov = np.linalg.inv(design.T @ design) * chi2 / (fringe.n_points - 3)
    c0, c1, c2 = coef
    h = math.hypot(c1, c2)
    grad = np.array([-h / c0, c1 / h, c2 / h]) / c0
    return coef, chi2, h / c0, math.sqrt(grad @ cov @ grad)


def _check_against_the_oracle(igs):
    """Each fitted or mirrored outcome of fit_interferograms against
    _lstsq_oracle of that detector's normalized fringe; returns the count of
    FitResults checked."""
    checked = 0
    for ig, pair in zip(igs, fit_interferograms(igs)):
        for detector, fit in zip((1, 2), pair):
            if isinstance(fit, FitInputError):
                continue
            fringe = normalize(ig, detector=detector)
            coef, chi2, v, sigma = _lstsq_oracle(fringe)
            if isinstance(fit, InvalidFitError):
                assert coef[0] <= 0.0
                continue
            half = 0.5 * fit.amplitude
            got = np.array([fit.offset + half, -half * math.cos(2.0 * fit.phase),
                            half * math.sin(2.0 * fit.phase)])
            # relative to the coefficient vector: a small c1 or c2 alone is looser
            assert np.abs(got - coef).max() <= 1e-12 * np.abs(coef).max()
            assert (fit.frequency, fit.covariance[1, 1], fit.iterations) == (0.5, 0.0, 0)
            assert fit.visibility.value == pytest.approx(min(v, 1.0), rel=1e-12)
            assert fit.visibility.sigma == pytest.approx(sigma, rel=1e-9)
            dof = fringe.n_points - 3
            # the one-sided 5-sigma chi-square quantile, by Wilson-Hilferty
            c = 2.0 / (9.0 * dof)
            assert fit.converged == (chi2 <= dof * (1.0 - c + 5.0 * math.sqrt(c)) ** 3)
            checked += 1
    return checked


def test_known_frequency_fits_match_a_lstsq_oracle_on_the_pool():
    # every fit of the pool but the two refused rows' and _hard's InvalidFitError
    assert _check_against_the_oracle(POOL) == 2 * (len(POOL) - 2) - 1


@pytest.mark.parametrize("counts", [20.0, 200.0, 2000.0, 20000.0])
def test_known_frequency_fits_match_a_lstsq_oracle(counts):
    pair = ExperimentConfig().build_pair()
    scan = ScanConfig(mean_counts_per_step=counts)
    igs = [simulate_interferogram(pair[k % 2], scan, seed=(93, k)) for k in range(50)]
    assert _check_against_the_oracle(igs) == 100


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


def test_equal_totals_fit_the_detector_ahead_at_the_first_differing_step():
    ig = POOL[TIE]
    first = np.flatnonzero(ig.counts_d1 != ig.counts_d2)[0]
    chosen = 1 if ig.counts_d1[first] > ig.counts_d2[first] else 2
    [pair] = fit_interferograms([ig])
    assert same_fit(pair[chosen - 1], known_fit(normalize(ig, detector=chosen))[0])
    [swapped] = fit_interferograms([Interferogram(ig.phase_rad, ig.counts_d2, ig.counts_d1)])
    assert _same_pairs([swapped[::-1]], [pair])


def _bits(records):
    """Each record's run index and slots, floats as their exact hex strings."""
    return [(rec.run_index, *(None if v is None else (v.value.hex(), v.sigma.hex())
                              for v in (rec.v_nim_d1, rec.v_nim_d2, rec.v_both_d1,
                                        rec.v_both_d2)))
            for rec in records]


# low-count fits with a visibility of 1 leave the report with a warning
@pytest.mark.filterwarnings("ignore:excluding non-physical point")
@settings(PROPERTY, phases=[Phase.explicit, Phase.generate])
@given(counts=st.floats(0.5, 50.0), descending=st.booleans(), n_runs=st.integers(1, 40),
       master_seed=st.integers(0, 2 ** 32), data=st.data())
@example(counts=0.5, descending=True, n_runs=20, master_seed=1, data=None)
@example(counts=5.0, descending=False, n_runs=20, master_seed=2, data=None)
def test_campaign_blocks_match_the_runs_fitted_one_by_one(counts, descending, n_runs,
                                                          master_seed, data):
    # low counts leave steps with no counts and runs with equal detector
    # totals; a descending scan puts every row's phases out of order
    span = (0.0, 4.0 * math.pi)
    start, end = span[::-1] if descending else span
    scan = ScanConfig(phase_start=start, phase_end=end, mean_counts_per_step=counts)
    pair = ExperimentConfig().build_pair()
    records = campaign_records(*pair, scan, master_seed, range(n_runs))
    whole = _bits(records)
    runs = [simulate_run(*pair, scan, run_index=idx, seed=(master_seed, idx))
            for idx in range(n_runs)]
    assert _bits(records_from_runs(runs)) == whole
    if data is None:
        order, cuts = list(range(n_runs))[::-1], [n_runs // 3, n_runs // 2]
    else:
        order = data.draw(st.permutations(range(n_runs)))
        cuts = data.draw(st.lists(st.integers(0, n_runs), max_size=3))
    bounds = [0, *sorted(cuts), n_runs]
    split = [rec for a, b in zip(bounds, bounds[1:])
             for rec in campaign_records(*pair, scan, master_seed, order[a:b])]
    split.sort(key=lambda rec: rec.run_index)
    assert _bits(split) == whole
    assert _report_bytes(bound_from_campaign, split) == _report_bytes(bound_from_campaign, records)
    # the campaign command's report reads the slots' fit arrays, with no record
    slots = [_slot_fits(model, slot, scan, master_seed, range(n_runs))
             for slot, model in enumerate(pair)]
    assert _report_bytes(_bound, *slots, "fd") == _report_bytes(bound_from_campaign, records)


def _report_bytes(bound, *args):
    """The bound report's JSON bytes, or the error that refuses its input."""
    try:
        return dumps_json(bound(*args))
    except TooFewFitsError as err:
        return repr(err)


def test_low_count_campaigns_have_zero_total_steps_and_equal_totals():
    # the runs of the property's first example reach both branches in
    # interferograms that get as far as the fit
    scan = ScanConfig(phase_start=4.0 * math.pi, phase_end=0.0, mean_counts_per_step=0.5)
    runs = [simulate_run(*ExperimentConfig().build_pair(), scan, seed=(1, idx))
            for idx in range(20)]
    fitted = [ig for run in runs for ig in (run.nim, run.both)
              if np.count_nonzero(ig.counts_d1 + ig.counts_d2) >= 8]
    assert any(np.any(ig.counts_d1 + ig.counts_d2 == 0) for ig in fitted)
    assert any(ig.counts_d1.sum() == ig.counts_d2.sum() for ig in fitted)


@st.composite
def _campaign_values(draw):
    """2 to 1,000 values: normal; Cauchy, with a few far out; few distinct values,
    with ties at the quartiles; Student-t(1.5) rounded, at any scale; or all equal
    but one, whose IQR is 0 from 5 values on."""
    n, rng = draw(st.integers(2, 1000)), np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return {"normal": lambda: rng.normal(size=n), "cauchy": lambda: rng.standard_cauchy(n),
            "ties": lambda: rng.integers(0, 4, n) * 0.25,
            "tailed ties": lambda: (np.round(rng.standard_t(1.5, n), 1)
                                    * 10.0 ** draw(st.integers(-8, 8))),
            "one apart": lambda: np.r_[np.zeros(n - 1), rng.normal()],
            }[draw(st.sampled_from(["normal", "cauchy", "ties", "tailed ties", "one apart"]))]()


@settings(PROPERTY, max_examples=200, phases=[Phase.explicit, Phase.generate])
@given(values=_campaign_values())
@example(values=np.array([0.1, 0.3]))
# the bin count of the first needs a + (b - a) t at t < 0.5, of the second
# b - (b - a) (1 - t) at t >= 0.5
@example(values=np.array([0.01, -0.01, 0.03, 0.1, -0.08, -0.1, 0.02, -0.01]))
@example(values=np.array([0.2, 1.7, -0.3, -0.2, -1.0, -0.6, -0.3, -1.3]))
@example(values=np.array([0.0, 0.0, 0.0, 0.0, 0.5]))
def test_fd_histogram_bins_as_numpy_does(values):
    iqr, spread = np.subtract(*np.percentile(values, [75, 25])), np.ptp(values)
    # numpy's own width: an array of more than 10^4 bins is not drawn, to keep memory small
    assume(spread > 0 and (iqr == 0 or spread <= 1e4 * 2.0 * iqr * len(values) ** (-1.0 / 3.0)))
    counts, edges = np.histogram(values, bins="fd")
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert [(c.hex(), k) for c, k in _histogram(values, "fd")] == [
        (c.hex(), k) for c, k in zip(centers.tolist(), counts.tolist())]


_ANGLE = st.floats(-math.pi, math.pi)


@st.composite
def _loops(draw, min_elements=2, angle=_ANGLE):
    axis = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    norm = float(np.linalg.norm(axis))
    if norm < 1e-3:
        axis, norm = np.array([0.0, 1.0, 0.0]), 1.0
    n_elements = draw(st.integers(min_elements, 4))
    elements = tuple(
        PhaseElement(f"e{k}", PhaseVector(draw(angle), draw(angle), draw(angle)),
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


def _walk(cw, ccw, r, v):
    """The port probabilities of the oracle's density-matrix walk with each of
    its 11 Hamilton products written out, r rho r^dagger twice."""
    c_cw, c_ccw = mul(cw, r), ccw
    rho11 = rho22 = Quaternion(0.5)
    rho12 = mul(c_cw, conj(c_ccw)).scaled(0.5 * v)
    rho21 = mul(c_ccw, conj(c_cw)).scaled(0.5 * v)
    rc = conj(r)
    p_bright = (rho11 + mul(rho12, rc) + mul(r, rho21) + mul(mul(r, rho22), rc)).scaled(0.5)
    p_dark = (mul(mul(r, rho11), rc) + mul(r, rho12) + mul(rho21, rc) + rho22).scaled(0.5)
    return PortProbabilities(p_bright.w, p_dark.w)


# phases of +-0.0 make zero components, whose sign the two folds can differ in
@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(model=_loops(0, st.one_of(st.sampled_from([0.0, -0.0]), _ANGLE)))
def test_loop_products_and_the_oracle_match_the_walk_from_one(model):
    # folded from ONE, the products differ from the model's, folded from the
    # first element, at most in the sign of a zero component, which == ignores
    # and which the oracle's output bits do not see
    cw = ccw = ONE
    for e in model.elements:
        cw, ccw = mul(cw, e.quaternion), mul(e.quaternion, ccw)
    assert model.loop_products == (cw, ccw)
    full = propagate_state(model)
    for products in (model.loop_products, (cw, ccw)):
        walked = _walk(*products, model.reflection, model.visibility_v)
        assert (full.p_bright.hex(), full.p_dark.hex()) == (walked.p_bright.hex(),
                                                            walked.p_dark.hex())


@st.composite
def _word_arrays(draw):
    """A (rows, k) uint64 array of SeedSequence entropy words, k from 0 to 4."""
    k = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 2 ** 32 - 1), min_size=k, max_size=k),
                         min_size=1, max_size=6))
    return np.array(rows, np.uint64).reshape(len(rows), k)


@settings(PROPERTY, max_examples=200)
@given(words=_word_arrays())
@example(words=np.array([[0, 2 ** 32 - 1, 0, 2 ** 32 - 1]], np.uint64))
def test_seed_state_is_each_seed_sequence_state(words):
    # one seeding pass over a block of word rows: each row is the state
    # that SeedSequence alone gives its seed
    state = _pool_state(words.astype(np.uint32))
    assert _seed_state(words).tobytes() == state.tobytes()
    for row, seed in zip(state, words.tolist(), strict=True):
        assert row.tobytes() == np.random.SeedSequence(seed).generate_state(
            4, np.uint64).tobytes()


_COMPONENT = st.floats(-2.0, 2.0)
_QUATERNIONS = st.builds(Quaternion, _COMPONENT, _COMPONENT, _COMPONENT, _COMPONENT)


@settings(PROPERTY, max_examples=200)
@given(a=_QUATERNIONS, b=_QUATERNIONS, c=_QUATERNIONS)
def test_quaternion_product_is_associative_and_norm_multiplicative(a, b, c):
    left, right = mul(mul(a, b), c), mul(a, mul(b, c))
    assert norm(left - right) <= 1e-12 * max(1.0, norm(left))
    assert math.isclose(norm(mul(a, b)), norm(a) * norm(b), rel_tol=1e-12, abs_tol=1e-12)


@settings(PROPERTY, max_examples=200)
@given(v=st.builds(PhaseVector, *(st.floats(-20.0, 20.0),) * 3))
def test_qexp_is_a_unit_quaternion(v):
    assert abs(norm(qexp(v)) - 1.0) <= 1e-12


def _counts(draw, n, integer):
    if integer:
        values = draw(st.lists(st.integers(0, 10 ** 19), min_size=n, max_size=n))
        # int64 as the simulator draws them, floats past 2**53 (exact integers)
        return np.array(values, dtype=np.int64 if max(values) <= 2 ** 53 else float)
    return np.array(draw(st.lists(st.floats(0.0, 1e20), min_size=n, max_size=n)))


@settings(PROPERTY, max_examples=50)
@given(data=st.data())
def test_interferogram_csv_round_trip_is_exact(data):
    n = data.draw(st.integers(1, 30))
    integer = data.draw(st.booleans())
    phase = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))
    ig = Interferogram(phase, _counts(data.draw, n, integer), _counts(data.draw, n, integer))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ig.csv")
        write_interferogram_csv(path, ig)
        back = read_interferogram_csv(path)
    assert back.phase_rad.tobytes() == ig.phase_rad.tobytes()
    counts = np.concatenate([ig.counts_d1, ig.counts_d2]).astype(float)
    exact_int = np.all(counts == np.round(counts)) and counts.max() <= 2.0 ** 53
    for got, want in ((back.counts_d1, ig.counts_d1), (back.counts_d2, ig.counts_d2)):
        assert got.dtype == (np.int64 if exact_int else float)
        assert got.astype(want.dtype).tobytes() == want.tobytes()


_CSV_COUNT = st.one_of(st.integers(0, 10 ** 19).map(str), st.floats(0.0, 1e20).map(repr))
_CSV_HOSTILE = st.sampled_from(["-1", "nan", "inf", "", "x", "1e160", "1e308", "1e999", " 7 ",
                                "1_0", "1.2.3"])


@st.composite
def _csv_row(draw):
    """A phase and two counts; or a blank line, a row with a hostile field,
    or a row with a field too few or too many."""
    row = [repr(draw(st.floats(-1e6, 1e6))), draw(_CSV_COUNT), draw(_CSV_COUNT)]
    change = draw(st.sampled_from(["none"] * 9 + ["blank", "field", "field", "short", "long"]))
    if change == "blank":
        return []
    if change == "field":
        row[draw(st.integers(0, 2))] = draw(_CSV_HOSTILE)
    return row[:2] if change == "short" else row + ["1"] if change == "long" else row


@st.composite
def _csv_lines(draw):
    """An interferogram CSV as lists of fields: a header, mostly right, then rows."""
    right = ["phase_rad", "counts_d1", "counts_d2"]
    header = draw(st.sampled_from([right] * 4 + [[" phase_rad", "counts_d1 ", "counts_d2"],
                                                 right[:2], ["a", *right[1:]]]))
    return [header, *draw(st.lists(_csv_row(), max_size=12))]


@settings(PROPERTY, max_examples=60)
@given(lines=_csv_lines(), data=st.data())
def test_csv_reader_reads_lf_crlf_and_quoted_files_alike(lines, data):
    # a good LF or CRLF file takes the reader's plain-text path, and a file
    # with a quoted field the csv module's: all three give the same arrays
    # and dtypes, or the same error
    quoted = [list(fields) for fields in lines]
    row = data.draw(st.sampled_from([fields for fields in quoted if fields]))
    k = data.draw(st.integers(0, len(row) - 1))
    row[k] = f'"{row[k]}"'
    texts = ["".join(",".join(fields) + end for fields in rows)
             for rows, end in ((lines, "\n"), (lines, "\r\n"), (quoted, "\n"))]
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ig.csv")
        for text in texts:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                ig = read_interferogram_csv(path)
            except CsvFormatError as err:
                results.append(str(err))
            else:
                results.append([(a.dtype, a.tobytes())
                                for a in (ig.phase_rad, ig.counts_d1, ig.counts_d2)])
    assert results[1] == results[0] and results[2] == results[0], texts


# texts that the good files of a block share, as a scan's files share phases
_CSV_SHARED = st.sampled_from(["0", "-0", "3", "0.5", "12.566370614359172", "1e+17", "1.5e-05"])


@st.composite
def _csv_file(draw):
    """A CSV of _csv_lines or, three times in four, a good one whose fields
    are often _CSV_SHARED; written as LF, as CRLF, or as LF with one field
    quoted."""
    if draw(st.integers(0, 3)):
        field = st.one_of(_CSV_SHARED, _CSV_COUNT)
        lines = [["phase_rad", "counts_d1", "counts_d2"],
                 *draw(st.lists(st.lists(field, min_size=3, max_size=3), min_size=1, max_size=12))]
    else:
        lines = [list(fields) for fields in draw(_csv_lines())]
    form = draw(st.sampled_from(["\n", "\r\n", "quoted"]))
    if form == "quoted":
        row = draw(st.sampled_from([fields for fields in lines if fields]))
        k = draw(st.integers(0, len(row) - 1))
        row[k] = f'"{row[k]}"'
    return "".join(",".join(fields) + ("\n" if form == "quoted" else form) for fields in lines)


@settings(PROPERTY, max_examples=60)
@given(texts=st.lists(_csv_file(), min_size=1, max_size=6))
def test_block_read_is_each_file_read_alone(texts):
    # a block's files are parsed together, yet each file reads as it reads
    # alone, whatever the order and the split, and the first bad file raises;
    # each block is also read after a file of one repeated row, whose fields
    # make the block's texts repeat, so that each distinct text is parsed once
    def read(block):
        try:
            return read_interferogram_block(block)
        except CsvFormatError as err:
            return str(err)

    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"ig{k}.csv") for k in range(len(texts))]
        alone = {}
        for path, text in zip(paths, texts):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            try:
                ig = read_interferogram_csv(path)
                alone[path] = (ig.phase_rad, ig.counts_d1, ig.counts_d2)
            except CsvFormatError as err:
                alone[path] = str(err)
        repeated = os.path.join(tmp, "repeated.csv")
        with open(repeated, "w", encoding="utf-8") as fh:
            fh.write("phase_rad,counts_d1,counts_d2\n" + "0,1,1\n" * 400)
        for block, pad in itertools.product((paths, paths[::-1], *([path] for path in paths)),
                                            ([], [repeated])):
            got = read(pad + block)
            first_bad = next((alone[path] for path in block if isinstance(alone[path], str)), None)
            if first_bad is not None or isinstance(got, str):
                assert got == first_bad, texts
                continue
            for path, data in zip(block, got[len(pad):]):
                assert data.shape == (len(alone[path][0]), 3) and data.dtype == float, texts
                for column, want in zip(data.T, alone[path]):
                    # int64 counts are the exact integers read as floats
                    assert column.astype(want.dtype).tobytes() == want.tobytes(), texts


_REPORTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


def _same_report(got, want):
    """got is the JSON reading of want: finite floats come back with the
    same bits, non-finite floats as their strings."""
    if isinstance(want, float):
        if not math.isfinite(want):
            return got == format_float(want)
        return isinstance(got, (int, float)) and not isinstance(got, bool) and \
            float(got).hex() == want.hex()
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            _same_report(g, w) for g, w in zip(got, want))
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _same_report(got[k], want[k]) for k in want)
    return type(got) is type(want) and got == want


@settings(PROPERTY, max_examples=200, phases=[Phase.explicit, Phase.generate])
@given(report=_REPORTS)
@example(report={"zero": -0.0, "values": [1.0, 1e16, 1e17, 5e-324, math.inf, math.nan]})
def test_json_report_round_trip_is_exact(report):
    text = dumps_json(report)
    back = json.loads(text)
    assert _same_report(back, report)
    assert dumps_json(back) == text


# the kinds of item a column may hold, pass-through JSON text among them
_ITEMS = (st.floats(), st.floats().map(np.float64), st.integers(),
          st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.booleans(), st.none(), st.text(),
          _REPORTS.map(lambda report: JsonText(dumps_json(report)[:-1])))
_ARRAY_ITEMS = ((st.floats(), float), (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
                (st.booleans(), bool))


@st.composite
def _columns(draw, rows=None, nested=True):
    """Equal-length columns: lists of one kind of item or of several, arrays,
    and (unless nested is False) dicts of columns."""
    rows = draw(st.integers(0, 4)) if rows is None else rows

    def column():
        sized = {"min_size": rows, "max_size": rows}
        shape = draw(st.sampled_from(("one kind", "mixed", "array", "dict")[:4 if nested else 3]))
        if shape == "one kind":
            return draw(st.lists(draw(st.sampled_from(_ITEMS)), **sized))
        if shape == "mixed":
            return draw(st.lists(st.one_of(_ITEMS), **sized))
        if shape == "array":
            items, dtype = draw(st.sampled_from(_ARRAY_ITEMS))
            return np.array(draw(st.lists(items, **sized)), dtype=dtype)
        return draw(_columns(rows, nested=False))

    return {key: column() for key in draw(st.lists(st.text(), min_size=1, max_size=4,
                                                   unique=True))}


def _row(columns: dict, i: int) -> dict:
    """Row i of columns as a dict, an array's items read through tolist()."""
    return {key: _row(column, i) if isinstance(column, dict)
            else column.tolist()[i] if isinstance(column, np.ndarray) else column[i]
            for key, column in columns.items()}


def _height(columns: dict) -> int:
    first = next(iter(columns.values()))
    return _height(first) if isinstance(first, dict) else len(first)


_EDGES = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 0.1]


@settings(PROPERTY, max_examples=200, phases=[Phase.explicit, Phase.generate])
@given(columns=_columns())
@example(columns={
    "float": _EDGES, "np.float64": list(map(np.float64, _EDGES)), "array": np.array(_EDGES),
    "mixed": [0, -1, 2 ** 70, True, False, None, 7, 3.0], "np.int64": [np.int64(-2 ** 63)] * 8,
    'k"\\\n\x00': ['"', "\\", "\n\x1f", "\x7f é", "", "null", "1", "-0"],
    "nested": {"text": [JsonText('{"x":[1,-0.0,"nan"]}'), JsonText("null")] * 4,
               "bool": np.array([True, False] * 4)},
    # keys that hold the format string's "%", beside columns that it writes as %.17g
    "%": np.array([0.1, 1 / 3, 3.4e38, 1e-45, -2.5, 0.0, 16777217.0, -7.0], dtype=np.float32),
    "%s": np.array([0.1, -1e300, 5e-324, 1 / 3, 0.0, 2.0 ** 53 + 2, -2.5e-310, -0.0]),
    "a%%b": np.array([1.5, 3.0, math.nan, math.inf, -math.inf, 0.0, 1e-300, -2.0]),
    "%%": np.array(["1e400", "-1e-400", "0.1", "-0.5", "1e-30", "7", "3e38", "0"],
                   dtype=np.longdouble)})
def test_encode_columns_writes_each_row_as_dumps_json(columns):
    texts = encode_columns(columns)
    assert len(texts) == _height(columns)
    assert all(type(text) is JsonText for text in texts)
    assert [text + "\n" for text in texts] == [dumps_json(_row(columns, i))
                                               for i in range(len(texts))]
