import math
import re

import numpy as np
import pytest

from darkport.config import ExperimentConfig
from darkport import analysis, fitting
from darkport.fitting import (
    FitInputError,
    FitResult,
    InvalidFitError,
    NormalizedFringe,
    _chi2_bound,
    _error,
    _fit_block,
    _fit_rows,
    _fits,
    _fitted_detectors,
    _outcomes,
    fit_interferograms,
    fit_sinusoid,
    normalize,
    propagate,
)
from darkport.interferometer import SagnacModel
from darkport.photonsim import (
    Interferogram,
    ScanConfig,
    expected_rates,
    simulate_campaign,
    simulate_interferogram,
)

from helpers import known_fit, same_fit


class FakeInterferogram:
    def __init__(self, phase, d1, d2):
        self.phase_rad = np.asarray(phase, dtype=float)
        self.counts_d1 = np.asarray(d1, dtype=float)
        self.counts_d2 = np.asarray(d2, dtype=float)


def model(x, params):
    """A sin^2(f x + p) + B at the phases x, for params (A, f, p, B)."""
    a, f, p, b = params
    return a * np.sin(f * x + p) ** 2 + b


def make_fringe(params, n=100, sigma=1e-3, x_max=4.0 * math.pi):
    x = np.linspace(0.0, x_max, n)
    y = model(x, params)
    return x, y, NormalizedFringe(phase=x, ratio=y,
                                  sigma=np.full(n, sigma), detector=1)


def jacobian(x, params):
    """d (A sin^2(f x + p) + B) / d (A, f, p, B) at the phases x, shape (n, 4)."""
    a, f, p, _ = params
    s = np.sin(f * x + p)
    s2 = np.sin(2.0 * (f * x + p))
    return np.stack([s * s, a * x * s2, a * s2, np.ones_like(s)], axis=-1)


def _inverse_jtwj(fit, fringe, fitted):
    """pinv(J^T W J) over the parameters fitted (indices into (A, f, p, B)) at
    the fit, times chi2 / (n - len(fitted)), with zeros for the others."""
    params = (fit.amplitude, fit.frequency, fit.phase, fit.offset)
    jac = jacobian(fringe.phase, params)[:, fitted]
    w = 1.0 / (fringe.sigma * fringe.sigma)
    cov = np.zeros((4, 4))
    cov[np.ix_(fitted, fitted)] = (np.linalg.pinv(jac.T @ (w[:, None] * jac))
                                   * fit.residual_norm ** 2 / (fringe.n_points - len(fitted)))
    return cov


def test_covariance_is_the_scaled_inverse_of_jtwj():
    # the analytic Jacobian of the sin^2 model against central differences
    rng = np.random.default_rng(31)
    x = np.linspace(0.0, 4.0 * math.pi, 25)
    h = 1e-6
    for _ in range(20):
        params = np.array([rng.uniform(0.05, 0.5), rng.uniform(0.5, 2.0),
                           rng.uniform(0.0, math.pi), rng.uniform(0.1, 0.6)])
        jac = jacobian(x, params)
        for k in range(4):
            dp = np.zeros(4)
            dp[k] = h
            num = (model(x, params + dp) - model(x, params - dp)) / (2.0 * h)
            assert np.allclose(jac[:, k], num, rtol=1e-6, atol=1e-8)

    def close(fit, fringe, fitted):
        want = _inverse_jtwj(fit, fringe, fitted)
        sigma = np.sqrt(np.diag(want))
        assert np.all(np.abs(fit.covariance - want) <= 1e-9 * np.outer(sigma, sigma))

    # the known-f fits of both detectors, (A, p, B) with f's row and column 0
    pair = ExperimentConfig().build_pair()
    compared = 0
    for counts in (20.0, 200.0, 2000.0, 20000.0):
        scan = ScanConfig(mean_counts_per_step=counts)
        igs = [simulate_interferogram(pair[k % 2], scan, seed=(29, k)) for k in range(10)]
        for ig, fits in zip(igs, fit_interferograms(igs)):
            for detector, fit in enumerate(fits, start=1):
                if isinstance(fit, FitResult):
                    close(fit, normalize(ig, detector=detector), [0, 2, 3])
                    compared += 1
    assert compared >= 75
    # the free-f fit, all four
    for counts in (200.0, 20000.0):
        ig = simulate_interferogram(pair[1], ScanConfig(mean_counts_per_step=counts), seed=(29, 1))
        fringe = normalize(ig)
        close(fit_sinusoid(fringe), fringe, [0, 1, 2, 3])
    _, _, fringe = make_fringe((0.2, 1.3, 0.7, 0.3), sigma=2e-3)
    noisy = NormalizedFringe(phase=fringe.phase, sigma=fringe.sigma, ratio=fringe.ratio
                             + np.random.default_rng(30).normal(scale=2e-3, size=100))
    close(fit_sinusoid(noisy), noisy, [0, 1, 2, 3])


def test_noiseless_round_trip():
    truth = (0.076, 1.0, 0.3, 0.462)
    _, _, fringe = make_fringe(truth)
    fit = fit_sinusoid(fringe)
    assert fit.converged
    assert abs(fit.amplitude - truth[0]) < 1e-6 * truth[0]
    assert abs(fit.frequency - truth[1]) < 1e-6
    assert abs(fit.phase - truth[2]) < 1e-6
    assert abs(fit.offset - truth[3]) < 1e-6 * truth[3]
    assert not fit.low_signal


def test_phase_conventions_are_equivalent():
    # sin^2 is pi-periodic in p and even under (f, p) -> (-f, -p); both
    # parameterizations must fit to the same canonical representative
    base = (0.2, 1.3, 0.7, 0.3)
    _, _, fringe1 = make_fringe(base)
    _, _, fringe2 = make_fringe((0.2, 1.3, 0.7 + math.pi, 0.3))
    fit1 = fit_sinusoid(fringe1)
    fit2 = fit_sinusoid(fringe2)
    assert abs(fit1.phase - fit2.phase) < 1e-6
    assert 0.0 <= fit1.phase < math.pi
    assert abs(fit1.visibility.value - fit2.visibility.value) < 1e-9


def test_fit_visibility_equals_contrast():
    # V = A/(A+2B) is (max-min)/(max+min) of the model curve
    truth = (0.11, 0.9, 0.25, 0.37)
    x, y, fringe = make_fringe(truth, n=400, x_max=8.0 * math.pi)
    fit = fit_sinusoid(fringe)
    contrast = (y.max() - y.min()) / (y.max() + y.min())
    assert abs(fit.visibility.value - contrast) < 1e-6


def test_fit_on_poisson_data_is_unbiased_enough():
    scan = ScanConfig(rng_seed=57)
    model = SagnacModel(visibility_v=0.9992774)
    truth = 0.03800891802248566  # sqrt(1 - v^2)
    pulls = []
    for k in range(60):
        ig = simulate_interferogram(model, scan, seed=(57, k))
        fit = fit_sinusoid(normalize(ig))
        assert fit.converged
        v = fit.visibility
        pulls.append((v.value - truth) / v.sigma)
    pulls = np.asarray(pulls)
    assert abs(np.mean(pulls)) < 0.5
    assert 0.6 < np.std(pulls) < 1.4


def test_covariance_is_symmetric_positive():
    _, _, fringe = make_fringe((0.076, 1.0, 0.3, 0.462), sigma=2e-3)
    fit = fit_sinusoid(fringe)
    cov = fit.covariance
    assert cov.shape == (4, 4)
    assert np.allclose(cov, cov.T, rtol=1e-10)
    eigvals = np.linalg.eigvalsh(cov)
    assert eigvals.min() >= -1e-18


def test_flat_data_converges_low_signal():
    n = 50
    fringe = NormalizedFringe(phase=np.linspace(0, 4 * math.pi, n),
                              ratio=np.full(n, 0.5),
                              sigma=np.full(n, 1e-3), detector=1)
    fit = fit_sinusoid(fringe)
    assert fit.converged
    assert fit.low_signal
    assert abs(fit.amplitude) < 1e-6
    assert abs(fit.offset - 0.5) < 1e-9


def test_fringes_the_scan_does_not_resolve_are_not_converged():
    # the band runs from FFT bin 1 up to half a bin below the Nyquist
    # frequency: a drift of a fifth of a fringe over the scan lies below it,
    # and an alternation from step to step sits on the Nyquist frequency
    x = np.linspace(0.0, 4.0 * math.pi, 100)
    nyquist = 0.5 * math.pi / (x[1] - x[0])
    _, _, drift = make_fringe((0.3, 0.055, 0.4, 0.2))
    _, alternation, nyquist_fringe = make_fringe((0.4, nyquist, 0.3, 0.3))
    assert np.allclose(alternation[::2], alternation[0]) and np.allclose(alternation[1::2],
                                                                       alternation[1])
    fits = [fit_sinusoid(fringe) for fringe in (drift, nyquist_fringe)]
    for fit in fits:
        assert isinstance(fit, FitResult)
        assert not fit.converged
    # a fit whose f falls below the band stops there rather than run on toward 0
    assert fits[0].iterations <= 3


def test_normalize_basic():
    phase = np.linspace(0.0, 4.0 * math.pi, 12)
    ig = FakeInterferogram(phase, np.full(12, 30.0), np.full(12, 30.0))
    fringe = normalize(ig)
    assert np.allclose(fringe.ratio, 0.5)
    assert np.allclose(fringe.sigma, np.sqrt(0.25 / 60.0))
    assert fringe.n_excluded == 0
    assert fringe.n_points == 12
    assert fringe.detector == 1


def test_normalize_detector_two_is_complementary():
    phase = np.linspace(0.0, 4.0 * math.pi, 10)
    d1 = np.arange(10.0) + 5.0
    d2 = np.full(10, 20.0)
    f1 = normalize(FakeInterferogram(phase, d1, d2), detector=1)
    f2 = normalize(FakeInterferogram(phase, d1, d2), detector=2)
    assert np.allclose(f1.ratio + f2.ratio, 1.0)
    assert f2.detector == 2
    with pytest.raises(ValueError):
        normalize(FakeInterferogram(phase, d1, d2), detector=3)


def test_normalize_floors_sigma_at_saturated_points():
    phase = np.linspace(0.0, 4.0 * math.pi, 10)
    d1 = np.full(10, 40.0)
    d2 = np.zeros(10)
    fringe = normalize(FakeInterferogram(phase, d1, d2))
    assert np.allclose(fringe.ratio, 1.0)
    assert np.allclose(fringe.sigma, 1.0 / 42.0)


def test_normalize_excludes_zero_total_steps():
    phase = np.linspace(0.0, 4.0 * math.pi, 12)
    d1 = np.full(12, 25.0)
    d2 = np.full(12, 25.0)
    d1[[2, 7]] = 0.0
    d2[[2, 7]] = 0.0
    fringe = normalize(FakeInterferogram(phase, d1, d2))
    assert fringe.n_points == 10
    assert fringe.n_excluded == 2
    assert not np.isin(phase[[2, 7]], fringe.phase).any()


def test_normalize_rejects_too_few_points():
    phase = np.linspace(0.0, 4.0 * math.pi, 12)
    d1 = np.zeros(12)
    d2 = np.zeros(12)
    d1[:7] = 10.0
    with pytest.raises(FitInputError):
        normalize(FakeInterferogram(phase, d1, d2))


def test_normalize_rejects_points_spanning_less_than_a_fringe():
    phase = np.linspace(0.0, 4.0 * math.pi, 20)
    d1 = np.full(20, 25.0)
    d2 = np.full(20, 25.0)
    d1[9:] = d2[9:] = 0.0  # the 9 points with counts span 32/19 pi
    with pytest.raises(FitInputError, match="one full fringe"):
        normalize(FakeInterferogram(phase, d1, d2))
    # too few points is reported first, with its own message
    with pytest.raises(FitInputError, match="at least 8 points"):
        normalize(FakeInterferogram(phase[:12] / 10.0, np.zeros(12), np.zeros(12)))
    exact = np.linspace(0.0, 2.0 * math.pi, 12)
    assert normalize(FakeInterferogram(exact, np.full(12, 30.0), np.full(12, 20.0))).n_points == 12


def test_normalized_fringe_validation():
    x = np.linspace(0, 7, 10)
    with pytest.raises(ValueError):
        NormalizedFringe(phase=x, ratio=np.full(10, 1.5), sigma=np.full(10, 0.1))
    with pytest.raises(ValueError):
        NormalizedFringe(phase=x, ratio=np.full(10, 0.5), sigma=np.zeros(10))
    with pytest.raises(ValueError):
        NormalizedFringe(phase=x, ratio=np.full(9, 0.5), sigma=np.full(10, 0.1))
    # NaN fails every comparison, so each check must be written to catch it
    nan = np.full(10, np.nan)
    with pytest.raises(ValueError, match="phases must be finite"):
        NormalizedFringe(phase=nan, ratio=np.full(10, 0.5), sigma=np.full(10, 0.1))
    with pytest.raises(ValueError, match="ratios"):
        NormalizedFringe(phase=x, ratio=nan, sigma=np.full(10, 0.1))
    with pytest.raises(ValueError, match="sigmas"):
        NormalizedFringe(phase=x, ratio=np.full(10, 0.5), sigma=nan)
    with pytest.raises(ValueError, match="sigmas"):
        NormalizedFringe(phase=x, ratio=np.full(10, 0.5), sigma=np.full(10, np.inf))
    with pytest.raises(ValueError, match="phases must be finite"):
        NormalizedFringe(phase=np.append(x[:-1], np.inf), ratio=np.full(10, 0.5),
                         sigma=np.full(10, 0.1))


def test_fit_visibility_examples():
    _, _, fringe = make_fringe((0.076, 1.0, 0.3, 0.462))
    fit = fit_sinusoid(fringe)
    v = fit.visibility
    assert math.isclose(v.value, 0.076 / (0.076 + 2 * 0.462), rel_tol=1e-6)
    assert v.sigma > 0.0
    # the sigma is propagated from the (A, B) block of the covariance
    d = fit.amplitude + 2.0 * fit.offset
    grad = np.array([2.0 * fit.offset, -2.0 * fit.amplitude]) / (d * d)
    assert math.isclose(v.sigma, propagate(grad, fit.covariance[0::3, 0::3]), rel_tol=1e-12)


def test_visibility_extremes():
    _, _, dark = make_fringe((0.5, 1.0, 0.3, 0.0))
    fit = fit_sinusoid(dark)
    assert math.isclose(fit.visibility.value, 1.0, rel_tol=1e-6)
    _, _, flat = make_fringe((0.0, 1.0, 0.3, 0.5))
    fit = fit_sinusoid(flat)
    assert fit.visibility.value < 1e-6


def test_visibility_rejects_zero_denominator():
    # A + 2B is 2 c0
    [(broken,)] = _outcomes(_fits(20, 17, np.array([0.5]), (np.array([[0.0, 0.1, 0.2]]),),
                                  np.eye(4)[None], np.array([1.0]), np.array([True]),
                                  np.array([0])))
    assert isinstance(broken, InvalidFitError)
    assert str(broken) == "A + 2B must be positive, got 0.0"


def test_propagate_examples():
    assert propagate(np.array([1.0]), np.array([[1.0]])) == 1.0
    assert propagate(np.zeros(3), np.eye(3)) == 0.0
    got = propagate(np.array([1.0, 2.0]), np.diag([0.04, 0.09]))
    assert math.isclose(got, math.sqrt(0.04 + 4 * 0.09), rel_tol=1e-12)
    with pytest.raises(ValueError):
        propagate(np.array([1.0, 2.0]), np.eye(3))
    with pytest.warns(UserWarning):
        assert propagate(np.array([1.0]), np.array([[-1e-12]])) == 0.0
    # a stack of gradients: each row as its own call, one warning for the
    # negative form, which alone is clamped
    rng = np.random.default_rng(12)
    grads = rng.normal(size=(6, 3))
    m = rng.normal(size=(6, 3, 3))
    covs = m @ m.swapaxes(1, 2)
    stacked = propagate(grads, covs)
    assert stacked.shape == (6,)
    assert stacked.tolist() == [propagate(g, c) for g, c in zip(grads, covs)]
    with pytest.raises(ValueError):
        propagate(grads, covs[:, :2, :2])
    covs[2] = -1e-12 * np.eye(3)
    with pytest.warns(UserWarning, match="clamping negative quadratic form") as record:
        clamped = propagate(grads, covs)
    assert len(record) == 1
    assert clamped[2] == 0.0
    assert np.delete(clamped, 2).tolist() == np.delete(stacked, 2).tolist()


def test_fit_sigma_tracks_residual_scatter():
    # the covariance is scaled by reduced chi^2, so doubling the actual
    # noise (same realization, same declared sigma) doubles sigma_A up to
    # the nonlinearity of the model
    rng = np.random.default_rng(33)
    x = np.linspace(0.0, 4.0 * math.pi, 100)
    y = model(x, np.array([0.076, 1.0, 0.3, 0.462]))
    e = rng.normal(scale=1e-3, size=x.size)
    s = np.full(x.size, 1e-3)
    f1 = NormalizedFringe(phase=x, ratio=y + e, sigma=s, detector=1)
    f2 = NormalizedFringe(phase=x, ratio=y + 2.0 * e, sigma=s, detector=1)
    s1 = math.sqrt(fit_sinusoid(f1).covariance[0, 0])
    s2 = math.sqrt(fit_sinusoid(f2).covariance[0, 0])
    assert math.isclose(s2 / s1, 2.0, rel_tol=0.05)


def test_fit_result_model_reproduces_curve():
    truth = (0.076, 1.0, 0.3, 0.462)
    x, y, fringe = make_fringe(truth)
    fit = fit_sinusoid(fringe)
    params = np.array([fit.amplitude, fit.frequency, fit.phase, fit.offset])
    assert np.allclose(model(x, params), y, atol=1e-7)
    assert fit.residual_norm < 1e-6
    assert fit.n_points == len(x)


def test_normalize_sorts_a_permuted_scan():
    ig = simulate_interferogram(SagnacModel(visibility_v=0.9992774), ScanConfig(rng_seed=8))
    perm = np.random.default_rng(8).permutation(ig.n_steps)
    shuffled = FakeInterferogram(ig.phase_rad[perm], ig.counts_d1[perm], ig.counts_d2[perm])
    in_order = normalize(ig)
    assert np.array_equal(in_order.phase, ig.phase_rad)  # sorted input is unchanged
    fit = fit_sinusoid(in_order)
    fit_shuffled = fit_sinusoid(normalize(shuffled))
    assert fit.converged and fit_shuffled.converged
    assert abs(fit_shuffled.visibility.value - fit.visibility.value) <= 1e-12
    assert abs(fit.frequency - 0.5) < 0.01


# ---------------------------------------------------------------- batched engine

def _hard_interferogram():
    """On the default scan grid, detector 2 reads -1 - 2 cos x, which is
    4 sin^2(x/2) - 3 with A + 2B = -2, at the steps where that lies in
    [0, 1], with a step-to-step wobble of 0.01, far beyond the binomial
    sigma of a million counts; the other steps have no counts.  Detector 2
    is fitted and gives InvalidFitError, and its mirror on detector 1 is a
    valid fit that is not converged."""
    phase = ScanConfig().phases()
    ratio = -1.0 - 2.0 * np.cos(phase) + 0.01 * (-1.0) ** np.arange(phase.size)
    lit = (ratio >= 0.0) & (ratio <= 1.0)
    d2 = np.where(lit, np.round(1e6 * ratio), 0.0)
    return Interferogram(phase, np.where(lit, 1e6 - d2, 0.0), d2)


def _bright_counts():
    """(phase, d1, d2) of 69 bright default-scan rows, every fourth a faint
    low-count one."""
    bright = (SagnacModel(visibility_v=0.9992774), ScanConfig())
    faint = (ExperimentConfig().build_pair()[0], ScanConfig(mean_counts_per_step=200.0))
    igs = [simulate_interferogram(*(faint if k % 4 == 1 else bright), seed=(71, k))
           for k in range(69)]
    return (igs[0].phase_rad, *(np.stack([getattr(ig, name) for ig in igs]).astype(float)
                                for name in ("counts_d1", "counts_d2")))


def _failing_counts(phase, d1, d2):
    """(d1, d2) rows that do not fit: fewer than 8 points with counts, counts
    spanning less than one fringe, a step total whose weight overflows, and
    _hard_interferogram."""
    fail1, fail2 = d1[:3].copy(), d2[:3].copy()
    fail1[0, 5:] = fail2[0, 5:] = 0.0
    fail1[1, phase >= 1.5 * math.pi] = fail2[1, phase >= 1.5 * math.pi] = 0.0
    fail1[2, 17], fail2[2, 17] = 0.0, 1e160
    hard = _hard_interferogram()
    return np.vstack([fail1, hard.counts_d1[None]]), np.vstack([fail2, hard.counts_d2[None]])


def test_fit_is_identical_alone_and_in_a_mixed_block():
    phase, d1, d2 = _bright_counts()
    # a flat row, an exact row of expected rates, rows with zero-total steps
    # (two shorter kept lengths), the failing rows, and a row whose steps sit
    # at two points of the fringe (mod 2 pi), spread through the block
    exact = expected_rates(SagnacModel(visibility_v=0.9992774), ScanConfig())
    gaps1, gaps2 = d1[2:4].copy(), d2[2:4].copy()
    gaps1[0, 10:20] = gaps2[0, 10:20] = 0.0
    gaps1[1, ::7] = gaps2[1, ::7] = 0.0
    fail1, fail2 = _failing_counts(phase, d1, d2)
    alternating = np.where(np.arange(100) % 2, 70.0, 30.0)
    extra1 = np.vstack([np.full(100, 30.0), exact[0], gaps1, fail1, alternating])
    extra2 = np.vstack([np.full(100, 30.0), exact[1], gaps2, fail2, 100.0 - alternating])
    at = [3, 6, 9, 14, 20, 26, 30, 33, 40]
    d1, d2 = np.insert(d1, at, extra1, axis=0), np.insert(d2, at, extra2, axis=0)
    phase = np.repeat(phase[None], len(d1), axis=0)
    phase[at[-1] + len(at) - 1] = 0.3 + math.pi * np.arange(100)

    together = _outcomes(_fit_rows(phase, d1, d2))
    assert len(together) == len(d1)
    for k, pair in enumerate(together):
        [alone] = _outcomes(_fit_rows(phase[k:k + 1], d1[k:k + 1], d2[k:k + 1]))
        assert all(map(same_fit, alone, pair))
        # the fitted detector's entry is the one-row fit of its normalized fringe
        ig = Interferogram(phase[k], d1[k], d2[k])
        detector = int(_fitted_detectors(ig.counts_d1[None], ig.counts_d2[None])[0])
        try:
            fringe = normalize(ig, detector=detector)
        except FitInputError as err:
            assert all(same_fit(err, outcome) for outcome in pair)
            continue
        assert same_fit(known_fit(fringe)[0], pair[detector - 1])
    outcomes = [outcome for pair in together for outcome in pair]
    messages = [str(o) for o in outcomes if isinstance(o, FitInputError)]
    assert sum("need at least 8 points" in m for m in messages) == 2
    assert sum("span at least one full fringe" in m for m in messages) == 2
    assert sum("three or more points of the fringe" in m for m in messages) == 2
    assert sum(isinstance(o, InvalidFitError) for o in outcomes) == 1
    assert any(isinstance(o, FitResult) and not o.converged for o in outcomes)
    assert {100, 90, 85} <= {o.n_points for o in outcomes if isinstance(o, FitResult)}
    assert _outcomes(_fit_rows(phase[0], np.zeros((0, 100)), np.zeros((0, 100)))) == []


@pytest.mark.parametrize("first", ["default grid", "three points"])
def test_rows_sharing_a_phase_grid_fit_as_they_do_alone(first):
    # default-grid rows, a jittered grid, the default grid with -0.0 for its
    # first phase 0.0, and steps at two points of the fringe (mod 2 pi), the
    # last once at the top and once further down
    phase, d1, d2 = _bright_counts()
    d1, d2 = d1[:12], d2[:12]
    phase = np.repeat(phase[None], len(d1), axis=0)
    assert phase[0, 0] == 0.0
    phase[3, 1:-1] += np.random.default_rng(5).uniform(-0.01, 0.01, phase.shape[1] - 2)
    phase[5, 0] = -0.0
    phase[8] = 0.3 + math.pi * np.arange(phase.shape[1])
    if first == "three points":
        phase[0] = phase[8]
    signs = fitting._shared_rows(lambda rows: np.signbit(rows[:, 0]), phase[:6])
    assert signs.tolist() == [False] * 5 + [True]
    fits = _fit_rows(phase, d1, d2)
    assert (fits["reason"][[0, 8]] == 7).all() == (first == "three points")
    for k in range(len(d1)):
        [alone] = _fit_rows(phase[k:k + 1], d1[k:k + 1], d2[k:k + 1])
        assert fits[k].tobytes() == alone.tobytes()


def test_a_campaign_block_fits_its_phase_grid_once(monkeypatch):
    # every row of a campaign block shares the scan's grid, so its three-point
    # check and cos/sin basis are evaluated on one row
    evaluated, shared_rows = [], fitting._shared_rows

    def spied(func, a):
        def recorded(rows):
            evaluated.append((func is fitting._on_a_line, rows.shape))
            return func(rows)
        return shared_rows(recorded, a)

    monkeypatch.setattr(fitting, "_shared_rows", spied)
    reference, _ = ExperimentConfig().build_pair()
    fits = analysis._slot_fits(reference, 0, ScanConfig(), 11, range(64))
    assert fits["usable"].all()
    assert evaluated == [(True, (1, 100)), (False, (1, 100))]


def test_shared_rows_of_one_grid_read_one_read_only_result():
    # every row shares the first row's bits: each reads the first row's result,
    # as the gather would give it, through one view that nothing can write
    phase = np.repeat(ScanConfig().phases()[None], 5, axis=0)
    gathered = np.cos(phase[:1])[np.zeros(5, dtype=int)]
    shared = fitting._shared_rows(np.cos, phase)
    assert shared.shape == gathered.shape and shared.tobytes() == gathered.tobytes()
    assert not shared.flags.writeable
    assert fitting._shared_rows(np.cos, phase[:1]).tobytes() == np.cos(phase[:1]).tobytes()


def test_rows_that_keep_every_step_normalize_as_they_do_gathered():
    # a block whose rows all keep every step is returned as it is; beside a
    # row with a zero-total step, the same rows are gathered to the same bits
    phase, d1, d2 = _bright_counts()
    phase, d1, d2 = np.repeat(phase[None], 8, axis=0), d1[:8], d2[:8]
    assert (d1 + d2 > 0).all()
    hole = [a[:1].copy() for a in (phase, d1, d2)]
    hole[1][0, 5] = hole[2][0, 5] = 0.0
    _, _, [(rows, *full)] = fitting._normalize_rows(phase, d1, d2, 1)
    _, _, [(mixed_rows, *gathered), _] = fitting._normalize_rows(
        *(np.insert(a, 3, h, axis=0) for a, h in zip((phase, d1, d2), hole)), 1)
    assert rows.tolist() == list(range(8)) and mixed_rows.tolist() == [0, 1, 2, 4, 5, 6, 7, 8]
    assert np.shares_memory(full[0], phase)
    for a, b in zip(full, gathered):  # phase, ratio, sigma and n_excluded
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# the fields of fitting._FIT other than the error objects
_NUMERIC_FIELDS = ("value", "sigma", "usable", "params", "cov", "converged", "residual_norm",
                   "n_points", "n_excluded")


@pytest.mark.parametrize("counts", [20000.0, 200.0, 5.0])
def test_fit_arrays_are_the_outcomes_bit_for_bit(counts):
    # 64 drawn rows, then a row of each failure kind: fewer than 8 points
    # with counts, a span under 2 pi, a weight that overflows, A + 2B <= 0
    # on the fitted side with a chi-square non-converged mirror, and steps
    # at two points of the fringe
    pair = ExperimentConfig().build_pair()
    scan = ScanConfig(mean_counts_per_step=counts)
    igs = [simulate_interferogram(pair[k % 2], scan, seed=(23, k)) for k in range(64)]
    phase = scan.phases()
    d1, d2 = (np.stack([getattr(ig, name) for ig in igs]).astype(float)
              for name in ("counts_d1", "counts_d2"))
    fail1, fail2 = _failing_counts(phase, d1, d2)
    alternating = np.where(np.arange(100) % 2, 70.0, 30.0)
    d1 = np.vstack([d1, fail1, alternating])
    d2 = np.vstack([d2, fail2, 100.0 - alternating])
    phase = np.repeat(phase[None], len(d1), axis=0)
    phase[-1] = 0.3 + math.pi * np.arange(100)

    fits = _fit_rows(phase, d1, d2)
    outcomes = _outcomes(fits)
    seen = []
    for k, (row, row_outcomes) in enumerate(zip(fits, outcomes, strict=True)):
        for fit, outcome in zip(row, row_outcomes, strict=True):
            assert fit["usable"] == (isinstance(outcome, FitResult) and outcome.converged)
            if isinstance(outcome, FitResult):
                visibility = outcome.visibility
                assert (fit["value"].hex(), fit["sigma"].hex()) == (visibility.value.hex(),
                                                                    visibility.sigma.hex())
                params = [outcome.amplitude, outcome.frequency, outcome.phase, outcome.offset]
                assert fit["params"].tobytes() == np.array(params).tobytes()
                assert fit["cov"].tobytes() == outcome.covariance.tobytes()
                seen.append("converged" if outcome.converged else "not converged")
            else:
                assert fit["value"] == fit["sigma"] == 0.0
                seen.append(str(outcome).split(",")[0])
        # the fitted detector's side and the mirrored one are _fit_block's
        detector = int(_fitted_detectors(d1[k:k + 1], d2[k:k + 1])[0])
        try:
            fringe = normalize(Interferogram(phase[k], d1[k], d2[k]), detector=detector)
        except FitInputError:
            continue
        block = _fit_block(fringe.phase[None], fringe.ratio[None], fringe.sigma[None],
                           np.array([fringe.n_excluded]))
        for name in _NUMERIC_FIELDS:
            assert block[0][name].tobytes() == row[[detector - 1, 2 - detector]][name].tobytes()
    for kind in ("need at least 8 points with nonzero total counts",
                 "points with counts must span at least one full fringe (2 pi)",
                 "counts_d1 + counts_d2 above 1e+150 at a step",
                 "points with counts must lie at three or more points of the fringe (mod 2 pi)",
                 "A + 2B must be positive", "not converged", "converged"):
        assert kind in seen
    # swapped columns fit the same detector, which is then detector 2
    swapped = _fit_rows(phase, d2, d1)
    for name in _NUMERIC_FIELDS:
        assert swapped[name].tobytes() == fits[name][:, ::-1].tobytes()


def test_failing_rows_leave_their_neighbours_unchanged():
    hard = _hard_interferogram()
    invalid, not_converged = known_fit(normalize(hard, detector=2))
    assert isinstance(invalid, InvalidFitError) and not not_converged.converged
    short = NormalizedFringe(phase=np.arange(5.0), ratio=np.full(5, 0.5), sigma=np.full(5, 0.1))
    with pytest.raises(FitInputError, match="need at least 8 points, got 5"):
        fit_sinusoid(short)

    phase, d1, d2 = _bright_counts()
    alone = _outcomes(_fit_rows(phase, d1, d2))
    fail1, fail2 = _failing_counts(phase, d1, d2)
    mixed = _outcomes(_fit_rows(phase, np.insert(d1, 4, fail1, axis=0),
                                np.insert(d2, 4, fail2, axis=0)))
    assert all(isinstance(outcome, FitInputError) for pair in mixed[4:7] for outcome in pair)
    assert all("above 1e+150" in str(outcome) for outcome in mixed[6])
    with pytest.raises(FitInputError, match=r"above 1e\+150"):
        normalize(Interferogram(phase, fail1[2], fail2[2]), detector=2)
    [hard_alone] = _outcomes(_fit_rows(phase, hard.counts_d1[None], hard.counts_d2[None]))
    assert all(map(same_fit, mixed[7], hard_alone))
    not_converged, invalid = mixed[7]
    assert not not_converged.converged and isinstance(invalid, InvalidFitError)
    for expected, got in zip(alone, mixed[:4] + mixed[8:], strict=True):
        assert all(map(same_fit, expected, got))
    # rows with no steps at all
    message = "need at least 8 points with nonzero total counts, got 0"
    empty = Interferogram(np.zeros(0), np.zeros(0), np.zeros(0))
    with pytest.raises(FitInputError, match=message):
        normalize(empty)
    assert all(str(fit) == message for pair in _outcomes(_fit_rows(*np.zeros((3, 2, 0))))
               for fit in pair)
    igs = [Interferogram(phase, d1[k], d2[k]) for k in range(3)]
    streamed = list(fit_interferograms([igs[0], empty, *igs[1:], empty]))
    for k in (1, 4):
        assert all(isinstance(fit, FitInputError) and str(fit) == message for fit in streamed[k])
    for expected, got in zip(alone[:3], streamed[:1] + streamed[2:4], strict=True):
        assert all(map(same_fit, expected, got))


def test_fit_interferograms_refuses_what_interferogram_refuses():
    phase, d1, d2 = _bright_counts()
    igs = [FakeInterferogram(phase.copy(), d1[k].copy(), d2[k].copy()) for k in range(7)]
    igs[1].phase_rad[5] = np.inf
    igs[2].phase_rad[5] = np.nan
    igs[3].counts_d1[5] = -1.0
    igs[4].counts_d2[5] = np.nan
    igs[5].counts_d1[7], igs[5].counts_d2[9] = np.inf, -np.inf
    messages = {1: "phase_rad must be finite", 2: "phase_rad must be finite",
                3: "counts_d1 must be finite and non-negative",
                4: "counts_d2 must be finite and non-negative",
                5: "counts_d1 must be finite and non-negative"}
    fitted = list(fit_interferograms(igs))
    for k, message in messages.items():
        ig = igs[k]
        with pytest.raises(ValueError, match=f"^{message}$"):
            Interferogram(ig.phase_rad, ig.counts_d1, ig.counts_d2)
        with pytest.raises(FitInputError, match=f"^{message}$"):
            normalize(ig)
        assert all(isinstance(fit, FitInputError) and str(fit) == message for fit in fitted[k])
    for k in (0, 6):
        [alone] = fit_interferograms([Interferogram(phase, d1[k], d2[k])])
        assert all(map(same_fit, alone, fitted[k]))


# each failure's message before the fit recorded reason codes, one per code
MESSAGES = ("phase_rad must be finite",
            "counts_d1 must be finite and non-negative",
            "counts_d2 must be finite and non-negative",
            "counts_d1 + counts_d2 above 1e+150 at a step, where the fit's weights overflow",
            "need at least 8 points with nonzero total counts, got 7",
            "points with counts must span at least one full fringe (2 pi), got 5.291103416572283",
            "points with counts must lie at three or more points of the fringe (mod 2 pi)",
            "A + 2B must be positive, got -2.0000000000000027")


def test_reason_texts_are_the_messages_of_each_failure():
    details = [0.0, 0.0, 0.0, 0.0, 7.0, 5.291103416572283, 0.0, -2.0000000000000027]
    assert len(fitting._REASONS) == len(MESSAGES)
    for reason, (detail, message) in enumerate(zip(details, MESSAGES), start=1):
        # a numpy detail too, as the fit arrays hold it
        for error in (_error(reason, detail), _error(np.int8(reason), np.float64(detail))):
            assert type(error) is (InvalidFitError if reason == 8 else FitInputError)
            assert str(error) == message
    assert not fitting._FIT.hasobject
    assert not np.zeros(1, fitting._FIT)["reason"].any()


def _breaking(rules):
    """(phase, d1, d2) of a 20-step row over 4 pi that breaks each input rule
    in rules (1-6, the reason codes of _normalize_rows)."""
    phase = np.linspace(0.0, 4.0 * math.pi, 20)
    d1, d2 = np.full(20, 25.0), np.full(20, 25.0)
    if 1 in rules:
        phase[3] = np.nan
    if 2 in rules:
        d1[4] = -1.0
    if 3 in rules:
        d2[5] = np.inf
    if 4 in rules:
        d1[6] = 1e200
    if 5 in rules:  # 7 steps with counts at most
        d1[7:] = d2[7:] = 0.0
    if 6 in rules:  # 9 steps with counts at most, spanning 32/19 pi
        d1[9:] = d2[9:] = 0.0
    return phase, d1, d2


def test_the_first_input_rule_a_row_breaks_names_its_failure():
    pairs = [(low, high) for low in range(1, 7) for high in range(low + 1, 7)]
    rows = [_breaking(pair) for pair in pairs]
    [unbroken] = fit_interferograms([FakeInterferogram(*_breaking(()))])
    assert all(isinstance(fit, FitResult) for fit in unbroken)
    for rule in range(1, 7):  # each rule alone breaks the row
        [fits] = fit_interferograms([FakeInterferogram(*_breaking((rule,)))])
        assert [str(fit) for fit in fits] == [MESSAGES[rule - 1]] * 2
    block = _outcomes(_fit_rows(*(np.stack(a) for a in zip(*rows))))
    for (low, _), row, in_block in zip(pairs, rows, block, strict=True):
        message = MESSAGES[low - 1]
        [streamed] = fit_interferograms([FakeInterferogram(*row)])
        [alone] = _outcomes(_fit_rows(*(a[None] for a in row)))
        for fits in (streamed, alone, in_block):
            assert [(type(fit), str(fit)) for fit in fits] == [(FitInputError, message)] * 2
        for detector in (1, 2):
            with pytest.raises(FitInputError, match=f"^{re.escape(message)}$"):
                normalize(FakeInterferogram(*row), detector)


def _grid_chi2(fringe, grid):
    """Least weighted chi-square of c0 + c1 cos 2fx + c2 sin 2fx at each f of
    grid, by the normal equations of the three columns."""
    x, y = fringe.phase, fringe.ratio
    w = 1.0 / (fringe.sigma * fringe.sigma)
    arg = 2.0 * grid[:, None] * x
    cols = np.stack([np.ones_like(arg), np.cos(arg), np.sin(arg)], axis=-1)
    weighted = cols * w[:, None]
    normal = weighted.swapaxes(1, 2)
    coef = np.linalg.solve(normal @ cols, normal @ y[:, None])
    resid = y - (cols @ coef)[..., 0]
    return np.sum(w * resid * resid, axis=-1)


def test_fits_reach_the_least_chi_square_on_a_dense_frequency_grid():
    cfg = ExperimentConfig()
    runs = simulate_campaign(cfg.build_pair(), cfg.scan, 25, 0)
    fringes = [normalize(ig, detector=d) for run in runs for ig in (run.nim, run.both)
               for d in (1, 2)]
    assert len(fringes) == 100
    for fringe in fringes:
        fit = fit_sinusoid(fringe)
        n = fringe.n_points
        bin_width = math.pi * (n - 1) / (n * (fringe.phase[-1] - fringe.phase[0]))
        # 40 points a bin from bin 1 up to half a bin below the Nyquist bin
        grid = bin_width * np.arange(40, 20 * (n - 1)) / 40.0
        chi2 = _grid_chi2(fringe, grid)
        assert fit.converged
        assert fit.residual_norm ** 2 <= chi2.min() * (1.0 + 1e-9)
        assert abs(fit.frequency - grid[np.argmin(chi2)]) <= grid[1] - grid[0]


# ---------------------------------------------------------------- one fit per interferogram

def test_mirror_is_the_complementary_fringe_in_closed_form():
    ig = simulate_interferogram(ExperimentConfig().build_pair()[1], ScanConfig(), seed=(3, 1))
    fringe = normalize(ig, detector=1)
    fit, mirrored = known_fit(fringe)
    a, f, p, b = params = (fit.amplitude, fit.frequency, fit.phase, fit.offset)
    assert f == 0.5
    mirrored_params = (mirrored.amplitude, mirrored.frequency, mirrored.phase, mirrored.offset)
    assert np.allclose(mirrored_params, [a, f, math.fmod(p + 0.5 * math.pi, math.pi),
                                         1.0 - a - b], rtol=0.0, atol=1e-15)
    # the covariance of (A, f, p + pi/2, 1 - A - B), carried by that linear map
    t = np.eye(4)
    t[3] = [-1.0, 0.0, 0.0, -1.0]
    assert np.allclose(mirrored.covariance, t @ fit.covariance @ t.T, rtol=1e-9,
                       atol=1e-12 * fit.covariance.max())
    for name in ("converged", "iterations", "residual_norm", "n_points", "n_excluded",
                 "low_signal"):
        assert getattr(mirrored, name) == getattr(fit, name)
    assert np.allclose(model(fringe.phase, mirrored_params), 1.0 - model(fringe.phase, params),
                       rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("counts", [20000.0, 200.0, 20.0])
def test_mirrored_fit_matches_an_independent_fit_of_the_other_detector(counts):
    # the fit is linear in (c0, c1, c2), and the other detector's ratios are
    # 1 minus the fitted ones with the same sigmas, so both fits agree to
    # rounding
    pair = ExperimentConfig().build_pair()
    scan = ScanConfig(mean_counts_per_step=counts)
    igs = [simulate_interferogram(pair[k % 2], scan, seed=(17, k)) for k in range(100)]
    others = [3 - int(_fitted_detectors(ig.counts_d1[None], ig.counts_d2[None])[0]) for ig in igs]
    assert 20 < others.count(1) < 80  # both detectors get mirrored
    compared = 0
    for ig, other, fits in zip(igs, others, fit_interferograms(igs)):
        got, want = fits[other - 1], known_fit(normalize(ig, detector=other))[0]
        assert type(got) is type(want)
        compared += 1
        assert got.converged == want.converged
        assert (got.frequency, got.iterations) == (want.frequency, want.iterations) == (0.5, 0)
        assert abs(got.visibility.value - want.visibility.value) <= 1e-9 * want.visibility.sigma
        assert abs(got.visibility.sigma - want.visibility.sigma) <= 1e-9 * want.visibility.sigma
        sigma_amplitude, _, sigma_phase, sigma_offset = np.sqrt(np.diagonal(want.covariance))
        assert abs(got.amplitude - want.amplitude) <= 1e-9 * sigma_amplitude
        dp = (got.phase - want.phase + 0.5 * math.pi) % math.pi - 0.5 * math.pi
        assert abs(dp) <= 1e-9 * sigma_phase
        assert abs(got.offset - want.offset) <= 1e-9 * sigma_offset
    assert compared == 100


def test_invalid_fitted_detector_can_have_a_valid_mirror():
    # detector 1 reads 1 at x = pi (mod 2 pi) with a million counts a step
    # and 0 at x = 2 pi/3 and 4 pi/3 (mod 2 pi) with one count: 4 sin^2(x/2) - 3
    # fits it exactly, with A + 2B = -2.  Detector 2 is 4 sin^2(x/2 + pi/2), V = 1.
    turns = 2.0 * math.pi * np.arange(4)
    phase = np.sort(np.concatenate([turns + math.pi, turns + 2.0 * math.pi / 3.0,
                                    turns + 4.0 * math.pi / 3.0]))
    bright = np.isclose(np.cos(phase), -1.0)
    ig = Interferogram(phase, np.where(bright, 10 ** 6, 0), np.where(bright, 0, 1))
    assert _fitted_detectors(ig.counts_d1[None], ig.counts_d2[None])[0] == 1
    with pytest.raises(InvalidFitError):
        fit_sinusoid(normalize(ig, detector=1))
    [(d1, d2)] = fit_interferograms([ig])
    assert isinstance(d1, InvalidFitError)
    assert isinstance(d2, FitResult) and d2.converged
    assert d2.amplitude == pytest.approx(4.0, rel=1e-9)
    assert abs(d2.offset) < 1e-9
    assert d2.visibility.value == 1.0
    assert fit_sinusoid(normalize(ig, detector=2)).visibility.value == 1.0


def test_chi2_bound_is_the_one_sided_five_sigma_quantile():
    stats = pytest.importorskip("scipy.stats")
    for dof in (5, 6, 10, 30, 97, 200, 1000, 10 ** 4, 10 ** 5):
        # the normal tail beyond 5 sigma is 2.87e-7
        assert 1e-7 <= stats.chi2.sf(_chi2_bound(dof), dof) <= 3e-7, dof
