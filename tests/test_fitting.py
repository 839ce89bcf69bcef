import math

import numpy as np
import pytest

from darkport.config import ExperimentConfig
from darkport.fitting import (
    FIT_BLOCK_ROWS,
    FitInputError,
    FitResult,
    InvalidFitError,
    NormalizedFringe,
    _fit_block,
    _fitted_detectors,
    _jacobian,
    _mirror,
    _model,
    _one_row,
    _solve_rows,
    fit_interferograms,
    fit_sinusoid,
    fit_sinusoids,
    normalize,
    propagate,
    visibility_from_fit,
)
from darkport.interferometer import SagnacModel
from darkport.photonsim import (
    Interferogram,
    ScanConfig,
    simulate_campaign,
    simulate_interferogram,
)


class FakeInterferogram:
    def __init__(self, phase, d1, d2):
        self.phase_rad = np.asarray(phase, dtype=float)
        self.counts_d1 = np.asarray(d1, dtype=float)
        self.counts_d2 = np.asarray(d2, dtype=float)


def make_fringe(params, n=100, sigma=1e-3, x_max=4.0 * math.pi):
    x = np.linspace(0.0, x_max, n)
    y = _model(x, np.asarray(params, dtype=float))
    return x, y, NormalizedFringe(phase=x, ratio=y,
                                  sigma=np.full(n, sigma), detector=1)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(31)
    x = np.linspace(0.0, 4.0 * math.pi, 25)
    h = 1e-6
    for _ in range(20):
        params = np.array([rng.uniform(0.05, 0.5), rng.uniform(0.5, 2.0),
                           rng.uniform(0.0, math.pi), rng.uniform(0.1, 0.6)])
        jac = _jacobian(x, params)
        for k in range(4):
            dp = np.zeros(4)
            dp[k] = h
            num = (_model(x, params + dp) - _model(x, params - dp)) / (2.0 * h)
            assert np.allclose(jac[:, k], num, rtol=1e-6, atol=1e-8)


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
    fits = fit_sinusoids([drift, nyquist_fringe])
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


def test_visibility_from_fit_examples():
    _, _, fringe = make_fringe((0.076, 1.0, 0.3, 0.462))
    fit = fit_sinusoid(fringe)
    v = visibility_from_fit(fit)
    assert math.isclose(v.value, 0.076 / (0.076 + 2 * 0.462), rel_tol=1e-6)
    assert v.sigma > 0.0
    assert v == fit.visibility


def test_visibility_extremes():
    _, _, dark = make_fringe((0.5, 1.0, 0.3, 0.0))
    fit = fit_sinusoid(dark)
    assert math.isclose(fit.visibility.value, 1.0, rel_tol=1e-6)
    _, _, flat = make_fringe((0.0, 1.0, 0.3, 0.5))
    fit = fit_sinusoid(flat)
    assert fit.visibility.value < 1e-6


def test_visibility_rejects_zero_denominator():
    _, _, fringe = make_fringe((0.076, 1.0, 0.3, 0.462))
    fit = fit_sinusoid(fringe)
    from dataclasses import replace
    broken = replace(fit, amplitude=0.0, offset=0.0)
    with pytest.raises(InvalidFitError):
        visibility_from_fit(broken)


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
    y = _model(x, np.array([0.076, 1.0, 0.3, 0.462]))
    e = rng.normal(scale=1e-3, size=x.size)
    s = np.full(x.size, 1e-3)
    f1 = NormalizedFringe(phase=x, ratio=y + e, sigma=s, detector=1)
    f2 = NormalizedFringe(phase=x, ratio=y + 2.0 * e, sigma=s, detector=1)
    s1 = fit_sinusoid(f1).sigma_amplitude
    s2 = fit_sinusoid(f2).sigma_amplitude
    assert math.isclose(s2 / s1, 2.0, rel_tol=0.05)


def test_fit_result_model_reproduces_curve():
    truth = (0.076, 1.0, 0.3, 0.462)
    x, y, fringe = make_fringe(truth)
    fit = fit_sinusoid(fringe)
    assert np.allclose(fit.model(x), y, atol=1e-7)
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

def _same_fit(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in FitResult.__dataclass_fields__)


def _hard_fringes():
    """At 0.65 counts a step, detector 1 is not converged (its f drifts
    below the band) and detector 2 fits A + 2B < 0."""
    model = ExperimentConfig().build_pair()[0]
    ig = simulate_interferogram(model, ScanConfig(mean_counts_per_step=5.0), seed=(5, 67))
    return normalize(ig, detector=1), normalize(ig, detector=2)


def _mixed_fringes():
    """Bright default-scan fringes with every fourth a hard low-count fit, whose
    steps are often rejected; a shorter, a flat and an exact fringe in between."""
    bright = (SagnacModel(visibility_v=0.9992774), ScanConfig())
    faint = (ExperimentConfig().build_pair()[0], ScanConfig(mean_counts_per_step=200.0))
    fringes = [normalize(simulate_interferogram(*(faint if k % 4 == 1 else bright),
                                                seed=(71, k)), detector=1 + k % 2)
               for k in range(FIT_BLOCK_ROWS + 5)]
    fringes.insert(3, make_fringe((0.2, 1.3, 0.7, 0.3), n=60)[2])
    fringes.insert(9, NormalizedFringe(phase=np.linspace(0, 4 * math.pi, 100),
                                       ratio=np.full(100, 0.5), sigma=np.full(100, 1e-3)))
    fringes.insert(20, make_fringe((0.076, 1.0, 0.3, 0.462))[2])
    return fringes


def test_fit_is_identical_alone_and_in_a_mixed_block():
    fringes = _mixed_fringes()
    together = fit_sinusoids(fringes)
    assert len(together) == len(fringes)
    for fringe, result in zip(fringes, together):
        assert _same_fit(fit_sinusoids([fringe])[0], result)
        assert _same_fit(fit_sinusoid(fringe), result)
    assert fit_sinusoids([]) == []


def test_failing_rows_leave_their_neighbours_unchanged():
    capped, invalid = _hard_fringes()
    fit = fit_sinusoids([capped])[0]
    assert not fit.converged
    with pytest.raises(InvalidFitError):
        fit_sinusoid(invalid)
    short = NormalizedFringe(phase=np.arange(5.0), ratio=np.full(5, 0.5), sigma=np.full(5, 0.1))
    with pytest.raises(FitInputError):
        fit_sinusoid(short)

    good = _mixed_fringes()
    alone = fit_sinusoids(good)
    mixed = good[:4] + [capped, invalid, short] + good[4:]
    results = fit_sinusoids(mixed)
    assert isinstance(results[5], InvalidFitError)
    assert isinstance(results[6], FitInputError)
    assert _same_fit(results[4], fit)
    for expected, got in zip(alone, results[:4] + results[7:]):
        assert _same_fit(expected, got)


def test_singular_solve_costs_only_its_own_row():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(3, 4, 4))
    lhs = m @ m.swapaxes(1, 2) + np.eye(4)
    lhs[1] = 0.0
    rhs = rng.normal(size=(3, 4))
    step, solved = _solve_rows(lhs, rhs)
    assert solved.tolist() == [True, False, True]
    assert np.all(step[1] == 0.0)
    for i in (0, 2):
        alone, _ = _solve_rows(lhs[i:i + 1], rhs[i:i + 1])
        assert np.array_equal(step[i], alone[0])


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
    for fringe, fit in zip(fringes, fit_sinusoids(fringes)):
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
    fit = _fit_block(fringe.phase[None], fringe.ratio[None], fringe.sigma[None],
                     np.array([fringe.n_excluded]))
    mirrored = _mirror(*fit)
    (params, cov, *rest), (mirrored_params, mirrored_cov, *mirrored_rest) = fit, mirrored
    a, f, p, b = params[0]
    assert mirrored_params[0].tolist() == [a, f, math.fmod(p + 0.5 * math.pi, math.pi),
                                           1.0 - a - b]
    t = np.eye(4)
    t[3] = [-1.0, 0.0, 0.0, -1.0]
    assert np.array_equal(mirrored_cov[0], t @ cov[0] @ t.T)
    # converged, iterations, residual_norm, n_points, n_excluded
    for got, want in zip(mirrored_rest, rest, strict=True):
        assert np.array_equal(got, want)
    assert np.allclose(_model(fringe.phase, mirrored_params[0]), 1.0 - _model(fringe.phase, params[0]),
                       rtol=0.0, atol=1e-15)
    twice = _mirror(*mirrored)
    assert np.allclose(twice[0], params, rtol=1e-15, atol=1e-15)
    assert np.allclose(twice[1], cov, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("counts", [20000.0, 200.0, 20.0])
def test_mirrored_fit_matches_an_independent_fit_of_the_other_detector(counts):
    # both fits stop once a step gains less than 1e-10 of chi^2, so they
    # agree to a small fraction of a sigma rather than to the last bit; the
    # linear part of the fit is exact, so both find the same minimum
    pair = ExperimentConfig().build_pair()
    scan = ScanConfig(mean_counts_per_step=counts)
    igs = [simulate_interferogram(pair[k % 2], scan, seed=(17, k)) for k in range(100)]
    others = [3 - int(_fitted_detectors(*_one_row(ig)[1:])[0]) for ig in igs]
    assert 20 < others.count(1) < 80  # both detectors get mirrored
    compared = 0
    for ig, other, fits in zip(igs, others, fit_interferograms(igs)):
        got, want = fits[other - 1], fit_sinusoids([normalize(ig, detector=other)])[0]
        assert type(got) is type(want)
        if not isinstance(got, FitResult):
            continue
        compared += 1
        assert got.converged == want.converged
        assert abs(got.visibility.value - want.visibility.value) <= 1e-6 * want.visibility.sigma
        assert abs(got.visibility.sigma - want.visibility.sigma) <= 1e-2 * want.visibility.sigma
        assert abs(got.amplitude - want.amplitude) <= 1e-3 * want.sigma_amplitude
        assert abs(got.frequency - want.frequency) <= 1e-3 * want.sigma_frequency
        dp = (got.phase - want.phase + 0.5 * math.pi) % math.pi - 0.5 * math.pi
        assert abs(dp) <= 1e-3 * want.sigma_phase
        assert abs(got.offset - want.offset) <= 1e-3 * want.sigma_offset
    assert compared >= 90


def test_invalid_fitted_detector_can_have_a_valid_mirror():
    # detector 1 reads 1 at x = pi (mod 2 pi) with a million counts a step
    # and 0 at x = 2 pi/3 and 4 pi/3 (mod 2 pi) with one count: 4 sin^2(x/2) - 3
    # fits it exactly, with A + 2B = -2.  Detector 2 is 4 sin^2(x/2 + pi/2), V = 1.
    turns = 2.0 * math.pi * np.arange(4)
    phase = np.sort(np.concatenate([turns + math.pi, turns + 2.0 * math.pi / 3.0,
                                    turns + 4.0 * math.pi / 3.0]))
    bright = np.isclose(np.cos(phase), -1.0)
    ig = Interferogram(phase, np.where(bright, 10 ** 6, 0), np.where(bright, 0, 1))
    assert _fitted_detectors(*_one_row(ig)[1:])[0] == 1
    with pytest.raises(InvalidFitError):
        fit_sinusoid(normalize(ig, detector=1))
    [(d1, d2)] = fit_interferograms([ig])
    assert isinstance(d1, InvalidFitError)
    assert isinstance(d2, FitResult) and d2.converged
    assert d2.amplitude == pytest.approx(4.0, rel=1e-9)
    assert abs(d2.offset) < 1e-9
    assert d2.visibility.value == 1.0
    assert fit_sinusoid(normalize(ig, detector=2)).visibility.value == 1.0

