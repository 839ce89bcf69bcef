import dataclasses
import math

import numpy as np
import pytest

from darkport.analysis import (
    DETECTION_SIGMA,
    RunRecord,
    TooFewFitsError,
    bound_from_campaign,
    campaign_records,
    delta_v_statistics,
    gamma_ratio_distribution,
    records_from_runs,
    sensitivity_sweep,
)
from darkport.interferometer import VisibilityValue, gamma_ratio, theta_bound
from darkport.config import ExperimentConfig
from darkport.photonsim import ScanConfig, simulate_campaign


def lc_only(**kwargs):
    """An LC-only toggle campaign: the empty loop as reference, LC added."""
    return ExperimentConfig(configurations={"off": (), "on": ("lc",)},
                            reference="off", toggled="on", **kwargs)


def record(idx, nim1, nim2, both1, both2, sigma=0.002):
    def vv(x):
        return None if x is None else VisibilityValue(x, sigma)
    return RunRecord(run_index=idx, v_nim_d1=vv(nim1), v_nim_d2=vv(nim2),
                     v_both_d1=vv(both1), v_both_d2=vv(both2))


def test_delta_v_two_values():
    a = 0.004
    rec = record(0, 0.040, 0.040, 0.040 + a, 0.040 - a)
    stats = delta_v_statistics([rec])
    assert stats.n_values == 2
    assert stats.mean == 0.0
    assert math.isclose(stats.std, a * math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(stats.stderr, a, rel_tol=1e-12)


def test_delta_v_requires_two_values():
    rec = record(0, 0.040, None, 0.042, None)
    with pytest.raises(ValueError):
        delta_v_statistics([rec])
    assert rec.is_partial
    assert len(rec.detector_pairs()) == 1


def test_identical_visibilities_are_a_null():
    recs = [record(k, 0.040, 0.041, 0.040, 0.041) for k in range(5)]
    dv = delta_v_statistics(recs)
    assert dv.mean == 0.0 and dv.std == 0.0 and dv.stderr == 0.0
    gr = gamma_ratio_distribution(recs)
    assert np.all(gr.values == 1.0)
    assert gr.stderr == 0.0
    assert not gr.noncommutative


def test_gamma_ratio_single_pair_frozen_value():
    recs = [record(0, 0.042, None, 0.040, None),
            record(1, 0.042, None, 0.040, None)]
    gr = gamma_ratio_distribution(recs)
    assert gr.n_values == 2
    assert math.isclose(gr.mean, 1.0000821415299945, rel_tol=1e-12)
    assert math.isclose(gr.mean_point_sigma, 0.0001162054517039263, rel_tol=1e-12)


def test_non_physical_points_are_excluded_with_warning():
    recs = [record(0, 0.042, 1.0, 0.040, 0.040),
            record(1, 0.042, None, 0.040, None)]
    with pytest.warns(UserWarning):
        gr = gamma_ratio_distribution(recs)
    assert gr.n_excluded == 1
    assert gr.n_values == 2


def test_gamma_ratio_needs_two_usable_values():
    # detector 2's pair is non-physical, which leaves one value: it has no
    # scatter, so no stderr to flag a deviation against
    rec = record(0, 0.042, 1.0, 0.040, 0.040)
    assert delta_v_statistics([rec]).n_values == 2
    with pytest.warns(UserWarning, match="excluding non-physical point"), \
            pytest.raises(TooFewFitsError, match="need at least 2 Gamma-ratio values, got 1"):
        gamma_ratio_distribution([rec])


def test_noncommutative_flag_triggers_on_shifted_mean():
    rng = np.random.default_rng(41)
    recs = []
    for k in range(50):
        jitter = rng.normal(scale=1e-4, size=2)
        recs.append(record(k, 0.040, 0.040,
                           0.300 + jitter[0], 0.300 + jitter[1]))
    gr = gamma_ratio_distribution(recs)
    assert gr.mean < 1.0
    assert abs(gr.mean - 1.0) > DETECTION_SIGMA * gr.stderr
    assert gr.noncommutative


def test_point_sigma_agrees_with_scatter():
    # draw V_both = V_nim (1 + delta) with small delta: the ratio scatter
    # should match the mean propagated per-point sigma
    rng = np.random.default_rng(42)
    v0, sv = 0.040, 0.0015
    recs = []
    for k in range(2000):
        vals = v0 + rng.normal(scale=sv, size=4)
        recs.append(RunRecord(run_index=k,
                              v_nim_d1=VisibilityValue(vals[0], sv),
                              v_nim_d2=VisibilityValue(vals[1], sv),
                              v_both_d1=VisibilityValue(vals[2], sv),
                              v_both_d2=VisibilityValue(vals[3], sv)))
    gr = gamma_ratio_distribution(recs)
    assert abs(gr.std / gr.mean_point_sigma - 1.0) < 0.05


def test_detector_swap_leaves_pooled_values_unchanged():
    recs = [record(k, 0.040 + 1e-4 * k, 0.041, 0.042, 0.039) for k in range(4)]
    swapped = [RunRecord(run_index=r.run_index,
                         v_nim_d1=r.v_nim_d2, v_nim_d2=r.v_nim_d1,
                         v_both_d1=r.v_both_d2, v_both_d2=r.v_both_d1)
               for r in recs]
    dv = delta_v_statistics(recs)
    dv_swapped = delta_v_statistics(swapped)
    assert sorted(dv.values) == sorted(dv_swapped.values)
    assert dv.mean == dv_swapped.mean


def test_records_from_runs_complete_campaign():
    cfg = ExperimentConfig()
    runs = simulate_campaign(cfg.build_pair(), cfg.scan, 10, 201)
    recs = records_from_runs(runs)
    assert len(recs) == 10
    assert not any(r.is_partial for r in recs)
    report = bound_from_campaign(recs)
    assert report.n_complete_runs == 10
    assert report.n_values == 20  # two detectors per run
    assert not report.noncommutative
    assert report.theta_conservative_deg >= report.theta_central_deg
    assert sum(n for _, n in report.delta_v_hist) == 20
    assert sum(n for _, n in report.gamma_ratio_hist) == 20


def test_campaign_records_match_the_stored_campaign_in_any_split():
    cfg = ExperimentConfig()
    pair = cfg.build_pair()
    whole = campaign_records(*pair, cfg.scan, 5, range(6))
    assert whole == records_from_runs(simulate_campaign(pair, cfg.scan, 6, 5))
    assert campaign_records(*pair, cfg.scan, 5, range(4, 6)) == whole[4:]


def test_bound_report_degenerate_histogram():
    recs = [record(k, 0.040, 0.041, 0.040, 0.041) for k in range(3)]
    report = bound_from_campaign(recs)
    # zero spread collapses to a single bin
    assert report.delta_v_hist == ((0.0, 6),)
    assert report.gamma_ratio_hist == ((1.0, 6),)
    # zero stderr: the two theta conventions coincide
    assert report.theta_central_deg == report.theta_conservative_deg


def test_null_campaigns_stay_unflagged_across_seeds():
    cfg = ExperimentConfig()
    models = cfg.build_pair()
    for seed in range(200, 210):
        runs = simulate_campaign(models, cfg.scan, 30, seed)
        gr = gamma_ratio_distribution(records_from_runs(runs))
        assert not gr.noncommutative, f"false detection at master seed {seed}"


def test_lc_systematic_noiseless_is_exactly_zero():
    cfg = lc_only()
    models = cfg.build_pair()
    runs = simulate_campaign(models, cfg.scan, 3, 0, labels=("off", "on"),
                             noiseless=True)
    stats = delta_v_statistics(records_from_runs(runs))
    assert stats.mean == 0.0
    assert stats.std == 0.0


def test_lc_systematic_matches_counting_statistics():
    # 5000 counts/step at unit transmission: sigma_V ~ sqrt(2/N) = 0.002,
    # so Delta_LC spreads as sqrt(2) * 0.002 ~ 0.003
    cfg = lc_only(scan=ScanConfig(mean_counts_per_step=5000.0))
    models = cfg.build_pair()
    runs = simulate_campaign(models, cfg.scan, 60, 71, labels=("off", "on"))
    stats = delta_v_statistics(records_from_runs(runs))
    assert abs(stats.mean) < 3.0 * stats.stderr
    assert 0.002 < stats.std < 0.004


def test_lc_systematic_sees_injected_epsilon():
    cfg = lc_only().with_epsilon(0.3)
    models = cfg.build_pair()
    runs = simulate_campaign(models, cfg.scan, 5, 1, labels=("off", "on"))
    stats = delta_v_statistics(records_from_runs(runs))
    # Gamma drops to 1 - 2 sin^2(0.3): the on-visibility jumps far above noise
    assert stats.mean > 0.5
    assert stats.mean > 20.0 * stats.stderr


def test_sensitivity_sweep_shape_and_threshold():
    cfg = dataclasses.replace(ExperimentConfig(), n_runs=40, master_seed=300)
    grid = (0.0, 0.005, 0.02, 0.05)
    res = sensitivity_sweep(grid, cfg)
    assert [p.epsilon for p in res.points] == list(grid)
    assert res.points[0].significance == 0.0
    sigs = [p.significance for p in res.points]
    assert sigs == sorted(sigs)
    assert res.threshold_sigma == DETECTION_SIGMA
    for p in res.points:
        assert math.isclose(p.gamma_shift, 2.0 * math.sin(p.epsilon) ** 2,
                            rel_tol=1e-12, abs_tol=1e-300)
    assert res.min_detectable_epsilon == 0.02
    assert res.points[2].significance >= 5.0


def test_sweep_epsilon_zero_shift_is_exact():
    cfg = dataclasses.replace(ExperimentConfig(), n_runs=2, master_seed=0)
    res = sensitivity_sweep((0.0,), cfg)
    assert res.points[0].gamma_shift == 0.0
    assert res.points[0].significance == 0.0
    assert res.min_detectable_epsilon is None


def test_detection_reach_scales_with_campaign_size():
    # the conservative bound at null follows the gamma-ratio stderr:
    # theta ~ sqrt(stderr) ~ n^(-1/4)
    cfg = ExperimentConfig()
    models = cfg.build_pair()
    stderrs = []
    thetas = []
    for n in (50, 800):
        runs = simulate_campaign(models, cfg.scan, n, 81)
        gr = gamma_ratio_distribution(records_from_runs(runs))
        stderrs.append(gr.stderr)
        thetas.append(theta_bound(1.0, gr.stderr).conservative_deg)
    assert stderrs[1] < stderrs[0]
    assert 0.15 < stderrs[1] / stderrs[0] < 0.35  # ~ sqrt(50/800) = 0.25
    assert thetas[1] < thetas[0]
    assert 0.35 < thetas[1] / thetas[0] < 0.65  # ~ (50/800)^(1/4) = 0.5


@pytest.mark.xfail(strict=True, reason=(
    "d2/(d1+d2) is 1 minus the detector-1 ratio, so a run's two detector "
    "values are one measurement counted twice and the pooled stderr is "
    "about 0.707 of the per-run stderr"))
def test_null_campaign_stderr_counts_each_run_once():
    cfg = ExperimentConfig()
    records = campaign_records(*cfg.build_pair(), cfg.scan, 5, range(200))
    pooled = gamma_ratio_distribution(records)
    per_run = [np.mean([gamma_ratio(v_both, v_nim).value
                        for v_both, v_nim in rec.detector_pairs()])
               for rec in records if rec.detector_pairs()]
    per_run_stderr = np.std(per_run, ddof=1) / math.sqrt(len(per_run))
    assert abs(pooled.stderr / per_run_stderr - 1.0) <= 0.10
