import dataclasses
import math
import warnings

import numpy as np
import pytest

from darkport import analysis, photonsim
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
from darkport.fitting import _FIT
from darkport.interferometer import PhaseElement, VisibilityValue, gamma_ratio, theta_bound
from darkport.config import ExperimentConfig
from darkport.photonsim import (
    Interferogram,
    RunPair,
    ScanConfig,
    expected_rates,
    simulate_campaign,
)
from darkport.quaternion import PhaseVector


def lc_only(**kwargs):
    """An LC-only toggle campaign: the empty loop as reference, LC added."""
    return ExperimentConfig(configurations={"off": (), "on": ("lc",)},
                            reference="off", toggled="on", **kwargs)


def record(idx, nim1, nim2, both1, both2, sigma=0.002):
    def vv(x):
        return None if x is None else VisibilityValue(x, sigma)
    return RunRecord(run_index=idx, v_nim_d1=vv(nim1), v_nim_d2=vv(nim2),
                     v_both_d1=vv(both1), v_both_d2=vv(both2))


def detector_pairs(rec):
    """A record's usable (V_both, V_nim) pairs, detector 1 then 2, one pair at a time."""
    return [(v_both, v_nim) for v_both, v_nim in ((rec.v_both_d1, rec.v_nim_d1),
                                                   (rec.v_both_d2, rec.v_nim_d2))
            if v_both is not None and v_nim is not None]


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
    fits = analysis._record_fits([rec])
    assert [a.tolist() for a in analysis._pairs(*fits)] == [[0.042], [0.002], [0.040], [0.002]]


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
    # each public statistic's exclusion warning names its caller, this file
    for statistic in (gamma_ratio_distribution, bound_from_campaign):
        with pytest.warns(UserWarning, match="excluding non-physical point") as caught, \
                pytest.raises(TooFewFitsError, match="need at least 2 Gamma-ratio values, got 1"):
            statistic([rec])
        assert [w.filename for w in caught] == [__file__]


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


def test_a_slot_is_one_block_with_the_bytes_of_any_split(monkeypatch):
    # a default slot of 200 runs is drawn and fitted as one block, byte for byte
    # the 64-run blocks of the same indices; a smaller cap streams a slot in
    # blocks of at most that many runs, with the same bytes
    reference, _ = ExperimentConfig().build_pair()
    blocks, draw_counts = [], photonsim.draw_counts

    def counting(model, scan, seeds):
        blocks.append(len(seeds))
        return draw_counts(model, scan, seeds)

    def slot(indices):
        return analysis._slot_fits(reference, 0, ScanConfig(), 9, indices)

    monkeypatch.setattr(photonsim, "draw_counts", counting)
    whole = slot(range(200))
    assert blocks == [200]
    cut = np.concatenate([slot(range(start, min(start + 64, 200))) for start in range(0, 200, 64)])
    assert whole.tobytes() == cut.tobytes()
    blocks.clear()
    monkeypatch.setattr(analysis, "_SLOT_ROWS", 24)
    assert slot(range(50)).tobytes() == whole[:50].tobytes()
    assert blocks == [24, 24, 2]


@pytest.mark.parametrize("indices, error", [([0, True], ValueError), ([0, 1.5], ValueError),
                                            ([0, -1], ValueError),
                                            ([2 ** 64], OverflowError)],
                         ids=["bool", "float", "negative", "beyond_64_bits"])
def test_campaign_records_refuse_a_run_index_that_is_not_a_seed_word(indices, error):
    cfg = ExperimentConfig(n_runs=2)
    with pytest.raises(error):
        campaign_records(*cfg.build_pair(), cfg.scan, 5, indices)


def test_bound_report_degenerate_histogram():
    recs = [record(k, 0.040, 0.041, 0.040, 0.041) for k in range(3)]
    report = bound_from_campaign(recs)
    # zero spread collapses to a single bin
    assert report.delta_v_hist == ((0.0, 6),)
    assert report.gamma_ratio_hist == ((1.0, 6),)
    # zero stderr: the two theta conventions coincide
    assert report.theta_central_deg == report.theta_conservative_deg


def test_bound_from_campaign_pairs_its_records_once(monkeypatch):
    recs = [record(k, 0.040 + 0.001 * k, 0.041, 0.040, 0.041 - 0.001 * k) for k in range(5)]
    recs.append(record(5, 0.040, None, 0.042, 0.041))
    record_fits, calls = analysis._record_fits, []
    monkeypatch.setattr(analysis, "_record_fits",
                        lambda records: calls.append(records) or record_fits(records))
    report = bound_from_campaign(recs)
    assert calls == [recs]
    dv, gr = delta_v_statistics(recs), gamma_ratio_distribution(recs)
    assert (report.n_values, report.n_complete_runs) == (dv.n_values, 5) == (11, 5)
    assert (report.delta_v_mean, report.delta_v_stderr) == (dv.mean, dv.stderr)
    assert (report.gamma_ratio_mean, report.gamma_ratio_stderr) == (gr.mean, gr.stderr)

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
    phases = cfg.scan.phases()
    off, on = (Interferogram(phases, *expected_rates(m, cfg.scan)) for m in models)
    runs = [RunPair(run_index=idx, nim=off, both=on) for idx in range(3)]
    stats = delta_v_statistics(records_from_runs(runs))
    assert stats.mean == 0.0
    assert stats.std == 0.0


def test_lc_systematic_matches_counting_statistics():
    # 5000 counts/step at unit transmission: sigma_V ~ sqrt(2/N) = 0.002,
    # so Delta_LC spreads as sqrt(2) * 0.002 ~ 0.003
    cfg = lc_only(scan=ScanConfig(mean_counts_per_step=5000.0))
    models = cfg.build_pair()
    runs = simulate_campaign(models, cfg.scan, 60, 71)
    stats = delta_v_statistics(records_from_runs(runs))
    assert abs(stats.mean) < 3.0 * stats.stderr
    assert 0.002 < stats.std < 0.004


def test_lc_systematic_sees_injected_epsilon():
    cfg = lc_only().with_epsilon(0.3)
    models = cfg.build_pair()
    runs = simulate_campaign(models, cfg.scan, 5, 1)
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


def test_sweep_threshold_is_the_detection_constant():
    # test_sensitivity_sweep_shape_and_threshold reads it; nothing can set it
    with pytest.raises(TypeError):
        analysis.SweepResult(points=(), min_detectable_epsilon=None, threshold_sigma=3.0)


def test_min_detectable_epsilon_is_the_smallest_detecting_magnitude():
    cfg = dataclasses.replace(ExperimentConfig(), n_runs=20)
    res = sensitivity_sweep((0.1, 0.05, 0.0), cfg)
    assert [p.significance >= DETECTION_SIGMA for p in res.points] == [True, True, False]
    assert res.min_detectable_epsilon == 0.05
    # equal magnitudes: the first in grid order
    assert sensitivity_sweep((0.1, -0.05, 0.05), cfg).min_detectable_epsilon == -0.05
    assert sensitivity_sweep((0.1, 0.05, -0.05), cfg).min_detectable_epsilon == 0.05


# the swapped-roles, lossy-LC config of test_cli.py's
# test_sweep_simulates_the_campaign_pair: epsilon moves the reference loop
SWAPPED_LOSSY_LC = ExperimentConfig(
    elements=(PhaseElement("lc", PhaseVector(math.pi, 0.0, 0.0), 0.5),
              PhaseElement("nim", PhaseVector(-math.pi, 0.0, 0.0), 0.36055512754639896)),
    reference="both", toggled="nim")


def _stats_bits(stats):
    return (stats.values.tobytes(), stats.point_sigmas.tobytes(), stats.n_excluded,
            *(getattr(stats, name).hex() for name in ("mean", "std", "stderr",
                                                      "mean_point_sigma")))


@pytest.mark.parametrize("base", [ExperimentConfig(), SWAPPED_LOSSY_LC],
                         ids=["default_roles", "swapped_lossy_lc"])
def test_sweep_reuses_fits_bit_for_bit(monkeypatch, base):
    cfg = dataclasses.replace(base, n_runs=6, master_seed=41)
    grid = (0.0, 0.02, -0.0, 0.02, 0.05)
    swept, rows = [], []
    gamma_ratio_of, draw_counts = analysis._gamma_ratio_statistics, photonsim.draw_counts

    def recording_stats(pairs):
        swept.append(gamma_ratio_of(pairs))
        return swept[-1]

    def counting(model, scan, seeds):
        rows.append(len(seeds))
        return draw_counts(model, scan, seeds)

    monkeypatch.setattr(analysis, "_gamma_ratio_statistics", recording_stats)
    monkeypatch.setattr(photonsim, "draw_counts", counting)
    sensitivity_sweep(grid, cfg)
    monkeypatch.undo()
    alone = [gamma_ratio_distribution(campaign_records(
        *cfg.with_epsilon(eps).build_pair(), cfg.scan, cfg.master_seed, range(cfg.n_runs)))
        for eps in grid]
    assert [_stats_bits(s) for s in swept] == [_stats_bits(s) for s in alone]
    # one slot's rows are drawn once per distinct (expected rates, slot): the
    # loop without the LC once, the LC loop at epsilon 0, 0.02 and 0.05
    keys = {(np.stack(expected_rates(model, cfg.scan)).tobytes(), slot)
            for eps in grid for slot, model in enumerate(cfg.with_epsilon(eps).build_pair())}
    assert len(keys) == 4
    assert sum(rows) == cfg.n_runs * len(keys)


def _slot_fits_of(records):
    """The (runs, 2) fit arrays of the reference and toggled slots of records,
    as analysis._slot_fits gives them to the sweep."""
    slots = []
    for names in (("v_nim_d1", "v_nim_d2"), ("v_both_d1", "v_both_d2")):
        fits = np.zeros((len(records), 2), _FIT)
        for k, rec in enumerate(records):
            for side, name in enumerate(names):
                if (v := getattr(rec, name)) is not None:
                    fits["value"][k, side], fits["sigma"][k, side] = v.value, v.sigma
                    fits["usable"][k, side] = True
        slots.append(fits)
    return slots


def test_record_wrappers_and_array_statistic_agree_bit_for_bit():
    cfg = dataclasses.replace(ExperimentConfig(), n_runs=40, master_seed=3)
    records = campaign_records(*cfg.build_pair(), cfg.scan, cfg.master_seed, range(40))
    # a partial record, then a V_nim and a V_both of 1.0, then 1,000 drawn
    # records, enough points for np.hypot to differ from math.hypot
    records += [record(40, 0.042, None, 0.040, 0.041), record(41, 0.039, 1.0, 0.040, 0.041),
                record(42, 0.039, 0.040, 1.0, 0.041)]
    rng = np.random.default_rng(44)
    records += [RunRecord(k, *map(VisibilityValue, v.tolist(), s.tolist()))
                for k, v, s in zip(range(43, 1043), rng.uniform(0.0, 0.3, (1000, 4)),
                                   rng.uniform(0.0, 0.01, (1000, 4)))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wrapped = gamma_ratio_distribution(records)
        direct = analysis._gamma_ratio_statistics(analysis._pairs(*_slot_fits_of(records)))
    assert _stats_bits(wrapped) == _stats_bits(direct)
    excluded = ["excluding non-physical point: V_nim must lie in [0, 1), got 1.0",
                "excluding non-physical point: V_both must lie in [0, 1), got 1.0"]
    assert [str(w.message) for w in caught] == excluded * 2
    assert wrapped.n_excluded == 2
    # the per-pair loop that the array statistic replaces
    pairs = [pair for rec in records for pair in detector_pairs(rec)]
    ratios = [gamma_ratio(*pair) for pair in pairs if max(v.value for v in pair) < 1.0]
    assert len(ratios) == len(pairs) - 2 == wrapped.n_values
    assert wrapped.values.tobytes() == np.array([r.value for r in ratios]).tobytes()
    assert wrapped.point_sigmas.tobytes() == np.array([r.sigma for r in ratios]).tobytes()
    assert delta_v_statistics(records).values.tobytes() == np.array(
        [v_both.value - v_nim.value for v_both, v_nim in pairs]).tobytes()


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
                        for v_both, v_nim in detector_pairs(rec)])
               for rec in records if detector_pairs(rec)]
    per_run_stderr = np.std(per_run, ddof=1) / math.sqrt(len(per_run))
    assert abs(pooled.stderr / per_run_stderr - 1.0) <= 0.10
