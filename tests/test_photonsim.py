import math

import numpy as np
import pytest

from darkport.config import ConfigError, ExperimentConfig
from darkport.fitting import fit_sinusoid, normalize
from darkport.interferometer import PhaseElement, SagnacModel
from darkport.photonsim import (
    Interferogram,
    ScanConfig,
    analytic_visibility,
    draw_counts,
    expected_rates,
    simulate_campaign,
    simulate_interferogram,
    simulate_run,
)
from darkport.quaternion import I, J, PhaseVector


def flat_model(v=0.9992774):
    return SagnacModel(visibility_v=v)


def test_scan_config_phases():
    scan = ScanConfig(n_steps=100, phase_start=0.0, phase_end=4.0 * math.pi)
    phases = scan.phases()
    assert phases.shape == (100,)
    assert phases[0] == 0.0
    assert math.isclose(phases[-1], 4.0 * math.pi)
    assert np.all(np.diff(phases) > 0)


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(n_steps=7)
    with pytest.raises(ValueError):
        ScanConfig(phase_end=3.0)  # less than one fringe
    with pytest.raises(ValueError):
        ScanConfig(mean_counts_per_step=0.0)
    with pytest.raises(ValueError):
        ScanConfig(rng_seed=-1)
    ScanConfig(phase_end=2.0 * math.pi)  # exactly one fringe is allowed


@pytest.mark.parametrize("seed", ["12", True, 12.9, 2 ** 64],
                         ids=["str", "bool", "float", "beyond_64_bits"])
def test_scan_config_refuses_a_seed_that_is_not_a_64_bit_int(seed):
    # int() would read "12" as 12 and True as 1, and a float fails only at draw time
    with pytest.raises(ValueError, match="rng_seed must be a 64-bit unsigned integer"):
        ScanConfig(rng_seed=seed)


def test_same_seed_reproduces_counts():
    scan = ScanConfig(rng_seed=42)
    a = simulate_interferogram(flat_model(), scan)
    b = simulate_interferogram(flat_model(), scan)
    assert np.array_equal(a.counts_d1, b.counts_d1)
    assert np.array_equal(a.counts_d2, b.counts_d2)
    c = simulate_interferogram(flat_model(), scan, seed=43)
    assert not np.array_equal(a.counts_d1, c.counts_d1)


def test_run_streams_are_independent():
    scan = ScanConfig()
    cfg = ExperimentConfig()
    models = cfg.build_pair()
    run = simulate_run(*models, scan, seed=7)
    # slot k draws from the run seed extended by k, and from nothing else
    for model, ig, seed in zip(models, (run.nim, run.both), ((7, 0), (7, 1))):
        d1, d2 = draw_counts(model, scan, [seed])
        assert np.array_equal(ig.counts_d1, d1[0]) and np.array_equal(ig.counts_d2, d2[0])
    assert not np.array_equal(run.nim.counts_d1, run.both.counts_d1)


def test_campaign_runs_are_order_independent():
    cfg = ExperimentConfig()
    models = cfg.build_pair()
    runs = simulate_campaign(models, cfg.scan, n_runs=5, master_seed=99)
    # run k must be regenerable in isolation from (master_seed, k)
    solo = simulate_run(*models, cfg.scan, run_index=3, seed=(99, 3))
    assert np.array_equal(runs[3].nim.counts_d1, solo.nim.counts_d1)
    assert np.array_equal(runs[3].both.counts_d2, solo.both.counts_d2)
    assert [r.run_index for r in runs] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("counts", [0.5, 200.0, 20000.0])
def test_block_rows_are_the_seeded_interferograms(counts):
    # the seed-stream contract that makes any split of a campaign's runs byte-identical:
    # row k of a block is the interferogram drawn alone from its seed, and
    # that is detector 1 then detector 2 from one SeedSequence Generator
    scan = ScanConfig(mean_counts_per_step=counts)
    ref, tog = ExperimentConfig().with_epsilon(0.3).build_pair()
    assert not np.array_equal(expected_rates(ref, scan), expected_rates(tog, scan))
    runs = [4, 0, 17]
    for slot, model in enumerate((ref, tog)):
        seeds = [(11, idx, slot) for idx in runs]
        d1, d2 = draw_counts(model, scan, seeds)
        assert d1.shape == d2.shape == (len(seeds), scan.n_steps)
        for k, seed in enumerate(seeds):
            ig = simulate_interferogram(model, scan, seed=seed)
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            lam1, lam2 = expected_rates(model, scan)
            for got, alone, stream in ((d1[k], ig.counts_d1, rng.poisson(lam1)),
                                       (d2[k], ig.counts_d2, rng.poisson(lam2))):
                assert got.dtype == alone.dtype == stream.dtype == np.int64
                assert got.tobytes() == alone.tobytes() == stream.tobytes()


def test_noiseless_counts_conserve_flux():
    scan = ScanConfig(mean_counts_per_step=20000.0)
    cfg = ExperimentConfig()
    model = cfg.build_model("nim")
    lam1, lam2 = expected_rates(model, scan)
    n_eff = scan.mean_counts_per_step * model.intensity_transmission()
    assert math.isclose(n_eff, 20000.0 * 0.13, rel_tol=1e-12)
    total = lam1 + lam2
    assert np.allclose(total, n_eff, rtol=1e-12)


def test_expected_rates_follow_the_fringe():
    scan = ScanConfig(n_steps=9, phase_end=2.0 * math.pi)
    model = flat_model()
    lam1, lam2 = expected_rates(model, scan)
    v = analytic_visibility(model)
    want = scan.mean_counts_per_step * 0.5 * (1.0 + v * np.cos(scan.phases()))
    assert np.allclose(lam1, want, rtol=1e-12)
    assert np.allclose(lam1 + lam2, scan.mean_counts_per_step, rtol=1e-12)


def test_poisson_totals_scale_with_transmission():
    scan = ScanConfig(rng_seed=5)
    cfg = ExperimentConfig()
    empty = SagnacModel(visibility_v=cfg.visibility_v, reflection=cfg.reflection)
    baseline = simulate_interferogram(empty, scan, seed=5)
    dimmed = simulate_interferogram(cfg.build_model("nim"), scan, seed=5)
    total0 = baseline.counts_d1.sum() + baseline.counts_d2.sum()
    total1 = dimmed.counts_d1.sum() + dimmed.counts_d2.sum()
    ratio = total1 / total0
    # 0.13 within Poisson scatter (~0.2% at these totals)
    assert abs(ratio - 0.13) < 0.01


def test_zero_visibility_fringe_is_flat():
    # v = 1 with no elements puts everything in the bright port: V_MZ = 0
    model = SagnacModel(visibility_v=1.0)
    assert analytic_visibility(model) == 0.0
    scan = ScanConfig(rng_seed=17, mean_counts_per_step=20000.0)
    ig = simulate_interferogram(model, scan)
    fringe = normalize(ig)
    mean = float(np.mean(fringe.ratio))
    sigma = float(np.mean(fringe.sigma)) / math.sqrt(fringe.n_points)
    assert abs(mean - 0.5) < 5.0 * sigma


def test_noiseless_fit_recovers_analytic_visibility():
    cfg = ExperimentConfig()
    model = cfg.build_model("both")
    ig = Interferogram(cfg.scan.phases(), *expected_rates(model, cfg.scan))
    fit = fit_sinusoid(normalize(ig))
    assert fit.converged
    assert abs(fit.visibility.value - analytic_visibility(model)) < 1e-4


def test_interferogram_validation():
    phases = np.linspace(0.0, 4.0 * math.pi, 10)
    counts = np.ones(10)
    with pytest.raises(ValueError):
        Interferogram(phase_rad=phases, counts_d1=counts[:-1], counts_d2=counts)
    with pytest.raises(ValueError):
        Interferogram(phase_rad=phases, counts_d1=-counts, counts_d2=counts)
    bad = counts.copy()
    bad[3] = math.nan
    with pytest.raises(ValueError):
        Interferogram(phase_rad=phases, counts_d1=bad, counts_d2=counts)


def test_campaign_config_configurations():
    cfg = ExperimentConfig()
    assert sorted(cfg.configurations) == ["both", "nim"]
    assert [e.label for e in cfg.build_model("nim").elements] == ["nim"]
    assert [e.label for e in cfg.build_model("both").elements] == ["lc", "nim"]
    with pytest.raises(ConfigError):
        cfg.build_model("spooky")
    with pytest.raises(ConfigError):
        ExperimentConfig(toggled="spooky")
    with pytest.raises(ConfigError):
        ExperimentConfig(n_runs=0)


def test_with_epsilon_switches_lc_phase():
    cfg = ExperimentConfig()
    lc, nim = cfg.elements
    assert lc.phase == PhaseVector(math.pi, 0.0, 0.0)
    assert cfg.with_epsilon(0.0) == cfg
    poked = cfg.with_epsilon(0.02)
    assert poked.elements == (PhaseElement("lc", PhaseVector(0.0, 0.02, 0.0)), nim)
    # toggle pair shares everything except the lc element
    m_nim, m_both = poked.build_pair()
    assert m_nim.visibility_v == m_both.visibility_v
    assert [e.label for e in m_nim.elements] == ["nim"]


def test_simulate_run_rejects_mismatched_models():
    scan = ScanConfig()
    with pytest.raises(ValueError):
        simulate_run(flat_model(0.9), flat_model(0.8), scan)
    with pytest.raises(ValueError):
        simulate_run(SagnacModel(reflection=I), SagnacModel(reflection=J), scan)


def test_campaign_rejects_zero_runs():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError):
        simulate_campaign(cfg.build_pair(), cfg.scan, n_runs=0, master_seed=0)


def test_labels_and_seed_are_recorded():
    cfg = ExperimentConfig()
    models = cfg.build_pair()
    run = simulate_run(*models, cfg.scan, run_index=4, seed=(3, 4))
    assert run.run_index == 4
    d1, d2 = draw_counts(models[0], cfg.scan, [(3, 4, 0)])
    assert np.array_equal(run.nim.counts_d1, d1[0]) and np.array_equal(run.nim.counts_d2, d2[0])
