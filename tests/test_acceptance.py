"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py`; the -s option in the project
pytest config keeps the per-criterion lines visible in the output.
"""

import math
import time

import numpy as np

from darkport.analysis import (
    delta_v_statistics,
    gamma_ratio_distribution,
    records_from_runs,
)
from darkport.config import ExperimentConfig
from darkport.fitting import NormalizedFringe, fit_sinusoid, normalize
from darkport.interferometer import (
    PhaseElement,
    SagnacModel,
    VisibilityValue,
    dark_port_prob,
    dark_port_prob_ideal,
    gamma_ratio,
    mz_visibility_theta,
    propagate_state,
    sagnac_probs_theta,
    theta_bound,
)
from darkport.metaoptics import (
    PhaseSpectrum,
    SlabSpec,
    index_spectrum,
    index_to_phase,
    phase_to_index,
)
from darkport.photonsim import (
    ScanConfig,
    simulate_campaign,
    simulate_interferogram,
)
from darkport.quaternion import I, J, K, ONE, PhaseVector, Quaternion, mul, norm, qexp


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def random_unit_imaginary(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Quaternion(0.0, *axis)


def test_criterion_1_algebra():
    t0 = time.perf_counter()
    table_ok = (mul(I, J) == K and mul(J, K) == I and mul(K, I) == J
                and mul(J, I) == -K and mul(K, J) == -I and mul(I, K) == -J
                and mul(I, I) == -ONE and mul(J, J) == -ONE and mul(K, K) == -ONE
                and mul(ONE, I) == I and mul(K, ONE) == K)
    rng = np.random.default_rng(1001)
    worst_norm = 0.0
    worst_assoc = 0.0
    for _ in range(10_000):
        a = Quaternion(*rng.normal(size=4))
        b = Quaternion(*rng.normal(size=4))
        c = Quaternion(*rng.normal(size=4))
        worst_norm = max(worst_norm,
                         abs(norm(mul(a, b)) - norm(a) * norm(b)))
        d = mul(mul(a, b), c) - mul(a, mul(b, c))
        worst_assoc = max(worst_assoc, norm(d))
    elapsed = time.perf_counter() - t0
    ok = table_ok and worst_norm < 1e-12 and worst_assoc < 1e-12 and elapsed < 1.0
    report(1, ok, f"Hamilton table ok={table_ok}, worst norm dev {worst_norm:.2e}, "
                  f"worst assoc dev {worst_assoc:.2e}, {elapsed:.2f}s")


def test_criterion_2_closed_form_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(10_000):
        n_el = int(rng.integers(0, 3))
        elements = tuple(
            PhaseElement(f"e{k}", PhaseVector(*rng.uniform(-math.pi, math.pi, 3)))
            for k in range(n_el))
        model = SagnacModel(visibility_v=float(rng.uniform(0.0, 1.0)),
                            reflection=random_unit_imaginary(rng),
                            elements=elements)
        closed = dark_port_prob(model)
        full = propagate_state(model)
        worst = max(worst, abs(closed.p_dark - full.p_dark),
                    abs(closed.p_bright - full.p_bright))
    special = dark_port_prob_ideal(J, K, I)
    special_model = dark_port_prob(SagnacModel(visibility_v=1.0, reflection=I, elements=(
        PhaseElement("a", PhaseVector(0.0, math.pi / 2, 0.0)),
        PhaseElement("b", PhaseVector(0.0, 0.0, math.pi / 2))))).p_dark
    elapsed = time.perf_counter() - t0
    ok = (worst < 1e-12 and abs(special - 1.0) < 1e-12
          and abs(special_model - 1.0) < 1e-12 and elapsed < 5.0)
    report(2, ok, f"worst port dev {worst:.2e} over 10k draws, "
                  f"alpha=j beta=k r=i gives P_D={special:.12f}, {elapsed:.2f}s")


def test_criterion_3_null_campaign():
    t0 = time.perf_counter()
    cfg = ExperimentConfig()
    v0 = mz_visibility_theta(cfg.visibility_v, 0.0)
    runs = simulate_campaign(cfg.build_pair(), cfg.scan, cfg.n_runs,
                             cfg.master_seed)
    records = records_from_runs(runs)
    dv = delta_v_statistics(records)
    complete = not any(rec.is_partial for rec in records)
    sigmas = [slot.sigma for rec in records
              for slot in (rec.v_nim_d1, rec.v_nim_d2, rec.v_both_d1, rec.v_both_d2)
              if slot is not None]
    pull = abs(dv.mean) / dv.stderr
    elapsed = time.perf_counter() - t0
    ok = (abs(v0 - 0.038) < 0.0005
          and complete and len(sigmas) == 4 * cfg.n_runs
          and pull < 3.0
          and min(sigmas) >= 0.0005 and max(sigmas) <= 0.004
          and elapsed < 120.0)
    report(3, ok, f"V0={v0:.4f}, delta_v mean {dv.mean:+.2e} = {pull:.2f} stderr, "
                  f"fit sigmas [{min(sigmas):.5f}, {max(sigmas):.5f}], {elapsed:.1f}s")


def test_criterion_4_single_run_arithmetic():
    t0 = time.perf_counter()
    ratio = gamma_ratio(VisibilityValue(0.040, 0.002), VisibilityValue(0.042, 0.002))
    theta = theta_bound(ratio.value, ratio.sigma)
    quoted = theta_bound(0.99999999, 2e-7)
    elapsed = time.perf_counter() - t0
    # sqrt(0.9984/0.998236) is exactly 1.0000821415...; the rounded
    # reference value 1.0000823 has its last digit off by 2 units, so the
    # exact-arithmetic check is pinned at 1e-12 and the reference is only
    # required to agree to 2e-7
    ok = (abs(ratio.value - 1.0000821415299945) < 1e-12
          and abs(ratio.value - 1.0000823) < 2e-7
          and theta.central_deg == 0.0
          and abs(quoted.central_deg - 0.0081) < 1e-4
          and 0.03 <= quoted.conservative_deg <= 0.04
          and elapsed < 1.0)
    report(4, ok, f"ratio {ratio.value:.10f} (reference 1.0000823 differs by "
                  f"{abs(ratio.value - 1.0000823):.1e}), theta clamps to "
                  f"{theta.central_deg}, 0.99999999+/-2e-7 -> central "
                  f"{quoted.central_deg:.4f} deg, conservative "
                  f"{quoted.conservative_deg:.4f} deg, {elapsed:.2f}s")


def test_criterion_5_detection_power():
    t0 = time.perf_counter()
    eps = math.asin(0.05)  # generalized defect 2 sin(eps) = 0.1 exactly
    injected_cfg = ExperimentConfig().with_epsilon(eps)
    defect = 2.0 * math.sin(eps)
    gamma_shift = 0.5 * defect * defect
    runs = simulate_campaign(injected_cfg.build_pair(), injected_cfg.scan, 200, 0)
    injected = gamma_ratio_distribution(records_from_runs(runs))
    significance = abs(injected.mean - 1.0) / injected.stderr

    null_cfg = ExperimentConfig()
    null_models = null_cfg.build_pair()
    false_flags = []
    for seed in range(20):
        null_runs = simulate_campaign(null_models, null_cfg.scan, 200, seed)
        stats = gamma_ratio_distribution(records_from_runs(null_runs))
        if stats.noncommutative:
            false_flags.append(seed)
    elapsed = time.perf_counter() - t0
    ok = (abs(defect - 0.1) < 1e-15 and gamma_shift >= 5e-3
          and injected.noncommutative and significance >= 5.0
          and not false_flags and elapsed < 300.0)
    report(5, ok, f"defect 0.1 (shift {gamma_shift:.1e}) flagged at "
                  f"{significance:.0f} sigma; false flags {false_flags or 'none'} "
                  f"over 20 null seeds, {elapsed:.1f}s")


def test_criterion_6_fit_fidelity():
    t0 = time.perf_counter()
    truth = {"amplitude": 0.076, "frequency": 1.0, "phase": 0.3, "offset": 0.462}
    x = np.linspace(0.0, 4.0 * math.pi, 100)
    s = np.sin(truth["frequency"] * x + truth["phase"])
    y = truth["amplitude"] * s * s + truth["offset"]
    fit = fit_sinusoid(NormalizedFringe(phase=x, ratio=y,
                                        sigma=np.full(x.size, 1e-3), detector=1))
    rel = max(abs(getattr(fit, k) - v) / v for k, v in truth.items())

    cfg = ExperimentConfig()
    model = SagnacModel(visibility_v=cfg.visibility_v, reflection=cfg.reflection)
    scan = ScanConfig()
    v_true = mz_visibility_theta(model.visibility_v, 0.0)
    pulls = np.empty(500)
    for k in range(500):
        ig = simulate_interferogram(model, scan, seed=(606, k))
        result = fit_sinusoid(normalize(ig))
        pulls[k] = (result.visibility.value - v_true) / result.visibility.sigma
    mean = float(np.mean(pulls))
    std = float(np.std(pulls, ddof=1))
    elapsed = time.perf_counter() - t0
    ok = (rel < 1e-6 and abs(mean) < 0.1 and 0.8 <= std <= 1.2 and elapsed < 60.0)
    report(6, ok, f"noiseless recovery {rel:.1e} relative; pull mean {mean:+.3f}, "
                  f"std {std:.3f} over 500 fits, {elapsed:.1f}s")


def test_criterion_7_metamaterial_arithmetic():
    t0 = time.perf_counter()
    slab = SlabSpec()
    n_790 = phase_to_index(-math.pi, 790.0, slab)

    # phase spectrum through the two anchor points (n = 0 at 750 nm,
    # n = -0.4 at 790 nm), extended to 740 nm so the crossing is interior
    wl_a, wl_b = 750.0, 790.0
    ph_a = index_to_phase(0.0, wl_a, slab)
    ph_b = index_to_phase(-0.4, wl_b, slab)
    slope = (ph_b - ph_a) / (wl_b - wl_a)
    wl = np.linspace(740.0, 790.0, 101)
    spec = index_spectrum(PhaseSpectrum(wl, ph_a + slope * (wl - wl_a)), slab)
    crossings = np.where(np.diff(np.sign(spec.n)) < 0)[0]
    if crossings.size:
        i = crossings[0]
        lam0 = wl[i] - spec.n[i] * (wl[i + 1] - wl[i]) / (spec.n[i + 1] - spec.n[i])
    else:
        lam0 = math.nan
    elapsed = time.perf_counter() - t0
    ok = (abs(n_790 - (-0.39)) < 0.01
          and not spec.ambiguous.any()
          and abs(lam0 - 750.0) < 2.0
          and elapsed < 1.0)
    report(7, ok, f"n(790 nm)={n_790:.4f} (quoted -0.39 +/- 0.01), "
                  f"zero crossing {lam0:.1f} nm, {elapsed:.2f}s")


def test_criterion_8_equation_chain_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(1000):
        v = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi))
        p = sagnac_probs_theta(v, theta)
        chain = 2.0 * math.sqrt(p.p_bright * p.p_dark)
        worst = max(worst, abs(mz_visibility_theta(v, theta) - chain))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-14 and elapsed < 1.0
    report(8, ok, f"worst |direct - chain| = {worst:.1e} over 1000 draws "
                  f"(exact match expected), {elapsed:.2f}s")
