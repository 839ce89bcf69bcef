import dataclasses
import math

import numpy as np
import pytest

from darkport import interferometer
from darkport.interferometer import (
    NonPhysicalVisibilityError,
    PhaseElement,
    SagnacModel,
    ThetaBound,
    VisibilityValue,
    dark_port_prob,
    dark_port_prob_ideal,
    gamma_of_model,
    gamma_ratio,
    loop_defect,
    mz_visibility_from_ports,
    mz_visibility_theta,
    propagate_state,
    sagnac_probs_theta,
    theta_bound,
)
from darkport.config import ConfigError, ExperimentConfig
from darkport.quaternion import ONE, I, J, K, PhaseVector, Quaternion, mul, norm, qexp

V_SAGNAC = 0.9992774  # operating point used throughout

# Mach-Zehnder visibility of the commuting configuration at the operating
# point: sqrt(1 - v^2).  Frozen from the closed form.
V0 = 0.03800891802248566


def random_model(rng, n_elements=None):
    if n_elements is None:
        n_elements = rng.integers(0, 4)
    elements = tuple(
        PhaseElement(label=f"e{k}",
                     phase=PhaseVector(*rng.uniform(-math.pi, math.pi, size=3)))
        for k in range(n_elements))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    r = Quaternion(0.0, *axis)
    return SagnacModel(visibility_v=rng.uniform(0.0, 1.0), reflection=r,
                       elements=elements)


def test_closed_form_matches_propagation():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(300):
        model = random_model(rng)
        closed = dark_port_prob(model)
        full = propagate_state(model)
        worst = max(worst, abs(closed.p_dark - full.p_dark),
                    abs(closed.p_bright - full.p_bright))
    assert worst < 1e-12


def test_port_probabilities_sum_to_one():
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = dark_port_prob(random_model(rng))
        assert math.isclose(p.p_bright + p.p_dark, 1.0, rel_tol=0.0, abs_tol=1e-12)
        assert 0.0 <= p.p_dark <= 1.0


def test_commuting_elements_leave_dark_port_dark():
    # complex phases only: P_D = (1 - v)/2 regardless of the phase values
    elements = (PhaseElement("lc", PhaseVector(math.pi, 0.0, 0.0)),
                PhaseElement("nim", PhaseVector(-math.pi, 0.0, 0.0)))
    model = SagnacModel(visibility_v=V_SAGNAC, elements=elements)
    p = dark_port_prob(model)
    assert math.isclose(p.p_dark, 0.5 * (1.0 - V_SAGNAC), rel_tol=1e-12)
    assert math.isclose(p.p_dark, 3.613e-4, rel_tol=1e-3)
    assert math.isclose(mz_visibility_from_ports(p), V0, rel_tol=1e-13)


def test_dark_port_alternative_form():
    # P_D = (1 - v)/2 + v D^2/4
    rng = np.random.default_rng(23)
    for _ in range(100):
        model = random_model(rng)
        d = loop_defect(model)
        want = 0.5 * (1.0 - model.visibility_v) + 0.25 * model.visibility_v * d * d
        assert math.isclose(dark_port_prob(model).p_dark, want,
                            rel_tol=1e-12, abs_tol=1e-15)


def test_dark_port_prob_ideal_extremes():
    assert dark_port_prob_ideal(J, K, I) == pytest.approx(1.0, rel=1e-12)
    a = qexp(PhaseVector(0.7, 0.0, 0.0))
    b = qexp(PhaseVector(-1.3, 0.0, 0.0))
    assert dark_port_prob_ideal(a, b, I) < 1e-24
    with pytest.raises(ValueError):
        dark_port_prob_ideal(Quaternion(0.0, 2.0, 0.0, 0.0), J, I)


def test_dark_port_prob_ideal_rejects_huge_phase_without_overflow():
    # norm() would overflow on 1e200 squared; the message still names the norm
    with pytest.raises(ValueError, match=r"alpha must be a unit quaternion, got norm 1e\+200"):
        dark_port_prob_ideal(Quaternion(0.0, 1e200, 0.0, 0.0), I, I)


def test_maximally_noncommuting_model_floods_dark_port():
    model = SagnacModel(visibility_v=1.0, reflection=I, elements=(
        PhaseElement("a", PhaseVector(0.0, math.pi / 2, 0.0)),
        PhaseElement("b", PhaseVector(0.0, 0.0, math.pi / 2)),
    ))
    p = dark_port_prob(model)
    assert math.isclose(p.p_dark, 1.0, rel_tol=1e-12)
    assert math.isclose(loop_defect(model), 2.0, rel_tol=1e-12)


def test_reflection_validation():
    with pytest.raises(ValueError):
        SagnacModel(reflection=Quaternion(0.0, 2.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SagnacModel(reflection=Quaternion(1.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        SagnacModel(visibility_v=1.5)


def test_element_validation():
    with pytest.raises(ValueError):
        PhaseElement("x", amplitude_transmission=1.5)
    with pytest.raises(ValueError):
        SagnacModel(elements=(PhaseElement("x"), PhaseElement("x")))


def test_intensity_transmission():
    model = SagnacModel(elements=(
        PhaseElement("lc", PhaseVector(math.pi, 0.0, 0.0)),
        PhaseElement("nim", PhaseVector(-math.pi, 0.0, 0.0),
                     amplitude_transmission=math.sqrt(0.13)),
    ))
    assert math.isclose(model.intensity_transmission(), 0.13, rel_tol=1e-12)
    assert math.isclose(SagnacModel().intensity_transmission(), 1.0)


def test_loop_defect_small_cases():
    assert loop_defect(SagnacModel()) == 0.0
    # one j-axis element against r = i: defect = 2|sin s|
    s = 0.37
    model = SagnacModel(elements=(PhaseElement("a", PhaseVector(0.0, s, 0.0)),))
    assert math.isclose(loop_defect(model), 2.0 * math.sin(s), rel_tol=1e-12)


def test_gamma_of_model_active_subsets():
    # each subset of the elements is the model build_model makes of it
    eps = 0.02
    cfg = ExperimentConfig(
        visibility_v=V_SAGNAC,
        elements=(PhaseElement("lc", PhaseVector(0.0, eps, 0.0)),
                  PhaseElement("nim", PhaseVector(-math.pi, 0.0, 0.0))),
        configurations={"none": (), "nim": ("nim",), "lc": ("lc",), "both": ("lc", "nim"),
                        "oops": ("oops",)})
    assert gamma_of_model(cfg.build_model("none")) == 1.0
    assert gamma_of_model(cfg.build_model("nim")) == 1.0
    # lc alone or lc+nim: defect 2 sin(eps), Gamma = 1 - 2 sin^2(eps)
    want = 1.0 - 2.0 * math.sin(eps) ** 2
    assert math.isclose(gamma_of_model(cfg.build_model("lc")), want, rel_tol=1e-12)
    assert math.isclose(gamma_of_model(cfg.build_model("both")), want, rel_tol=1e-12)
    with pytest.raises(ConfigError):
        cfg.build_model("oops")


def fresh_defect(r, elements):
    """|r*P_cw - P_ccw*r| recomputed from qexp and mul, sharing no model state."""
    cw = ccw = ONE
    for e in elements:
        q = qexp(e.phase)
        cw, ccw = mul(cw, q), mul(q, ccw)
    return norm(mul(r, cw) - mul(ccw, r))


def test_each_element_exponentiates_once_per_model(monkeypatch):
    calls = []

    def counting_qexp(v):
        calls.append(v)
        return qexp(v)

    monkeypatch.setattr(interferometer, "qexp", counting_qexp)
    model = random_model(np.random.default_rng(26), n_elements=3)
    for _ in range(2):
        dark_port_prob(model)
        propagate_state(model)
        loop_defect(model)
        gamma_of_model(model)
    assert len(calls) == 3


def test_cached_products_never_cross_models():
    rng = np.random.default_rng(27)
    for _ in range(200):
        model = random_model(rng, n_elements=int(rng.integers(2, 5)))
        r = model.reflection
        assert loop_defect(model) == fresh_defect(r, model.elements)
        # a replaced loop starts with empty caches, even after the original's are filled
        elements = tuple(dataclasses.replace(e, phase=PhaseVector(*rng.uniform(-3, 3, 3)))
                         for e in reversed(model.elements))
        replaced = dataclasses.replace(model, elements=elements)
        fresh = SagnacModel(visibility_v=model.visibility_v, reflection=r, elements=elements)
        assert loop_defect(replaced) == loop_defect(fresh) == fresh_defect(r, elements)
        assert dark_port_prob(replaced) == dark_port_prob(fresh)
        assert propagate_state(replaced) == propagate_state(fresh)

    cfg = ExperimentConfig()
    base = [gamma_of_model(m) for m in cfg.build_pair()]
    for eps in (*cfg.epsilon_grid, 0.5, math.pi):
        pair = cfg.with_epsilon(eps).build_pair()
        want = [1.0 - 0.5 * fresh_defect(m.reflection, m.elements) ** 2 for m in pair]
        got = [gamma_of_model(m) for m in pair]
        assert got == want
        # epsilon reaches the toggled loop only and moves its Gamma, except at
        # eps = pi, where a defect of about 2e-16 is lost in 1 - D^2 / 2
        assert got[0] == base[0]
        assert (got[1] != base[1]) == (0.0 < eps < math.pi)


def test_gamma_ratio_reference_point():
    r = gamma_ratio(VisibilityValue(0.040, 0.002), VisibilityValue(0.042, 0.002))
    assert math.isclose(r.value, 1.0000821415299945, rel_tol=1e-12)
    assert math.isclose(r.sigma, 0.0001162054517039263, rel_tol=1e-12)


def test_gamma_ratio_sigma_matches_finite_differences():
    a, b = 0.31, 0.27
    sa, sb = 0.004, 0.003
    h = 1e-7
    f = lambda x, y: gamma_ratio(VisibilityValue(x), VisibilityValue(y)).value
    d_da = (f(a + h, b) - f(a - h, b)) / (2 * h)
    d_db = (f(a, b + h) - f(a, b - h)) / (2 * h)
    want = math.hypot(d_da * sa, d_db * sb)
    got = gamma_ratio(VisibilityValue(a, sa), VisibilityValue(b, sb)).sigma
    assert math.isclose(got, want, rel_tol=1e-6)


def test_gamma_ratio_equal_inputs_give_unity():
    v = VisibilityValue(0.038, 0.001)
    r = gamma_ratio(v, v)
    assert r.value == 1.0


def test_gamma_ratio_rejects_non_physical():
    with pytest.raises(NonPhysicalVisibilityError):
        gamma_ratio(VisibilityValue(1.0), VisibilityValue(0.04))
    with pytest.raises(NonPhysicalVisibilityError):
        gamma_ratio(VisibilityValue(0.04), VisibilityValue(1.0))
    with pytest.raises(ValueError):
        VisibilityValue(1.2)
    with pytest.raises(ValueError):
        VisibilityValue(0.5, -0.1)


def test_theta_bound_reference_point():
    t = theta_bound(0.99999999, 2e-7)
    assert math.isclose(t.central_deg, 0.008102846872523755, rel_tol=1e-12)
    assert math.isclose(t.conservative_deg, 0.037131909668502841, rel_tol=1e-12)


def test_theta_bound_clamps_and_orders():
    assert theta_bound(1.0000001).central_deg == 0.0
    assert theta_bound(1.5, 0.1).central_deg == 0.0
    rng = np.random.default_rng(24)
    for _ in range(100):
        ratio = rng.uniform(0.9, 1.1)
        sigma = rng.uniform(0.0, 0.05)
        t = theta_bound(ratio, sigma)
        assert t.conservative_deg >= t.central_deg
    with pytest.raises(ValueError):
        theta_bound(1.0, -1e-3)


def test_theta_bound_inverts_cosine():
    for theta_deg in (0.5, 2.0, 10.0):
        ratio = math.cos(math.radians(theta_deg))
        assert math.isclose(theta_bound(ratio).central_deg, theta_deg, rel_tol=1e-12)


def test_theta_parameterization_is_bit_identical():
    rng = np.random.default_rng(25)
    for _ in range(500):
        v = rng.uniform(0.0, 1.0)
        theta = rng.uniform(0.0, math.pi)
        p = sagnac_probs_theta(v, theta)
        assert mz_visibility_theta(v, theta) == 2.0 * math.sqrt(p.p_bright * p.p_dark)


def test_theta_parameterization_edges():
    p = sagnac_probs_theta(1.0, 0.0)
    assert p.p_dark == 0.0 and p.p_bright == 1.0
    assert mz_visibility_theta(1.0, 0.0) == 0.0
    assert math.isclose(mz_visibility_theta(1.0, math.pi / 2), 1.0)
    assert math.isclose(mz_visibility_theta(V_SAGNAC, 0.0), V0, rel_tol=1e-13)


def test_theta_bound_dataclass_fields():
    t = ThetaBound(central_deg=0.1, conservative_deg=0.2)
    assert t.central_deg < t.conservative_deg
