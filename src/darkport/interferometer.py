"""Sagnac-in-Mach-Zehnder interferometer models.

Each model computes its loop products when it is built:
``PhaseElement.quaternion``, ``SagnacModel.loop_products`` (the clockwise
and counter-clockwise phase products) and ``SagnacModel.defect`` are set
in ``__post_init__``, so every route below reads the same values.  From
those products, two routes to the same physics stay separate:

* ``propagate_state`` walks a single photon through the Sagnac loop with an
  explicit 2x2 quaternionic density matrix (the brute-force route), and
* ``dark_port_prob`` evaluates the closed form built on the loop defect
  |r*P_cw - P_ccw*r|.

The closed form must agree with the explicit propagation to 1e-12; tests
enforce it.  Both classes are frozen with immutable fields, and
``dataclasses.replace`` builds a new instance, which computes its own
products, so a product never goes stale.  The reflection factor is
restricted to unit *imaginary* quaternions: a 50:50 beamsplitter is
unitary only for a pi/2-type reflection, and with a real component the
two output ports would not sum to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .quaternion import (
    I,
    ONE,
    PhaseVector,
    Quaternion,
    UNIT_TOL,
    conj,
    generalized_defect,
    mul,
    norm,
    qexp,
    require_unit,
)

__all__ = [
    "PhaseElement",
    "SagnacModel",
    "PortProbabilities",
    "VisibilityValue",
    "UncertainValue",
    "ThetaBound",
    "NonPhysicalVisibilityError",
    "dark_port_prob_ideal",
    "propagate_state",
    "dark_port_prob",
    "loop_defect",
    "mz_visibility_from_ports",
    "gamma_of_model",
    "gamma_ratio",
    "theta_bound",
    "sagnac_probs_theta",
    "mz_visibility_theta",
]


class NonPhysicalVisibilityError(ValueError):
    """A visibility outside [0, 1) was fed into a Gamma-ratio computation."""


@dataclass(frozen=True)
class PhaseElement:
    """One phase element inside the Sagnac loop.

    ``phase`` determines the element's unit quaternion via qexp;
    ``amplitude_transmission`` only rescales count rates downstream (both
    loop directions traverse every element, so it cancels from the port
    probabilities).
    """

    label: str
    phase: PhaseVector = PhaseVector()
    amplitude_transmission: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.amplitude_transmission <= 1.0:
            raise ValueError(
                f"amplitude_transmission must lie in (0, 1], got {self.amplitude_transmission!r}")
        object.__setattr__(self, "quaternion", qexp(self.phase))


@dataclass(frozen=True)
class SagnacModel:
    """Sagnac loop: intrinsic visibility, reflection unit, ordered elements.

    ``elements`` are listed in clockwise order; the counter-clockwise mode
    sees them reversed, which is what makes the loop sensitive to
    non-commuting phases.  ``loop_products`` (clockwise, in list order, and
    counter-clockwise) and ``defect`` are computed when the model is built.
    """

    visibility_v: float = 1.0
    reflection: Quaternion = I
    elements: Sequence[PhaseElement] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.visibility_v <= 1.0:
            raise ValueError(f"visibility_v must lie in [0, 1], got {self.visibility_v!r}")
        require_unit(self.reflection, "reflection")
        if not self.reflection.is_imaginary:
            # pi/2-type reflection: exp(u*pi/2) = u for a unit imaginary u.
            # A real component breaks beamsplitter unitarity.
            raise ValueError("reflection must be purely imaginary (a pi/2-type reflection)")
        object.__setattr__(self, "elements", tuple(self.elements))
        labels = [e.label for e in self.elements]
        if len(set(labels)) != len(labels):
            raise ValueError(f"element labels must be unique, got {labels!r}")
        cw = ccw = ONE
        for q in (e.quaternion for e in self.elements):
            cw, ccw = mul(cw, q), mul(q, ccw)
        r = self.reflection
        object.__setattr__(self, "loop_products", (cw, ccw))
        object.__setattr__(self, "defect", norm(mul(r, cw) - mul(ccw, r)))

    def intensity_transmission(self) -> float:
        """Squared product of element amplitude transmissions."""
        t = 1.0
        for e in self.elements:
            t *= e.amplitude_transmission
        return t * t


@dataclass(frozen=True)
class PortProbabilities:
    """Bright/dark port probabilities of the Sagnac (unit-transmission model)."""

    p_bright: float
    p_dark: float

    def __post_init__(self) -> None:
        tol = 1e-9
        for name, p in (("p_bright", self.p_bright), ("p_dark", self.p_dark)):
            if not -tol <= p <= 1.0 + tol:
                raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
        if abs(self.p_bright + self.p_dark - 1.0) > tol:
            raise ValueError(
                f"port probabilities must sum to 1, got {self.p_bright + self.p_dark!r}")
        # scrub float dust so downstream sqrt() is safe
        object.__setattr__(self, "p_bright", min(max(self.p_bright, 0.0), 1.0))
        object.__setattr__(self, "p_dark", min(max(self.p_dark, 0.0), 1.0))


@dataclass(frozen=True)
class VisibilityValue:
    """A fringe visibility with its 1-sigma uncertainty."""

    value: float
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.value!r}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")


@dataclass(frozen=True)
class UncertainValue:
    """A scalar with a propagated 1-sigma uncertainty."""

    value: float
    sigma: float


@dataclass(frozen=True)
class ThetaBound:
    """Effective CW/CCW phase-shift bound, in degrees, under two conventions."""

    central_deg: float
    conservative_deg: float


def dark_port_prob_ideal(alpha: Quaternion, beta: Quaternion, r: Quaternion) -> float:
    """Dark-port probability of a perfect Sagnac with phases alpha, beta.

    Equals |r*alpha*beta - beta*alpha*r|^2 / 4 and vanishes when alpha,
    beta, and r all mutually commute (any complex-phase configuration).
    """
    require_unit(alpha, "alpha")
    require_unit(beta, "beta")
    d = generalized_defect(alpha, beta, r)
    return 0.25 * d * d


def loop_defect(model: SagnacModel) -> float:
    """|r*P_cw - P_ccw*r| for the loop's phase products.

    The two-element case is generalized_defect(alpha, beta, r); with a
    single element it is the commutator norm of that phase with the
    reflection, and with none it is zero.  It reads the ``defect`` the
    model computed when it was built, so a call does no arithmetic.
    """
    return model.defect


def propagate_state(model: SagnacModel) -> PortProbabilities:
    """Brute-force port probabilities via explicit quaternionic propagation.

    Builds the clockwise amplitude (phase product times the entry
    reflection) and the counter-clockwise amplitude, forms the 2x2 density
    matrix, scales the coherences by the Sagnac visibility v, applies the
    exit beamsplitter, and reads the diagonal.  This is the oracle the
    closed forms are tested against.  It shares only the model's loop
    products, computed when the model was built, with them; the
    density-matrix walk is its own.
    """
    cw, ccw = model.loop_products
    r = model.reflection
    v = model.visibility_v

    c_cw = mul(cw, r)  # reflected on entry, then dephased around the loop
    c_ccw = ccw

    rho11 = rho22 = Quaternion(0.5)
    rho12 = mul(c_cw, conj(c_ccw)).scaled(0.5 * v)
    rho21 = mul(c_ccw, conj(c_cw)).scaled(0.5 * v)

    # exit beamsplitter U = [[1, r], [r, 1]]/sqrt(2); probabilities are the
    # diagonal of U rho U^dagger
    rc = conj(r)
    p_bright_q = (rho11 + mul(rho12, rc) + mul(r, rho21) + mul(mul(r, rho22), rc)).scaled(0.5)
    p_dark_q = (mul(mul(r, rho11), rc) + mul(r, rho12) + mul(rho21, rc) + rho22).scaled(0.5)

    if max(abs(p_bright_q.x), abs(p_bright_q.y), abs(p_bright_q.z),
           abs(p_dark_q.x), abs(p_dark_q.y), abs(p_dark_q.z)) > UNIT_TOL:
        raise ValueError("propagated port probabilities came out non-real")
    return PortProbabilities(p_bright=p_bright_q.w, p_dark=p_dark_q.w)


def dark_port_prob(model: SagnacModel) -> PortProbabilities:
    """Closed-form port probabilities: P_D = 1/2 - (v/2) (1 - defect^2 / 2).

    The defect is the model's ``defect``, computed when it was built.
    """
    d = model.defect
    p_dark = 0.5 - 0.5 * model.visibility_v * (1.0 - 0.5 * d * d)
    return PortProbabilities(p_bright=1.0 - p_dark, p_dark=p_dark)


def mz_visibility_from_ports(p: PortProbabilities) -> float:
    """Visibility of the Mach-Zehnder fringe fed by the two Sagnac ports."""
    return 2.0 * math.sqrt(p.p_bright * p.p_dark)


def gamma_of_model(model: SagnacModel) -> float:
    """Commutativity factor Gamma = 1 - defect^2 / 2 of the model's loop.

    A toggle configuration (liquid crystal on/off, metamaterial in/out) is
    the model of just its elements, as ExperimentConfig.build_model builds
    it.  Gamma is 1 exactly when the loop's phases and the reflection all
    commute, and ranges down to -1.  The defect is the model's ``defect``,
    computed when it was built.
    """
    d = model.defect
    return 1.0 - 0.5 * d * d


def gamma_ratio(v_both: VisibilityValue, v_nim: VisibilityValue) -> UncertainValue:
    """Gamma ratio sqrt((1 - V_both^2) / (1 - V_nim^2)) with propagated sigma.

    The Sagnac's own visibility cancels from this ratio, which is why the
    experiment measures it.  The two sigmas are treated as independent
    (they come from separate fits).
    """
    a, b = v_both.value, v_nim.value
    if not 0.0 <= a < 1.0:
        raise NonPhysicalVisibilityError(f"V_both must lie in [0, 1), got {a!r}")
    if not 0.0 <= b < 1.0:
        raise NonPhysicalVisibilityError(f"V_nim must lie in [0, 1), got {b!r}")
    num = (1.0 - a) * (1.0 + a)
    den = (1.0 - b) * (1.0 + b)
    ratio = math.sqrt(num / den)
    d_da = -a / math.sqrt(num * den)
    d_db = b * ratio / den
    sigma = math.hypot(d_da * v_both.sigma, d_db * v_nim.sigma)
    return UncertainValue(value=ratio, sigma=sigma)


def theta_bound(ratio: float, sigma: float = 0.0) -> ThetaBound:
    """Convert a Gamma ratio into an effective CW/CCW phase shift in degrees.

    Measured ratios can statistically exceed 1, so the acos argument is
    clamped to [-1, 1] (ratios >= 1 give theta = 0 rather than a crash).
    The central convention uses the ratio itself; the conservative one
    subtracts one sigma first and is never smaller.  A non-finite ratio
    or sigma raises ValueError.
    """
    if not math.isfinite(ratio):
        raise ValueError(f"ratio must be finite, got {ratio!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")

    def _theta(x: float) -> float:
        return math.degrees(math.acos(min(max(x, -1.0), 1.0)))

    return ThetaBound(central_deg=_theta(ratio), conservative_deg=_theta(ratio - sigma))


def sagnac_probs_theta(v: float, theta: float) -> PortProbabilities:
    """Port probabilities for an effective phase shift theta between the loop modes."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v must lie in [0, 1], got {v!r}")
    g = v * math.cos(theta)
    return PortProbabilities(p_bright=0.5 + 0.5 * g, p_dark=0.5 - 0.5 * g)


def mz_visibility_theta(v: float, theta: float) -> float:
    """Mach-Zehnder visibility sqrt(1 - v^2 cos^2 theta).

    The factored form (1 - g)(1 + g) keeps this bit-identical to
    2*sqrt(P_B*P_D) computed from sagnac_probs_theta.
    """
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v must lie in [0, 1], got {v!r}")
    g = v * math.cos(theta)
    return math.sqrt((1.0 - g) * (1.0 + g))
