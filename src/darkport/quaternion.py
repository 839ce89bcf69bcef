"""Quaternion arithmetic and the phase primitives used by the interferometer models.

A quaternion w + x*i + y*j + z*k generalizes a complex phase factor: the
three imaginary axes let two unit phases fail to commute, which is the
effect the rest of this package simulates and bounds.  Multiplication
follows the Hamilton convention (i*j = k, j*k = i, k*i = j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Quaternion",
    "PhaseVector",
    "ONE",
    "I",
    "J",
    "K",
    "mul",
    "conj",
    "norm",
    "qexp",
    "require_unit",
    "commutator_norm",
    "generalized_defect",
]

UNIT_TOL = 1e-9  # absolute tolerance for "unit quaternion" checks
_new = tuple.__new__


class Quaternion(NamedTuple):
    """A quaternion w + x*i + y*j + z*k: an immutable 4-tuple, equal to the plain
    tuple (w, x, y, z).  Its arithmetic reads any 4-sequence as a quaternion;
    tuple concatenation and repetition (``(1.0,) + q``, ``3 * q``) raise."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __add__(self, other: "Quaternion") -> "Quaternion":
        (w, x, y, z), (ow, ox, oy, oz) = self, other
        return _new(Quaternion, (w + ow, x + ox, y + oy, z + oz))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        (w, x, y, z), (ow, ox, oy, oz) = self, other
        return _new(Quaternion, (w - ow, x - ox, y - oy, z - oz))

    def __neg__(self) -> "Quaternion":
        w, x, y, z = self
        return _new(Quaternion, (-w, -x, -y, -z))

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return mul(self, other)

    def __radd__(self, other):  # else tuple concatenation answers (1.0,) + q
        raise TypeError(f"cannot combine {type(other).__name__!r} with a Quaternion")

    __rmul__ = __radd__

    def scaled(self, s: float) -> "Quaternion":
        w, x, y, z = self
        return _new(Quaternion, (s * w, s * x, s * y, s * z))

    @property
    def is_unit(self) -> bool:
        # a component above 2 already rules a unit out, and could overflow norm()
        return max(map(abs, self)) <= 2.0 and abs(norm(self) - 1.0) <= UNIT_TOL

    @property
    def is_imaginary(self) -> bool:
        return abs(self.w) <= UNIT_TOL

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return norm(self - other) <= tol


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class PhaseVector:
    """Generalized phase (phi1, phi2, phi3) in radians.

    phi1 multiplies the i axis and is the ordinary optical phase; phi2 and
    phi3 multiply j and k.  phi2 = phi3 = 0 recovers a complex phase.
    """

    phi1: float = 0.0
    phi2: float = 0.0
    phi3: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.phi1) and math.isfinite(self.phi2)
                and math.isfinite(self.phi3)):
            name = next(n for n in ("phi1", "phi2", "phi3")
                        if not math.isfinite(getattr(self, n)))
            raise ValueError(f"phase component {name} must be finite")

    @property
    def magnitude(self) -> float:
        return math.hypot(self.phi1, self.phi2, self.phi3)


def mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Hamilton product a*b (non-commutative in general)."""
    (aw, ax, ay, az), (bw, bx, by, bz) = a, b
    return _new(Quaternion, (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ))


def conj(q: Quaternion) -> Quaternion:
    """Quaternion conjugate: negates the imaginary part."""
    w, x, y, z = q
    return _new(Quaternion, (w, -x, -y, -z))


def norm(q: Quaternion) -> float:
    """Euclidean 4-norm; multiplicative over the Hamilton product."""
    return math.sqrt(q.w ** 2 + q.x ** 2 + q.y ** 2 + q.z ** 2)


def qexp(v: PhaseVector) -> Quaternion:
    """Exponential of the imaginary quaternion i*phi1 + j*phi2 + k*phi3.

    Returns the unit quaternion cos|v| + sin|v| * (unit direction of v).
    |v| below 1e-12 returns the exact identity, avoiding a 0/0 in the
    direction computation.
    """
    m = v.magnitude
    if m < 1e-12:
        return ONE
    s = math.sin(m) / m
    return _new(Quaternion, (math.cos(m), s * v.phi1, s * v.phi2, s * v.phi3))


def require_unit(q: Quaternion, name: str) -> None:
    """Raise ValueError, naming q and its norm, unless q is a unit quaternion."""
    if not q.is_unit:
        raise ValueError(f"{name} must be a unit quaternion, "
                         f"got norm {math.hypot(q.w, q.x, q.y, q.z)!r}")


def commutator_norm(a: Quaternion, b: Quaternion) -> float:
    """|a*b - b*a|: zero exactly when the two phases commute."""
    return norm(mul(a, b) - mul(b, a))


def generalized_defect(a: Quaternion, b: Quaternion, r: Quaternion) -> float:
    """|r*a*b - b*a*r|: joint non-commutativity of a, b, and the reflection r.

    r must be a unit quaternion (it plays the role of a beamsplitter
    reflection factor).  When r commutes with both a and b this reduces to
    commutator_norm(a, b).
    """
    require_unit(r, "reflection")
    return norm(mul(mul(r, a), b) - mul(mul(b, a), r))
