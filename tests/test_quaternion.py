import math

import numpy as np
import pytest

from darkport.quaternion import (
    I,
    J,
    K,
    ONE,
    PhaseVector,
    Quaternion,
    commutator_norm,
    conj,
    generalized_defect,
    mul,
    norm,
    qexp,
)


def to_matrix(q):
    """Independent oracle: 2x2 complex representation of a quaternion."""
    return np.array([[q.w + 1j * q.x, q.y + 1j * q.z],
                     [-q.y + 1j * q.z, q.w - 1j * q.x]])


def random_quaternion(rng, unit=False):
    w = rng.normal(size=4)
    if unit:
        w = w / np.linalg.norm(w)
    return Quaternion(*w)


def test_hamilton_table():
    assert mul(I, J) == K
    assert mul(J, K) == I
    assert mul(K, I) == J
    assert mul(J, I) == -K
    assert mul(K, J) == -I
    assert mul(I, K) == -J
    for u in (I, J, K):
        assert mul(u, u) == -ONE
        assert mul(ONE, u) == u
        assert mul(u, ONE) == u


def test_multiplication_matches_matrix_representation():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a = random_quaternion(rng)
        b = random_quaternion(rng)
        got = to_matrix(mul(a, b))
        want = to_matrix(a) @ to_matrix(b)
        assert np.allclose(got, want, atol=1e-12)


def test_norm_is_multiplicative():
    rng = np.random.default_rng(12)
    for _ in range(300):
        a = random_quaternion(rng)
        b = random_quaternion(rng)
        assert math.isclose(norm(mul(a, b)), norm(a) * norm(b),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_multiplication_is_associative():
    rng = np.random.default_rng(13)
    for _ in range(300):
        a, b, c = (random_quaternion(rng) for _ in range(3))
        left = mul(mul(a, b), c)
        right = mul(a, mul(b, c))
        assert norm(left - right) < 1e-12 * max(1.0, norm(left))


def test_conjugation_reverses_products():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = random_quaternion(rng)
        b = random_quaternion(rng)
        assert norm(conj(mul(a, b)) - mul(conj(b), conj(a))) < 1e-12


def test_conj_and_norm_basics():
    q = Quaternion(1.0, -2.0, 3.0, -4.0)
    assert conj(q) == Quaternion(1.0, 2.0, -3.0, 4.0)
    assert math.isclose(norm(q), math.sqrt(30.0))
    assert math.isclose(mul(q, conj(q)).w, 30.0)
    assert norm(mul(q, conj(q)) - Quaternion(30.0)) < 1e-12


def test_qexp_on_axis_matches_cos_sin():
    v = PhaseVector(0.1, 0.0, 0.0)
    q = qexp(v)
    assert math.isclose(q.w, 0.9950041652780258, rel_tol=1e-15)
    assert math.isclose(q.x, 0.09983341664682815, rel_tol=1e-15)
    assert q.y == 0.0 and q.z == 0.0


def test_qexp_is_unit_and_additive_on_one_axis():
    rng = np.random.default_rng(15)
    for _ in range(200):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        s, t = rng.uniform(-2.0, 2.0, size=2)
        qs = qexp(PhaseVector(*(s * direction)))
        qt = qexp(PhaseVector(*(t * direction)))
        qst = qexp(PhaseVector(*((s + t) * direction)))
        assert abs(norm(qs) - 1.0) < 1e-12
        assert norm(mul(qs, qt) - qst) < 1e-12


def test_qexp_zero_and_tiny():
    assert qexp(PhaseVector(0.0, 0.0, 0.0)) == ONE
    q = qexp(PhaseVector(1e-13, 0.0, 0.0))
    assert q == ONE


def test_qexp_pi_axes():
    # exp(u pi/2) = u for each basis direction
    assert norm(qexp(PhaseVector(math.pi / 2, 0.0, 0.0)) - I) < 1e-12
    assert norm(qexp(PhaseVector(0.0, math.pi / 2, 0.0)) - J) < 1e-12
    assert norm(qexp(PhaseVector(0.0, 0.0, math.pi / 2)) - K) < 1e-12


def test_commutator_norm_complex_phases_commute():
    rng = np.random.default_rng(16)
    for _ in range(100):
        a = qexp(PhaseVector(rng.uniform(-3, 3), 0.0, 0.0))
        b = qexp(PhaseVector(rng.uniform(-3, 3), 0.0, 0.0))
        assert commutator_norm(a, b) < 1e-12


def test_commutator_norm_orthogonal_axes():
    # |[e^(j s), e^(i t)]| = 2 |sin s sin t|
    rng = np.random.default_rng(17)
    for _ in range(200):
        s, t = rng.uniform(-3.0, 3.0, size=2)
        a = qexp(PhaseVector(0.0, s, 0.0))
        b = qexp(PhaseVector(t, 0.0, 0.0))
        assert math.isclose(commutator_norm(a, b), 2.0 * abs(math.sin(s) * math.sin(t)),
                            rel_tol=1e-10, abs_tol=1e-12)


def test_generalized_defect_examples():
    assert math.isclose(generalized_defect(J, K, I), 2.0, rel_tol=1e-12)
    # complex phases with r = i: everything commutes
    a = qexp(PhaseVector(0.7, 0.0, 0.0))
    b = qexp(PhaseVector(-1.3, 0.0, 0.0))
    assert generalized_defect(a, b, I) < 1e-12
    # j-axis phase against the pi complex phase: defect 2 sin(eps)
    eps = 0.0501
    a = qexp(PhaseVector(0.0, eps, 0.0))
    b = qexp(PhaseVector(math.pi, 0.0, 0.0))
    assert math.isclose(generalized_defect(a, b, I), 2.0 * math.sin(eps), rel_tol=1e-12)


def test_generalized_defect_rejects_non_unit_reflection():
    with pytest.raises(ValueError):
        generalized_defect(I, J, Quaternion(0.0, 2.0, 0.0, 0.0))


def test_generalized_defect_rejects_huge_reflection_without_overflow():
    # norm() would overflow on 1e200 squared; the message still names the norm
    with pytest.raises(ValueError, match=r"got norm 1e\+200"):
        generalized_defect(I, I, Quaternion(0.0, 1e200, 0.0, 0.0))


def test_generalized_defect_invariant_under_overall_sign():
    rng = np.random.default_rng(18)
    for _ in range(50):
        a = random_quaternion(rng, unit=True)
        b = random_quaternion(rng, unit=True)
        r = Quaternion(0.0, *(rng.normal(size=3)))
        r = r.scaled(1.0 / norm(r))
        assert math.isclose(generalized_defect(a, b, r),
                            generalized_defect(-a, b, r), rel_tol=1e-12)


def test_phase_vector_magnitude():
    v = PhaseVector(3.0, 4.0, 0.0)
    assert math.isclose(v.magnitude, 5.0)


def test_phase_vector_rejects_non_finite():
    with pytest.raises(ValueError):
        PhaseVector(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        PhaseVector(0.0, math.inf, 0.0)


def test_quaternion_helpers():
    assert I.is_unit and I.is_imaginary
    assert not Quaternion(0.5, 0.5, 0.5, 0.5).is_imaginary
    assert Quaternion(0.5, 0.5, 0.5, 0.5).is_unit
    q = Quaternion(1.0, 2.0, 3.0, 4.0)
    assert q.scaled(0.5) == Quaternion(0.5, 1.0, 1.5, 2.0)
    assert (q * Quaternion(1.0)).isclose(q)


def test_quaternion_is_an_immutable_value():
    q = Quaternion(1.0, -2.0, 3.0, -4.0)
    with pytest.raises(AttributeError):
        q.w = 0.0
    same = Quaternion(1.0, -2.0, 3.0, -4.0)
    assert q == same == (1.0, -2.0, 3.0, -4.0)
    assert hash(q) == hash(same) == hash((1.0, -2.0, 3.0, -4.0))
    assert {q: "q"}[same] == "q" and q != Quaternion(1.0, -2.0, 3.0, 4.0)
    # tuple repetition and concatenation never answer for quaternion arithmetic
    for combine in (lambda: 3 * q, lambda: q * 3, lambda: (1.0,) + q, lambda: q + (1.0,)):
        with pytest.raises((TypeError, ValueError)):
            combine()
