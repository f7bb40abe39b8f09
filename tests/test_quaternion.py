"""Scalar quaternion arithmetic against hand-expanded products."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatframes.quaternion import I, J, K, ONE, Quaternion

ABS_TOL = 1e-12
REL_TOL = 1e-12
SEED = 1234


def qclose(p, q, tol=ABS_TOL):
    return all(abs(a - b) <= tol for a, b in zip(p.components, q.components))


def random_quaternions(count, scale=1.0):
    rng = np.random.default_rng(SEED)
    comps = rng.standard_normal((count, 4)) * scale
    return [Quaternion.from_components(c) for c in comps]


# ====== frozen products, expanded by hand ======

def test_unit_multiplication_table():
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE


def test_product_of_one_plus_i_and_one_plus_j():
    # (1+i)(1+j) = 1 + j + i + ij = 1 + i + j + k
    p = Quaternion(1, 1, 0, 0)
    q = Quaternion(1, 0, 1, 0)
    assert p * q == Quaternion(1, 1, 1, 1)
    # swapping the factors flips the sign of the k part
    assert q * p == Quaternion(1, 1, 1, -1)


def test_conjugate_of_product():
    p = Quaternion(1, 1, 0, 0)
    q = Quaternion(1, 0, 1, 0)
    assert (p * q).conjugate() == Quaternion(1, -1, -1, -1)


def test_conjugation_reverses_products_sign_exactly():
    # integer components keep float arithmetic exact
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        p = Quaternion.from_components(rng.integers(-9, 10, size=4))
        q = Quaternion.from_components(rng.integers(-9, 10, size=4))
        assert (p * q).conjugate() == q.conjugate() * p.conjugate()


def test_modulus_values():
    assert abs(Quaternion(1, 1, 1, 1)) == 2.0
    assert abs(Quaternion(3, 0, 4, 0)) == 5.0
    assert Quaternion(1, 1, 1, 1).norm_sq() == 4.0


def test_inverse_of_one_plus_i_plus_j_plus_k():
    q = Quaternion(1, 1, 1, 1)
    assert q.inverse() == Quaternion(0.25, -0.25, -0.25, -0.25)
    assert qclose(q * q.inverse(), ONE)
    assert qclose(q.inverse() * q, ONE)


def test_inverse_of_tiny_quaternion_raises():
    with pytest.raises(ZeroDivisionError):
        Quaternion(0, 0, 0, 0).inverse()
    # 1/|q| overflows for the smallest subnormal modulus
    with pytest.raises(ZeroDivisionError):
        Quaternion(5e-324, 0, 0, 0).inverse()
    q = Quaternion(0, 1e-200, 0, 0)
    assert qclose(q * q.inverse(), ONE)


@pytest.mark.parametrize("modulus", [1e-301, 1e-305])
def test_inverse_of_tiny_quaternion_is_finite(modulus):
    assert Quaternion(modulus, 0, 0, 0).inverse() == Quaternion(1 / modulus, 0, 0, 0)
    q = Quaternion(modulus, -modulus / 3, modulus / 7, modulus / 2)
    assert qclose(q * q.inverse(), ONE, tol=1e-15)
    assert qclose(q.inverse() * q, ONE, tol=1e-15)


# ====== ring axioms on random samples ======

def test_associativity_and_distributivity():
    qs = random_quaternions(900)
    for p, q, r in zip(qs[0::3], qs[1::3], qs[2::3]):
        assert qclose((p * q) * r, p * (q * r))
        assert qclose(p * (q + r), p * q + p * r)
        assert qclose((p + q) * r, p * r + q * r)


def test_modulus_is_multiplicative():
    qs = random_quaternions(400)
    for p, q in zip(qs[0::2], qs[1::2]):
        assert abs(abs(p * q) - abs(p) * abs(q)) <= REL_TOL * abs(p) * abs(q)


def test_inverse_round_trip():
    for q in random_quaternions(100):
        assert qclose(q * q.inverse(), ONE, tol=1e-13)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=12, max_size=12))
def test_associativity_property(comps):
    p = Quaternion.from_components(comps[0:4])
    q = Quaternion.from_components(comps[4:8])
    r = Quaternion.from_components(comps[8:12])
    left = (p * q) * r
    right = p * (q * r)
    scale = max(1.0, abs(p) * abs(q) * abs(r))
    assert all(abs(a - b) <= 1e-10 * scale
               for a, b in zip(left.components, right.components))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=8, max_size=8))
def test_conjugation_antiautomorphism_property(comps):
    p = Quaternion.from_components(comps[0:4])
    q = Quaternion.from_components(comps[4:8])
    assert (p * q).conjugate() == q.conjugate() * p.conjugate()


# ====== scalar mixing and misc ======

def test_real_scalars_commute():
    q = Quaternion(1, 2, 3, 4)
    assert 2 * q == q * 2 == Quaternion(2, 4, 6, 8)
    assert q / 2 == Quaternion(0.5, 1, 1.5, 2)


def test_conjugate_fixes_reals_and_negates_imaginaries():
    q = Quaternion(5, 0, 0, 0)
    assert q.conjugate() == q
    assert Quaternion(0, 1, -2, 3).conjugate() == Quaternion(0, -1, 2, -3)


def test_modulus_equals_sqrt_of_conj_product():
    for q in random_quaternions(50):
        m = (q.conjugate() * q).r0
        assert abs(math.sqrt(m) - abs(q)) <= 1e-12 * abs(q)
        # conj(q) * q has no imaginary part
        assert qclose(q.conjugate() * q, Quaternion(m, 0, 0, 0), tol=1e-12)
