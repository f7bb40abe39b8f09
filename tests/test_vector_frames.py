"""Vector frames: bounds, classification, duals, reconstruction."""

import numpy as np
import pytest

from conftest import (
    random_qvector,
    random_unit_qvector,
    shifted_basis_vector_frame,
    standard_basis,
)
from quatframes.errors import DimensionMismatch, NotAFrame
from quatframes.linalg import QMatrix, QVector, frobenius_distance, inner
from quatframes.quaternion import I, J, ONE, Quaternion
from quatframes.vector_frames import (
    VectorFrame,
    analysis,
    canonical_dual,
    frame_operator,
    report,
    synthesis,
)

SEED = 424242


def test_orthonormal_basis_is_parseval_and_exact():
    f = VectorFrame(4, standard_basis(4))
    s = frame_operator(f)
    assert frobenius_distance(s, QMatrix.identity(4)) == 0.0
    r = report(f)
    assert (r.lower, r.upper) == (1.0, 1.0)
    assert r.is_bessel and r.is_frame and r.is_tight and r.is_parseval
    assert r.is_exact


def test_shifted_basis_bounds_and_flags():
    f = shifted_basis_vector_frame(7)
    s = frame_operator(f)
    assert np.array_equal(s.data[..., 0], np.diag([2.0] + [1.0] * 6))
    assert np.all(s.data[..., 1:] == 0.0)
    r = report(f)
    assert abs(r.lower - 1.0) <= 1e-9
    assert abs(r.upper - 2.0) <= 1e-9
    assert r.is_frame and not r.is_tight and not r.is_parseval
    # the doubled first vector is redundant
    assert not r.is_exact


def test_single_vector_in_h2_is_not_a_frame():
    f = VectorFrame(2, [QVector.basis(2, 0)])
    r = report(f)
    assert r.is_bessel
    assert not r.is_frame
    assert abs(r.lower) <= 1e-12 and abs(r.upper - 1.0) <= 1e-12


def test_empty_frame_reports_bessel_only():
    r = report(VectorFrame(3, []))
    assert r.is_bessel and not r.is_frame and not r.is_exact
    assert r.lower == 0.0 and r.upper == 0.0


def test_member_dim_validated():
    with pytest.raises(DimensionMismatch):
        VectorFrame(3, [QVector.basis(3, 0), QVector.basis(2, 0)])


def test_overcomplete_pair_plus_sum_is_not_exact():
    e1, e2 = standard_basis(2)
    f = VectorFrame(2, [e1, e2, e1 + e2])
    r = report(f)
    assert r.is_frame and not r.is_exact


def test_frame_operator_matches_synthesis_compose_analysis():
    gen = np.random.default_rng(SEED)
    f = VectorFrame(5, [random_qvector(gen, 5) for _ in range(8)])
    m = f.analysis_matrix().adjoint()
    composed = m @ m.adjoint()
    assert frobenius_distance(composed, frame_operator(f)) <= 1e-12 * composed.frobenius()


def test_analysis_energy_within_bounds():
    gen = np.random.default_rng(SEED)
    f = VectorFrame(4, [random_qvector(gen, 4) for _ in range(6)])
    r = report(f)
    for _ in range(100):
        u = random_unit_qvector(gen, 4)
        energy = sum(abs(c) ** 2 for c in analysis(f, u))
        assert r.lower - 1e-9 <= energy <= r.upper + 1e-9


def test_synthesis_applies_right_coefficients():
    e1, e2 = standard_basis(2)
    f = VectorFrame(2, [e1, e2])
    v = synthesis(f, QVector.from_quaternions([I, J]))
    assert v[0] == I and v[1] == J
    # synthesis of the analysis of u against an orthonormal basis is u
    gen = np.random.default_rng(SEED)
    u = random_qvector(gen, 2)
    w = synthesis(f, analysis(f, u))
    assert np.allclose(w.data, u.data, atol=1e-14)


def test_canonical_dual_bounds_are_reciprocal():
    f = shifted_basis_vector_frame(5)
    d = canonical_dual(f)
    r = report(d)
    assert abs(r.lower - 0.5) <= 1e-9
    assert abs(r.upper - 1.0) <= 1e-9


def test_dual_reconstructs_and_round_trips():
    gen = np.random.default_rng(SEED)
    f = VectorFrame(4, [random_qvector(gen, 4) for _ in range(7)])
    d = canonical_dual(f)
    for _ in range(20):
        u = random_qvector(gen, 4)
        w = synthesis(d, analysis(f, u))
        assert (w - u).norm() <= 1e-9 * max(1.0, u.norm())
    dd = canonical_dual(d)
    for m_orig, m_back in zip(f.members, dd.members):
        assert (m_orig - m_back).norm() <= 1e-8 * max(1.0, m_orig.norm())


def test_rank_deficient_family_has_no_dual():
    f = VectorFrame(3, [QVector.basis(3, 0), QVector.basis(3, 1)])
    with pytest.raises(NotAFrame):
        canonical_dual(f)


def test_frame_operator_commutes_with_right_scalars():
    # S(u q) = (S u) q: right-linearity of the frame operator
    gen = np.random.default_rng(SEED)
    f = VectorFrame(3, [random_qvector(gen, 3) for _ in range(5)])
    s = frame_operator(f)
    u = random_qvector(gen, 3)
    q = Quaternion(0.5, -1.0, 2.0, 0.25)
    assert np.allclose((s @ (u * q)).data, ((s @ u) * q).data, atol=1e-12)


def test_quaternionic_members_give_selfadjoint_operator():
    gen = np.random.default_rng(SEED)
    f = VectorFrame(4, [random_qvector(gen, 4) for _ in range(5)])
    s = frame_operator(f)
    assert frobenius_distance(s, s.adjoint()) <= 1e-12 * s.frobenius()
    # quadratic form is the analysis energy
    u = random_qvector(gen, 4)
    energy = sum(abs(c) ** 2 for c in analysis(f, u))
    assert abs(inner(u, s @ u).r0 - energy) <= 1e-10 * energy
