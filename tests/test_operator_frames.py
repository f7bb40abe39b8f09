"""Frames of operators: bounds, induced rows, duals, whitening."""

import numpy as np
import pytest

from conftest import (
    coordinate_functional_frame,
    random_operator_frame,
    random_qvector,
    random_unit_qvector,
    shifted_basis_operator_frame,
    shifted_basis_vectors,
)
from quatframes.errors import DimensionMismatch, NotAFrame
from quatframes.linalg import (
    QMatrix,
    QVector,
    frobenius_distance,
    inner,
    inverse_matrix,
    positive_sqrt,
)
from quatframes.operator_frames import (
    BlockVector,
    OperatorFrame,
    induced_sequence,
    op_analysis,
    op_dual,
    op_frame_operator,
    op_parseval,
    op_report,
    op_synthesis,
    reconstruct,
)
from quatframes.vector_frames import frame_operator, report

SEED = 777


def mixed_random_frame(gen, dim=5):
    return random_operator_frame(gen, dim, [1, 3, 2, dim, 1])


def test_coordinate_functionals_are_parseval():
    f = coordinate_functional_frame(6)
    s = op_frame_operator(f)
    assert frobenius_distance(s, QMatrix.identity(6)) == 0.0
    r = op_report(f)
    assert (r.lower, r.upper) == (1.0, 1.0)
    assert r.is_parseval and r.is_tight and r.is_frame and r.is_exact


def test_shifted_basis_rows_have_bounds_one_two():
    f = shifted_basis_operator_frame(7)
    r = op_report(f)
    assert abs(r.lower - 1.0) <= 1e-9
    assert abs(r.upper - 2.0) <= 1e-9
    assert r.is_frame and not r.is_tight and not r.is_exact
    vals = np.diag(r.frame_operator.data[..., 0])
    assert np.array_equal(vals, [2.0] + [1.0] * 6)


def test_analysis_energy_is_quadratic_form():
    gen = np.random.default_rng(SEED)
    f = mixed_random_frame(gen)
    s = op_frame_operator(f)
    for _ in range(50):
        u = random_qvector(gen, 5)
        energy = op_analysis(f, u).norm_sq()
        qform = inner(u, s @ u).r0
        assert abs(energy - qform) <= 1e-10 * max(1.0, energy)


def test_energy_within_reported_bounds():
    gen = np.random.default_rng(SEED)
    f = mixed_random_frame(gen)
    r = op_report(f)
    for _ in range(100):
        u = random_unit_qvector(gen, 5)
        energy = op_analysis(f, u).norm_sq()
        assert r.lower - 1e-9 <= energy <= r.upper + 1e-9


def test_synthesis_is_adjoint_of_analysis():
    gen = np.random.default_rng(SEED)
    f = mixed_random_frame(gen)
    u = random_qvector(gen, 5)
    x = BlockVector([random_qvector(gen, d) for d in f.codomain_dims])
    lhs = inner(op_synthesis(f, x), u)
    rhs_parts = [inner(b, t @ u) for b, t in zip(x.blocks, f.members)]
    rhs = rhs_parts[0]
    for part in rhs_parts[1:]:
        rhs = rhs + part
    assert all(abs(a - b) <= 1e-10 for a, b in
               zip(lhs.components, rhs.components))


def test_induced_rows_of_functional_frame_recover_vectors():
    vectors = shifted_basis_vectors(7)
    f = shifted_basis_operator_frame(7)
    seq = induced_sequence(f)
    assert len(seq.vectors) == len(vectors)
    for got, want in zip(seq.vectors, vectors):
        assert np.array_equal(got.data, want.data)


def test_induced_sequence_preserves_operator_and_bounds():
    gen = np.random.default_rng(SEED)
    f = mixed_random_frame(gen)
    induced = induced_sequence(f).to_vector_frame()
    s_op = op_frame_operator(f)
    s_ind = frame_operator(induced)
    assert np.max(np.abs(s_op.data - s_ind.data)) <= 1e-12 * s_op.frobenius()
    r_op, r_ind = op_report(f), report(induced)
    assert abs(r_op.lower - r_ind.lower) <= 1e-10
    assert abs(r_op.upper - r_ind.upper) <= 1e-10


def test_dual_of_shifted_basis_frame():
    f = shifted_basis_operator_frame(7)
    d = op_dual(f)
    r = op_report(d)
    assert abs(r.lower - 0.5) <= 1e-9
    assert abs(r.upper - 1.0) <= 1e-9
    s_inv = inverse_matrix(op_frame_operator(f))
    assert frobenius_distance(op_frame_operator(d), s_inv) <= 1e-9


def test_dual_reconstructs_in_both_orders():
    gen = np.random.default_rng(SEED)
    f = mixed_random_frame(gen)
    d = op_dual(f)
    for _ in range(25):
        u = random_qvector(gen, 5)
        w1 = reconstruct(f, d, u)
        w2 = reconstruct(d, f, u)
        assert (w1 - u).norm() <= 1e-8 * max(1.0, u.norm())
        assert (w2 - u).norm() <= 1e-8 * max(1.0, u.norm())


def test_reconstruct_with_itself_applies_frame_operator():
    gen = np.random.default_rng(SEED)
    f = mixed_random_frame(gen)
    s = op_frame_operator(f)
    u = random_qvector(gen, 5)
    assert ((reconstruct(f, f, u) - (s @ u)).norm()
            <= 1e-10 * max(1.0, (s @ u).norm()))


def test_parseval_normalization_whitens():
    gen = np.random.default_rng(SEED)
    f = mixed_random_frame(gen)
    p = op_parseval(f)
    s = op_frame_operator(p)
    assert frobenius_distance(s, QMatrix.identity(5)) <= 1e-9
    r = op_report(p)
    assert r.is_parseval


def test_parseval_of_parseval_frame_is_unchanged():
    f = coordinate_functional_frame(5)
    p = op_parseval(f)
    for a, b in zip(f.members, p.members):
        assert frobenius_distance(a, b) <= 1e-9


def test_inverse_sqrt_routes_agree():
    # inverse of the square root vs square root of the inverse
    gen = np.random.default_rng(SEED)
    f = mixed_random_frame(gen)
    s = op_frame_operator(f)
    route1 = inverse_matrix(positive_sqrt(s))
    route2 = positive_sqrt(inverse_matrix(s))
    assert frobenius_distance(route1, route2) <= 1e-9 * route1.frobenius()


def test_partial_sums_obey_cauchy_bound():
    # prefix sums S_p of the frame operator: for any vector,
    # ||S_p x - S_q x|| <= sqrt(B) (sqrt(E_p) + sqrt(E_q)) with E_m the
    # analysis energy of x through the first m members
    gen = np.random.default_rng(123)
    f = mixed_random_frame(gen)
    bound = op_report(f).upper
    for _ in range(10):
        x = random_unit_qvector(gen, 5)
        energies, partials = [], []
        acc_energy = 0.0
        acc = QVector.zeros(5)
        for t in f.members:
            acc_energy += (t @ x).norm_sq()
            acc = acc + (t.adjoint() @ (t @ x))
            energies.append(acc_energy)
            partials.append(acc)
        for p in range(len(f.members)):
            for q in range(p):
                lhs = (partials[p] - partials[q]).norm()
                rhs = np.sqrt(bound) * (np.sqrt(energies[p]) + np.sqrt(energies[q]))
                assert lhs <= rhs + 1e-9


def test_not_a_frame_raises_for_deficient_family():
    f = OperatorFrame(4, [QMatrix.identity(4).adjoint() * 0.0])
    with pytest.raises(NotAFrame):
        op_dual(f)
    with pytest.raises(NotAFrame):
        op_parseval(f)


def test_reconstruct_validates_shapes():
    gen = np.random.default_rng(SEED)
    f = random_operator_frame(gen, 4, [2, 2])
    g = random_operator_frame(gen, 4, [2, 3])
    with pytest.raises(DimensionMismatch):
        reconstruct(f, g, random_qvector(gen, 4))


def test_member_domain_validated():
    with pytest.raises(DimensionMismatch):
        OperatorFrame(4, [QMatrix.zeros(2, 3)])


def test_block_vector_norm_does_not_overflow():
    assert BlockVector([QVector([[1e200, 0, 0, 0], [0, 0, 0, 0]])]).norm() == 1e200
