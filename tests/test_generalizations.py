"""Fusion frames, pseudo-frame pairs, quasi-projector systems, and the
conversions that embed each of them into frames of operators."""

import numpy as np
import pytest

from conftest import random_qvector, random_unit_qvector, standard_basis
from quatframes.errors import (
    HypothesisViolated,
    InvalidWeight,
    NotAFrameOnSubspace,
)
from quatframes.generalizations import (
    FusionFrame,
    PseudoFramePair,
    QuasiProjectorSystem,
    fusion_frame_operator,
    fusion_report,
    fusion_to_op_frame,
    pseudo_frame_check,
    pseudo_to_op_frame,
    quasi_projector_check,
    quasi_to_op_frame,
)
from quatframes import linalg
from quatframes.linalg import QMatrix, QVector, frobenius_distance, inner, outer
from quatframes.operator_frames import op_analysis, op_frame_operator, op_report
from quatframes.quaternion import I, Quaternion

SEED = 31337


def shifted_subspaces(dim):
    basis = standard_basis(dim)
    return [[basis[0]]] + [[b] for b in basis]


def coordinate_projectors(dim):
    basis = standard_basis(dim)
    return [outer(b, b) for b in basis]


@pytest.fixture
def gram_schmidt_calls(monkeypatch):
    """A list that grows by one entry per call of linalg._gram_schmidt."""
    calls = []
    inner_gs = linalg._gram_schmidt

    def counted(*args):
        calls.append(args)
        return inner_gs(*args)

    monkeypatch.setattr(linalg, "_gram_schmidt", counted)
    return calls


# ====== fusion frames ======

def test_shifted_subspace_fusion_bounds():
    f = FusionFrame(7, shifted_subspaces(7), [1.0] * 8)
    s = fusion_frame_operator(f)
    assert np.array_equal(s.data[..., 0], np.diag([2.0] + [1.0] * 6))
    r = fusion_report(f)
    assert abs(r.lower - 1.0) <= 1e-9
    assert abs(r.upper - 2.0) <= 1e-9
    assert r.is_frame and not r.is_tight


def test_weighted_fusion_operator():
    e1, e2 = standard_basis(2)
    f = FusionFrame(2, [[e1], [e2]], [2.0, 1.0])
    s = fusion_frame_operator(f)
    assert np.array_equal(s.data[..., 0], np.diag([4.0, 1.0]))
    r = fusion_report(f)
    assert abs(r.lower - 1.0) <= 1e-12 and abs(r.upper - 4.0) <= 1e-12


def test_fusion_orthonormalizes_subspace_bases():
    gen = np.random.default_rng(SEED)
    v1, v2 = random_qvector(gen, 4), random_qvector(gen, 4)
    f = FusionFrame(4, [[v1, v2, v1 * Quaternion(0, 1, 0, 0)]], [1.0])
    assert len(f.subspaces[0]) == 2
    for a in range(2):
        for b in range(2):
            ip = inner(f.subspaces[0][a], f.subspaces[0][b])
            expect = 1.0 if a == b else 0.0
            assert abs(ip.r0 - expect) <= 1e-12 and abs(ip) - abs(ip.r0) <= 1e-12


def test_nonpositive_weight_rejected():
    e1 = QVector.basis(2, 0)
    with pytest.raises(InvalidWeight):
        FusionFrame(2, [[e1]], [0.0])
    with pytest.raises(InvalidWeight):
        FusionFrame(2, [[e1]], [-1.0])


def test_fusion_conversion_preserves_energies():
    gen = np.random.default_rng(SEED)
    subs = [[random_qvector(gen, 5) for _ in range(2)],
            [random_qvector(gen, 5)],
            [random_qvector(gen, 5) for _ in range(3)]]
    f = FusionFrame(5, subs, [0.5, 2.0, 1.0])
    g = fusion_to_op_frame(f)
    projections = f.projections()
    for _ in range(100):
        x = random_qvector(gen, 5)
        direct = sum(w * w * (p @ x).norm_sq()
                     for w, p in zip(f.weights, projections))
        via_ops = op_analysis(g, x).norm_sq()
        assert abs(direct - via_ops) <= 1e-12 * max(1.0, direct)
    assert frobenius_distance(op_frame_operator(g),
                              fusion_frame_operator(f)) <= 1e-12


def test_fusion_conversion_reuses_the_orthonormal_bases(gram_schmidt_calls):
    gen = np.random.default_rng(SEED)
    f = FusionFrame(5, [[random_qvector(gen, 5) for _ in range(2)], [],
                        [random_qvector(gen, 5)]], [1.0, 2.0, 0.5])
    del gram_schmidt_calls[:]
    g = fusion_to_op_frame(f)
    assert gram_schmidt_calls == []
    # the empty subspace contributes the zero map
    assert not g.members[1].data.any()


# ====== pseudo-frame pairs ======

def odd_shift_pair(dim, members):
    """Analyzers z_i, synthesizers z_{2i-1}; reconstruction works exactly
    on the span of z_1 and nowhere else."""
    basis = standard_basis(dim)
    analyzers = [basis[i] for i in range(members)]
    synthesizers = [basis[2 * i] for i in range(members)]
    return analyzers, synthesizers


def test_odd_shift_pair_reconstructs_on_first_coordinate():
    analyzers, synthesizers = odd_shift_pair(8, 4)
    pair = PseudoFramePair(8, analyzers, synthesizers,
                           [QVector.basis(8, 0)])
    check = pseudo_frame_check(pair)
    assert check.holds
    assert check.max_residual <= 1e-12


def test_odd_shift_pair_fails_off_the_first_coordinate():
    analyzers, synthesizers = odd_shift_pair(8, 4)
    pair = PseudoFramePair(8, analyzers, synthesizers,
                           [QVector.basis(8, 0), QVector.basis(8, 1)])
    check = pseudo_frame_check(pair)
    assert not check.holds
    # z_2 reconstructs to z_3, a residual of sqrt(2)
    assert check.max_residual >= 1.0


def test_orthonormal_basis_with_itself_reconstructs():
    basis = standard_basis(5)
    pair = PseudoFramePair(5, basis, basis, basis)
    check = pseudo_frame_check(pair)
    assert check.holds and check.max_residual <= 1e-12


def test_doubled_synthesizers_fail_with_unit_residual():
    basis = standard_basis(4)
    doubled = [b * 2.0 for b in basis]
    pair = PseudoFramePair(4, basis, doubled, basis)
    check = pseudo_frame_check(pair)
    assert not check.holds
    assert abs(check.max_residual - 1.0) <= 1e-12


@pytest.mark.parametrize("n, defect", [(64, 3e-9), (16, 2e-9)])
def test_pseudo_check_finds_the_worst_residual(n, defect):
    # synthesizers e_i + c e_1 give Psi Phi = I + D with D = c e_1 (1, ..., 1),
    # ||D|| = c sqrt(n) = defect, attained at (1, ..., 1) / sqrt(n)
    basis = standard_basis(n)
    c = defect / np.sqrt(n)
    pair = PseudoFramePair(n, basis, [b + basis[0] * c for b in basis], basis)
    check = pseudo_frame_check(pair)
    assert not check.holds
    assert abs(check.max_residual - defect) <= 1e-6 * defect


def test_pseudo_conversion_on_first_coordinate_is_parseval():
    analyzers, synthesizers = odd_shift_pair(8, 4)
    pair = PseudoFramePair(8, analyzers, synthesizers,
                           [QVector.basis(8, 0)])
    g = pseudo_to_op_frame(pair)
    assert g.space_dim == 1
    r = op_report(g)
    assert abs(r.lower - 1.0) <= 1e-12 and abs(r.upper - 1.0) <= 1e-12


def test_pseudo_conversion_preserves_energies_on_subspace():
    gen = np.random.default_rng(SEED)
    basis = standard_basis(6)
    analyzers = [random_qvector(gen, 6) for _ in range(5)]
    synthesizers = [random_qvector(gen, 6) for _ in range(5)]
    sub = basis[:3]
    pair = PseudoFramePair(6, analyzers, synthesizers, sub)
    g = pseudo_to_op_frame(pair)
    for _ in range(100):
        coords = random_qvector(gen, 3)
        x_data = np.zeros((6, 4))
        for b, k in zip(pair.subspace, range(3)):
            comp = Quaternion.from_components(coords.data[k])
            x_data += (b * comp).data
        x = QVector(x_data)
        direct = sum(abs(inner(a, x)) ** 2 for a in analyzers)
        via_ops = op_analysis(g, coords).norm_sq()
        assert abs(direct - via_ops) <= 1e-10 * max(1.0, direct)


def test_pseudo_conversion_needs_frame_on_subspace():
    # analyzers orthogonal to the subspace carry no information there
    pair = PseudoFramePair(4, [QVector.basis(4, 1)], [QVector.basis(4, 1)],
                           [QVector.basis(4, 0)])
    with pytest.raises(NotAFrameOnSubspace):
        pseudo_to_op_frame(pair)


# ====== quasi-projector systems ======

def test_coordinate_projectors_check_clean():
    system = QuasiProjectorSystem(8, coordinate_projectors(8))
    check = quasi_projector_check(system)
    assert check.resolution_ok
    assert abs(check.bessel_bound - 1.0) <= 1e-12
    assert check.self_adjoint
    assert check.compatible


def test_halved_identity_projectors():
    half = QMatrix.identity(2) * 0.5
    system = QuasiProjectorSystem(2, [half, half])
    check = quasi_projector_check(system)
    assert check.resolution_ok
    assert abs(check.bessel_bound - 0.5) <= 1e-12
    assert check.self_adjoint and check.compatible


def test_non_selfadjoint_member_flagged_and_blocks_conversion():
    upper = QMatrix.from_quaternions([
        [Quaternion(1), I],
        [Quaternion(), Quaternion(1)],
    ])
    fixup = QMatrix.identity(2) * 2.0 - upper
    system = QuasiProjectorSystem(2, [upper, fixup - QMatrix.identity(2)])
    check = quasi_projector_check(system)
    assert check.resolution_ok
    assert not check.self_adjoint
    with pytest.raises(HypothesisViolated):
        quasi_to_op_frame(system)


def test_missing_mass_breaks_resolution():
    e1 = QVector.basis(2, 0)
    system = QuasiProjectorSystem(2, [outer(e1, e1)])
    check = quasi_projector_check(system)
    assert not check.resolution_ok
    with pytest.raises(HypothesisViolated):
        quasi_to_op_frame(system)


def test_quasi_conversion_of_coordinate_projectors_is_parseval():
    system = QuasiProjectorSystem(6, coordinate_projectors(6))
    g = quasi_to_op_frame(system)
    r = op_report(g)
    assert abs(r.lower - 1.0) <= 1e-12 and abs(r.upper - 1.0) <= 1e-12
    gen = np.random.default_rng(SEED)
    for _ in range(100):
        x = random_qvector(gen, 6)
        direct = sum((p @ x).norm_sq() for p in system.projectors)
        assert abs(direct - op_analysis(g, x).norm_sq()) <= 1e-12 * max(1.0, direct)


def test_quasi_check_orthonormalizes_each_range_once(gram_schmidt_calls):
    gen = np.random.default_rng(SEED)
    u = QMatrix.from_columns(linalg.orthonormalize(
        [random_qvector(gen, 4) for _ in range(4)]))
    # projectors onto the lines of a random orthonormal basis
    system = QuasiProjectorSystem(4, [outer(u.column(c), u.column(c))
                                      for c in range(4)])
    del gram_schmidt_calls[:]
    check = quasi_projector_check(system)
    assert check.compatible and check.resolution_ok and check.self_adjoint
    assert len(gram_schmidt_calls) == 4
    del gram_schmidt_calls[:]
    quasi_to_op_frame(system)
    assert gram_schmidt_calls == []


def test_decomposition_drives_compatibility():
    basis = standard_basis(3)
    projectors = coordinate_projectors(3)
    # D_j maps the base line [z_1] onto [z_j]
    d_ops = [outer(b, basis[0]) for b in basis]
    system = QuasiProjectorSystem(3, projectors,
                                  decomposition=(d_ops, [basis[0]]))
    check = quasi_projector_check(system)
    assert check.compatible and check.resolution_ok
    # a decomposition pointing at the wrong subspaces breaks compatibility
    rolled = d_ops[1:] + d_ops[:1]
    bad = QuasiProjectorSystem(3, projectors,
                               decomposition=(rolled, [basis[0]]))
    assert not quasi_projector_check(bad).compatible


def test_rayleigh_quotients_respect_quasi_bessel_bound():
    gen = np.random.default_rng(SEED)
    system = QuasiProjectorSystem(5, coordinate_projectors(5))
    bound = quasi_projector_check(system).bessel_bound
    for _ in range(100):
        x = random_unit_qvector(gen, 5)
        energy = sum((p @ x).norm_sq() for p in system.projectors)
        assert energy <= bound + 1e-9
