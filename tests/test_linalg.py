"""Right quaternionic linear algebra: products, inverses, spectra.

The eigensolver is cross-checked against an independent power-iteration
oracle on the complex adjoint representation.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatframes.errors import (
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotPositive,
    Singular,
)
from quatframes.linalg import (
    QMatrix,
    QVector,
    complex_adjoint_rep,
    frobenius_distance,
    gram,
    hermitian_eigenvalues,
    hermitian_spectrum,
    inner,
    inverse_matrix,
    orthonormalize,
    orthonormalize_each,
    outer,
    positive_sqrt,
    projection,
    solve,
)
from quatframes import linalg
from quatframes.generalizations import FusionFrame
from quatframes.quaternion import I, J, K, ONE, Quaternion

SEED = 20260814
ABS_TOL = 1e-12


def rng():
    return np.random.default_rng(SEED)


def random_qmatrix(gen, rows, cols, scale=1.0):
    return QMatrix(gen.standard_normal((rows, cols, 4)) * scale)


def random_qvector(gen, dim, scale=1.0):
    return QVector(gen.standard_normal((dim, 4)) * scale)


def qclose(p, q, tol=ABS_TOL):
    return all(abs(a - b) <= tol for a, b in zip(p.components, q.components))


# ====== oracle: power iteration on the complex representation ======

def power_iteration_lambda_max(h, iters=5000):
    """Largest eigenvalue of a PSD complex Hermitian matrix, computed
    independently of LAPACK's Hermitian eigensolver."""
    n = h.shape[0]
    x = np.cos(np.arange(n)) + 1j * np.sin(3.0 * np.arange(n) + 0.5)
    x /= np.linalg.norm(x)
    lam = 0.0
    for _ in range(iters):
        y = h @ x
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = y / ny
        new_lam = float(np.real(np.vdot(x, h @ x)))
        if abs(new_lam - lam) <= 1e-13 * max(1.0, abs(new_lam)):
            return new_lam
        lam = new_lam
    return lam


# ====== inner product ======

def test_inner_of_unit_vectors():
    # <(i, j) | (j, k)> = conj(i)j + conj(j)k = -k - i
    u = QVector.from_quaternions([I, J])
    v = QVector.from_quaternions([J, K])
    assert inner(u, v) == Quaternion(0, -1, 0, -1)


def test_inner_is_sesquilinear():
    gen = rng()
    for _ in range(50):
        u, v = random_qvector(gen, 4), random_qvector(gen, 4)
        p = Quaternion.from_components(gen.standard_normal(4))
        q = Quaternion.from_components(gen.standard_normal(4))
        lhs = inner(u * p, v * q)
        rhs = p.conjugate() * inner(u, v) * q
        assert qclose(lhs, rhs, tol=1e-10)


def test_inner_norm_compatibility_and_cauchy_schwarz():
    gen = rng()
    for _ in range(1000):
        u, v = random_qvector(gen, 5), random_qvector(gen, 5)
        assert abs(inner(u, u).r0 - u.norm_sq()) <= 1e-10 * u.norm_sq()
        assert abs(inner(u, v)) <= u.norm() * v.norm() * (1 + 1e-12)


def test_right_scalar_action_and_matrix_linearity():
    gen = rng()
    a = random_qmatrix(gen, 3, 3)
    u = random_qvector(gen, 3)
    q = Quaternion(0.3, -1.2, 0.7, 2.0)
    lhs = a @ (u * q)
    rhs = (a @ u) * q
    assert np.allclose(lhs.data, rhs.data, atol=1e-12)


def test_adjoint_moves_across_inner_product():
    gen = rng()
    a = random_qmatrix(gen, 4, 3)
    u, v = random_qvector(gen, 4), random_qvector(gen, 3)
    assert qclose(inner(a.adjoint() @ u, v), inner(u, a @ v), tol=1e-10)


def test_adjoint_of_single_entry():
    a = QMatrix.from_quaternions([[I]])
    assert a.adjoint()[0, 0] == -I


# ====== complex adjoint representation ======

def test_complex_rep_of_j():
    chi = complex_adjoint_rep(QMatrix.from_quaternions([[J]]))
    assert np.array_equal(chi, np.array([[0, 1], [-1, 0]], dtype=complex))


def test_complex_rep_is_multiplicative_and_adjoint_preserving():
    gen = rng()
    for _ in range(25):
        a = random_qmatrix(gen, 3, 4)
        b = random_qmatrix(gen, 4, 2)
        lhs = complex_adjoint_rep(a @ b)
        rhs = complex_adjoint_rep(a) @ complex_adjoint_rep(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        # adjoint correspondence is structural, no arithmetic involved
        assert np.array_equal(complex_adjoint_rep(a.adjoint()),
                              complex_adjoint_rep(a).conj().T)


def test_complex_rep_intertwines_vector_action():
    # embedding a vector u as (x, y) = (u1, -conj(u2)) turns A @ u into
    # chi(A) @ (x, y); derived independently from the block formula
    gen = rng()
    a = random_qmatrix(gen, 4, 4)
    u = random_qvector(gen, 4)
    x = u.data[:, 0] + 1j * u.data[:, 1]
    y = -(u.data[:, 2] - 1j * u.data[:, 3])
    image = complex_adjoint_rep(a) @ np.concatenate([x, y])
    au = a @ u
    assert np.allclose(image[:4], au.data[:, 0] + 1j * au.data[:, 1], atol=1e-12)
    assert np.allclose(image[4:], -(au.data[:, 2] - 1j * au.data[:, 3]), atol=1e-12)


# ====== inverse and solve ======

def test_inverse_of_diagonal():
    a = QMatrix.from_quaternions([
        [Quaternion(2), Quaternion()],
        [Quaternion(), J],
    ])
    inv = inverse_matrix(a)
    assert qclose(inv[0, 0], Quaternion(0.5))
    assert qclose(inv[0, 1], Quaternion())
    assert qclose(inv[1, 0], Quaternion())
    assert qclose(inv[1, 1], -J)


def test_solve_residual_small():
    gen = rng()
    for n, reps in ((5, 20), (32, 5)):
        for _ in range(reps):
            a = random_qmatrix(gen, n, n)
            b = random_qvector(gen, n)
            x = solve(a, b)
            residual = (a @ x - b).norm()
            assert residual <= 1e-10 * max(1.0, b.norm())


def test_inverse_round_trip():
    gen = rng()
    for n, reps in ((6, 10), (32, 5)):
        for _ in range(reps):
            a = random_qmatrix(gen, n, n)
            inv = inverse_matrix(a)
            identity = QMatrix.identity(n)
            assert frobenius_distance(a @ inv, identity) < 1e-10
            assert frobenius_distance(inv @ a, identity) < 1e-10


def test_singular_matrix_rejected():
    with pytest.raises(Singular):
        inverse_matrix(QMatrix.zeros(3, 3))
    # rank-one matrix
    u = QVector.from_quaternions([ONE, I])
    with pytest.raises(Singular):
        inverse_matrix(outer(u, u))
    # a rank-one matrix nudged off singularity by round-off-sized noise
    gen = rng()
    v = random_qvector(gen, 6)
    nearly = outer(v, v) + random_qmatrix(gen, 6, 6, scale=1e-14)
    with pytest.raises(Singular):
        inverse_matrix(nearly)
    with pytest.raises(Singular):
        solve(nearly, random_qvector(gen, 6))


@pytest.mark.parametrize("seed", [0, 189])
def test_inverse_that_overflows_is_nonfinite(seed):
    # S = A*A is near 1e-320 and well conditioned, but its inverse, near
    # 1e320, overflows: LAPACK gives inf entries, or at seed 189 a nan on
    # the way that numpy raises as LinAlgError
    a = QMatrix(np.random.default_rng(seed).standard_normal((3, 3, 4)) * 1e-160)
    with pytest.raises(NonFinite):
        inverse_matrix(gram(a))
    with pytest.raises(NonFinite):
        solve(gram(a), QVector.basis(3, 0))


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        solve(QMatrix.zeros(2, 3), QVector.zeros(2))
    with pytest.raises(DimensionMismatch):
        QMatrix.zeros(2, 2) @ QVector.zeros(3)


# ====== spectra ======

def test_spectrum_of_real_diagonal():
    s = QMatrix.from_real(np.diag([2.0, 1.0, 1.0]))
    spectrum = hermitian_spectrum(s)
    assert np.array_equal(spectrum.eigenvalues, [1.0, 1.0, 2.0])
    # eigenvector residuals
    for k in range(3):
        v = spectrum.eigenvectors.column(k)
        res = (s @ v - v * float(spectrum.eigenvalues[k])).norm()
        assert res <= 1e-12


def test_eigenvalues_of_chi_come_in_pairs():
    gen = rng()
    a = random_qmatrix(gen, 5, 5)
    s = a.adjoint() @ a
    vals = np.sort(np.linalg.eigvalsh(complex_adjoint_rep(s)))
    assert np.max(np.abs(vals[0::2] - vals[1::2])) <= 1e-9 * max(1.0, vals[-1])


def test_spectrum_against_power_iteration_oracle():
    gen = rng()
    for _ in range(5):
        a = random_qmatrix(gen, 4, 4)
        s = a.adjoint() @ a
        vals = hermitian_eigenvalues(s)
        assert vals.min() >= -1e-10
        oracle = power_iteration_lambda_max(complex_adjoint_rep(s))
        assert abs(vals.max() - oracle) <= 1e-6 * max(1.0, oracle)


def test_spectrum_residuals_with_degenerate_eigenvalues():
    gen = rng()
    a = random_qmatrix(gen, 6, 6)
    s = a.adjoint() @ a
    # shift the spectrum so several eigenvalues coincide at the bottom
    eigs0 = hermitian_eigenvalues(s)
    bumped = s + QMatrix.identity(6) * float(10.0 - eigs0[0])
    spectrum = hermitian_spectrum(bumped)
    norm = bumped.frobenius()
    for k in range(6):
        v = spectrum.eigenvectors.column(k)
        assert abs(v.norm() - 1.0) <= 1e-12
        res = (bumped @ v - v * float(spectrum.eigenvalues[k])).norm()
        assert res <= 1e-9 * norm
    # eigenvectors are mutually orthogonal
    for k in range(6):
        for l in range(k + 1, 6):
            ip = inner(spectrum.eigenvectors.column(k), spectrum.eigenvectors.column(l))
            assert abs(ip) <= 1e-9


def random_unitary(gen, n):
    """Quaternionic unitary: Gram-Schmidt on n random vectors of H^n."""
    basis = orthonormalize(QMatrix.from_columns([random_qvector(gen, n) for _ in range(n)]))
    assert basis.cols == n
    return basis


@pytest.mark.parametrize("n", [8, 16, 24])
def test_spectrum_of_unitary_conjugate_with_multiplicities(n):
    # S = U diag(lam) U* with k distinct levels, from all-distinct down to
    # one level of multiplicity n
    gen = np.random.default_rng([SEED, n])
    for levels in sorted({n, n // 2, 3, 2, 1}, reverse=True):
        values = np.sort(gen.uniform(0.5, 5.0, size=levels))
        cuts = np.sort(gen.choice(np.arange(1, n), size=levels - 1, replace=False))
        lam = np.repeat(values, np.diff(np.concatenate([[0], cuts, [n]])))
        u = random_unitary(gen, n)
        s = u @ QMatrix.from_real(np.diag(lam)) @ u.adjoint()
        norm = s.frobenius()
        spectrum = hermitian_spectrum(s)
        assert np.max(np.abs(spectrum.eigenvalues - lam)) <= 1e-12 * norm
        vecs = spectrum.eigenvectors
        for k in range(n):
            v = vecs.column(k)
            res = (s @ v - v * float(spectrum.eigenvalues[k])).norm()
            assert res <= 1e-12 * norm
        assert frobenius_distance(vecs.adjoint() @ vecs, QMatrix.identity(n)) <= 1e-12 * n


def test_not_hermitian_rejected():
    a = QMatrix.from_quaternions([
        [Quaternion(1), I],
        [I, Quaternion(1)],
    ])
    # a[1,0] should be conj(a[0,1]) = -i for self-adjointness
    with pytest.raises(NotHermitian):
        hermitian_spectrum(a)


def test_positive_sqrt_of_diagonal():
    r = positive_sqrt(QMatrix.from_real(np.diag([4.0, 1.0])))
    assert qclose(r[0, 0], Quaternion(2))
    assert qclose(r[1, 1], Quaternion(1))
    assert qclose(r[0, 1], Quaternion())


def test_positive_sqrt_squares_back():
    gen = rng()
    for _ in range(5):
        a = random_qmatrix(gen, 5, 5)
        s = a.adjoint() @ a
        r = positive_sqrt(s)
        assert np.array_equal(r.data, r.adjoint().data)
        assert frobenius_distance(r @ r, s) <= 1e-9 * s.frobenius()
        # sqrt of the square returns the original root
        again = positive_sqrt(r @ r)
        assert frobenius_distance(again, r) <= 1e-8 * max(1.0, r.frobenius())


def test_positive_sqrt_rejects_indefinite():
    with pytest.raises(NotPositive):
        positive_sqrt(QMatrix.from_real(np.diag([1.0, -1.0])))


def test_positive_sqrt_clamps_roundoff_negatives():
    s = QMatrix.from_real(np.diag([1.0, -1e-11]))
    r = positive_sqrt(s)
    assert qclose(r[1, 1], Quaternion(), tol=1e-5)


def test_positive_sqrt_refuses_tiny_indefinite():
    # an absolute clamp would take -1e-12 for round-off and root diag(1e-12, 0)
    with pytest.raises(NotPositive):
        positive_sqrt(QMatrix.from_real(np.diag([1e-12, -1e-12])))


def test_positive_sqrt_accepts_huge_semidefinite():
    # rank 3 of 6 at 1e20: round-off leaves eigenvalues near -1e5 < -1e-10
    b = QMatrix(np.random.default_rng(0).standard_normal((6, 3, 4)) * 1e10)
    s = gram(b.adjoint())
    r = positive_sqrt(s)
    assert frobenius_distance(r @ r, s) <= 1e-12 * s.frobenius()


def _psd_parts(seed, n, rank):
    """(U, e, C): an orthonormal n x rank matrix U, a unit vector e
    orthogonal to its columns, and a random rank x 2n matrix C, so that
    B = U C has range(B) = range(U) whenever rank < n."""
    gen = np.random.default_rng(seed)
    basis = orthonormalize(QMatrix.from_columns([random_qvector(gen, n) for _ in range(n)]))
    u = QMatrix(basis.data[:, :rank])
    return u, basis.column(n - 1), random_qmatrix(gen, rank, 2 * n)


def _scaled(s, k):
    return QMatrix(s.data * 10.0 ** k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(-100, 100))
def test_positive_sqrt_is_homogeneous(seed, n, k):
    u, _, c = _psd_parts(seed, n, n)
    s = gram((u @ c).adjoint())
    expected = positive_sqrt(s) * 10.0 ** (k / 2)
    assert (frobenius_distance(positive_sqrt(_scaled(s, k)), expected)
            <= 1e-10 * expected.frobenius())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.data(), st.integers(-100, 100))
def test_positive_sqrt_accepts_rank_deficient_at_every_scale(seed, n, data, k):
    u, _, c = _psd_parts(seed, n, data.draw(st.integers(1, n - 1)))
    s = _scaled(gram((u @ c).adjoint()), k)
    r = positive_sqrt(s)
    assert frobenius_distance(r @ r, s) <= 1e-12 * s.frobenius()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.data(),
       st.floats(1e-6, 1.0), st.integers(-100, 100))
def test_positive_sqrt_refuses_negative_direction_at_every_scale(seed, n, data, delta, k):
    u, e, c = _psd_parts(seed, n, data.draw(st.integers(1, n - 1)))
    bb = gram((u @ c).adjoint())
    s = bb - outer(e, e) * (delta * bb.frobenius())
    with pytest.raises(NotPositive):
        positive_sqrt(_scaled(s, k))


def test_norms_do_not_overflow():
    v = QVector([[1e200, 0, 0, 0], [0, 0, 0, 0]])
    assert v.norm() == 1e200
    assert QMatrix(v.data[:, None]).column_norms()[0] == 1e200


# ====== orthonormalization and projections ======

def test_gram_schmidt_simple():
    u = QVector.from_quaternions([ONE, Quaternion()])
    v = QVector.from_quaternions([ONE, ONE])
    basis = orthonormalize(QMatrix.from_columns([u, v]))
    assert basis.cols == 2
    assert np.allclose(basis.column(0).data, QVector.basis(2, 0).data, atol=1e-12)
    assert np.allclose(basis.column(1).data, QVector.basis(2, 1).data, atol=1e-12)


def test_gram_schmidt_drops_dependent_vectors():
    u = QVector.from_quaternions([ONE, I])
    basis = orthonormalize(QMatrix.from_columns(
        [u, u * Quaternion(0.5, 0.5, 0, 0), u * 1e-14]))
    assert basis.cols == 1


def test_gram_schmidt_normalizes_a_subnormal_vector():
    # 1 / 1e-320 overflows, so a division through the reciprocal gives inf;
    # e1 comes back to the round-off of that division at any scale
    e1 = QVector.basis(3, 0)
    basis = orthonormalize(QMatrix.from_columns([e1 * 1e-320]))
    assert basis.cols == 1 and np.abs(basis.column(0).data - e1.data).max() <= 2.0**-52


def test_gram_schmidt_keeps_a_subnormal_span_orthonormal():
    # each candidate is scaled to unit size first, so that projecting
    # vectors near 2^-1060 off each other keeps their digits
    a = QMatrix(np.ldexp(rng().standard_normal((4, 3, 4)), -1060))
    basis = orthonormalize(a)
    assert basis.cols == 3
    assert np.abs((basis.adjoint() @ basis).data - QMatrix.identity(3).data).max() <= 1e-12


def test_gram_schmidt_stops_once_the_span_fills_h_n(monkeypatch):
    # 200 vectors of H^4 span it after their first four, so the sweep takes
    # those four candidates and reads no more: one norm call for the drop
    # floors and one per candidate
    calls = []
    row_norms = linalg._row_norms
    monkeypatch.setattr(linalg, "_row_norms", lambda c: calls.append(len(c)) or row_norms(c))
    basis = orthonormalize(QMatrix(rng().standard_normal((4, 200, 4))))
    assert basis.cols == 4 and len(calls) == 1 + 4
    assert frobenius_distance(gram(basis.adjoint()), QMatrix.identity(4)) <= 1e-12
    # of two sets of 6 vectors of H^2 swept together, one spans H^2 after two
    # and the other, real multiples of one vector, never does: the first
    # keeps two, the second one, and the sweep reads all six candidates
    gen = rng()
    line = gen.standard_normal((2, 1, 4)) * gen.standard_normal((1, 6, 1))
    bases, counts = orthonormalize_each(QMatrix(np.concatenate(
        [gen.standard_normal((2, 6, 4)), line], axis=1)), [6, 6])
    assert counts == [2, 1]
    assert np.abs((bases.adjoint() @ bases).data[:2, :2] - QMatrix.identity(2).data).max() <= 1e-12
    assert frobenius_distance(gram(QMatrix(bases.data[:, 2:]).adjoint()),
                              projection(QMatrix(line))) <= 1e-12


def test_gram_matrix_is_identity():
    gen = rng()
    vecs = [random_qvector(gen, 6) for _ in range(4)]
    basis = orthonormalize(QMatrix.from_columns(vecs))
    assert basis.cols == 4
    for a in range(4):
        for b in range(4):
            ip = inner(basis.column(a), basis.column(b))
            expect = ONE if a == b else Quaternion()
            assert qclose(ip, expect, tol=1e-12)


def test_projection_is_idempotent_selfadjoint():
    gen = rng()
    vecs = [random_qvector(gen, 5) for _ in range(2)]
    p = projection(QMatrix.from_columns(vecs))
    assert frobenius_distance(p @ p, p) <= 1e-10
    assert frobenius_distance(p, p.adjoint()) <= 1e-12
    # projecting a member of the span is the identity on it
    w = vecs[0] * Quaternion(0.2, 1.0, -0.4, 0.1) + vecs[1] * Quaternion(0, 2, 0, 1)
    assert (p @ w - w).norm() <= 1e-9 * w.norm()


def test_projection_of_no_columns_is_the_zero_map():
    p = projection(QMatrix(np.zeros((3, 0, 4))))
    assert p.shape == (3, 3) and not p.data.any()


def test_projection_onto_first_coordinate():
    p = projection(QMatrix.from_columns([QVector.basis(3, 0)]))
    expect = np.zeros((3, 3, 4))
    expect[0, 0, 0] = 1.0
    assert np.allclose(p.data, expect, atol=1e-14)


# ====== oracle: modified Gram-Schmidt on Hamilton products ======

def _mul4(a, b):
    """Hamilton product of (..., 4) component arrays."""
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def _conj4(a):
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def reference_orthonormalize(vectors, drop_tol=1e-10):
    """Two passes of modified Gram-Schmidt, v - b*<b|v> one basis vector
    at a time, on component arrays."""
    basis = []
    for vec in vectors:
        cand = vec.copy()
        for _ in range(2):
            for b in basis:
                coeff = _mul4(_conj4(b), cand).sum(axis=0)
                cand = cand - _mul4(b, coeff[None, :])
        norm = np.linalg.norm(cand)
        # relative cut-off: the residual against the vector's own norm
        if norm > drop_tol * np.linalg.norm(vec):
            basis.append(cand / norm)
    return basis


@st.composite
def vector_lists(draw):
    """Random vectors of H^n mixed with duplicates, right multiples u*q,
    zero vectors and vectors scaled by 1e-14."""
    n = draw(st.integers(1, 16))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.lists(st.sampled_from(
        ["new", "duplicate", "multiple", "zero", "tiny"]), min_size=1, max_size=24))
    vecs = []
    for step in steps:
        if step == "zero":
            vecs.append(np.zeros((n, 4)))
        elif step == "tiny":
            vecs.append(gen.standard_normal((n, 4)) * 1e-14)
        elif step == "new" or not vecs:
            vecs.append(gen.standard_normal((n, 4)))
        else:
            u = vecs[gen.integers(len(vecs))]
            q = gen.standard_normal(4)
            vecs.append(u.copy() if step == "duplicate" else _mul4(u, q[None, :]))
    return vecs


@settings(max_examples=80, deadline=None)
@given(vector_lists())
def test_orthonormalize_matches_modified_gram_schmidt(vecs):
    ref = reference_orthonormalize(vecs)
    b = orthonormalize(QMatrix.from_columns([QVector(v) for v in vecs]))
    assert b.cols == len(ref)
    for c, r in enumerate(ref):
        assert np.abs(b.column(c).data - r).max() <= 1e-10
    if b.cols:
        gram = (b.adjoint() @ b).data - QMatrix.identity(b.cols).data
        assert np.abs(gram).max() <= 1e-12


@st.composite
def span_lists(draw):
    """One to 12 spans of H^n, n <= 8, of widths 0 to 5, each at a scale of
    1, 1e-300, 1e300 or 2^-1060 (subnormal), with zero columns and columns
    that are real multiples of an earlier one."""
    n = draw(st.integers(1, 8))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spans = []
    for _ in range(draw(st.integers(1, 12))):
        cols = gen.standard_normal((n, draw(st.integers(0, 5)), 4))
        for c in range(cols.shape[1]):
            step = draw(st.sampled_from(["new", "zero", "multiple"]))
            if step == "zero":
                cols[:, c] = 0.0
            elif step == "multiple" and c:
                cols[:, c] = gen.standard_normal() * cols[:, gen.integers(c)]
        spans.append(QMatrix(cols * draw(st.sampled_from([1.0, 1e-300, 1e300, 2.0**-1060]))))
    return spans


# spans of H^2 of widths 0, 5 and 3, wider than n, and 1, 0 and 2
WIDE_SPANS = [QMatrix(np.random.default_rng(SEED).standard_normal((2, w, 4)) * scale)
              for w, scale in ((0, 1.0), (5, 1e300), (3, 1.0), (1, 2.0**-1060), (0, 1.0),
                               (2, 1e-300))]


@settings(max_examples=60, deadline=None)
@given(span_lists())
@example(WIDE_SPANS)
@example([QMatrix.zeros(3, 0)] * 2)
def test_orthonormalize_each_matches_orthonormalize(spans):
    a = QMatrix(np.concatenate([s.data for s in spans], axis=1))
    bases, counts = orthonormalize_each(a, [s.cols for s in spans])
    assert bases.cols == sum(counts)
    for span, k, stop in zip(spans, counts, np.cumsum(counts)):
        b = QMatrix(bases.data[:, stop - k:stop])
        # a set swept with others gets the basis it gets swept alone, bit for bit
        alone = orthonormalize(span).data
        assert b.data.shape == alone.shape and b.data.tobytes() == alone.tobytes()
        assert np.abs((b.adjoint() @ b).data - QMatrix.identity(k).data).max(initial=0.0) <= 1e-12
        expect = projection(span)
        assert frobenius_distance(gram(b.adjoint()), expect) <= 1e-12 * max(1.0, expect.frobenius())
    n = a.rows
    with pytest.raises(DimensionMismatch):
        FusionFrame(n, spans + [QMatrix.zeros(n + 1, 1)], [1.0] * (len(spans) + 1))


# ====== the chi homomorphism at n = 24 ======

# rounding of a product or an inverse of 48 x 48 complex matrices, relative
# to the norms of the factors (times the condition number for an inverse)
CHI_RTOL = 1e-13


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-8, 8))
def test_chi_is_multiplicative_and_inverts_at_n24(seed, k):
    gen = np.random.default_rng(seed)
    scale = 10.0 ** k
    a = random_qmatrix(gen, 24, 24, scale)
    b = random_qmatrix(gen, 24, 24, 1.0 / scale)
    ha, hb = complex_adjoint_rep(a), complex_adjoint_rep(b)
    product = complex_adjoint_rep(a @ b)
    assert (np.linalg.norm(product - ha @ hb)
            <= CHI_RTOL * np.linalg.norm(ha) * np.linalg.norm(hb))
    inv = complex_adjoint_rep(inverse_matrix(a))
    expected = np.linalg.inv(ha)
    assert (np.linalg.norm(inv - expected)
            <= CHI_RTOL * np.linalg.cond(ha) * np.linalg.norm(expected))


@st.composite
def small_qmatrices(draw):
    """An A of up to 6 x 4, rows possibly none, entries scaled by 10^k."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    return random_qmatrix(gen, rows, cols, 10.0 ** draw(st.integers(-8, 8)))


@settings(max_examples=100, deadline=None)
@given(small_qmatrices())
@example(QMatrix(np.array([[[np.inf, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]])))
def test_chi_gram_is_chi_of_a_star_a(a):
    if not np.isfinite(a.data).all():
        # an overflowed entry reaches the spectral routines, which refuse it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = gram(a)
        assert not np.isfinite(s.data).all()
        with pytest.raises(NonFinite):
            hermitian_eigenvalues(s)
        return
    g = linalg._chi_gram(a)
    h = g.chi
    # exactly Hermitian (a signed zero compares equal to its negation), and
    # exactly chi of its pull-back
    assert np.array_equal(h, h.conj().T)
    assert np.array_equal(h, complex_adjoint_rep(gram(a)))
    assert g.rows == a.cols
    scale = a.frobenius() ** 2
    assert np.abs(gram(a).data - (a.adjoint() @ a).data).max() <= 1e-12 * scale
    pairs = np.linalg.eigvalsh(h).reshape(-1, 2)
    assert np.abs(pairs[:, 1] - pairs[:, 0]).max(initial=0.0) <= 1e-12 * scale
    # the spectral routine takes the kernel's output for S, untested
    assert np.array_equal(hermitian_eigenvalues(g), pairs.mean(axis=1))


# finite floats with the largest, the subnormal and the signed zeros drawn often
EDGE_OR_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 1e308,
                     5e-324, -5e-324, 3e-320, 0.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(EDGE_OR_FINITE, EDGE_OR_FINITE), min_size=1, max_size=8))
def test_midpoint_is_the_average_wherever_the_sum_is_finite(pairs):
    # bit for bit (x + y) / 2 where x + y is finite, subnormals included;
    # finite where it overflows
    x, y = np.array(pairs).T
    got = linalg._midpoint(x, y)
    with np.errstate(over="ignore"):
        total = x + y
    finite = np.isfinite(total)
    assert got[finite].tobytes() == (total[finite] / 2.0).tobytes()
    assert np.isfinite(got).all()
    assert (got[~finite] == x[~finite] / 2.0 + y[~finite] / 2.0).all()


def arithmetic_split(a):
    """The complex split as arithmetic on the components, the reference for
    the complex128 view that linalg._split takes."""
    return a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]


def stacked_join(c1, c2):
    return np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=-1)


# moderate finite floats with the signed zeros and subnormals drawn often
SPLIT_FLOATS = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 3e-320, 2.2250738585072014e-308]))


@st.composite
def split_operands(draw):
    """An m x n and an n x k quaternion array, the first drawn at times as
    the swapaxes view that orthonormalize_each splits."""
    m, n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = draw(arrays(np.float64, (m, n, 4), elements=SPLIT_FLOATS))
    b = draw(arrays(np.float64, (n, k, 4), elements=SPLIT_FLOATS))
    if draw(st.booleans()):
        a = np.swapaxes(np.ascontiguousarray(np.swapaxes(a, 0, 1)), 0, 1)
    return a, b


@settings(max_examples=100, deadline=None)
@given(split_operands())
def test_split_is_the_arithmetic_split_and_join_inverts_it(operands):
    a, b = operands
    c1, c2 = linalg._split(a)
    r1, r2 = arithmetic_split(a)
    assert np.array_equal(c1, r1) and np.array_equal(c2, r2)
    assert c1.flags.c_contiguous and c2.flags.c_contiguous
    assert linalg._join(c1, c2).tobytes() == np.ascontiguousarray(a).tobytes()
    # the product through the arithmetic split, as QMatrix @ computed it,
    # bit for bit but for the sign of a zero entry, which the arithmetic
    # split did not keep; dumps12 prints every number plus 0.0
    a1, a2 = arithmetic_split(np.ascontiguousarray(a))
    b1, b2 = arithmetic_split(b)
    expected = stacked_join(a1 @ b1 - a2 @ np.conj(b2), a1 @ b2 + a2 @ np.conj(b1))
    assert ((QMatrix(a) @ QMatrix(b)).data + 0.0).tobytes() == (expected + 0.0).tobytes()


def test_split_keeps_the_components_as_they_are_stored():
    # arithmetic turned an imaginary -0.0 into +0.0, and 1j * inf into nan + inf j
    a = np.array([[[-0.0, -0.0, 1.0, np.inf]]])
    c1, c2 = linalg._split(a)
    with np.errstate(invalid="ignore"):
        r1, r2 = arithmetic_split(a)
    assert np.signbit(c1.imag[0, 0]) and not np.signbit(r1.imag[0, 0])
    assert c2[0, 0] == complex(1.0, np.inf) and np.isnan(r2.real[0, 0])
    assert linalg._join(c1, c2).tobytes() == a.tobytes()
