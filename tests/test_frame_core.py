"""Properties of the stacked-analysis-matrix core across vector frames,
frames of operators and fusion frames, against per-member loops kept
here as the reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analysis_row
from quatframes.cli import RECONSTRUCT_TOL
from quatframes.generalizations import (
    FusionFrame,
    fusion_frame_operator,
    fusion_report,
    fusion_to_op_frame,
)
from quatframes.linalg import (
    QMatrix,
    QVector,
    frobenius_distance,
    hermitian_eigenvalues,
    inner,
    orthonormalize,
)
from quatframes.operator_frames import (
    BlockVector,
    OperatorFrame,
    op_analysis,
    op_dual,
    op_frame_operator,
    op_parseval,
    op_report,
    op_synthesis,
)
from quatframes.quaternion import Quaternion
from quatframes.reporting import FRAME_TOL, dual_rows, extremal_eigenvalues
from quatframes.sampling import random_columns
from quatframes.vector_frames import VectorFrame, frame_operator, report

# rounding of sums of at most a few dozen products, relative to the
# scale sum_i ||T_i||_F^2 of the frame operator
SUM_RTOL = 1e-13

EXAMPLES = settings(max_examples=60, deadline=None)
# round-off of a dual or a Parseval normalization, relative to the frame's
# condition number r2/r1 and the norm of the result
DUAL_RTOL = 1e-13


@st.composite
def families(draw):
    """A vector frame (possibly empty), an operator frame with mixed
    codomain dimensions, or a fusion frame whose subspaces may be {0}."""
    n = draw(st.integers(1, 16))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["vector", "operator", "fusion"]))
    if kind == "vector":
        m = draw(st.integers(0, n + 3))
        return VectorFrame(n, [QVector(gen.standard_normal((n, 4)))
                               for _ in range(m)])
    if kind == "operator":
        dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
        return OperatorFrame(n, [QMatrix(gen.standard_normal((d, n, 4)))
                                 for d in dims])
    dims = draw(st.lists(st.integers(0, min(n, 4)), min_size=1, max_size=8))
    subspaces = [[QVector(gen.standard_normal((n, 4))) for _ in range(d)]
                 for d in dims]
    return FusionFrame(n, subspaces, gen.uniform(0.25, 4.0, len(dims)))


def reference_members(f):
    """The members T_i of f as operators, without the stacked matrix."""
    if isinstance(f, VectorFrame):
        return [analysis_row(u) for u in f.members]
    if isinstance(f, FusionFrame):
        return fusion_to_op_frame(f).members
    return list(f.members)


def reference_operator(members, n):
    s = QMatrix.zeros(n, n)
    for t in members:
        s = s + t.adjoint() @ t
    return s


def reference_is_frame(members, n):
    vals = hermitian_eigenvalues(reference_operator(members, n))
    return vals[0] > FRAME_TOL * vals[-1]


def frame_operator_of(f):
    if isinstance(f, VectorFrame):
        return frame_operator(f)
    if isinstance(f, FusionFrame):
        return fusion_frame_operator(f)
    return op_frame_operator(f)


def report_of(f):
    if isinstance(f, VectorFrame):
        return report(f)
    if isinstance(f, FusionFrame):
        return fusion_report(f)
    return op_report(f)


def flags(f):
    r = report_of(f)
    return r.is_frame, r.is_tight, r.is_exact


def scaled(f, c):
    if isinstance(f, VectorFrame):
        return VectorFrame(f.space_dim, [u * c for u in f.members])
    if isinstance(f, FusionFrame):
        return FusionFrame(f.space_dim, f.subspaces, [w * c for w in f.weights])
    return OperatorFrame(f.space_dim, [t * c for t in f.members])


def rotated(f, u):
    """Every member composed with the unitary u on the right, T_i u;
    for vectors and subspaces that maps each vector x to u* x."""
    back = u.adjoint()
    if isinstance(f, VectorFrame):
        return VectorFrame(f.space_dim, [back @ x for x in f.members])
    if isinstance(f, FusionFrame):
        return FusionFrame(f.space_dim, [[back @ x for x in basis]
                                         for basis in f.subspaces], f.weights)
    return OperatorFrame(f.space_dim, [t @ u for t in f.members])


@EXAMPLES
@given(families())
def test_frame_operator_matches_member_loop(f):
    members = reference_members(f)
    ref = reference_operator(members, f.space_dim)
    scale = sum(t.frobenius() ** 2 for t in members)
    assert frobenius_distance(frame_operator_of(f), ref) <= SUM_RTOL * max(scale, 1.0)


@EXAMPLES
@given(families(), st.integers(0, 2**32 - 1))
def test_synthesis_is_adjoint_of_analysis(f, seed):
    g = OperatorFrame(f.space_dim, reference_members(f))
    gen = np.random.default_rng(seed)
    u = QVector(gen.standard_normal((f.space_dim, 4)))
    x = BlockVector([QVector(gen.standard_normal((d, 4))) for d in g.codomain_dims])
    analyzed = op_analysis(g, u)
    lhs = inner(u, op_synthesis(g, x))
    rhs = Quaternion()
    for a, b in zip(analyzed.blocks, x.blocks):
        rhs = rhs + inner(a, b)
    scale = max(1.0, analyzed.norm() * x.norm())
    assert max(abs(p - q) for p, q in zip(lhs.components, rhs.components)) <= 1e-12 * scale


@EXAMPLES
@given(families())
def test_exactness_matches_dropping_each_member(f):
    members = reference_members(f)
    n = f.space_dim
    expected = (reference_is_frame(members, n) and len(members) > 0
                and not any(reference_is_frame(members[:i] + members[i + 1:], n)
                            for i in range(len(members))))
    assert report_of(f).is_exact == expected


@EXAMPLES
@given(families(), st.integers(-8, 8))
def test_flags_invariant_under_scaling(f, k):
    assert flags(scaled(f, 10.0 ** k)) == flags(f)


@EXAMPLES
@given(families(), st.integers(0, 2**32 - 1))
def test_flags_invariant_under_unitaries(f, seed):
    gen = np.random.default_rng(seed)
    n = f.space_dim
    u = QMatrix.from_columns(orthonormalize(
        [QVector(gen.standard_normal((n, 4))) for _ in range(n)]))
    assert flags(rotated(f, u)) == flags(f)


@st.composite
def operator_frames(draw):
    """A random frame of operators on H^n, n <= 24, with mixed codomain
    dimensions, at least n + 1 rows in all, and entries scaled by 10^k."""
    n = draw(st.integers(1, 24))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    if sum(dims) <= n:
        dims.append(n + 1 - sum(dims))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return OperatorFrame(n, [QMatrix(gen.standard_normal((d, n, 4)) * scale)
                             for d in dims])


def condition(f):
    lower, upper = extremal_eigenvalues(op_frame_operator(f))
    return upper / lower


@settings(max_examples=40, deadline=None)
@given(operator_frames())
def test_dual_of_dual_recovers_the_frame(f):
    a = f.analysis_matrix()
    back = op_dual(op_dual(f)).analysis_matrix()
    assert frobenius_distance(back, a) <= DUAL_RTOL * condition(f) * a.frobenius()


@settings(max_examples=40, deadline=None)
@given(operator_frames())
def test_parseval_normalization_is_idempotent(f):
    p = op_parseval(f)
    again = op_parseval(p).analysis_matrix()
    a = p.analysis_matrix()
    assert frobenius_distance(again, a) <= DUAL_RTOL * condition(f) * a.frobenius()


@st.composite
def vector_frames(draw):
    """A random frame of n + 1 to n + 6 vectors in H^n, n <= 24, with
    entries scaled by 10^k."""
    n = draw(st.integers(1, 24))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = n + draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-6, 6))
    return VectorFrame(n, [QVector(gen.standard_normal((n, 4)) * scale)
                           for _ in range(m)])


@settings(max_examples=40, deadline=None)
@given(st.one_of(vector_frames(), operator_frames()), st.integers(0, 2**32 - 1))
def test_reconstruction_through_the_dual_returns_the_input(f, seed):
    a = f.analysis_matrix()
    x = random_columns(np.random.default_rng(seed), f.space_dim, 3)
    back = dual_rows(a).adjoint() @ (a @ x)
    assert ((back - x).column_norms() <= RECONSTRUCT_TOL * x.column_norms()).all()
