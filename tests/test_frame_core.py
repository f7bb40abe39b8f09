"""Properties of the stacked-analysis-matrix core across vector frames,
frames of operators and fusion frames (and, for analysis and synthesis,
pseudo-frame pairs and quasi-projector systems), against per-member
loops kept here as the reference."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import analysis_row
from quatframes import cli, linalg, reporting, stability
from quatframes.cli import RECONSTRUCT_TOL
from quatframes.errors import NonFinite, QuatFramesError
from quatframes.fileio import (
    load_frame,
    operator_frame_obj,
    vector_frame_obj,
    vector_obj,
    write_document,
)
from quatframes.generalizations import (
    STRUCTURE_TOL,
    FusionFrame,
    PseudoFramePair,
    QuasiProjectorSystem,
    _resolution_and_self_adjoint,
    fusion_frame_operator,
    fusion_report,
)
from quatframes.linalg import (
    QMatrix,
    QVector,
    _unit,
    frobenius_distance,
    gram,
    hermitian_eigenvalues,
    inner,
    inverse_matrix,
    orthonormalize,
    positive_sqrt,
)
from quatframes.operator_frames import (
    OperatorFrame,
    op_analysis,
    op_dual,
    op_frame_operator,
    op_parseval,
    op_report,
    op_synthesis,
)
from quatframes.quaternion import Quaternion
from quatframes.reporting import (
    FRAME_TOL,
    _refuse_scale,
    _require_frame,
    analysis,
    build_report,
    dual_rows,
    frame_bounds,
    parseval_rows,
    split_rows,
    synthesis,
)
from quatframes.sampling import random_columns
from quatframes.stability import (
    check_stability_t1,
    check_stability_t2,
    fit_params_t1,
    fit_params_t2,
)
from quatframes.vector_frames import (
    VectorFrame,
    canonical_dual,
    frame_operator,
    parseval,
    report,
)

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
    subspaces = [QMatrix.from_columns([QVector(gen.standard_normal((n, 4))) for _ in range(d)])
                 if d else QMatrix.zeros(n, 0) for d in dims]
    return FusionFrame(n, subspaces, gen.uniform(0.25, 4.0, len(dims)))


@st.composite
def pseudo_pairs(draw):
    """A pseudo-frame pair on H^n with m random analyzers and synthesizers
    (possibly none) and a random subspace of dimension at most n."""
    n = draw(st.integers(1, 16))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, k = draw(st.integers(0, n + 3)), draw(st.integers(0, n))
    return PseudoFramePair(n, *(QMatrix(gen.standard_normal((n, c, 4))) for c in (m, m, k)))


@st.composite
def quasi_systems(draw):
    """A quasi-projector system of random n x n members, possibly none."""
    n = draw(st.integers(1, 16))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return QuasiProjectorSystem(n, [QMatrix(gen.standard_normal((n, n, 4)))
                                    for _ in range(draw(st.integers(0, 6)))])


def reference_members(f):
    """The members T_i of f as operators, without the stacked matrix."""
    if isinstance(f, VectorFrame):
        return [analysis_row(u) for u in f.members]
    if isinstance(f, PseudoFramePair):
        return [analysis_row(x) for x in f.analyzers]
    if isinstance(f, QuasiProjectorSystem):
        return list(f.projectors)
    if isinstance(f, FusionFrame):
        # v_i P_{W_i}, built here from the bases, not by the code under test
        return [gram(b.adjoint()) * w for w, b in zip(f.weights, f.bases)]
    return list(f.members)


def reference_operator(members, n):
    s = QMatrix.zeros(n, n)
    for t in members:
        s = s + t.adjoint() @ t
    return s


def extremal_eigenvalues(s):
    """The smallest and largest eigenvalue of a self-adjoint s."""
    vals = hermitian_eigenvalues(s)
    return float(vals[0]), float(vals[-1])


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
        return FusionFrame(f.space_dim, f.bases, [w * c for w in f.weights])
    return OperatorFrame(f.space_dim, [t * c for t in f.members])


def rotated(f, u):
    """Every member composed with the unitary u on the right, T_i u;
    for vectors and subspaces that maps each vector x to u* x."""
    back = u.adjoint()
    if isinstance(f, VectorFrame):
        return VectorFrame(f.space_dim, [back @ x for x in f.members])
    if isinstance(f, FusionFrame):
        return FusionFrame(f.space_dim, [back @ b for b in f.bases], f.weights)
    return OperatorFrame(f.space_dim, [t @ u for t in f.members])


@EXAMPLES
@given(families())
def test_frame_operator_matches_member_loop(f):
    members = reference_members(f)
    ref = reference_operator(members, f.space_dim)
    scale = sum(t.frobenius() ** 2 for t in members)
    assert frobenius_distance(frame_operator_of(f), ref) <= SUM_RTOL * max(scale, 1.0)


@EXAMPLES
@given(st.one_of(families(), pseudo_pairs(), quasi_systems()), st.integers(0, 2**32 - 1))
def test_synthesis_is_adjoint_of_analysis(f, seed):
    members = reference_members(f)
    g = OperatorFrame(f.space_dim, members)
    gen = np.random.default_rng(seed)
    u = QVector(gen.standard_normal((f.space_dim, 4)))
    dims = g.codomain_dims
    x = QVector(gen.standard_normal((sum(dims), 4)))
    analyzed = op_analysis(g, u)
    lhs = inner(u, op_synthesis(g, x))
    rhs = Quaternion()
    for a, b in zip(split_rows(analyzed.data, dims), split_rows(x.data, dims)):
        rhs = rhs + inner(QVector(a), QVector(b))
    scale = max(1.0, analyzed.norm() * x.norm())
    assert max(abs(p - q) for p, q in zip(lhs.components, rhs.components)) <= 1e-12 * scale
    # the core's analysis and synthesis on f itself, in its own coefficient
    # space H^{sum_i d_i}, against the member loop's frame operator
    y = QVector(gen.standard_normal((sum(f.codomain_dims), 4)))
    coefficients = analysis(f, u)
    lhs, rhs = inner(u, synthesis(f, y)), inner(coefficients, y)
    scale = max(1.0, coefficients.norm() * y.norm())
    assert max(abs(p - q) for p, q in zip(lhs.components, rhs.components)) <= 1e-12 * scale
    energy = inner(u, reference_operator(members, f.space_dim) @ u).r0
    scale = max(1.0, sum(t.frobenius() ** 2 for t in members) * u.norm_sq())
    assert abs(coefficients.norm_sq() - energy) <= 1e-12 * scale


@st.composite
def exact_families(draw):
    """An exact frame of operators on H^n with members of one or more rows:
    a basis split into blocks, or the n coordinate projectors e_i e_i*, each
    member optionally times a random square matrix on the left, which keeps
    the span of its rows and so keeps the family exact."""
    n = draw(st.integers(1, 6))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
        blocks = np.split(gen.standard_normal((n, n, 4)), cuts)
    else:
        blocks = [np.zeros((n, n, 4)) for _ in range(n)]
        for i, b in enumerate(blocks):
            b[i, i, 0] = 1.0
    mixed = draw(st.booleans())
    return OperatorFrame(n, [QMatrix(gen.standard_normal((len(b), len(b), 4))) @ QMatrix(b)
                             if mixed else QMatrix(b) for b in blocks])


def appended(f, i):
    """f with its member i repeated, or with a zero member for i None."""
    n = f.space_dim
    if isinstance(f, VectorFrame):
        return VectorFrame(n, f.members + [QVector.zeros(n) if i is None else f.members[i]])
    if isinstance(f, FusionFrame):
        base, weight = (QMatrix.zeros(n, 0), 1.0) if i is None else (f.bases[i], f.weights[i])
        return FusionFrame(n, f.bases + [base], f.weights + [weight])
    return OperatorFrame(n, f.members + [QMatrix.zeros(1, n) if i is None else f.members[i]])


@st.composite
def exactness_families(draw):
    """families() or exact_families(), as drawn or with one member repeated
    or a zero member appended, scaled by 2^k for k in {-40, 0, 40}."""
    f = draw(st.one_of(families(), exact_families()))
    change = draw(st.sampled_from(["none", "repeat", "zero"]))
    if change == "zero" or change == "repeat" and len(f):
        f = appended(f, draw(st.integers(0, len(f) - 1)) if change == "repeat" else None)
    return scaled(f, 2.0 ** draw(st.sampled_from([-40, 0, 40])))


# e1 and s e2 twice on H^2, s^2 = 0.75 FRAME_TOL: S = diag(1, 1.5 FRAME_TOL) is a
# frame and no member can go, but the row-norm bound lambda_min(S) - s^2 on
# an s e2's remainder does not show that, so every member is deleted in turn
STRADDLE = VectorFrame(2, [QVector([[1, 0, 0, 0], [0, 0, 0, 0]])]
                       + [QVector([[0, 0, 0, 0], [np.sqrt(0.75 * FRAME_TOL), 0, 0, 0]])] * 2)

# e1, w e2 and a vector tilted toward e1, on H^2, with lambda_min(S) near
# 1e-10 lambda_max(S): deleting e1 leaves a frame of H^2, but the row norms
# cannot show it, so a deletion decides
TILTED = VectorFrame(2, [QVector(np.pad(np.array(row)[:, None], ((0, 0), (0, 3))))
                         for row in ([1, 0], [0, 9.75e-6], [2.7e-6, 7.4e-6])])


# e1, s e2 and t e2 on H^2, s^2 = 8.8 FRAME_TOL, t^2 = 1.2 FRAME_TOL: S is
# diag(1, 10 FRAME_TOL), condition number 1e9, and g = 0.88 for s e2, yet
# deleting it leaves diag(1, 1.2 FRAME_TOL), still a frame
ILL_CONDITIONED = VectorFrame(2, [QVector(np.pad(np.array(row)[:, None], ((0, 0), (0, 3))))
                                  for row in ([1, 0], [0, np.sqrt(8.8 * FRAME_TOL)],
                                              [0, np.sqrt(1.2 * FRAME_TOL)])])


@example(STRADDLE)
@example(TILTED)
@example(ILL_CONDITIONED)
@EXAMPLES
@given(exactness_families())
def test_exactness_matches_dropping_each_member(f):
    members = reference_members(f)
    n = f.space_dim
    expected = (reference_is_frame(members, n) and len(members) > 0
                and not any(reference_is_frame(members[:i] + members[i + 1:], n)
                            for i in range(len(members))))
    with mock.patch.object(reporting, "_chi_gram", wraps=reporting._chi_gram) as grams:
        assert report_of(f).is_exact == expected
    if f is STRADDLE:
        # S, then one deletion for each member
        assert expected and grams.call_count == 4


def reference_quasi_structure(system):
    """sum_j P_j = I and every P_j = P_j*, to STRUCTURE_TOL, one projector
    at a time, each self-adjointness test on P_j at its own unit scale."""
    n = system.space_dim
    with np.errstate(over="ignore", invalid="ignore"):
        total = QMatrix(sum((p.data for p in system.projectors), np.zeros((n, n, 4))))
        resolution_ok = frobenius_distance(total, QMatrix.identity(n)) <= STRUCTURE_TOL
    units = (QMatrix(_unit(p.data)[0]) for p in system.projectors)
    self_adjoint = all(frobenius_distance(p, p.adjoint()) <= STRUCTURE_TOL * p.frobenius()
                       for p in units)
    return resolution_ok, self_adjoint


def unit_direction(gen, n, sign):
    """A random n x n quaternion matrix X of Frobenius norm 1 with X* = sign X."""
    x = gen.standard_normal((n, n, 4))
    x = x + sign * QMatrix(x).adjoint().data
    return x / np.sqrt((x * x).sum())


@st.composite
def quasi_structures(draw):
    """Projectors on H^n near either threshold of the quasi structure checks.
    Either they are self-adjoint and sum to I + r STRUCTURE_TOL D, or each is
    c_j (H_j + r_j STRUCTURE_TOL K_j / 2), ||H_j||_F = ||K_j||_F = 1, H_j
    self-adjoint and K_j skew, so P_j - P_j* is r_j STRUCTURE_TOL ||P_j||_F,
    with c_j 0 or 2^k for k in {-600, 0, 600}, each its own.  Each r sits 10%
    from 1, far from it, or at 0."""
    n, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratios = st.sampled_from([0.0, 0.5, 0.9, 1.1, 2.0, 1e4])
    if draw(st.booleans()):
        parts = [unit_direction(gen, n, 1) for _ in range(k - 1)]
        rest = (np.eye(n)[:, :, None] * [1, 0, 0, 0] - sum(parts, np.zeros((n, n, 4)))
                + draw(ratios) * STRUCTURE_TOL * unit_direction(gen, n, 1))
        projectors = parts + [rest]
    else:
        projectors = [draw(st.sampled_from([0.0, 2.0**-600, 1.0, 2.0**600]))
                      * (unit_direction(gen, n, 1)
                         + draw(ratios) * STRUCTURE_TOL / 2 * unit_direction(gen, n, -1))
                      for _ in range(k)]
    return QuasiProjectorSystem(n, [QMatrix(p) for p in projectors])


@EXAMPLES
@given(st.one_of(quasi_structures(), quasi_systems()))
def test_quasi_structure_checks_match_projector_loop(system):
    assert _resolution_and_self_adjoint(system) == reference_quasi_structure(system)


@EXAMPLES
@given(families(), st.integers(-8, 8))
def test_flags_invariant_under_scaling(f, k):
    assert flags(scaled(f, 10.0 ** k)) == flags(f)


@EXAMPLES
@given(families(), st.integers(-60, 60))
def test_power_of_two_scaling_is_exact(f, k):
    # 2^k scales every entry, product and eigenvalue without rounding, so
    # the bounds scale by 4^k and the rest is the same bit for bit
    a, dims = f.analysis_matrix(), f.codomain_dims
    big = QMatrix(np.ldexp(a.data, k))
    assert frame_bounds(big) == tuple(np.ldexp(frame_bounds(a), 2 * k))
    small, large = build_report(a, dims), build_report(big, dims)
    # all flags but is_parseval, which reads the bounds that 2^k moves off 1
    assert ((large.is_frame, large.is_tight, large.is_exact)
            == (small.is_frame, small.is_tight, small.is_exact))
    if small.is_frame:
        assert np.array_equal(parseval_rows(big).data, parseval_rows(a).data)
        assert np.array_equal(dual_rows(big).data, np.ldexp(dual_rows(a).data, -k))


@EXAMPLES
@given(families(), st.integers(0, 2**32 - 1))
def test_flags_invariant_under_unitaries(f, seed):
    gen = np.random.default_rng(seed)
    n = f.space_dim
    u = orthonormalize(QMatrix.from_columns(
        [QVector(gen.standard_normal((n, 4))) for _ in range(n)]))
    assert flags(rotated(f, u)) == flags(f)


@EXAMPLES
# scaled by 2^-600, a 9-member frame of H^3 whose entries are normal floats
# from 1e-183 to 6e-181
@example(VectorFrame(3, [QVector(v) for v in np.random.default_rng(0).standard_normal((9, 3, 4))]))
@given(families())
def test_scaling_to_a_zero_frame_operator_refuses_or_keeps_flags(f):
    # every product in S of the scaled family underflows to 0
    small = scaled(f, 2.0**-600)
    try:
        small_flags = flags(small)
    except NonFinite:
        pass
    else:
        assert small_flags == flags(f)
    if flags(f)[0]:
        for route in (dual_rows, parseval_rows):
            with pytest.raises(NonFinite):
                route(small.analysis_matrix())


def test_frame_bounds_refuse_a_largest_eigenvalue_up_to_2_to_the_minus_1024():
    # 1/2^-1024 overflows; with one more row of 2^-537, S = 2^-1024 + 2^-1074
    # is the next float up, whose reciprocal is finite
    floor = QMatrix(np.array([[[2.0**-512, 0, 0, 0]]]))
    with pytest.raises(NonFinite, match="^the frame operator underflows"):
        frame_bounds(floor)
    above = QMatrix(np.array([[[2.0**-512, 0, 0, 0]], [[2.0**-537, 0, 0, 0]]]))
    up = np.nextafter(2.0**-1024, 1.0)
    assert frame_bounds(above) == (up, up)


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


@settings(max_examples=40, deadline=None)
@given(st.one_of(vector_frames(), operator_frames()))
def test_members_view_rebuilds_the_stored_analysis_matrix(f):
    # the frame, its canonical dual and its Parseval normalization, each
    # built again from its members, store the same A to the last bit
    if isinstance(f, VectorFrame):
        derived = (f, canonical_dual(f), parseval(f))
    else:
        derived = (f, op_dual(f), op_parseval(f))
    for g in derived:
        back = type(g)(g.space_dim, g.members)
        assert back.analysis_matrix().data.tobytes() == g.analysis_matrix().data.tobytes()
        assert back.codomain_dims == g.codomain_dims and len(back) == len(g)


def test_members_view_and_stored_matrix_are_read_only():
    gen = np.random.default_rng(3)
    frames = [VectorFrame(3, []), VectorFrame(3, [QVector(gen.standard_normal((3, 4)))]),
              OperatorFrame(3, [QMatrix(gen.standard_normal((d, 3, 4))) for d in (1, 3, 2)])]
    for f in frames:
        with pytest.raises(AttributeError):
            f.members = f.members
        with pytest.raises(ValueError):
            f.analysis_matrix().data[...] = 0.0
    assert frames[2].codomain_dims == [1, 3, 2]


# ====== one eigendecomposition of S per dual and Parseval normalization ======

# agreement of the single-eigh dual and Parseval rows with the library's
# chain of decompositions, relative to the norm of the result
ROUTE_RTOL = 1e-10


def library_rows(a, parseval):
    """The rows the frame core gave through the library's decompositions:
    the frame test on eigvalsh of S, with a subnormal S refused first for
    the Parseval normalization, then A inverse_matrix(S) or
    A inverse_matrix(positive_sqrt(S))."""
    s = gram(a)
    if parseval:
        lower, upper = extremal_eigenvalues(s)
        _refuse_scale(s, upper)
        _require_frame(lower, upper)
        return a @ inverse_matrix(positive_sqrt(s))
    _require_frame(*extremal_eigenvalues(s))
    return a @ inverse_matrix(s)


@st.composite
def scaled_analysis_matrices(draw):
    """The stacked analysis matrix of a vector frame or a frame of operators
    on H^n, n <= 4, with one to 2n + 2 rows (so some are no frames), scaled
    by 2^k for k in {-500, 0, 500}."""
    n = draw(st.integers(1, 4))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 2 * n + 2))
    k = draw(st.sampled_from([-500, 0, 500]))
    return QMatrix(np.ldexp(gen.standard_normal((rows, n, 4)), k))


@EXAMPLES
@given(scaled_analysis_matrices(), st.booleans())
def test_single_eigh_rows_agree_with_the_library_route(a, parseval):
    route = parseval_rows if parseval else dual_rows
    try:
        want = library_rows(a, parseval)
    except QuatFramesError as exc:
        with pytest.raises(type(exc)):
            route(a)
        return
    assert frobenius_distance(route(a), want) <= ROUTE_RTOL * want.frobenius()


LAPACK = ("eigh", "eigvalsh", "svd", "inv")


@pytest.fixture
def lapack_calls(monkeypatch):
    """Calls of each LAPACK driver by stage: "summary" inside the CLI's
    _write_summary, which measures the written frame on its own, and "core"
    everywhere else."""
    calls, stage = Counter(), ["core"]
    for name in LAPACK:
        def counted(*args, _name=name, _driver=getattr(np.linalg, name), **kwargs):
            calls[stage[0], _name] += 1
            return _driver(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)

    def summary(*args, _write=cli._write_summary):
        stage[0] = "summary"
        try:
            return _write(*args)
        finally:
            stage[0] = "core"
    monkeypatch.setattr(cli, "_write_summary", summary)
    return calls


@pytest.fixture
def chi_calls(monkeypatch):
    """Calls of linalg._hermitian_chi, of the Gram kernel linalg._chi_gram and
    of linalg.hermitian_eigenvalues, counted wherever a quatframes module
    binds them."""
    calls = Counter()
    for name in ("_hermitian_chi", "_chi_gram", "hermitian_eigenvalues"):
        def counted(*args, _name=name, _real=getattr(linalg, name)):
            calls[_name] += 1
            return _real(*args)
        for module in (linalg, reporting, stability):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def small_files(tmp_path):
    gen = np.random.default_rng(11)
    members = [gen.standard_normal((d, 3, 4)) for d in (1, 2, 2)]
    paths = {name: str(tmp_path / f"{name}.json")
             for name in ("vector", "operator", "perturbed", "fusion")}
    write_document(paths["vector"], vector_frame_obj(
        VectorFrame(3, [QVector(v) for v in gen.standard_normal((5, 3, 4))])))
    for name, scale in (("operator", 0.0), ("perturbed", 0.01)):
        write_document(paths[name], operator_frame_obj(OperatorFrame(
            3, [QMatrix(m + scale * gen.standard_normal(m.shape)) for m in members])))
    write_document(paths["fusion"], {
        "kind": "fusion", "dim": 3, "weights": [1.0, 2.0],
        "subspaces": [[vector_obj(QVector(v)) for v in gen.standard_normal((k, 3, 4))]
                      for k in (1, 2)]})
    return paths


@pytest.mark.parametrize("command, kinds", [
    ("dual", ["vector", "operator"]),
    ("parseval", ["vector", "operator", "fusion"]),
    ("reconstruct", ["vector", "operator"]),
])
def test_dual_parseval_and_reconstruct_run_one_eigh(lapack_calls, small_files, tmp_path,
                                                    command, kinds):
    if command == "reconstruct":
        extra, summary = ["--random", "2"], {}
    else:
        extra, summary = ["-o", str(tmp_path / "out.json")], {("summary", "eigvalsh"): 1}
    for kind in kinds:
        lapack_calls.clear()
        assert cli.main([command, small_files[kind], *extra]) == 0
        assert lapack_calls == Counter({("core", "eigh"): 1, **summary}), kind


@pytest.fixture
def exactness_calls(monkeypatch):
    """Calls of eigvalsh, of cholesky and of the frame core's Gram."""
    calls = Counter()
    for module, name in ((np.linalg, "eigvalsh"), (np.linalg, "cholesky"),
                         (reporting, "_chi_gram")):
        def counted(*args, _name=name, _call=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_analyze_decides_exactness_without_deleting_a_member(exactness_calls, capsys,
                                                              tmp_path):
    gen = np.random.default_rng(5)
    # 48 vectors of H^8 and one three times as long: a short member's squared
    # norm is below lambda_min(S), so the row norms alone show that it can be
    # deleted, though the long member's norm is above lambda_min(S)
    path = str(tmp_path / "redundant.json")
    vectors = gen.standard_normal((49, 8, 4)) * np.r_[np.ones(48), 3.0][:, None, None]
    write_document(path, vector_frame_obj(VectorFrame(8, [QVector(v) for v in vectors])))
    assert cli.main(["analyze", path]) == 0
    assert exactness_calls == Counter({"_chi_gram": 1, "eigvalsh": 1})
    assert '"is_exact": false' in capsys.readouterr().out


@pytest.mark.parametrize("theorem, route", [
    ("1", "cli"), ("2", "cli"), ("1", "library"), ("2", "library"),
], ids=["1", "2", "1-library", "2-library"])
def test_stability_fit_runs_three_eigvalsh(lapack_calls, chi_calls, small_files, theorem,
                                           route):
    # the bounds of F and of R, and ||A_F - A_R||, which the fit and the
    # exact hypothesis test share
    if route == "cli":
        argv = ["stability", small_files["operator"], small_files["perturbed"], "--fit"]
        assert cli.main([*argv, "--theorem", theorem]) == 0
    else:
        # a pair read afresh, whose norm no earlier call has computed
        f, r = (load_frame(small_files[name])[1] for name in ("operator", "perturbed"))
        fit, check = {"1": (fit_params_t1, check_stability_t1),
                      "2": (fit_params_t2, check_stability_t2)}[theorem]
        assert check(f, r, fit(f, r)).hypothesis_ok
    assert lapack_calls == Counter({("core", "eigvalsh"): 3})
    # each reader of an S forms chi(S) once and hands it to LAPACK as it is,
    # through the library's eigenvalue routine
    assert chi_calls == Counter({"_chi_gram": 3, "hermitian_eigenvalues": 3})


def test_analyze_runs_one_eigvalsh_on_one_chi_gram(lapack_calls, chi_calls, tmp_path):
    # 16 members of H^3 -> H^2: the row norms alone decide exactness
    path = str(tmp_path / "operator.json")
    members = np.random.default_rng(3).standard_normal((16, 2, 3, 4))
    write_document(path, operator_frame_obj(OperatorFrame(3, [QMatrix(m) for m in members])))
    assert cli.main(["analyze", path]) == 0
    assert lapack_calls == Counter({("core", "eigvalsh"): 1})
    assert chi_calls == Counter({"_chi_gram": 1, "hermitian_eigenvalues": 1})
