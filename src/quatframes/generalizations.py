"""Fusion frames, pseudo-frame pairs, and quasi-projector systems.

Each of these generalizes the frame inequality in a different direction:
fusion frames measure energy through weighted subspace projections,
pseudo-frame pairs reconstruct on a designated subspace through separate
analysis and synthesis families, and quasi-projector systems resolve the
identity by a sum of bounded self-adjoint operators.  All three embed
into frames of operators: fusion frames and quasi-projector systems are
encoded as stacked analysis matrices for the core in reporting, and a
pseudo-frame pair reconstructs through the analysis matrix of its
analyzers and the synthesis matrix of its synthesizers.  Vectors are
given as the columns of n x k matrices (n x 0 for none), and a subspace
is stored as the orthonormal basis matrix of its spanning columns, made
once on construction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvalidWeight,
    NonFinite,
    NotAFrameOnSubspace,
)
from .linalg import (
    QMatrix,
    _conj4,
    _unit,
    complex_adjoint_rep,
    frobenius_distance,
    orthonormalize,
    orthonormalize_each,
)
from .operator_frames import OperatorFrame
from .reporting import (
    FrameReport,
    _FrameCore,
    build_report,
    frame_bounds,
    gram,
    has_frame_bounds,
    split_rows,
)
from .vector_frames import VectorFrame

# residual tolerance for resolution-of-identity and compatibility checks
STRUCTURE_TOL = 1e-10
# reconstruction residual under which a pseudo-frame pair counts as working
PSEUDO_TOL = 1e-9


# ====== fusion frames ======

class FusionFrame(_FrameCore):
    """Weighted family of subspaces W_i with weights v_i > 0, each W_i
    given as an n x k_i matrix whose columns span it.

    `bases` lists an n x k_i orthonormal basis matrix B_i of each W_i, all
    made at once by linalg.orthonormalize_each; the energy of u is
    sum_i v_i^2 ||P_{W_i} u||^2, and the analysis matrix has the block
    v_i B_i* for member i.  Spans with different row counts raise
    DimensionMismatch.
    """

    __slots__ = ("_bases", "weights")

    def __init__(self, space_dim: int, spans, weights):
        spans = list(spans)
        weights = [float(w) for w in weights]
        if len(spans) != len(weights):
            raise DimensionMismatch(
                f"{len(spans)} subspaces vs {len(weights)} weights")
        for w in weights:
            if not w > 0.0:
                raise InvalidWeight(f"weight {w} is not strictly positive")
        if len({s.rows for s in spans}) > 1:
            raise DimensionMismatch("subspaces spanned by vectors of different dims")
        vectors = np.concatenate([s.data for s in spans] or [np.zeros((space_dim, 0, 4))], 1)
        self._bases, dims = orthonormalize_each(QMatrix(vectors), [s.cols for s in spans])
        self.weights = weights
        super().__init__(space_dim, split_rows(self._bases.adjoint().data
                                               * np.repeat(weights, dims)[:, None, None], dims))

    @property
    def bases(self) -> list[QMatrix]:
        rows = split_rows(np.swapaxes(self._bases.data, 0, 1), self.codomain_dims)
        return [QMatrix(np.swapaxes(b, 0, 1)) for b in rows]


def fusion_frame_operator(f: FusionFrame) -> QMatrix:
    """sum_i v_i^2 P_{W_i} = A* A."""
    return gram(f.analysis_matrix())


def fusion_report(f: FusionFrame) -> FrameReport:
    """Bounds are the extremal eigenvalues of sum_i v_i^2 P_{W_i}."""
    return build_report(f.analysis_matrix(), f.codomain_dims)


def fusion_to_op_frame(f: FusionFrame) -> OperatorFrame:
    """The frame of operators Lambda_i = v_i pi_{W_i}, each written in the
    orthonormal basis B_i of W_i as the k_i x n block v_i B_i* of the
    fusion frame's own analysis matrix, so energies, frame operator and
    bounds are the fusion frame's.  A {0} subspace owns no row of that
    matrix and becomes one zero row, the zero map into H^1, since a file
    member has at least one row."""
    dims = f.codomain_dims
    empty = np.cumsum(dims, dtype=int)[np.equal(dims, 0)]
    a = QMatrix(np.insert(f.analysis_matrix().data, empty, 0.0, axis=0))
    return OperatorFrame.from_analysis(a, [d or 1 for d in dims])


# ====== pseudo-frame pairs ======

class PseudoFramePair(_FrameCore):
    """Analysis family {x_i}, synthesis family {x_i+}, and the subspace
    on which reconstruction x = sum_i x_i+ <x_i|x> is claimed, given as the
    columns of n x m, n x m and n x k matrices.  Stored as the analyzers'
    analysis matrix Phi (rows <x_i|) in the frame core, the synthesis
    matrix Psi (columns x_i+) and an orthonormal basis matrix B."""

    __slots__ = ("synthesis", "basis")
    analyzers = VectorFrame.members

    def __init__(self, space_dim: int, analyzers: QMatrix, synthesizers: QMatrix,
                 subspace: QMatrix):
        if analyzers.cols != synthesizers.cols:
            raise DimensionMismatch(
                f"{analyzers.cols} analyzers vs {synthesizers.cols} synthesizers")
        # one block <x_i| per member: the rows of Phi = X*, X the analyzers
        super().__init__(space_dim, analyzers.adjoint().data[:, None])
        if synthesizers.rows != space_dim or subspace.rows != space_dim:
            raise DimensionMismatch(
                f"synthesizers of dim {synthesizers.rows} and subspace vectors of"
                f" dim {subspace.rows} vs space dim {space_dim}")
        self.synthesis = synthesizers
        self.basis = orthonormalize(subspace)


class PseudoCheck(NamedTuple):
    holds: bool
    max_residual: float


def pseudo_frame_check(pair: PseudoFramePair) -> PseudoCheck:
    """The worst residual ||sum_i x_i+ <x_i|x> - x|| over unit x in the
    subspace, exactly: with B its orthonormal basis, the operator norm of
    (Psi Phi - I) B, the largest singular value of its chi.  Holds iff it
    stays below PSEUDO_TOL; a residual whose entries or norm overflow
    raises NonFinite."""
    b = pair.basis
    if not b.cols:
        return PseudoCheck(holds=True, max_residual=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = pair.synthesis @ (pair.analysis_matrix() @ b) - b
    max_residual = (float(np.linalg.norm(complex_adjoint_rep(residual), 2))
                    if np.isfinite(residual.data).all() else np.inf)
    if not np.isfinite(max_residual):
        raise NonFinite("pseudo-frame residual norm overflows; rescale the input")
    return PseudoCheck(holds=max_residual <= PSEUDO_TOL,
                       max_residual=max_residual)


def pseudo_to_op_frame(pair: PseudoFramePair) -> OperatorFrame:
    """Restrict the analyzers to the subspace, written in its
    orthonormal basis, giving one 1 x dim(subspace) functional each.

    Raises NotAFrameOnSubspace when the restricted analyzers fail the
    frame inequality on the subspace, and NonFinite when their S is out of
    scale (reporting._refuse_scale).
    """
    if not pair.basis.cols:
        raise NotAFrameOnSubspace("subspace is trivial")
    # on coordinates c against the basis, <x_a|sum_k b_k c_k> is the row
    # of entries <x_a|b_k> acting from the left (frame_bounds refuses inf)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = pair.analysis_matrix() @ pair.basis
    if not has_frame_bounds(*frame_bounds(rows)):
        raise NotAFrameOnSubspace(
            "restricted analyzers fail the frame inequality on the subspace")
    return OperatorFrame.from_analysis(rows, [1] * rows.rows)


# ====== quasi-projector systems ======

class QuasiProjectorSystem(_FrameCore):
    """Family {P_j} meant to resolve the identity, sum_j P_j = I, with a
    finite Bessel-type energy bound.

    `decomposition`, when given, is a pair (d_ops, w0): n x n operators
    D_j and an n x k matrix whose columns span a base subspace W_0, with
    W_j = D_j(W_0); compatibility is then checked against those subspaces
    instead of range(P_j).  The frame core stores the P_j stacked one
    below the other.
    """

    __slots__ = ("decomposition",)
    projectors = OperatorFrame.members

    def __init__(self, space_dim: int, projectors, decomposition=None):
        projectors = list(projectors)
        for p in projectors:
            if p.rows != space_dim:
                raise DimensionMismatch(
                    f"projector shape {p.shape} vs space dim {space_dim}")
        super().__init__(space_dim, [p.data for p in projectors])
        if decomposition is not None:
            d_ops, w0 = decomposition
            d_ops = list(d_ops)
            if len(d_ops) != len(projectors):
                raise DimensionMismatch(
                    f"{len(d_ops)} displacement operators vs"
                    f" {len(projectors)} projectors")
            shapes = {d.shape for d in d_ops} - {(space_dim, space_dim)}
            if w0.rows != space_dim or shapes:
                raise DimensionMismatch(f"W_0 vectors of dim {w0.rows} and D_j of shapes"
                                        f" {sorted(shapes)} vs space dim {space_dim}")
            decomposition = (d_ops, w0)
        self.decomposition = decomposition


class QuasiCheck(NamedTuple):
    resolution_ok: bool
    bessel_bound: float
    self_adjoint: bool
    compatible: bool


def _resolution_and_self_adjoint(system: QuasiProjectorSystem) -> tuple[bool, bool]:
    """Whether sum_j P_j is the identity to STRUCTURE_TOL, and whether every
    P_j equals its adjoint to STRUCTURE_TOL times ||P_j||_F, both in one pass
    over the stacked (k n) x n analysis matrix."""
    n = system.space_dim
    blocks = system.analysis_matrix().data.reshape(len(system), n, n, 4)
    # a sum, or its distance from I, that overflows is not I
    with np.errstate(over="ignore", invalid="ignore"):
        resolution_ok = frobenius_distance(QMatrix(blocks.sum(axis=0)),
                                           QMatrix.identity(n)) <= STRUCTURE_TOL
    # the test is scale-free, and on each P_j at unit scale nothing overflows
    units = _unit(blocks, axis=(1, 2, 3))[0]
    defects = units - _conj4(np.swapaxes(units, 1, 2))
    self_adjoint = bool(np.all((defects * defects).sum(axis=(1, 2, 3))
                               <= STRUCTURE_TOL**2 * (units * units).sum(axis=(1, 2, 3))))
    return resolution_ok, self_adjoint


def quasi_projector_check(system: QuasiProjectorSystem) -> QuasiCheck:
    """Diagnose the three structural properties of the system.

    resolution_ok: sum_j P_j is the identity to STRUCTURE_TOL.
    bessel_bound:  largest eigenvalue of sum_j P_j* P_j, the frame core's
                   upper bound (reporting.frame_bounds): out of scale it is
                   refused, and it is 0 only for projectors all 0.
    self_adjoint:  every P_j equals its adjoint to STRUCTURE_TOL ||P_j||_F.
    compatible:    P_j acts through its own subspace, P_j pi_{W_j} = P_j,
                   to STRUCTURE_TOL ||P_j||_F, with W_j = D_j(W_0) or else
                   the range of P_j, every W_j orthonormalized in one sweep.
    """
    resolution_ok, self_adjoint = _resolution_and_self_adjoint(system)
    _, bessel_bound = frame_bounds(system.analysis_matrix())
    projectors = system.projectors
    if system.decomposition is not None:
        d_ops, w0 = system.decomposition
        spanning = [d @ w0 for d in d_ops]
    else:
        spanning = projectors
    vectors = np.concatenate([np.zeros((system.space_dim, 0, 4)),
                              *(s.data for s in spanning)], 1)
    bases, dims = orthonormalize_each(QMatrix(vectors), [s.cols for s in spanning])
    compatible = all(  # b is B_j*, B_j the orthonormal basis of W_j: pi_{W_j} = gram(B_j*)
        frobenius_distance(p @ gram(QMatrix(b)), p) <= STRUCTURE_TOL * p.frobenius()
        for p, b in zip(projectors, split_rows(bases.adjoint().data, dims)))
    return QuasiCheck(resolution_ok=resolution_ok, bessel_bound=bessel_bound,
                      self_adjoint=self_adjoint, compatible=compatible)


def quasi_to_op_frame(system: QuasiProjectorSystem) -> OperatorFrame:
    """Use the members P_j themselves as a frame of operators.

    Requires the system to be self-adjoint and to resolve the identity;
    otherwise HypothesisViolated is raised.
    """
    resolution_ok, self_adjoint = _resolution_and_self_adjoint(system)
    if not self_adjoint:
        raise HypothesisViolated("projectors are not all self-adjoint")
    if not resolution_ok:
        raise HypothesisViolated("projectors do not sum to the identity")
    return OperatorFrame.from_analysis(system.analysis_matrix(), system.codomain_dims)
