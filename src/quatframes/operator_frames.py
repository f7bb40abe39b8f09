"""Frames of operators on H^n.

Members are left-acting matrices T_i: H^n -> H^{d_i} with possibly
different codomain dimensions.  The family is a frame of operators when

    r1 ||u||^2 <= sum_i ||T_i u||^2 <= r2 ||u||^2,

its frame operator is S = sum_i T_i* T_i, and the optimal bounds are the
extremal eigenvalues of S.  Every member T_i decomposes into the rows
x_k^i = T_i*(e_k^i); the flat list of those vectors is an ordinary vector
frame with the same frame operator and the same bounds.  That induced
sequence is the representation the code uses: an OperatorFrame stores,
once, the analysis matrix A that stacks the T_i, whose rows are the
<x_k^i|; its members are the row blocks of A, and the core in reporting
computes S = A* A, analysis, synthesis, duals and the Parseval
normalization from it.  A file's member list is read into A as one array.

The coefficients of u are the tuple {T_i u} of the direct sum of the
codomains, which in coordinates is H^{sum_i d_i}: analysis returns one
QVector A u, member i owning its next d_i entries, and synthesis takes
one, so reconstruct is synthesis(g, analysis(f, u)).
"""

from __future__ import annotations

from .errors import DimensionMismatch
from .linalg import QMatrix, QVector, gram
from .reporting import (
    FrameReport,
    _FrameCore,
    analysis,
    build_report,
    dual_rows,
    parseval_rows,
    split_rows,
    synthesis,
)
from .vector_frames import VectorFrame


class OperatorFrame(_FrameCore):
    """Finite ordered family of operators with a common domain H^n, stored
    as the members stacked one below the other."""

    __slots__ = ()

    def __init__(self, space_dim: int, members):
        super().__init__(space_dim, [m.data for m in members])

    @property
    def members(self) -> list[QMatrix]:
        """The operators T_i, the row blocks of A."""
        return list(map(QMatrix, split_rows(self.analysis_matrix().data,
                                            self.codomain_dims)))


# the core's analysis and synthesis, under this module's names
op_analysis = analysis
op_synthesis = synthesis


def op_frame_operator(f: OperatorFrame) -> QMatrix:
    """S = sum_i T_i* T_i = A* A."""
    return gram(f.analysis_matrix())


def op_report(f: OperatorFrame) -> FrameReport:
    """Optimal bounds and classification flags, as for vector frames."""
    return build_report(f.analysis_matrix(), f.codomain_dims)


def induced_sequence(f: OperatorFrame) -> VectorFrame:
    """x_k^i = T_i*(e_k^i) for the standard basis of each codomain: the
    vector frame on the same analysis matrix, so with the same frame
    operator."""
    a = f.analysis_matrix()
    return VectorFrame.from_analysis(a, [1] * a.rows)


def op_dual(f: OperatorFrame) -> OperatorFrame:
    """Canonical dual {T_i S^-1}.

    Its bounds are the reciprocals of the original bounds in reverse
    order, its frame operator is S^-1, and pairing it with f reconstructs
    every vector.
    """
    return OperatorFrame.from_analysis(dual_rows(f.analysis_matrix()), f.codomain_dims)


def op_parseval(f: OperatorFrame) -> OperatorFrame:
    """Canonical Parseval normalization {T_i S^-1/2}.

    S^-1/2 comes from the same eigendecomposition of S that gives the frame
    test; the resulting family has frame operator equal to the identity.
    """
    return OperatorFrame.from_analysis(parseval_rows(f.analysis_matrix()),
                                       f.codomain_dims)


def reconstruct(f: OperatorFrame, g: OperatorFrame, u: QVector | QMatrix) -> QVector | QMatrix:
    """sum_i G_i* F_i(u); returns u itself when g is the canonical dual
    of f (and S u when g is f).  An n x K matrix u is reconstructed
    column by column."""
    if (f.space_dim, f.codomain_dims) != (g.space_dim, g.codomain_dims):
        raise DimensionMismatch(
            f"space dim {f.space_dim} with codomain dims {f.codomain_dims} vs"
            f" {g.space_dim} with {g.codomain_dims}")
    return synthesis(g, analysis(f, u))
