"""Classical frames of vectors in H^n.

A finite family {u_i} is a frame when

    r1 ||u||^2 <= sum_i |<u_i|u>|^2 <= r2 ||u||^2

for some 0 < r1 <= r2.  Analysis takes inner products against the
members, A u = (<u_i|u>)_i in H^m, synthesis applies right coefficients,
A* (q_i)_i = sum_i u_i q_i, and the frame operator S = sum_i u_i <u_i|.|>
is their composition.  A vector frame is the frame of operators whose
members are the 1 x n functionals <u_i|; it stores the analysis matrix
with those rows, and everything here, analysis and synthesis included,
is computed from it by the core in reporting.
"""

from __future__ import annotations

from .linalg import QMatrix, QVector, _conj4
# analysis and synthesis are the core's, exported here for vector frames
from .reporting import (
    FrameReport,
    _FrameCore,
    analysis,
    build_report,
    dual_rows,
    gram,
    parseval_rows,
    synthesis,
)


class VectorFrame(_FrameCore):
    """Finite ordered family of vectors in a common H^n, stored as its
    analysis matrix, whose rows are the <u_i|."""

    __slots__ = ()

    def __init__(self, space_dim: int, members):
        super().__init__(space_dim, [_conj4(m.data)[None] for m in members])

    @property
    def members(self) -> list[QVector]:
        """The vectors u_i, read off the rows <u_i| of A."""
        return list(map(QVector, _conj4(self.analysis_matrix().data)))


def frame_operator(f: VectorFrame) -> QMatrix:
    """S = sum_i u_i <u_i|.|> = A* A."""
    return gram(f.analysis_matrix())


def report(f: VectorFrame) -> FrameReport:
    """Optimal bounds (extremal eigenvalues of S) and classification."""
    return build_report(f.analysis_matrix(), f.codomain_dims)


def canonical_dual(f: VectorFrame) -> VectorFrame:
    """The frame {S^-1 u_i}; raises NotAFrame when S fails the frame test."""
    return VectorFrame.from_analysis(dual_rows(f.analysis_matrix()), f.codomain_dims)


def parseval(f: VectorFrame) -> VectorFrame:
    """The Parseval frame {S^-1/2 u_i}; raises NotAFrame when S fails
    the frame test."""
    return VectorFrame.from_analysis(parseval_rows(f.analysis_matrix()), f.codomain_dims)
