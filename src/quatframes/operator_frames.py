"""Frames of operators on H^n.

Members are left-acting matrices T_i: H^n -> H^{d_i} with possibly
different codomain dimensions.  The family is a frame of operators when

    r1 ||u||^2 <= sum_i ||T_i u||^2 <= r2 ||u||^2,

its frame operator is S = sum_i T_i* T_i, and the optimal bounds are the
extremal eigenvalues of S.  Every member T_i decomposes into the rows
x_k^i = T_i*(e_k^i); the flat list of those vectors is an ordinary vector
frame with the same frame operator and the same bounds.  That induced
sequence is the representation the code uses: stacking the T_i gives the
analysis matrix A whose rows are the <x_k^i|, and the core in reporting
computes S = A* A, analysis, synthesis, duals and the Parseval
normalization from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .linalg import QMatrix, QVector, _conj4, _norm
from .reporting import (
    FrameReport,
    build_report,
    dual_rows,
    gram,
    parseval_rows,
    split_rows,
    stack_rows,
)
from .vector_frames import VectorFrame


class OperatorFrame:
    """Finite ordered family of operators with a common domain H^n."""

    __slots__ = ("space_dim", "members")

    def __init__(self, space_dim: int, members):
        members = list(members)
        for m in members:
            if m.cols != space_dim:
                raise DimensionMismatch(
                    f"member domain {m.cols} does not match space dim {space_dim}")
        self.space_dim = int(space_dim)
        self.members = members

    @property
    def codomain_dims(self) -> list[int]:
        return [m.rows for m in self.members]

    def analysis_matrix(self) -> QMatrix:
        """The stacked analysis matrix: the members one below the other."""
        return stack_rows(self.space_dim, [m.data for m in self.members])

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self):
        return (f"OperatorFrame(space_dim={self.space_dim},"
                f" members={len(self)})")


class BlockVector:
    """Element of the direct sum of the codomains, one block per member."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        self.blocks = list(blocks)

    @property
    def data(self) -> np.ndarray:
        """The blocks one below the other, as one (sum_i d_i, 4) array."""
        return np.concatenate([np.zeros((0, 4))] + [b.data for b in self.blocks])

    def norm_sq(self) -> float:
        return float(sum(b.norm_sq() for b in self.blocks))

    def norm(self) -> float:
        return float(_norm(self.data))

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self):
        return f"BlockVector(blocks={[b.dim for b in self.blocks]})"


def _from_rows(f: OperatorFrame, a: QMatrix) -> OperatorFrame:
    return OperatorFrame(f.space_dim, map(QMatrix, split_rows(a.data, f.codomain_dims)))


def op_frame_operator(f: OperatorFrame) -> QMatrix:
    """S = sum_i T_i* T_i = A* A."""
    return gram(f.analysis_matrix())


def op_report(f: OperatorFrame) -> FrameReport:
    """Optimal bounds and classification flags, as for vector frames."""
    return build_report(f.analysis_matrix(), f.codomain_dims)


def op_analysis(f: OperatorFrame, u: QVector) -> BlockVector:
    """The tuple {T_i u}; its squared norm is the analysis energy of u."""
    if u.dim != f.space_dim:
        raise DimensionMismatch(f"vector dim {u.dim} vs space dim {f.space_dim}")
    return BlockVector(map(QVector, split_rows((f.analysis_matrix() @ u).data,
                                               f.codomain_dims)))


def op_synthesis(f: OperatorFrame, x: BlockVector) -> QVector:
    """sum_i T_i*(x_i), the adjoint of analysis."""
    dims = [b.dim for b in x.blocks]
    if dims != f.codomain_dims:
        raise DimensionMismatch(
            f"block dims {dims} vs codomain dims {f.codomain_dims}")
    return f.analysis_matrix().adjoint() @ QVector(x.data)


@dataclass(frozen=True)
class InducedSequence:
    """The row vectors of an operator frame, flattened in (member, basis
    index) order; together they form a vector frame with the same frame
    operator."""

    space_dim: int
    vectors: list[QVector]

    def to_vector_frame(self) -> VectorFrame:
        return VectorFrame(self.space_dim, self.vectors)


def induced_sequence(f: OperatorFrame) -> InducedSequence:
    """x_k^i = T_i*(e_k^i) for the standard basis of each codomain."""
    return InducedSequence(
        f.space_dim, list(map(QVector, _conj4(f.analysis_matrix().data))))


def op_dual(f: OperatorFrame) -> OperatorFrame:
    """Canonical dual {T_i S^-1}.

    Its bounds are the reciprocals of the original bounds in reverse
    order, its frame operator is S^-1, and pairing it with f reconstructs
    every vector.
    """
    return _from_rows(f, dual_rows(f.analysis_matrix()))


def op_parseval(f: OperatorFrame) -> OperatorFrame:
    """Canonical Parseval normalization {T_i S^-1/2}.

    S^-1/2 is computed as the inverse of the positive square root; the
    resulting family has frame operator equal to the identity.
    """
    return _from_rows(f, parseval_rows(f.analysis_matrix()))


def reconstruct(f: OperatorFrame, g: OperatorFrame, u: QVector) -> QVector:
    """sum_i G_i* F_i(u); returns u itself when g is the canonical dual
    of f (and S u when g is f)."""
    if (f.space_dim, f.codomain_dims) != (g.space_dim, g.codomain_dims):
        raise DimensionMismatch(
            f"space dim {f.space_dim} with codomain dims {f.codomain_dims} vs"
            f" {g.space_dim} with {g.codomain_dims}")
    return g.analysis_matrix().adjoint() @ (f.analysis_matrix() @ u)
