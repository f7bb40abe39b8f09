"""Classical frames of vectors in H^n.

A finite family {u_i} is a frame when

    r1 ||u||^2 <= sum_i |<u_i|u>|^2 <= r2 ||u||^2

for some 0 < r1 <= r2.  Synthesis applies right coefficients,
T({q_i}) = sum_i u_i q_i, analysis takes inner products against the
members, and the frame operator S = sum_i u_i <u_i|.|> is their
composition.  A vector frame is the frame of operators whose members are
the 1 x n functionals <u_i|; its stacked analysis matrix has those rows,
and everything here is computed from it by the core in reporting.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .linalg import QMatrix, QVector, _conj4
from .quaternion import Quaternion
from .reporting import FrameReport, build_report, dual_rows, gram, parseval_rows


class VectorFrame:
    """Finite ordered family of vectors in a common H^n."""

    __slots__ = ("space_dim", "members")

    def __init__(self, space_dim: int, members):
        members = list(members)
        for m in members:
            if m.dim != space_dim:
                raise DimensionMismatch(
                    f"member dim {m.dim} does not match space dim {space_dim}")
        self.space_dim = int(space_dim)
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def analysis_matrix(self) -> QMatrix:
        """The stacked analysis matrix, whose rows are the <u_i|."""
        return synthesis_matrix(self).adjoint()

    def __repr__(self):
        return f"VectorFrame(space_dim={self.space_dim}, members={len(self)})"


def synthesis(f: VectorFrame, coefficients) -> QVector:
    """sum_i u_i * q_i with the coefficients acting from the right."""
    coefficients = list(coefficients)
    if len(coefficients) != len(f.members):
        raise DimensionMismatch(
            f"{len(coefficients)} coefficients for {len(f.members)} members")
    q = np.array([c.components for c in coefficients], dtype=np.float64)
    return synthesis_matrix(f) @ QVector(q.reshape(-1, 4))


def analysis(f: VectorFrame, u: QVector) -> list[Quaternion]:
    """Coefficient list {<u_i|u>} in member order."""
    if u.dim != f.space_dim:
        raise DimensionMismatch(f"vector dim {u.dim} vs space dim {f.space_dim}")
    coefficients = f.analysis_matrix() @ u
    return [coefficients[i] for i in range(len(f))]


def synthesis_matrix(f: VectorFrame) -> QMatrix:
    """Matrix whose columns are the members; synthesis is its action."""
    if not f.members:
        return QMatrix.zeros(f.space_dim, 0)
    return QMatrix.from_columns(f.members)


def _from_rows(space_dim: int, a: QMatrix) -> VectorFrame:
    # row i of a stacked analysis matrix is <u_i|
    return VectorFrame(space_dim, map(QVector, _conj4(a.data)))


def frame_operator(f: VectorFrame) -> QMatrix:
    """S = sum_i u_i <u_i|.|> = A* A."""
    return gram(f.analysis_matrix())


def report(f: VectorFrame) -> FrameReport:
    """Optimal bounds (extremal eigenvalues of S) and classification."""
    return build_report(f.analysis_matrix(), [1] * len(f))


def canonical_dual(f: VectorFrame) -> VectorFrame:
    """The frame {S^-1 u_i}; raises NotAFrame when S fails the frame test."""
    return _from_rows(f.space_dim, dual_rows(f.analysis_matrix()))


def parseval(f: VectorFrame) -> VectorFrame:
    """The Parseval frame {S^-1/2 u_i}; raises NotAFrame when S fails
    the frame test."""
    return _from_rows(f.space_dim, parseval_rows(f.analysis_matrix()))
