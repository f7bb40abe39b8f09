"""Fusion frames, pseudo-frame pairs, and quasi-projector systems.

Each of these generalizes the frame inequality in a different direction:
fusion frames measure energy through weighted subspace projections,
pseudo-frame pairs reconstruct on a designated subspace through separate
analysis and synthesis families, and quasi-projector systems resolve the
identity by a sum of bounded self-adjoint operators.  All three embed
into frames of operators: fusion frames and quasi-projector systems are
encoded as stacked analysis matrices for the core in reporting, and a
pseudo-frame pair reconstructs through the analysis matrix of its
analyzers and the synthesis matrix of its synthesizers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    HypothesisViolated,
    InvalidWeight,
    NotAFrameOnSubspace,
)
from .linalg import (
    QMatrix,
    _conj4,
    _finite_chi,
    _projection,
    frobenius_distance,
    orthonormalize,
)
from .operator_frames import OperatorFrame
from .reporting import (
    FrameReport,
    build_report,
    extremal_eigenvalues,
    gram,
    has_frame_bounds,
    stack_rows,
)
from .vector_frames import VectorFrame, synthesis_matrix

# residual tolerance for resolution-of-identity and compatibility checks
STRUCTURE_TOL = 1e-10
# reconstruction residual under which a pseudo-frame pair counts as working
PSEUDO_TOL = 1e-9


# ====== fusion frames ======

class FusionFrame:
    """Weighted family of subspaces W_i with weights v_i > 0.

    Subspace bases are orthonormalized on construction; the energy of u
    is sum_i v_i^2 ||P_{W_i} u||^2.
    """

    __slots__ = ("space_dim", "subspaces", "weights")

    def __init__(self, space_dim: int, subspaces, weights):
        subspaces = [list(basis) for basis in subspaces]
        weights = [float(w) for w in weights]
        if len(subspaces) != len(weights):
            raise DimensionMismatch(
                f"{len(subspaces)} subspaces vs {len(weights)} weights")
        for w in weights:
            if not w > 0.0:
                raise InvalidWeight(f"weight {w} is not strictly positive")
        for basis in subspaces:
            for v in basis:
                if v.dim != space_dim:
                    raise DimensionMismatch(
                        f"basis vector dim {v.dim} vs space dim {space_dim}")
        self.space_dim = int(space_dim)
        self.subspaces = [orthonormalize(basis) for basis in subspaces]
        self.weights = weights

    def __len__(self) -> int:
        return len(self.subspaces)

    def analysis_matrix(self) -> QMatrix:
        """The stacked analysis matrix v_i B_i*: one row v_i <b| for each
        vector b of the orthonormal basis B_i of W_i."""
        return stack_rows(self.space_dim, [
            w * _conj4(b.data)[None]
            for w, basis in zip(self.weights, self.subspaces) for b in basis])

    def projections(self) -> list[QMatrix]:
        return [_projection(self.space_dim, basis) for basis in self.subspaces]

    def __repr__(self):
        return f"FusionFrame(space_dim={self.space_dim}, subspaces={len(self)})"


def fusion_frame_operator(f: FusionFrame) -> QMatrix:
    """sum_i v_i^2 P_{W_i} = A* A."""
    return gram(f.analysis_matrix())


def fusion_report(f: FusionFrame) -> FrameReport:
    """Bounds are the extremal eigenvalues of sum_i v_i^2 P_{W_i}."""
    return build_report(f.analysis_matrix(), [len(b) for b in f.subspaces])


def fusion_to_op_frame(f: FusionFrame) -> OperatorFrame:
    """Encode each weighted subspace as the operator v_i P_{W_i}; the
    resulting frame of operators has the same energies and bounds."""
    return OperatorFrame(f.space_dim,
                         [p * w for w, p in zip(f.weights, f.projections())])


# ====== pseudo-frame pairs ======

class PseudoFramePair:
    """Analysis family {x_i}, synthesis family {x_i+}, and the subspace
    on which reconstruction x = sum_i x_i+ <x_i|x> is claimed."""

    __slots__ = ("space_dim", "analyzers", "synthesizers", "subspace")

    def __init__(self, space_dim: int, analyzers, synthesizers, subspace):
        analyzers = list(analyzers)
        synthesizers = list(synthesizers)
        if len(analyzers) != len(synthesizers):
            raise DimensionMismatch(
                f"{len(analyzers)} analyzers vs {len(synthesizers)} synthesizers")
        for v in (*analyzers, *synthesizers, *subspace):
            if v.dim != space_dim:
                raise DimensionMismatch(
                    f"vector dim {v.dim} vs space dim {space_dim}")
        self.space_dim = int(space_dim)
        self.analyzers = analyzers
        self.synthesizers = synthesizers
        self.subspace = orthonormalize(subspace)

    def __len__(self) -> int:
        return len(self.analyzers)

    def __repr__(self):
        return (f"PseudoFramePair(space_dim={self.space_dim},"
                f" members={len(self)}, subspace_dim={len(self.subspace)})")


@dataclass(frozen=True)
class PseudoCheck:
    holds: bool
    max_residual: float


def pseudo_frame_check(pair: PseudoFramePair) -> PseudoCheck:
    """The worst residual ||sum_i x_i+ <x_i|x> - x|| over unit x in the
    subspace, exactly: with B its orthonormal basis, the operator norm of
    (Psi Phi - I) B, the largest singular value of its chi.  Holds iff it
    stays below PSEUDO_TOL; a residual that overflows raises NonFinite."""
    basis = pair.subspace
    if not basis:
        return PseudoCheck(holds=True, max_residual=0.0)
    b = QMatrix.from_columns(basis)
    analysis = VectorFrame(pair.space_dim, pair.analyzers).analysis_matrix()
    synthesis = synthesis_matrix(VectorFrame(pair.space_dim, pair.synthesizers))
    with np.errstate(over="ignore", invalid="ignore"):
        residual = synthesis @ (analysis @ b) - b
    max_residual = float(np.linalg.norm(_finite_chi(residual), 2))
    return PseudoCheck(holds=max_residual <= PSEUDO_TOL,
                       max_residual=max_residual)


def pseudo_to_op_frame(pair: PseudoFramePair) -> OperatorFrame:
    """Restrict the analyzers to the subspace, written in its
    orthonormal basis, giving one 1 x dim(subspace) functional each.

    Raises NotAFrameOnSubspace when the restricted analyzers fail the
    frame inequality on the subspace.
    """
    basis = pair.subspace
    s = len(basis)
    if s == 0:
        raise NotAFrameOnSubspace("subspace is trivial")
    # on coordinates c against the basis, <x_a|sum_k b_k c_k> is the row
    # of entries <x_a|b_k> acting from the left
    rows = (VectorFrame(pair.space_dim, pair.analyzers).analysis_matrix()
            @ QMatrix.from_columns(basis))
    frame = OperatorFrame(s, [QMatrix(row[None]) for row in rows.data])
    if not has_frame_bounds(*extremal_eigenvalues(gram(rows))):
        raise NotAFrameOnSubspace(
            "restricted analyzers fail the frame inequality on the subspace")
    return frame


# ====== quasi-projector systems ======

class QuasiProjectorSystem:
    """Family {P_j} meant to resolve the identity, sum_j P_j = I, with a
    finite Bessel-type energy bound.

    `decomposition`, when given, is a pair (d_ops, w0_basis): bounded
    operators D_j and a base subspace with W_j = D_j(W_0); compatibility
    is then checked against those subspaces instead of range(P_j).
    """

    __slots__ = ("space_dim", "projectors", "decomposition")

    def __init__(self, space_dim: int, projectors, decomposition=None):
        projectors = list(projectors)
        for p in projectors:
            if p.shape != (space_dim, space_dim):
                raise DimensionMismatch(
                    f"projector shape {p.shape} vs space dim {space_dim}")
        if decomposition is not None:
            d_ops, w0 = decomposition
            d_ops = list(d_ops)
            w0 = list(w0)
            if len(d_ops) != len(projectors):
                raise DimensionMismatch(
                    f"{len(d_ops)} displacement operators vs"
                    f" {len(projectors)} projectors")
            decomposition = (d_ops, w0)
        self.space_dim = int(space_dim)
        self.projectors = projectors
        self.decomposition = decomposition

    def __len__(self) -> int:
        return len(self.projectors)

    def __repr__(self):
        return (f"QuasiProjectorSystem(space_dim={self.space_dim},"
                f" projectors={len(self)})")


@dataclass(frozen=True)
class QuasiCheck:
    resolution_ok: bool
    bessel_bound: float
    self_adjoint: bool
    compatible: bool


def _resolution_and_self_adjoint(system: QuasiProjectorSystem) -> tuple[bool, bool]:
    """Whether sum_j P_j is the identity, and whether every P_j equals its
    adjoint, each to STRUCTURE_TOL."""
    n = system.space_dim
    total = QMatrix(sum((p.data for p in system.projectors), np.zeros((n, n, 4))))
    resolution_ok = frobenius_distance(total, QMatrix.identity(n)) <= STRUCTURE_TOL
    self_adjoint = all(
        frobenius_distance(p, p.adjoint()) <= STRUCTURE_TOL * max(1.0, p.frobenius())
        for p in system.projectors)
    return resolution_ok, self_adjoint


def quasi_projector_check(system: QuasiProjectorSystem) -> QuasiCheck:
    """Diagnose the three structural properties of the system.

    resolution_ok: sum_j P_j is the identity to STRUCTURE_TOL.
    bessel_bound:  largest eigenvalue of sum_j P_j* P_j.
    self_adjoint:  every P_j equals its adjoint to STRUCTURE_TOL.
    compatible:    P_j acts through its own subspace, P_j pi_{W_j} = P_j,
                   with W_j = D_j(W_0) or else the range of P_j.
    """
    n = system.space_dim
    resolution_ok, self_adjoint = _resolution_and_self_adjoint(system)
    _, bessel_bound = extremal_eigenvalues(
        gram(stack_rows(n, [p.data for p in system.projectors])))
    if system.decomposition is not None:
        d_ops, w0 = system.decomposition
        spanning = [[d @ w for w in w0] for d in d_ops]
    else:
        spanning = [[p.column(c) for c in range(n)] for p in system.projectors]
    compatible = all(
        frobenius_distance(p @ _projection(n, orthonormalize(span)), p)
        <= STRUCTURE_TOL * max(1.0, p.frobenius())
        for p, span in zip(system.projectors, spanning))
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
    return OperatorFrame(system.space_dim, list(system.projectors))
