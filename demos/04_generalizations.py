"""Fusion frames, pseudo-frame pairs, and quasi-projector systems, and
how each one is re-encoded as a frame of operators.

The conversions preserve the relevant energies, so the generalized
objects inherit bounds, duals, and Parseval normalization from the
operator-frame machinery for free.
"""

import numpy as np

from quatframes import (
    FusionFrame,
    OperatorFrame,
    PseudoFramePair,
    QMatrix,
    QuasiProjectorSystem,
    QVector,
    fusion_report,
    fusion_to_op_frame,
    hermitian_eigenvalues,
    op_frame_operator,
    op_report,
    outer,
    pseudo_frame_check,
    pseudo_to_op_frame,
    quasi_projector_check,
    quasi_to_op_frame,
)

basis = [QVector.basis(7, k) for k in range(7)]

# fusion frame: weighted subspaces, each given as a matrix whose columns
# span it, here the lines spanned by z1, z1, z2, ..., z7 with unit weights
fusion = FusionFrame(7, [QMatrix.from_columns([b]) for b in [basis[0]] + basis],
                     [1.0] * 8)
rep = fusion_report(fusion)
print(f"fusion frame of 8 lines in H^7: bounds "
      f"({rep.lower:.6g}, {rep.upper:.6g})")
as_ops = fusion_to_op_frame(fusion)
eigs = hermitian_eigenvalues(op_frame_operator(as_ops))
print(f"converted to operators v_i B_i*: bounds ({eigs[0]:.6g}, {eigs[-1]:.6g})")

# pseudo-frame pair: analyzers z_i against synthesizers z_(2i-1);
# reconstruction x = sum x*_i <x_i|x> holds on the line [z1] only; each
# family is the matrix of its vectors as columns
big = [QVector.basis(8, k) for k in range(8)]
analyzers = QMatrix.from_columns(big[:4])
synthesizers = QMatrix.from_columns(big[0:8:2])
pair = PseudoFramePair(8, analyzers, synthesizers, QMatrix.from_columns(big[:1]))
check = pseudo_frame_check(pair)
print(f"\npseudo pair on [z1]: holds={check.holds}, "
      f"max residual {check.max_residual:.3e}")
converted = pseudo_to_op_frame(pair)
print(f"restricted analyzers as an operator frame on the subspace: "
      f"bounds ({op_report(converted).lower:.6g}, "
      f"{op_report(converted).upper:.6g})")

wider = PseudoFramePair(8, analyzers, synthesizers, QMatrix.from_columns(big[:2]))
wide_check = pseudo_frame_check(wider)
print(f"same pair on [z1, z2]: holds={wide_check.holds}, "
      f"max residual {wide_check.max_residual:.3f}  (z2 rebuilds to z3)")

# quasi-projector system: coordinate projectors resolve the identity
projectors = [outer(b, b) for b in basis]
system = QuasiProjectorSystem(7, projectors)
qc = quasi_projector_check(system)
print(f"\ncoordinate projectors: resolution_ok={qc.resolution_ok}, "
      f"bessel bound {qc.bessel_bound:.6g}, self_adjoint={qc.self_adjoint}, "
      f"compatible={qc.compatible}")
ops = quasi_to_op_frame(system)
print(f"converted: bounds ({op_report(ops).lower:.6g}, "
      f"{op_report(ops).upper:.6g})  (projectors are idempotent)")
