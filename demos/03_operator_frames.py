"""Frames of operators: families {T_i : H -> H_i} whose summed analysis
energy sum_i ||T_i x||^2 is squeezed between r1 ||x||^2 and r2 ||x||^2.

Three constructions are shown: the coordinate functionals (a Parseval
frame of 1-dimensional operators), the induced vector sequence that
reproduces an operator frame's bounds, and Parseval normalization by
the inverse square root of the frame operator.
"""

import numpy as np

from quatframes import (
    OperatorFrame,
    QMatrix,
    QVector,
    frame_operator,
    hermitian_eigenvalues,
    induced_sequence,
    op_analysis,
    op_frame_operator,
    op_parseval,
    op_report,
)


def analysis_row(v):
    data = v.data.copy()[None, :, :]
    data[..., 1:] = -data[..., 1:]
    return QMatrix(data)


n = 5
basis = [QVector.basis(n, k) for k in range(n)]

# coordinate functionals x -> <z_k|x> assemble the identity
coords = OperatorFrame(n, [analysis_row(b) for b in basis])
rep = op_report(coords)
print(f"coordinate functionals: bounds ({rep.lower:.6g}, {rep.upper:.6g}), "
      f"parseval={rep.is_parseval}")

# a messier frame: random operators with mixed codomain dimensions
gen = np.random.default_rng(7)
members = [QMatrix(gen.standard_normal((d, n, 4))) for d in (2, 3, 1, 4)]
f = OperatorFrame(n, members)
eigs = hermitian_eigenvalues(op_frame_operator(f))
print(f"\nrandom frame: codomains {[m.rows for m in members]}, "
      f"bounds ({eigs[0]:.4f}, {eigs[-1]:.4f})")

# every operator frame induces a plain vector sequence with the same
# frame operator: the rows T_i*(e_k) collected over all members
induced = induced_sequence(f)
ind_eigs = hermitian_eigenvalues(frame_operator(induced))
print(f"induced vector frame: {len(induced.members)} vectors, "
      f"bounds ({ind_eigs[0]:.4f}, {ind_eigs[-1]:.4f})  (identical)")

# whitening: members T_i S^(-1/2) form a Parseval frame
white = op_parseval(f)
w_eigs = hermitian_eigenvalues(op_frame_operator(white))
print(f"after parseval normalization: bounds ({w_eigs[0]:.12f}, "
      f"{w_eigs[-1]:.12f})")

x = QVector(gen.standard_normal((n, 4)))
print(f"\nenergy check on a random x: ||x||^2 = {x.norm_sq():.6f}, "
      f"whitened analysis energy = {op_analysis(white, x).norm_sq():.6f}")
