"""Shared fixture constructions for the test suite.

The recurring families here are small enough to check by hand: the
doubled-first-vector variant of an orthonormal basis (frame operator
diag(2, 1, ..., 1), bounds 1 and 2), the coordinate functionals (Parseval),
and the coordinate projectors (a resolution of the identity).
"""

import json

import numpy as np

from quatframes.linalg import QMatrix, QVector
from quatframes.operator_frames import OperatorFrame
from quatframes.vector_frames import VectorFrame

ACCEPT_SEED = 20260814

# one line per acceptance criterion, echoed after the run because
# pytest's capture also swallows writes to the underlying descriptor
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def json_doc(obj):
    """A written document as json.loads reads it back: the writer's
    float64 payload arrays become nested lists of floats."""
    return json.loads(json.dumps(obj, default=np.ndarray.tolist))


def standard_basis(dim):
    return [QVector.basis(dim, k) for k in range(dim)]


def shifted_basis_vectors(dim):
    """z1, z1, z2, ..., z_dim: an orthonormal basis of H^dim with the
    first vector repeated, giving dim + 1 members with bounds (1, 2)."""
    basis = standard_basis(dim)
    return [basis[0]] + basis


def shifted_basis_vector_frame(dim):
    return VectorFrame(dim, shifted_basis_vectors(dim))


def analysis_row(v):
    """The 1 x n operator u -> <v|u>, i.e. the row of conjugated entries."""
    data = v.data.copy()[None, :, :]
    data[..., 1:] = -data[..., 1:]
    return QMatrix(data)


def row_functional_frame(space_dim, vectors):
    """Operator frame whose members are the rank-one analysis maps
    u -> <v|u>, one per vector."""
    return OperatorFrame(space_dim, [analysis_row(v) for v in vectors])


def coordinate_functional_frame(dim):
    """Members u -> <z_i|u> for the standard basis; Parseval."""
    return row_functional_frame(dim, standard_basis(dim))


def shifted_basis_operator_frame(dim):
    """Members u -> <u_i|u> for the shifted basis; bounds (1, 2)."""
    return row_functional_frame(dim, shifted_basis_vectors(dim))


def random_qvector(gen, dim, scale=1.0):
    return QVector(gen.standard_normal((dim, 4)) * scale)


def random_unit_qvector(gen, dim):
    data = gen.standard_normal((dim, 4))
    return QVector(data / np.linalg.norm(data))


def random_qmatrix(gen, rows, cols, scale=1.0):
    return QMatrix(gen.standard_normal((rows, cols, 4)) * scale)


def random_operator_frame(gen, dim, codomain_dims, scale=1.0):
    return OperatorFrame(dim, [random_qmatrix(gen, d, dim, scale)
                               for d in codomain_dims])
