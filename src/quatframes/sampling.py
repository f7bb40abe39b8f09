"""Seeded random generation of quaternionic objects.

Every function takes an explicit numpy Generator so that callers stay
reproducible; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np

from .linalg import QMatrix, QVector
from .quaternion import Quaternion

# random_unit_qvector redraws a standard normal vector whose norm is at most
# this, so that its normalization is not dominated by rounding
UNIT_REDRAW_NORM = 1e-6


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    return Quaternion.from_components(rng.standard_normal(4))


def random_qvector(rng: np.random.Generator, dim: int) -> QVector:
    return QVector(rng.standard_normal((dim, 4)))


def random_columns(rng: np.random.Generator, dim: int, count: int) -> QMatrix:
    """count standard normal vectors of H^dim as the columns of a matrix,
    drawn in one call in the order of count calls of random_qvector."""
    return QMatrix(np.swapaxes(rng.standard_normal((count, dim, 4)), 0, 1))


def random_unit_qvector(rng: np.random.Generator, dim: int) -> QVector:
    while True:
        data = rng.standard_normal((dim, 4))
        norm = np.linalg.norm(data)
        if norm > UNIT_REDRAW_NORM:
            return QVector(data / norm)


def random_qmatrix(rng: np.random.Generator, rows: int, cols: int) -> QMatrix:
    return QMatrix(rng.standard_normal((rows, cols, 4)))


def random_block_vector(rng: np.random.Generator, dims) -> QVector:
    """A standard normal coefficient vector of H^{sum_i d_i}, drawn in one
    call in the order of one random_qvector call per member."""
    return QVector(rng.standard_normal((sum(dims), 4)))
