"""The frame core that every family kind encodes into.

Vector frames, frames of operators, fusion frames and quasi-projector
systems are all g-frames (W. Sun, J. Math. Anal. Appl. 322, 2006), so a
family is its stacked analysis matrix A: a (sum_i d_i) x n matrix whose
i-th block of d_i rows is the analysis map of member i.  From A alone,

    S = A* A            the frame operator,
    A u, A* x           analysis (split at the member offsets) and synthesis,
    A S^-1, A S^-1/2    the canonical dual and the Parseval normalization.

A family satisfies r1 ||u||^2 <= ||A u||^2 <= r2 ||u||^2 with optimal
bounds the extremal eigenvalues of S.  Finite families always satisfy
the upper inequality, so is_bessel is true by construction; the other
flags are decided numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAFrame
from .linalg import QMatrix, gram, hermitian_eigenvalues, inverse_matrix, positive_sqrt

# a family is a frame when the smallest eigenvalue of S clears this
# fraction of the largest, so the verdict does not depend on the scale
FRAME_TOL = 1e-10
# relative spread under which the two bounds count as equal
TIGHT_RTOL = 1e-9


@dataclass(frozen=True)
class FrameReport:
    """Optimal bounds and classification flags for one family."""

    lower: float
    upper: float
    is_bessel: bool
    is_frame: bool
    is_tight: bool
    is_parseval: bool
    is_exact: bool
    frame_operator: QMatrix


def has_frame_bounds(lower: float, upper: float) -> bool:
    """The frame test on the extremal eigenvalues of S."""
    return lower > FRAME_TOL * upper


def stack_rows(space_dim: int, blocks) -> QMatrix:
    """The stacked analysis matrix whose row blocks are the given
    (d_i, n, 4) arrays, in member order."""
    return QMatrix(np.concatenate([np.zeros((0, space_dim, 4)), *blocks]))


def split_rows(data: np.ndarray, dims) -> list[np.ndarray]:
    """The row blocks of a stacked array, d_i rows for member i."""
    stops = np.cumsum(dims, dtype=int)
    return [data[stop - d:stop] for d, stop in zip(dims, stops)]


def extremal_eigenvalues(s: QMatrix) -> tuple[float, float]:
    """The smallest and largest eigenvalue of a self-adjoint s."""
    vals = hermitian_eigenvalues(s)
    return float(vals[0]), float(vals[-1])


def _redundant(a: QMatrix, rows: slice) -> bool:
    rest = QMatrix(np.delete(a.data, rows, axis=0))
    # fewer rows than the space dimension cannot span it
    return rest.rows >= a.cols and has_frame_bounds(*extremal_eigenvalues(gram(rest)))


def build_report(a: QMatrix, dims) -> FrameReport:
    """Classify the family with stacked analysis matrix a, whose member i
    owns the next dims[i] rows.

    Exactness means every single removal destroys the frame property:
    no member's rows can be deleted with the rest still passing the
    frame test.
    """
    s = gram(a)
    lower, upper = extremal_eigenvalues(s)
    is_frame = has_frame_bounds(lower, upper)
    is_tight = is_frame and abs(upper - lower) <= TIGHT_RTOL * upper
    is_parseval = is_tight and abs(lower - 1.0) <= TIGHT_RTOL
    stops = np.cumsum(dims, dtype=int)
    is_exact = is_frame and len(dims) > 0 and not any(
        _redundant(a, slice(stop - d, stop)) for d, stop in zip(dims, stops))
    return FrameReport(lower=lower, upper=upper, is_bessel=True,
                       is_frame=is_frame, is_tight=is_tight,
                       is_parseval=is_parseval, is_exact=is_exact,
                       frame_operator=s)


def _frame_gram(a: QMatrix) -> QMatrix:
    s = gram(a)
    lower, upper = extremal_eigenvalues(s)
    if not has_frame_bounds(lower, upper):
        raise NotAFrame(f"smallest eigenvalue {lower:.3e} of S is not above "
                        f"{FRAME_TOL:.0e} times the largest, {upper:.3e}")
    return s


def dual_rows(a: QMatrix) -> QMatrix:
    """A S^-1, the stacked analysis matrix of the canonical dual; raises
    NotAFrame when S fails the frame test."""
    return a @ inverse_matrix(_frame_gram(a))


def parseval_rows(a: QMatrix) -> QMatrix:
    """A S^-1/2, the stacked analysis matrix of the canonical Parseval
    normalization; raises NotAFrame when S fails the frame test."""
    return a @ inverse_matrix(positive_sqrt(_frame_gram(a)))
