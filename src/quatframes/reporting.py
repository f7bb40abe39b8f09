"""The frame core that every family kind encodes into.

Vector frames, frames of operators, fusion frames and quasi-projector
systems are all g-frames (W. Sun, J. Math. Anal. Appl. 322, 2006), so a
family is its stacked analysis matrix A: a (sum_i d_i) x n matrix whose
i-th block of d_i rows is the analysis map of member i.  From A alone,

    S = A* A            the frame operator,
    A u, A* x           analysis and synthesis,
    A S^-1, A S^-1/2    the canonical dual and the Parseval normalization.

The coefficient space is the direct sum of the codomains, H^{sum_i d_i}
in coordinates: the coefficients A u of u are one QVector whose next d_i
entries, T_i u, belong to member i (split_rows splits them), and
synthesis is the adjoint A* on that space.  Both are defined here once
and act on every kind.

A family satisfies r1 ||u||^2 <= ||A u||^2 <= r2 ||u||^2 with optimal
bounds the extremal eigenvalues of S.  Finite families always satisfy
the upper inequality, so is_bessel is true by construction; the other
flags are decided numerically.

Every family kind stores A once, in the frame core below.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotAFrame
from .linalg import (
    QMatrix,
    QVector,
    _collapse_pairs,
    _from_complex_blocks,
    _hermitian_chi,
    _midpoint,
    gram,
    hermitian_eigenvalues,
)

# a family is a frame when the smallest eigenvalue of S clears this
# fraction of the largest, so the verdict does not depend on the scale
FRAME_TOL = 1e-10
# relative spread under which the two bounds count as equal
TIGHT_RTOL = 1e-9


class FrameReport(NamedTuple):
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


def split_rows(data: np.ndarray, dims) -> list[np.ndarray]:
    """The row blocks of a stacked array, d_i rows for member i."""
    stops = np.cumsum(dims, dtype=int)
    return [data[stop - d:stop] for d, stop in zip(dims, stops)]


class _FrameCore:
    """A family stored as its read-only stacked analysis matrix A and the
    codomain dimension d_i of each member, both fixed at construction."""

    __slots__ = ("space_dim", "_analysis", "codomain_dims")

    def __init__(self, space_dim: int, blocks):
        """The family whose member i has the (d_i, n, 4) block blocks[i] of A;
        a block whose domain is not H^n raises DimensionMismatch."""
        blocks = list(blocks)
        for b in blocks:
            if b.shape[1] != space_dim:
                raise DimensionMismatch(
                    f"member domain {b.shape[1]} does not match space dim {space_dim}")
        self.space_dim = int(space_dim)
        self._analysis = QMatrix(np.concatenate([np.zeros((0, space_dim, 4)), *blocks]))
        self.codomain_dims = [len(b) for b in blocks]

    @classmethod
    def from_analysis(cls, a: QMatrix, codomain_dims):
        """The family of this kind with stacked analysis matrix a, for a kind
        that holds nothing besides A (vector and operator frames); a kind
        with slots of its own raises TypeError, as A alone cannot fill them."""
        if cls.__slots__:
            raise TypeError(f"{cls.__name__} holds more than its analysis matrix;"
                            " build it through its constructor")
        frame = cls.__new__(cls)
        frame.space_dim, frame._analysis, frame.codomain_dims = a.cols, a, list(codomain_dims)
        return frame

    def analysis_matrix(self) -> QMatrix:
        return self._analysis

    def __len__(self) -> int:
        return len(self.codomain_dims)

    def __repr__(self):
        return f"{type(self).__name__}(space_dim={self.space_dim}, members={len(self)})"


def analysis(f: _FrameCore, u: QVector | QMatrix) -> QVector | QMatrix:
    """A u, the coefficients of u: member i owns the next d_i entries.  An
    n x K matrix u gives the coefficients of each of its columns."""
    return f.analysis_matrix() @ u


def synthesis(f: _FrameCore, x: QVector | QMatrix) -> QVector | QMatrix:
    """A* x = sum_i T_i*(x_i), the adjoint of analysis, column by column
    for a matrix x of coefficient columns."""
    return f.analysis_matrix().adjoint() @ x


def extremal_eigenvalues(s: QMatrix) -> tuple[float, float]:
    """The smallest and largest eigenvalue of a self-adjoint s."""
    vals = hermitian_eigenvalues(s)
    return float(vals[0]), float(vals[-1])


def _refuse_subnormal(upper: float) -> None:
    """NonFinite when upper, the largest eigenvalue of a frame operator S, is
    subnormal: S then keeps too few significant digits to classify or
    normalize the family."""
    if 0.0 < upper < np.finfo(float).tiny:
        raise NonFinite(f"the frame operator underflows: its largest eigenvalue "
                        f"{upper:.3e} is subnormal; rescale the input")


def _refuse_zero(a: QMatrix, upper: float) -> None:
    """NonFinite when upper, the largest eigenvalue of S = A* A, is 0 though A is not."""
    if upper == 0.0 and a.data.any():
        raise NonFinite("the frame operator underflows to 0 from a nonzero family;"
                        " rescale the input")


def _normal_bounds(s: QMatrix) -> tuple[float, float]:
    """The extremal eigenvalues of a frame operator s, a subnormal largest
    one refused with NonFinite."""
    lower, upper = extremal_eigenvalues(s)
    _refuse_subnormal(upper)
    return lower, upper


def _redundant(a: QMatrix, rows: slice) -> bool:
    rest = QMatrix(np.delete(a.data, rows, axis=0))
    # fewer rows than the space dimension cannot span it
    return rest.rows >= a.cols and has_frame_bounds(*extremal_eigenvalues(gram(rest)))


def build_report(a: QMatrix, dims) -> FrameReport:
    """Classify the family with stacked analysis matrix a, whose member i
    owns the next dims[i] rows.

    Exactness means every single removal destroys the frame property:
    no member's rows can be deleted with the rest still passing the
    frame test.  A subnormal largest eigenvalue of S, or an S of 0 from a
    nonzero a, raises NonFinite.
    """
    s = gram(a)
    lower, upper = _normal_bounds(s)
    _refuse_zero(a, upper)
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


def _require_frame(lower: float, upper: float) -> None:
    if not has_frame_bounds(lower, upper):
        raise NotAFrame(f"smallest eigenvalue {lower:.3e} of S is not above "
                        f"{FRAME_TOL:.0e} times the largest, {upper:.3e}")


def _canonical_rows(a: QMatrix, parseval: bool) -> QMatrix:
    """A S^-1/2 with parseval, else A S^-1, from the one eigendecomposition
    chi(S) = v diag(w) v* of S = A* A: chi(S^p) = v diag(w^p) v*.

    The pair-collapsed w decide the frame test, NotAFrame when it fails.
    Before it, an S of 0 from a nonzero A, and for the Parseval
    normalization a subnormal largest eigenvalue, are refused; after it,
    the dual refuses an S^-1 whose norm 1/min(w) overflows, all with
    NonFinite.  A frame's w are all positive, and no singular value test
    is needed: with SINGULAR_RTOL * sqrt(MAX_DIM) below FRAME_TOL, the
    frame test implies the one inverse_matrix applies.
    """
    w, v = np.linalg.eigh(_hermitian_chi(gram(a)))
    vals = _collapse_pairs(w)
    lower, upper = float(vals[0]), float(vals[-1])
    if parseval:
        _refuse_subnormal(upper)
    _refuse_zero(a, upper)
    _require_frame(lower, upper)
    if parseval:
        power = 1.0 / np.sqrt(w)
    else:
        smallest = float(w[0])
        if 1.0 / smallest == inf:
            raise NonFinite(f"the inverse overflows: smallest singular value {smallest:.3e};"
                            " rescale the input")
        power = 1.0 / w
    m = (v * power) @ v.conj().T
    return a @ _from_complex_blocks(_midpoint(m, m.conj().T))


def dual_rows(a: QMatrix) -> QMatrix:
    """A S^-1, the stacked analysis matrix of the canonical dual; raises
    NotAFrame when S fails the frame test and NonFinite when S^-1
    overflows."""
    return _canonical_rows(a, parseval=False)


def parseval_rows(a: QMatrix) -> QMatrix:
    """A S^-1/2, the stacked analysis matrix of the canonical Parseval
    normalization; raises NotAFrame when S fails the frame test and
    NonFinite when it underflows."""
    return _canonical_rows(a, parseval=True)
