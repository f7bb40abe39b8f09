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
    _chi_gram,
    _ChiGram,
    _collapse_pairs,
    _from_complex_blocks,
    _midpoint,
    _unit,
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


# S = A* A is refused when its largest eigenvalue is at most this, or inf:
# then 1 / lambda_max(S), or lambda_max(S) itself, is not finite
SCALE_FLOOR = 2.0**-1024


def _refuse_scale(a: QMatrix, upper: float) -> None:
    """NonFinite when a is not 0 and upper, the largest eigenvalue of its
    frame operator, or 1/upper is not finite.  Every command that reads an
    S applies this one rule before it answers."""
    if not SCALE_FLOOR < upper < inf and a.data.any():
        side = "underflows" if upper <= SCALE_FLOOR else "overflows"
        raise NonFinite(f"the frame operator {side}: its largest eigenvalue is "
                        f"{upper:.3e}; rescale the input")


def _unit_gram(a: QMatrix) -> tuple[QMatrix, int, _ChiGram]:
    """U = A / 2^e (linalg._unit), e, and chi(S_u) (linalg._chi_gram) for
    S_u = U* U = S / 4^e, in which no product of entries under- or overflows.
    An A with an inf or nan entry has lambda_max(S) = inf: _refuse_scale refuses it."""
    if not np.isfinite(a.data).all():
        _refuse_scale(a, inf)
    unit, exp = _unit(a.data)
    u = QMatrix(unit)
    return u, exp.item(), _chi_gram(u)


def _scaled_bounds(a: QMatrix, exp: int, vals: np.ndarray) -> tuple[float, float]:
    """4^e vals[0] and 4^e vals[-1], the bounds of S from S_u's, under _refuse_scale."""
    with np.errstate(over="ignore"):  # an S that overflows is refused next
        lower, upper = (float(x) for x in np.ldexp(vals[[0, -1]], 2 * exp))
    _refuse_scale(a, upper)
    return lower, upper


def frame_bounds(a: QMatrix) -> tuple[float, float]:
    """The extremal eigenvalues of S = A* A under _refuse_scale; (0, 0) for A = 0."""
    _, exp, s = _unit_gram(a)
    return _scaled_bounds(a, exp, hermitian_eigenvalues(s))


def _is_exact(u: QMatrix, dims, lower: float, upper: float) -> bool:
    """Whether no member of the frame with stacked analysis matrix u and
    bounds (lower, upper), both at unit scale (_unit_gram), can be deleted
    with the rest still passing the frame test.  Deleting member i leaves
    S_i = S_u - U_i* U_i, with lambda_max(S_i) <= upper and, by Weyl's
    inequality, lambda_min(S_i) >= lower - ||U_i||_F^2.  When the row norms
    put that above 2 FRAME_TOL upper for some member, the family is not
    exact: the factor 2 is far wider than the round-off of the eigensolves
    of S_u and of S_i, and a member whose deletion leaves fewer rows than
    n, so a singular S_i, never passes.  Otherwise each member is deleted
    in turn and the S_i of the rest solved."""
    norms = np.bincount(np.repeat(np.arange(len(dims)), dims),
                        (u.data * u.data).sum(axis=(1, 2)), len(dims))
    if lower - norms.min() > 2 * FRAME_TOL * upper:
        return False
    # fewer rows than the space dimension cannot span it
    rests = (QMatrix(np.delete(u.data, slice(stop - d, stop), axis=0))
             for d, stop in zip(dims, np.cumsum(dims, dtype=int)) if u.rows - d >= u.cols)
    return not any(has_frame_bounds(*hermitian_eigenvalues(_chi_gram(r))[[0, -1]]) for r in rests)


def build_report(a: QMatrix, dims) -> FrameReport:
    """Classify the family with stacked analysis matrix a, whose member i
    owns the next dims[i] rows.

    Exactness means every single removal destroys the frame property:
    no member's rows can be deleted with the rest still passing the
    frame test.  The row norms and the bounds of S certify most redundant
    families without rebuilding S (_is_exact); only a family they leave
    undecided is re-solved with each member deleted in turn.
    S is read at unit scale; one out of scale raises NonFinite (_refuse_scale).
    """
    u, exp, s = _unit_gram(a)
    vals = hermitian_eigenvalues(s)
    lower, upper = _scaled_bounds(a, exp, vals)
    is_frame = has_frame_bounds(lower, upper)
    is_tight = is_frame and abs(upper - lower) <= TIGHT_RTOL * upper
    is_parseval = is_tight and abs(lower - 1.0) <= TIGHT_RTOL
    is_exact = is_frame and len(dims) > 0 and _is_exact(u, dims, vals[0], vals[-1])
    return FrameReport(lower=lower, upper=upper, is_bessel=True,
                       is_frame=is_frame, is_tight=is_tight,
                       is_parseval=is_parseval, is_exact=is_exact,
                       frame_operator=QMatrix(np.ldexp(_from_complex_blocks(s.chi).data, 2 * exp)))


def _require_frame(lower: float, upper: float) -> None:
    if not has_frame_bounds(lower, upper):
        raise NotAFrame(f"smallest eigenvalue {lower:.3e} of S is not above "
                        f"{FRAME_TOL:.0e} times the largest, {upper:.3e}")


def _canonical_rows(a: QMatrix, parseval: bool) -> QMatrix:
    """A S^-1/2 with parseval, else A S^-1, from the one eigendecomposition
    chi(S_u) = v diag(w) v* of S_u = U* U at unit scale (_unit_gram): as
    S = 4^e S_u, A S^-1 = 2^-e U S_u^-1 and A S^-1/2 = U S_u^-1/2.

    The bounds 4^e w are held to _refuse_scale, then to the frame test
    (NotAFrame).  A frame that passes both has lower > 1e-10 * 2^-1024, so
    neither result overflows.  No singular value test is needed: with
    SINGULAR_RTOL * sqrt(MAX_DIM) below FRAME_TOL, the frame test implies
    the one inverse_matrix applies.
    """
    u, e, s = _unit_gram(a)
    w, v = np.linalg.eigh(s.chi)
    _require_frame(*_scaled_bounds(a, e, _collapse_pairs(w)))
    m = (v * (1.0 / (np.sqrt(w) if parseval else w))) @ v.conj().T
    rows = u @ _from_complex_blocks(_midpoint(m, m.conj().T))
    return rows if parseval else QMatrix(np.ldexp(rows.data, -e))


def dual_rows(a: QMatrix) -> QMatrix:
    """A S^-1, the stacked analysis matrix of the canonical dual; raises
    NotAFrame when S fails the frame test and NonFinite when S is out of
    scale (_refuse_scale)."""
    return _canonical_rows(a, parseval=False)


def parseval_rows(a: QMatrix) -> QMatrix:
    """A S^-1/2, the stacked analysis matrix of the canonical Parseval
    normalization; raises NotAFrame when S fails the frame test and
    NonFinite when S is out of scale (_refuse_scale)."""
    return _canonical_rows(a, parseval=True)
