"""Right quaternionic linear algebra on H^n.

Vectors and matrices hold quaternion entries as float64 arrays whose last
axis carries the four components [r0, r1, r2, r3].  The space H^n is a
*right* module: scalars act from the right, u*q, and the inner product

    <u|v> = sum_k conj(u_k) * v_k

is conjugate-linear in the first slot and right-linear in the second.
Matrices act from the left, (A u)_r = sum_c A[r,c] * u_c, so they commute
with the right scalar action.

Spectra, inverses and solves happen in the complex adjoint
representation: writing A = A1 + A2*j with complex blocks, the embedding

    chi(A) = [[A1, A2], [-conj(A2), conj(A1)]]

is an injective algebra homomorphism with chi(A*) = chi(A)^H and
chi(A^-1) = chi(A)^-1, so numpy.linalg (LAPACK) does the work on chi(A)
and the result is pulled back.  For self-adjoint A the eigenvalues of
chi(A) are real and come in equal pairs; collapsing each pair gives the
quaternionic spectrum.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotHermitian,
    NotPositive,
    PullbackFailed,
    Singular,
)
from .quaternion import Quaternion

# relative self-adjointness tolerance for spectral routines
HERMITIAN_RTOL = 1e-9
# eigenvalues of chi(S) in [-CLAMP * max |eigenvalue|, 0) are clamped to 0
EIGENVALUE_CLAMP = 1e-10
# solve and inverse refuse a matrix whose smallest singular value is not
# above this fraction of ||A||_F; LAPACK itself only stops on exact zeros
SINGULAR_RTOL = 1e-12
# Gram-Schmidt drops a vector whose residual norm is at most this fraction
# of its norm before projection, so a subspace keeps its basis at any scale
GS_DROP_TOL = 1e-10
# the eigenvector pull-back drops unit eigenvectors of chi(S) below this: the
# pair partner of a kept direction leaves round-off, a new one a sizeable part
PULLBACK_DROP_TOL = 0.3


# ====== component arithmetic on (..., 4) arrays ======

def _conj4(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex split q = (r0 + r1*i) + (r2 + r3*i)*j."""
    return a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]


def _join(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    return np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=-1)


def _unit(a: np.ndarray, axis=None) -> tuple[np.ndarray, np.ndarray]:
    """a / 2^e and e (of a's rank), 2^e the power of two of the largest |entry|
    of a, or of each slice along axis: every entry ends below 1, and in the
    normal range, where a power of two scales exactly, with its digits."""
    _, exp = np.frexp(np.abs(a).max(axis=axis, initial=0.0, keepdims=True))
    return np.ldexp(a, -exp), exp


def _norm(a: np.ndarray, axis=None):
    """2-norm of all entries, or of each slice along axis, at unit scale, where
    squares of entries above 1e154 do not overflow (nor below 1e-154 underflow)."""
    unit, exp = _unit(a, axis)
    return np.ldexp(np.linalg.norm(unit, axis=axis), exp.squeeze(axis))


def _midpoint(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(x + y) / 2, or x / 2 + y / 2 where x + y overflows: halving first
    everywhere would drop the last bit of a subnormal."""
    try:
        with np.errstate(over="raise"):
            return (x + y) / 2.0
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            total = x + y
            return np.where(np.isinf(total), x / 2.0 + y / 2.0, total / 2.0)


# ====== quaternion arrays ======

class _QArray:
    """Quaternion entries stored as a read-only contiguous float64 array
    of rank _NDIM whose last axis holds the four components, with the
    real linear-space operations that QVector and QMatrix share."""

    __slots__ = ("data",)
    _NDIM: int

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim != self._NDIM or arr.shape[-1] != 4:
            raise DimensionMismatch(
                f"expected an array of shape {'(n, 4)' if self._NDIM == 2 else '(m, n, 4)'},"
                f" got {arr.shape}")
        self.data = np.ascontiguousarray(arr)
        self.data.setflags(write=False)

    @classmethod
    def zeros(cls, *shape: int):
        return cls(np.zeros(shape + (4,)))

    def __getitem__(self, index) -> Quaternion:
        return Quaternion.from_components(self.data[index])

    def __add__(self, other):
        self._check_shape(other)
        return type(self)(self.data + other.data)

    def __sub__(self, other):
        self._check_shape(other)
        return type(self)(self.data - other.data)

    def __neg__(self):
        return type(self)(-self.data)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float)):
            return type(self)(self.data * float(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def _check_shape(self, other: "_QArray"):
        if self.data.shape != other.data.shape:
            raise DimensionMismatch(f"{type(self).__name__} shapes "
                                    f"{self.data.shape[:-1]} and {other.data.shape[:-1]}")


# ====== vectors ======

class QVector(_QArray):
    """Element of H^n; scalars multiply from the right."""

    __slots__ = ()
    _NDIM = 2

    @classmethod
    def basis(cls, dim: int, index: int) -> "QVector":
        data = np.zeros((dim, 4))
        data[index, 0] = 1.0
        return cls(data)

    @classmethod
    def from_quaternions(cls, entries) -> "QVector":
        return cls(np.array([q.components for q in entries], dtype=np.float64))

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def __mul__(self, scalar) -> "QVector":
        """Right scalar action u * q, entrywise u_k * q."""
        if isinstance(scalar, Quaternion):
            return (_column(self) @ QMatrix([[scalar.components]])).column(0)
        return super().__mul__(scalar)

    def norm(self) -> float:
        return float(_norm(self.data))

    def norm_sq(self) -> float:
        return float(np.sum(self.data * self.data))

    def __repr__(self):
        return f"QVector(dim={self.dim})"


def inner(u: QVector, v: QVector) -> Quaternion:
    """<u|v> = sum_k conj(u_k) v_k, the 1 x 1 product u* v."""
    u._check_shape(v)
    return (_column(u).adjoint() @ _column(v))[0, 0]


# ====== matrices ======

class QMatrix(_QArray):
    """Dense m x n quaternion matrix acting on H^n from the left."""

    __slots__ = ()
    _NDIM = 3

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        data = np.zeros((n, n, 4))
        data[np.arange(n), np.arange(n), 0] = 1.0
        return cls(data)

    @classmethod
    def from_real(cls, arr) -> "QMatrix":
        """Embed a real matrix as quaternions with zero imaginary parts."""
        arr = np.asarray(arr, dtype=np.float64)
        data = np.zeros(arr.shape + (4,))
        data[..., 0] = arr
        return cls(data)

    @classmethod
    def from_quaternions(cls, rows) -> "QMatrix":
        return cls(np.array([[q.components for q in row] for row in rows],
                            dtype=np.float64))

    @classmethod
    def from_columns(cls, columns) -> "QMatrix":
        return cls(np.stack([c.data for c in columns], axis=1))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def column(self, c: int) -> QVector:
        return QVector(self.data[:, c, :])

    def adjoint(self) -> "QMatrix":
        """Conjugate transpose; satisfies <A* u|v> = <u|A v>."""
        return QMatrix(_conj4(np.swapaxes(self.data, 0, 1)))

    def frobenius(self) -> float:
        return float(_norm(self.data))

    def column_norms(self) -> np.ndarray:
        """2-norm of each column."""
        return _norm(self.data, axis=(0, 2))

    def __matmul__(self, other):
        if isinstance(other, QVector):
            return (self @ _column(other)).column(0)
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul shapes {self.shape} and {other.shape}")
        # the complex split turns the quaternionic product into commutative
        # complex block arithmetic, preserving factor order exactly
        a1, a2 = _split(self.data)
        b1, b2 = _split(other.data)
        return QMatrix(_join(a1 @ b1 - a2 @ np.conj(b2),
                             a1 @ b2 + a2 @ np.conj(b1)))

    def __repr__(self):
        return f"QMatrix(shape={self.shape})"


def _column(u: QVector) -> QMatrix:
    """u as an n x 1 matrix."""
    return QMatrix(u.data[:, None, :])


def outer(u: QVector, v: QVector) -> QMatrix:
    """Rank-one operator u<v|.|>, with entries u_r * conj(v_c)."""
    return _column(u) @ _column(v).adjoint()


def frobenius_distance(a: QMatrix, b: QMatrix) -> float:
    return float(_norm(a.data - b.data))


# ====== complex adjoint representation ======

def complex_adjoint_rep(a: QMatrix) -> np.ndarray:
    """chi(A) as a plain (2m x 2n) complex ndarray."""
    a1, a2 = _split(a.data)
    m, n = a1.shape
    chi = np.empty((2 * m, 2 * n), dtype=complex)
    chi[:m, :n], chi[:m, n:] = a1, a2
    chi[m:, :n], chi[m:, n:] = -np.conj(a2), np.conj(a1)
    return chi


def _finite_chi(a: QMatrix) -> np.ndarray:
    """chi(A) for LAPACK, which cannot take inf or nan entries; they are
    refused before chi is formed, where 1j * inf would warn."""
    if not np.isfinite(a.data).all():
        raise NonFinite("matrix has inf or nan entries, such as from an "
                        "overflow; rescale the input")
    return complex_adjoint_rep(a)


def _from_complex_blocks(c: np.ndarray) -> QMatrix:
    """Project a 2m x 2n complex matrix back onto the image of chi.

    Averaging the redundant blocks removes round-off that strays off the
    quaternionic structure.
    """
    m2, n2 = c.shape
    m, n = m2 // 2, n2 // 2
    a1 = _midpoint(c[:m, :n], np.conj(c[m:, n:]))
    a2 = _midpoint(c[:m, n:], -np.conj(c[m:, :n]))
    return QMatrix(_join(a1, a2))


# ====== inverse and solve ======

def _invertible_chi(a: QMatrix) -> np.ndarray:
    """chi(A) of a square A whose smallest singular value clears
    SINGULAR_RTOL * ||A||_F and whose inverse's norm, its reciprocal, is
    finite; chi(A^-1) = chi(A)^-1."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"solve and inverse need a square matrix, got {a.shape}")
    h = _finite_chi(a)
    floor = SINGULAR_RTOL * a.frobenius()
    smallest = float(np.linalg.svd(h, compute_uv=False)[-1])
    if smallest <= floor:
        raise Singular(f"smallest singular value {smallest:.3e} is not above {floor:.3e}")
    if 1.0 / smallest == inf:
        raise NonFinite(f"the inverse overflows: smallest singular value {smallest:.3e};"
                        " rescale the input")
    return h


def solve(a: QMatrix, b: QVector) -> QVector:
    """Solve A x = b through LAPACK on the complex adjoint representation."""
    if a.rows != b.dim:
        raise DimensionMismatch(f"matrix {a.shape} vs rhs dim {b.dim}")
    h = _invertible_chi(a)
    rhs = complex_adjoint_rep(_column(b))
    return _from_complex_blocks(np.linalg.solve(h, rhs)).column(0)


def inverse_matrix(a: QMatrix) -> QMatrix:
    """Inverse through LAPACK on the complex adjoint representation."""
    return _from_complex_blocks(np.linalg.inv(_invertible_chi(a)))


# ====== spectra ======

def _hermitian_chi(s: QMatrix) -> np.ndarray:
    """chi(S) of a self-adjoint S, averaged with its conjugate transpose:
    LAPACK reads one triangle only, and the average keeps the round-off
    asymmetry that HERMITIAN_RTOL admits out of the result.  chi scales
    ||S - S*|| and ||S|| alike, so the test runs on chi at unit scale,
    where neither norm overflows."""
    h = _finite_chi(s)
    if s.rows != s.cols:
        raise DimensionMismatch(f"spectral routines need square input, got {s.shape}")
    unit = _unit(h.view(np.float64))[0]
    c = unit.view(complex)
    if np.linalg.norm((c - c.conj().T).view(np.float64)) > HERMITIAN_RTOL * np.linalg.norm(unit):
        raise NotHermitian("matrix is not self-adjoint to working tolerance")
    return _midpoint(h, h.conj().T)


def _collapse_pairs(vals: np.ndarray) -> np.ndarray:
    """Collapse the doubled spectrum of chi(S) to one value per pair."""
    pairs = np.sort(vals).reshape(-1, 2)
    return _midpoint(pairs[:, 0], pairs[:, 1])


def hermitian_eigenvalues(s: QMatrix) -> np.ndarray:
    """Ascending real eigenvalues of a self-adjoint matrix, one per
    quaternionic eigenvector (pair-collapsed from the complex picture)."""
    return _collapse_pairs(np.linalg.eigvalsh(_hermitian_chi(s)))


class Spectrum(NamedTuple):
    """Eigenvalues (ascending, with quaternionic multiplicity) and a
    matrix whose columns are the matching right eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: QMatrix

    @property
    def lower(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def upper(self) -> float:
        return float(self.eigenvalues[-1])


def _quaternionic_eigenvectors(v: np.ndarray) -> QMatrix:
    """Pick n right eigenvectors of S from the 2n eigenvectors of chi(S).

    Each is the chi column of a quaternionic eigenvector, and the two of an
    eigenvalue pair stand for one quaternionic direction, so the sweep with
    the coarse cut-off PULLBACK_DROP_TOL keeps exactly one of the two.
    """
    basis = _basis(_gram_schmidt(v.T, [len(v)], PULLBACK_DROP_TOL)[0])
    if basis.cols != basis.rows:
        raise PullbackFailed("eigenvector pull-back did not span H^n")
    return basis


def hermitian_spectrum(s: QMatrix) -> Spectrum:
    """Full spectral decomposition of a self-adjoint matrix.

    Eigenvalues are real, ascending, and carry the quaternionic
    multiplicity; eigenvector columns satisfy S v = v * lambda.
    """
    w, v = np.linalg.eigh(_hermitian_chi(s))
    return Spectrum(_collapse_pairs(w), _quaternionic_eigenvectors(v))


def positive_sqrt(s: QMatrix) -> QMatrix:
    """Principal square root of a positive self-adjoint matrix.

    Negative eigenvalues of chi(S) down to -EIGENVALUE_CLAMP times its
    largest |eigenvalue| are clamped to zero, at any scale of S; anything
    below that raises NotPositive.
    """
    w, v = np.linalg.eigh(_hermitian_chi(s))
    floor = -EIGENVALUE_CLAMP * np.abs(w).max(initial=0.0)
    if w.min(initial=0.0) < floor:
        raise NotPositive(f"eigenvalue {w.min():.3e} below the relative floor {floor:.3e}")
    w = np.where(w < 0.0, 0.0, w)
    root = (v * np.sqrt(w)[None, :]) @ v.conj().T
    return _from_complex_blocks(_midpoint(root, root.conj().T))


# ====== orthonormalization and projections ======

def _row_norms(c: np.ndarray) -> np.ndarray:
    """The 2-norm of each c[g], one dot product each, as _norm takes."""
    a = np.ascontiguousarray(c).reshape(len(c), -1).view(np.float64)
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def _gram_schmidt(columns: np.ndarray, widths, drop_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Right-quaternionic Gram-Schmidt on sets of chi columns of vectors of
    H^n, given as the rows of columns, set i the next widths[i] rows;
    returns the unit chi columns it keeps, as rows set by set, and the
    number it keeps of each set.

    The chi column c = [u1; -conj(u2)] of u = u1 + u2*j and its partner
    [u2; conj(u1)] span the right multiples u*q.  One sweep over the
    candidate index j takes candidate j of every set that has one and does
    not span H^n yet, all at once: scaled by a power of two to unit size,
    exactly, so that no digit is lost at any scale, then projected twice off
    the columns its set has kept and their partners.  It is dropped when
    its residual norm is at most drop_tol times its norm; else the
    normalized residual and its partner are kept, in the workspace slot of
    the set's next kept column, one slot per candidate.  Every set projects
    off its first min(j, n) slots, zero beyond its kept ones, so a set gets
    the same basis swept alone or with others, and the sweep does the work
    of each set only while it has candidates left and does not span H^n.
    """
    widths = np.asarray(widths, dtype=int)
    n, starts = columns.shape[1] // 2, np.cumsum(widths) - widths
    counts = np.zeros(len(widths), dtype=int)
    if not len(columns):  # no candidate, and no batch for _row_norms to reshape
        return np.empty((0, 2 * n), dtype=complex), counts
    c = _unit(np.ascontiguousarray(columns).view(np.float64), 1)[0].view(complex)
    floors = drop_tol * _row_norms(c)
    # kept column s of set i and its partner: span[starts[i] + s, :, 0 and 1]
    span = np.zeros((len(c), 2 * n, 2), dtype=complex)
    for j in range(widths.max()):
        live = np.flatnonzero((widths > j) & (counts < n))
        if not len(live):
            break
        at, m = starts[live], min(j, n)
        q = span[at[:, None] + np.arange(m)].transpose(0, 2, 1, 3).reshape(len(live), 2 * n, 2 * m)
        qh, r = q.conj().transpose(0, 2, 1), c[at + j, :, None]
        for _ in range(2):
            r = r - q @ (qh @ r)
        norm = _row_norms(r)
        keep = ~(norm <= floors[at + j])
        pair = np.zeros((len(live), 2 * n, 2), dtype=complex)
        r = np.divide(r[:, :, 0], norm[:, None], out=pair[:, :, 0], where=keep[:, None])
        pair[:, :n, 1], pair[:, n:, 1] = -np.conj(r[:, n:]), np.conj(r[:, :n])
        # a dropped candidate writes zeros into a slot that is zero still
        span[at + counts[live]] = pair
        counts[live] += keep
    rank = np.arange(len(c)) - np.repeat(starts, widths)
    return span[rank < np.repeat(counts, widths), :, 0], counts


def _basis(rows: np.ndarray) -> QMatrix:
    """The n x k matrix of the vectors whose chi columns are the k rows."""
    n = rows.shape[1] // 2
    return QMatrix(np.swapaxes(_join(rows[:, :n], -np.conj(rows[:, n:])), 0, 1))


def orthonormalize_each(a: QMatrix, widths) -> tuple[QMatrix, list[int]]:
    """The orthonormal bases that orthonormalize gives of each set of
    consecutive columns of a, widths[i] of them for set i, side by side,
    and the column count of each, all from one Gram-Schmidt kernel."""
    if sum(widths) != a.cols:
        raise DimensionMismatch(f"sets of {sum(widths)} columns vs {a.cols} columns")
    u1, u2 = _split(np.swapaxes(a.data, 0, 1))
    rows, counts = _gram_schmidt(np.hstack([u1, -np.conj(u2)]), widths, GS_DROP_TOL)
    return _basis(rows), counts.tolist()


def orthonormalize(a: QMatrix) -> QMatrix:
    """The n x k orthonormal basis of the right span of a's columns that
    Gram-Schmidt keeps, dropping each column whose residual norm is at most
    GS_DROP_TOL times its own norm; n x 0 when a has no columns."""
    return orthonormalize_each(a, [a.cols])[0]


def gram(a: QMatrix) -> QMatrix:
    """A* A, pinned to exact self-adjointness.

    Entries that overflow become inf or nan here without a warning; the
    spectral routines refuse them with NonFinite before LAPACK runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = (a.adjoint() @ a).data
        return QMatrix(_midpoint(s, _conj4(np.swapaxes(s, 0, 1))))


def projection(a: QMatrix) -> QMatrix:
    """B B* = gram(B*), B = orthonormalize(a): the orthogonal projection
    onto the right span of a's columns; the zero map when that is {0}."""
    return gram(orthonormalize(a).adjoint())
