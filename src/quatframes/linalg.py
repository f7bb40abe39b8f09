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

from dataclasses import dataclass

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


def _norm(a: np.ndarray, axis=None):
    """2-norm of all entries, or of each slice along axis.  Each slice is
    scaled by the power of two nearest its largest magnitude before
    squaring, so that squares of entries above 1e154 do not overflow (nor
    those below 1e-154 underflow); a power of two scales exactly, so in
    between the digits are unchanged."""
    _, exp = np.frexp(np.abs(a).max(axis=axis, initial=0.0, keepdims=True))
    scaled = np.linalg.norm(np.ldexp(a, -exp), axis=axis)
    return np.ldexp(scaled, exp.squeeze(axis))


def _as_qarray(data, ndim: int) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != ndim or arr.shape[-1] != 4:
        raise DimensionMismatch(
            f"expected an array of shape {'(n, 4)' if ndim == 2 else '(m, n, 4)'},"
            f" got {arr.shape}")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


# ====== vectors ======

class QVector:
    """Element of H^n; scalars multiply from the right."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _as_qarray(data, 2)

    @classmethod
    def zeros(cls, dim: int) -> "QVector":
        return cls(np.zeros((dim, 4)))

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

    def __getitem__(self, k: int) -> Quaternion:
        return Quaternion.from_components(self.data[k])

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(self.data + other.data)

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(self.data - other.data)

    def __neg__(self) -> "QVector":
        return QVector(-self.data)

    def __mul__(self, scalar) -> "QVector":
        """Right scalar action u * q, entrywise u_k * q."""
        if isinstance(scalar, (int, float)):
            return QVector(self.data * float(scalar))
        if isinstance(scalar, Quaternion):
            return (_column(self) @ QMatrix([[scalar.components]])).column(0)
        return NotImplemented

    def __rmul__(self, scalar) -> "QVector":
        if isinstance(scalar, (int, float)):
            return QVector(self.data * float(scalar))
        return NotImplemented

    def norm(self) -> float:
        return float(_norm(self.data))

    def norm_sq(self) -> float:
        return float(np.sum(self.data * self.data))

    def _check_dim(self, other: "QVector"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"vector dims {self.dim} and {other.dim}")

    def __repr__(self):
        return f"QVector(dim={self.dim})"


def inner(u: QVector, v: QVector) -> Quaternion:
    """<u|v> = sum_k conj(u_k) v_k, the 1 x 1 product u* v."""
    u._check_dim(v)
    return (_column(u).adjoint() @ _column(v))[0, 0]


# ====== matrices ======

class QMatrix:
    """Dense m x n quaternion matrix acting on H^n from the left."""

    __slots__ = ("data",)

    def __init__(self, data):
        self.data = _as_qarray(data, 3)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls(np.zeros((rows, cols, 4)))

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

    def __getitem__(self, rc) -> Quaternion:
        r, c = rc
        return Quaternion.from_components(self.data[r, c])

    def column(self, c: int) -> QVector:
        return QVector(self.data[:, c, :])

    def row(self, r: int) -> QVector:
        return QVector(self.data[r, :, :])

    def adjoint(self) -> "QMatrix":
        """Conjugate transpose; satisfies <A* u|v> = <u|A v>."""
        return QMatrix(_conj4(np.swapaxes(self.data, 0, 1)))

    def frobenius(self) -> float:
        return float(_norm(self.data))

    def column_norms(self) -> np.ndarray:
        """2-norm of each column."""
        return _norm(self.data, axis=(0, 2))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_shape(other)
        return QMatrix(self.data + other.data)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_shape(other)
        return QMatrix(self.data - other.data)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.data)

    def __mul__(self, scalar) -> "QMatrix":
        if isinstance(scalar, (int, float)):
            return QMatrix(self.data * float(scalar))
        return NotImplemented

    __rmul__ = __mul__

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

    def _check_shape(self, other: "QMatrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"matrix shapes {self.shape} and {other.shape}")

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
    return np.block([[a1, a2], [-np.conj(a2), np.conj(a1)]])


def _finite_chi(a: QMatrix) -> np.ndarray:
    """chi(A) for LAPACK, which cannot take inf or nan entries."""
    h = complex_adjoint_rep(a)
    if not np.isfinite(h).all():
        raise NonFinite("matrix has inf or nan entries, such as from an "
                        "overflow; rescale the input")
    return h


def _from_complex_blocks(c: np.ndarray) -> QMatrix:
    """Project a 2m x 2n complex matrix back onto the image of chi.

    Averaging the redundant blocks removes round-off that strays off the
    quaternionic structure.
    """
    m2, n2 = c.shape
    m, n = m2 // 2, n2 // 2
    a1 = (c[:m, :n] + np.conj(c[m:, n:])) / 2.0
    a2 = (c[:m, n:] - np.conj(c[m:, :n])) / 2.0
    return QMatrix(_join(a1, a2))


# ====== inverse and solve ======

def _invertible_chi(a: QMatrix) -> np.ndarray:
    """chi(A) of a square A whose smallest singular value clears
    SINGULAR_RTOL * ||A||_F; chi(A^-1) = chi(A)^-1."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"solve and inverse need a square matrix, got {a.shape}")
    h = _finite_chi(a)
    floor = SINGULAR_RTOL * a.frobenius()
    smallest = np.linalg.svd(h, compute_uv=False)[-1]
    if smallest <= floor:
        raise Singular(f"smallest singular value {smallest:.3e} is not above {floor:.3e}")
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
    ||S - S*|| and ||S|| alike, so the test runs on chi."""
    h = _finite_chi(s)
    if s.rows != s.cols:
        raise DimensionMismatch(f"spectral routines need square input, got {s.shape}")
    adj = h.conj().T
    if _norm((h - adj).view(np.float64)) > HERMITIAN_RTOL * _norm(h.view(np.float64)):
        raise NotHermitian("matrix is not self-adjoint to working tolerance")
    return (h + adj) / 2.0


def _collapse_pairs(vals: np.ndarray) -> np.ndarray:
    """Collapse the doubled spectrum of chi(S) to one value per pair."""
    pairs = np.sort(vals).reshape(-1, 2)
    return pairs.mean(axis=1)


def hermitian_eigenvalues(s: QMatrix) -> np.ndarray:
    """Ascending real eigenvalues of a self-adjoint matrix, one per
    quaternionic eigenvector (pair-collapsed from the complex picture)."""
    return _collapse_pairs(np.linalg.eigvalsh(_hermitian_chi(s)))


@dataclass(frozen=True)
class Spectrum:
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
    basis = _gram_schmidt(v, PULLBACK_DROP_TOL)
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
    root = (root + root.conj().T) / 2.0
    return _from_complex_blocks(root)


# ====== orthonormalization and projections ======

def _gram_schmidt(columns: np.ndarray, drop_tol: float) -> QMatrix:
    """Right-quaternionic Gram-Schmidt on the 2n x m chi columns of m
    vectors of H^n; returns the n x k orthonormal basis it keeps.

    The chi column c = [u1; -conj(u2)] of u = u1 + u2*j and its partner
    [u2; conj(u1)] span the right multiples u*q.  Each candidate is
    projected twice off the kept columns and their partners, dropped when
    its residual norm is at most drop_tol times its norm before projection
    and kept normalized otherwise.
    """
    rows = columns.shape[0]
    n = rows // 2
    span = np.empty((rows, rows), dtype=complex)
    k = 0
    for c in columns.T:
        # a contiguous copy: the float64 view of a strided row would raise
        floor = drop_tol * _norm(np.ascontiguousarray(c).view(np.float64))
        q = span[:, :k]
        for _ in range(2):
            c = c - q @ (q.conj().T @ c)
        norm = _norm(c.view(np.float64))
        if norm <= floor:
            continue
        c = c / norm
        span[:, k] = c
        span[:, k + 1] = np.concatenate([-np.conj(c[n:]), np.conj(c[:n])])
        k += 2
        if k == rows:
            break
    # kept columns, then their partners: chi of the basis
    return _from_complex_blocks(np.hstack([span[:, :k:2], span[:, 1:k:2]]))


def orthonormalize(vectors) -> list[QVector]:
    """Right-quaternionic Gram-Schmidt, run on chi columns.

    Projection coefficients <b|v> multiply on the right, v - b*<b|v>;
    vectors whose residual norm is at most GS_DROP_TOL times their own
    norm are dropped.
    A second orthogonalization pass keeps the Gram matrix near identity.
    """
    vectors = list(vectors)
    if not vectors:
        return []
    chi = complex_adjoint_rep(QMatrix.from_columns(vectors))
    basis = _gram_schmidt(chi[:, :len(vectors)], GS_DROP_TOL)
    return [basis.column(c) for c in range(basis.cols)]


def gram(a: QMatrix) -> QMatrix:
    """A* A, pinned to exact self-adjointness.

    Entries that overflow become inf or nan here without a warning; the
    spectral routines refuse them with NonFinite before LAPACK runs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = (a.adjoint() @ a).data
        return QMatrix((s + _conj4(np.swapaxes(s, 0, 1))) / 2.0)


def _projection(space_dim: int, basis) -> QMatrix:
    """B B*, the orthogonal projection onto the span of the orthonormal
    basis B; the zero map when B is empty."""
    rows = np.concatenate([np.zeros((0, space_dim, 4)), *(b.data[None] for b in basis)])
    return gram(QMatrix(_conj4(rows)))


def projection(vectors) -> QMatrix:
    """Orthogonal projection onto the right span of the given vectors."""
    vectors = list(vectors)
    if not vectors:
        raise DimensionMismatch("projection needs a vector to fix the space dimension")
    return _projection(vectors[0].dim, orthonormalize(vectors))
