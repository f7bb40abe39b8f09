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

from .errors import DimensionMismatch, NotHermitian, NotPositive, PullbackFailed, Singular
from .quaternion import Quaternion

# relative self-adjointness tolerance for spectral routines
HERMITIAN_RTOL = 1e-9
# eigenvalues of nominally positive operators in [-CLAMP, 0) are clamped to 0
EIGENVALUE_CLAMP = 1e-10
# solve and inverse refuse a matrix whose smallest singular value is not
# above this fraction of ||A||_F; LAPACK itself only stops on exact zeros
SINGULAR_RTOL = 1e-12
# Gram-Schmidt drops vectors whose residual norm falls below this
GS_DROP_TOL = 1e-10


# ====== component arithmetic on (..., 4) arrays ======

def _mul4(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    a0, a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b0, b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack([
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    ], axis=-1)


def _conj4(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Complex split q = (r0 + r1*i) + (r2 + r3*i)*j."""
    return a[..., 0] + 1j * a[..., 1], a[..., 2] + 1j * a[..., 3]


def _join(c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    return np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=-1)


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
            q = np.array(scalar.components)
            return QVector(_mul4(self.data, q[None, :]))
        return NotImplemented

    def __rmul__(self, scalar) -> "QVector":
        if isinstance(scalar, (int, float)):
            return QVector(self.data * float(scalar))
        return NotImplemented

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))

    def norm_sq(self) -> float:
        return float(np.sum(self.data * self.data))

    def _check_dim(self, other: "QVector"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"vector dims {self.dim} and {other.dim}")

    def __repr__(self):
        return f"QVector(dim={self.dim})"


def inner(u: QVector, v: QVector) -> Quaternion:
    """<u|v> = sum_k conj(u_k) v_k, accumulated over ascending k."""
    u._check_dim(v)
    terms = _mul4(_conj4(u.data), v.data)
    return Quaternion.from_components(terms.sum(axis=0))


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
        return float(np.linalg.norm(self.data))

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
        # the complex split turns the quaternionic product into commutative
        # complex block arithmetic, preserving factor order exactly
        a1, a2 = _split(self.data)
        if isinstance(other, QMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"matmul shapes {self.shape} and {other.shape}")
            b1, b2 = _split(other.data)
            return QMatrix(_join(a1 @ b1 - a2 @ np.conj(b2),
                                 a1 @ b2 + a2 @ np.conj(b1)))
        if isinstance(other, QVector):
            if self.cols != other.dim:
                raise DimensionMismatch(
                    f"matrix cols {self.cols} vs vector dim {other.dim}")
            u1, u2 = _split(other.data)
            return QVector(_join(a1 @ u1 - a2 @ np.conj(u2),
                                 a1 @ u2 + a2 @ np.conj(u1)))
        return NotImplemented

    def _check_shape(self, other: "QMatrix"):
        if self.shape != other.shape:
            raise DimensionMismatch(f"matrix shapes {self.shape} and {other.shape}")

    def __repr__(self):
        return f"QMatrix(shape={self.shape})"


def outer(u: QVector, v: QVector) -> QMatrix:
    """Rank-one operator u<v|.|>, with entries u_r * conj(v_c)."""
    return QMatrix(_mul4(u.data[:, None, :], _conj4(v.data)[None, :, :]))


def frobenius_distance(a: QMatrix, b: QMatrix) -> float:
    return float(np.linalg.norm(a.data - b.data))


# ====== complex adjoint representation ======

def complex_adjoint_rep(a: QMatrix) -> np.ndarray:
    """chi(A) as a plain (2m x 2n) complex ndarray."""
    a1, a2 = _split(a.data)
    return np.block([[a1, a2], [-np.conj(a2), np.conj(a1)]])


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
    h = complex_adjoint_rep(a)
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
    rhs = complex_adjoint_rep(QMatrix(b.data[:, None, :]))
    return _from_complex_blocks(np.linalg.solve(h, rhs)).column(0)


def inverse_matrix(a: QMatrix) -> QMatrix:
    """Inverse through LAPACK on the complex adjoint representation."""
    return _from_complex_blocks(np.linalg.inv(_invertible_chi(a)))


# ====== spectra ======

def _check_hermitian(s: QMatrix) -> None:
    if s.rows != s.cols:
        raise DimensionMismatch(f"spectral routines need square input, got {s.shape}")
    norm = s.frobenius()
    if frobenius_distance(s, s.adjoint()) > HERMITIAN_RTOL * norm:
        raise NotHermitian("matrix is not self-adjoint to working tolerance")


def _hermitian_chi(s: QMatrix) -> np.ndarray:
    """chi(S) of a self-adjoint S, averaged with its conjugate transpose:
    LAPACK reads one triangle only, and the average keeps the round-off
    asymmetry that HERMITIAN_RTOL admits out of the result."""
    _check_hermitian(s)
    h = complex_adjoint_rep(s)
    return (h + h.conj().T) / 2.0


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


def _quaternionic_eigenvectors(w: np.ndarray, v: np.ndarray, n: int) -> QMatrix:
    """Pick n right eigenvectors of S from the 2n eigenpairs of chi(S).

    A complex eigenvector [x; y] of chi(S) pulls back to the quaternionic
    eigenvector with split components (x, -conj(y)); the pull-back of each
    eigenvalue pair spans a single quaternionic direction, so Gram-Schmidt
    with a coarse acceptance threshold keeps exactly one of the two.
    """
    order = np.argsort(w, kind="stable")
    accepted: list[np.ndarray] = []
    for idx in order:
        col = v[:, idx]
        cand = _join(col[:n], -np.conj(col[n:]))
        for basis in accepted:
            coeff = _mul4(_conj4(basis), cand).sum(axis=0)
            cand = cand - _mul4(basis, coeff[None, :])
        norm = np.linalg.norm(cand)
        if norm > 0.3:
            accepted.append(cand / norm)
            if len(accepted) == n:
                break
    if len(accepted) != n:
        raise PullbackFailed("eigenvector pull-back did not span H^n")
    return QMatrix(np.stack(accepted, axis=1))


def hermitian_spectrum(s: QMatrix) -> Spectrum:
    """Full spectral decomposition of a self-adjoint matrix.

    Eigenvalues are real, ascending, and carry the quaternionic
    multiplicity; eigenvector columns satisfy S v = v * lambda.
    """
    w, v = np.linalg.eigh(_hermitian_chi(s))
    return Spectrum(_collapse_pairs(w), _quaternionic_eigenvectors(w, v, s.rows))


def positive_sqrt(s: QMatrix) -> QMatrix:
    """Principal square root of a positive self-adjoint matrix.

    Eigenvalues in [-EIGENVALUE_CLAMP, 0) are clamped to zero; anything
    below that raises NotPositive.
    """
    w, v = np.linalg.eigh(_hermitian_chi(s))
    if w.min(initial=0.0) < -EIGENVALUE_CLAMP:
        raise NotPositive(f"eigenvalue {w.min():.3e} below -{EIGENVALUE_CLAMP:.0e}")
    w = np.where(w < 0.0, 0.0, w)
    root = (v * np.sqrt(w)[None, :]) @ v.conj().T
    root = (root + root.conj().T) / 2.0
    out = _from_complex_blocks(root)
    return QMatrix((out.data + _conj4(np.swapaxes(out.data, 0, 1))) / 2.0)


# ====== orthonormalization and projections ======

def orthonormalize(vectors) -> list[QVector]:
    """Right-quaternionic Gram-Schmidt.

    Projection coefficients <b|v> multiply on the right, v - b*<b|v>;
    vectors whose residual norm falls below GS_DROP_TOL are dropped.
    A second orthogonalization pass keeps the Gram matrix near identity.
    """
    basis: list[np.ndarray] = []
    for vec in vectors:
        cand = vec.data.copy()
        for _ in range(2):
            for b in basis:
                coeff = _mul4(_conj4(b), cand).sum(axis=0)
                cand = cand - _mul4(b, coeff[None, :])
        norm = np.linalg.norm(cand)
        if norm < GS_DROP_TOL:
            continue
        basis.append(cand / norm)
    return [QVector(b) for b in basis]


def projection(vectors) -> QMatrix:
    """Orthogonal projection onto the right span of the given vectors."""
    basis = orthonormalize(vectors)
    if not basis:
        dim = next(iter(vectors)).dim
        return QMatrix.zeros(dim, dim)
    b = QMatrix.from_columns(basis)
    return b @ b.adjoint()
