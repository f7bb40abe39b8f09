"""Reference spectra computed from the generated arrays with numpy alone.

Quaternion arrays carry the components [r0, r1, r2, r3] on their last
axis, as in the file format.  Writing A = A1 + A2*j with complex blocks,
the complex adjoint

    chi(A) = [[A1, A2], [-conj(A2), conj(A1)]]

is an injective *-homomorphism (Zhang, Linear Algebra Appl. 251, 1997),
so the extremal eigenvalues of a quaternionic frame operator S are the
extremal eigenvalues of the Hermitian matrix chi(S), which numpy's
eigvalsh computes directly.  Nothing here imports quatframes.
"""

from __future__ import annotations

import numpy as np


def chi(q: np.ndarray) -> np.ndarray:
    """chi of an (m, n, 4) quaternion matrix as a (2m, 2n) complex array."""
    a1 = q[..., 0] + 1j * q[..., 1]
    a2 = q[..., 2] + 1j * q[..., 3]
    return np.block([[a1, a2], [-np.conj(a2), np.conj(a1)]])


def unchi(c: np.ndarray) -> np.ndarray:
    """Inverse of chi, averaging the redundant blocks."""
    m, n = c.shape[0] // 2, c.shape[1] // 2
    a1 = (c[:m, :n] + np.conj(c[m:, n:])) / 2.0
    a2 = (c[:m, n:] - np.conj(c[m:, :n])) / 2.0
    return np.stack([a1.real, a1.imag, a2.real, a2.imag], axis=-1)


def columns(vectors: np.ndarray) -> np.ndarray:
    """Stack (m, n, 4) vectors as the columns of an (n, m, 4) matrix."""
    return np.swapaxes(vectors, 0, 1)


def extremes(chi_s: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a Hermitian chi(S)."""
    vals = np.linalg.eigvalsh((chi_s + chi_s.conj().T) / 2.0)
    return float(vals[0]), float(vals[-1])


def _range_projector(vectors: np.ndarray) -> np.ndarray:
    """chi of the orthogonal projection onto the right span of the
    (k, n, 4) vectors: the complex projection onto the range of chi."""
    q, _ = np.linalg.qr(chi(columns(vectors)))
    return q @ q.conj().T


def vector_frame_chi(members: np.ndarray) -> np.ndarray:
    """chi(S) for S = sum_i u_i <u_i|.|>, members of shape (m, n, 4)."""
    u = chi(columns(members))
    return u @ u.conj().T


def operator_frame_chi(members: list[np.ndarray]) -> np.ndarray:
    """chi(S) for S = sum_i T_i* T_i, members of shape (d_i, n, 4)."""
    a = chi(np.concatenate(members, axis=0))
    return a.conj().T @ a


def fusion_chi(subspaces: list[np.ndarray], weights: list[float]) -> np.ndarray:
    """chi(S) for S = sum_i v_i^2 P_{W_i}."""
    return sum(w * w * _range_projector(b) for w, b in zip(weights, subspaces))


def pseudo_chi(analyzers: np.ndarray, subspace: np.ndarray) -> np.ndarray:
    """chi of the frame operator of the analyzers restricted to the
    subspace, written in an orthonormal basis of it."""
    q, _ = np.linalg.qr(chi(columns(subspace)))
    x = chi(columns(analyzers))
    g = q.conj().T @ x
    return g @ g.conj().T


def pseudo_synthesizers(analyzers: np.ndarray, subspace: np.ndarray) -> np.ndarray:
    """Synthesizers y_a with sum_a y_a <x_a|x> = x on the subspace:
    y = pinv(P X X* P) P X, with P the projection onto the subspace."""
    p = _range_projector(subspace)
    x = chi(columns(analyzers))
    px = p @ x
    y = np.linalg.pinv(px @ px.conj().T, hermitian=True) @ px
    return columns(unchi(y))


def difference_norm(f: list[np.ndarray], r: list[np.ndarray]) -> float:
    """Operator norm of the stacked difference analysis operator, the
    constant mu that the stability fitters choose."""
    d = chi(np.concatenate([a - b for a, b in zip(f, r)], axis=0))
    return float(np.linalg.norm(d, 2))
