"""Real coordinates for complex points, the standard complex structure, and
conversions between Hermitian and real symmetric forms.

Complex points live in interleaved real coordinates (x1, y1, ..., xn, yn) with
z^a = x_a + i y_a, so the standard complex structure acts blockwise by
(x, y) -> (-y, x) and stays a constant matrix in every chart of the flat space.
"""

from __future__ import annotations

import numpy as np


def complex_to_real(z) -> np.ndarray:
    """Interleave complex coordinates into (x1, y1, ..., xn, yn)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(2 * z.size)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def j0_matrix(n: int) -> np.ndarray:
    """Standard complex structure on R^{2n}, blockwise (x, y) -> (-y, x)."""
    J = np.zeros((2 * n, 2 * n))
    for a in range(n):
        J[2 * a, 2 * a + 1] = -1.0
        J[2 * a + 1, 2 * a] = 1.0
    return J


def apply_j0(x):
    """Apply the standard complex structure to a vector of generic scalars."""
    out = list(x)
    for a in range(len(out) // 2):
        out[2 * a], out[2 * a + 1] = -x[2 * a + 1], x[2 * a]
    return np.array(out) if isinstance(x, np.ndarray) else out


def hermitian_to_real(H) -> np.ndarray:
    """Real symmetric form of a Hermitian matrix.

    The convention is G(X, Y) = 2 Re(H_ab X^a conj(Y^b)) on real tangent
    vectors, so diag(1/2, ..., 1/2) maps to the identity.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    G = np.empty((2 * n, 2 * n))
    for a in range(n):
        for b in range(n):
            re, im = H[a, b].real, H[a, b].imag
            G[2 * a, 2 * b] = 2 * re
            G[2 * a + 1, 2 * b + 1] = 2 * re
            G[2 * a, 2 * b + 1] = 2 * im
            G[2 * a + 1, 2 * b] = -2 * im
    return G


def adapted_complex_frame(J: np.ndarray):
    """Holomorphic frame rows V and coefficient matrix A adapted to a complex
    structure J (a real matrix with J @ J = -I).

    For J equal to ``j0_matrix`` this reduces to the coordinate frame of
    ``dz_basis`` and ``holomorphic_coefficients``, which live in
    ``tests/oracles.py``.  Returns (V, A) with V of shape (n, 2n) and
    A of shape (2n, n); the (1,0)-part of a real vector x has coefficients
    (A.T @ x) in the frame spanned by the rows of V.
    """
    d = J.shape[0]
    n = d // 2
    if np.max(np.abs(J @ J + np.eye(d))) > 1e-9:
        raise ValueError("J does not square to -identity")
    cols: list[np.ndarray] = []
    while len(cols) < d:
        span = np.column_stack(cols) if cols else np.zeros((d, 0))
        Q = np.linalg.qr(span, mode="reduced")[0] if cols else np.zeros((d, 0))
        best, best_res = None, 0.0
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            res = np.linalg.norm(e - Q @ (Q.T @ e))
            if res > best_res:
                best, best_res = e, res
        # keep the partner column exactly J @ v so coefficient extraction
        # below stays exact
        cols.extend([best, J @ best])
    W = np.column_stack(cols)
    Winv = np.linalg.inv(W)
    V = np.zeros((n, d), dtype=complex)
    A = np.zeros((d, n), dtype=complex)
    for k in range(n):
        u = W[:, 2 * k]
        V[k] = (u - 1j * (J @ u)) / 2.0
        A[:, k] = Winv[2 * k] + 1j * Winv[2 * k + 1]
    return V, A
