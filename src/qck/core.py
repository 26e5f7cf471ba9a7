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

