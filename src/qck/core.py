"""The standard complex structure in real coordinates, and conversions
between Hermitian and real symmetric forms.

Complex points live in interleaved real coordinates (x1, y1, ..., xn, yn) with
z^a = x_a + i y_a, so the standard complex structure acts blockwise by
(x, y) -> (-y, x) and stays a constant matrix in every chart of the flat space.
"""

from __future__ import annotations

import functools

import numpy as np

from .duals import MultiDual, weigh


@functools.cache
def j0_matrix(n: int) -> np.ndarray:
    """Standard complex structure on R^{2n}, blockwise (x, y) -> (-y, x):
    built once per n and read-only, as every caller shares it."""
    J = np.zeros((2 * n, 2 * n))
    for a in range(n):
        J[2 * a, 2 * a + 1] = -1.0
        J[2 * a + 1, 2 * a] = 1.0
    J.flags.writeable = False
    return J


@functools.lru_cache(maxsize=256)
def constant_structure(d: int, lead: tuple = ()):
    """J and its zero partials dJ of the constant structure of a chart of
    dimension d (zero where d is odd), as read-only broadcast views over the
    points axes ``lead``, one pair per (d, lead) that every caller shares."""
    J = j0_matrix(d // 2) if d % 2 == 0 else np.zeros((d, d))
    return (np.broadcast_to(J, lead + (d, d)),
            np.broadcast_to(0.0, lead + (d, d, d)))


def apply_j0(x):
    """Apply the standard complex structure along the first axis of a float
    array or of a MultiDual with component axes (``qck.duals``), e.g. to a
    vector or to every column of a matrix."""
    pairs, signs = _j0_pairs((x.c if isinstance(x, MultiDual) else x).shape[0])
    return weigh(signs, x[pairs])


@functools.cache
def _j0_pairs(size: int):
    """The index 2a + 1 for 2a and 2a for 2a + 1, and the sign -1 on the
    even entries that J0 takes: J0 x = signs * x[pairs]."""
    index = np.arange(size)
    return index ^ 1, np.where(index % 2, 1.0, -1.0)


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

