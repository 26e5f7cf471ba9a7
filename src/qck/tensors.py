"""Dense rank-4 covariant tensors at a point, plus least-squares fitting
against a small tensor basis.

Dimension stays small (2n <= 8 here), so everything is stored densely and
contracted with einsum; no sparsity or index symmetry compression is worth
its complexity at this scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis

# largest condition number of the basis Gram matrix that ``tensor4_fit`` solves
COND_LIMIT = 1e12


@dataclass
class Tensor4:
    """Covariant 4-tensor as a dense (d, d, d, d) array."""

    a: np.ndarray

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        if self.a.ndim != 4 or len(set(self.a.shape)) != 1:
            raise ValueError("Tensor4 expects a (d, d, d, d) array")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def scale(self) -> float:
        return float(np.max(np.abs(self.a)))

    def curvature_symmetry_defect(self) -> float:
        """Max violation of the algebraic curvature identities (absolute)."""
        R = self.a
        d1 = np.max(np.abs(R + np.swapaxes(R, 0, 1)))
        d2 = np.max(np.abs(R + np.swapaxes(R, 2, 3)))
        d3 = np.max(np.abs(R - np.transpose(R, (2, 3, 0, 1))))
        return float(max(d1, d2, d3))

    def first_bianchi_defect(self) -> float:
        R = self.a
        cyc = R + np.transpose(R, (1, 2, 0, 3)) + np.transpose(R, (2, 0, 1, 3))
        return float(np.max(np.abs(cyc)))

    def __add__(self, other):
        return Tensor4(self.a + other.a)

    def __sub__(self, other):
        return Tensor4(self.a - other.a)

    def __mul__(self, s: float):
        return Tensor4(self.a * float(s))

    __rmul__ = __mul__


def tensor4_fit(target: Tensor4, basis: list[Tensor4]):
    """Least-squares coefficients fitting ``target`` in span(basis).

    Returns (coeffs, residual) with residual the Frobenius misfit relative to
    max(1, |target|).  A numerically rank-deficient basis raises
    ``DegenerateBasis`` rather than returning meaningless coefficients.
    """
    tv = target.a.ravel()
    M = np.column_stack([b.a.ravel() for b in basis])
    gram = M.T @ M
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise DegenerateBasis(f"basis Gram matrix condition {cond:.3e} exceeds {COND_LIMIT:.1e}")
    coeffs, *_ = np.linalg.lstsq(M, tv, rcond=None)
    misfit = np.linalg.norm(tv - M @ coeffs)
    residual = float(misfit / max(1.0, np.linalg.norm(tv)))
    return coeffs, residual
