"""Dense rank-4 covariant tensors at a point, plus least-squares fitting
against a small tensor basis.

Dimension stays small (2n <= 8 here), so everything is stored densely and
contracted with einsum; no sparsity or index symmetry compression is worth
its complexity at this scale.  The array functions take any leading axes,
one tensor per point of a batch; ``Tensor4`` and ``tensor4_fit`` are their
one-point forms.  The fit solves in coordinates, where the basis Gram matrix
scales with the metric; ``qch.frame_fit`` fits in an orthonormal frame
instead, and this fit stays as its oracle and for the Bochner benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, raise_first

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
        return float(tensor_scale(self.a))

    def curvature_symmetry_defect(self) -> float:
        """Max violation of the algebraic curvature identities (absolute)."""
        return float(curvature_symmetry_defect(self.a))

    def first_bianchi_defect(self) -> float:
        return float(first_bianchi_defect(self.a))

    def __add__(self, other):
        return Tensor4(self.a + other.a)

    def __sub__(self, other):
        return Tensor4(self.a - other.a)

    def __mul__(self, s: float):
        return Tensor4(self.a * float(s))

    __rmul__ = __mul__


_AXES = (-4, -3, -2, -1)


def tensor_scale(R):
    """Largest component of each tensor."""
    return np.maximum(np.max(R, axis=_AXES), -np.min(R, axis=_AXES))


def curvature_symmetry_defect(R):
    """Max violation of the algebraic curvature identities (absolute) of
    each tensor: one buffer takes the defect of each identity in turn."""
    buf = np.add(R, np.swapaxes(R, -4, -3))
    defect = np.max(np.abs(buf, out=buf), axis=_AXES)
    np.add(R, np.swapaxes(R, -2, -1), out=buf)
    defect = np.maximum(defect, np.max(np.abs(buf, out=buf), axis=_AXES))
    np.subtract(R, np.swapaxes(np.swapaxes(R, -4, -2), -3, -1), out=buf)
    return np.maximum(defect, np.max(np.abs(buf, out=buf), axis=_AXES))


def first_bianchi_defect(R):
    """Max violation of the first Bianchi identity (absolute) of each
    tensor: the cyclic sum over its first three indices."""
    cyc = R + np.moveaxis(R, -4, -2) + np.moveaxis(R, -2, -4)
    return np.max(np.abs(cyc), axis=_AXES)


def fit_tensors(targets, basis):
    """Least-squares fits of targets (P, N) in the span of the rows of each
    basis (P, m, N), the tensors flattened: (coeffs (P, m), residual (P,),
    gates).

    The residual is the Frobenius misfit relative to max(1, |target|).  The
    gate is the basis Gram matrix's condition: a numerically rank-deficient
    basis fails with ``DegenerateBasis``, and its row carries nan rather
    than meaningless coefficients.
    """
    cond = np.linalg.cond(np.einsum("pmn,pqn->pmq", basis, basis))
    bad = ~np.isfinite(cond) | (cond > COND_LIMIT)
    coeffs = np.full(basis.shape[:2], np.nan)
    residual = np.full(len(targets), np.nan)
    for p in np.flatnonzero(~bad):
        B, t = basis[p], targets[p]
        coeffs[p] = np.linalg.lstsq(B.T, t, rcond=None)[0]
        misfit = t - coeffs[p] @ B
        residual[p] = math.sqrt((misfit @ misfit) / max(1.0, t @ t))
    return coeffs, residual, [(bad, lambda j: DegenerateBasis(
        f"basis Gram matrix condition {cond[j]:.3e} exceeds {COND_LIMIT:.1e}"))]


def tensor4_fit(target: Tensor4, basis: list[Tensor4]):
    """Least-squares coefficients fitting ``target`` in span(basis): the
    one-point case of ``fit_tensors``, raising ``DegenerateBasis`` rather
    than returning meaningless coefficients."""
    coeffs, residual, gates = fit_tensors(
        target.a.reshape(1, -1), np.stack([b.a.reshape(-1) for b in basis])[None])
    raise_first(gates)
    return coeffs[0], float(residual[0])
