"""Dense rank-4 covariant tensors at a point, plus least-squares fitting
against a small tensor basis.

Dimension stays small (2n <= 8 here), so everything is stored densely and
contracted with einsum; no sparsity or index symmetry compression is worth
its complexity at this scale.  The array functions take any leading axes,
one tensor per point of a batch; ``Tensor4`` and ``tensor4_fit`` are their
one-point forms.  The fit solves in coordinates, by one QR factorisation
of the basis and the target per point, without forming the basis Gram
matrix, whose condition it gates on and which scales with the metric there;
``qch.frame_fit`` fits in an orthonormal frame instead, and this fit stays
as its oracle and for the Bochner benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBasis, raise_first

# largest condition number of the basis Gram matrix that ``fit_tensors`` solves
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
    return np.maximum(R.max(axis=_AXES), -R.min(axis=_AXES))


def curvature_symmetry_defect(R):
    """Max violation of the algebraic curvature identities (absolute) of
    each tensor: the (i, j) antisymmetry and the two identities of
    ``pair_symmetry_defect``."""
    buf = np.add(R, np.swapaxes(R, -4, -3))
    return np.maximum(np.abs(buf, out=buf).max(axis=_AXES),
                      pair_symmetry_defect(R))


def pair_symmetry_defect(R):
    """Max violation (absolute) of the (k, l) antisymmetry and the pair
    symmetry of each tensor: one buffer takes the defect of each identity
    in turn."""
    buf = np.add(R, np.swapaxes(R, -2, -1))
    defect = np.abs(buf, out=buf).max(axis=_AXES)
    np.subtract(R, np.swapaxes(np.swapaxes(R, -4, -2), -3, -1), out=buf)
    return np.maximum(defect, np.abs(buf, out=buf).max(axis=_AXES))


def first_bianchi_defect(R):
    """Max violation of the first Bianchi identity (absolute) of each
    tensor: the cyclic sum over its first three indices."""
    cyc = R + np.moveaxis(R, -4, -2) + np.moveaxis(R, -2, -4)
    return np.abs(cyc, out=cyc).max(axis=_AXES)


def fit_tensors(A):
    """Least-squares fits at each point of the last row of A (P, m + 1, N),
    the target, in the span of the m rows before it, the basis, the tensors
    flattened: (coeffs (P, m), residual (P,), gates).

    One Householder QR of [basis^T | target] per point, the transpose of A,
    gives the triangle R (m + 1, m + 1).  Its leading m x m block is the R
    factor of basis^T, so the coefficients solve that block against the
    last column z.  |R[m, m]| is the norm of the misfit and |z| that of the
    target, and the residual is the misfit relative to max(1, |target|).
    The gate is the condition of the basis Gram matrix, (s_max / s_min)^2
    of the block's singular values, with no Gram matrix formed: a
    numerically rank-deficient basis fails with ``DegenerateBasis``, and its
    row carries nan rather than meaningless coefficients.  Each point is its
    own factorisation, so a row's fit does not depend on the batch around
    it.  The transpose is a view, whose matrices are in the column order
    that LAPACK reads.
    """
    m = A.shape[1] - 1
    R = np.linalg.qr(A.swapaxes(1, 2), mode="r")
    Rb, z = R[:, :m, :m], R[:, :, m]
    s = np.linalg.svd(Rb, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = (s[:, 0] / s[:, -1]) ** 2
    bad = ~(cond <= COND_LIMIT)
    # a rejected row solves the identity in place of its triangle
    coeffs = np.linalg.solve(np.where(bad[:, None, None], np.eye(m), Rb),
                             z[:, :m, None])[:, :, 0]
    residual = np.abs(z[:, m]) / np.sqrt(
        np.maximum(1.0, np.einsum("pi,pi->p", z, z)))
    coeffs[bad] = residual[bad] = np.nan
    return coeffs, residual, [(bad, lambda j: DegenerateBasis(
        f"basis Gram matrix condition {cond[j]:.3e} exceeds {COND_LIMIT:.1e}"))]


def tensor4_fit(target: Tensor4, basis: list[Tensor4]):
    """Least-squares coefficients fitting ``target`` in span(basis): the
    one-point case of ``fit_tensors``, raising ``DegenerateBasis`` rather
    than returning meaningless coefficients."""
    coeffs, residual, gates = fit_tensors(
        np.stack([t.a.reshape(-1) for t in [*basis, target]])[None])
    raise_first(gates)
    return coeffs[0], float(residual[0])
