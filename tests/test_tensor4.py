import numpy as np
import pytest

from qck.errors import DegenerateBasis
from qck.tensors import Tensor4, tensor4_fit


def curvature_like(d, seed):
    """Random tensor with the algebraic curvature symmetries."""
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(d, d, d, d))
    # antisymmetrize in the first and last pairs, then symmetrize pair swap
    S = S - S.transpose(1, 0, 2, 3)
    S = S - S.transpose(0, 1, 3, 2)
    S = S + S.transpose(2, 3, 0, 1)
    return S


class TestSymmetryChecks:
    def test_defect_zero_on_curvature_like(self):
        T = Tensor4(curvature_like(4, 0))
        assert T.curvature_symmetry_defect() < 1e-14

    def test_defect_positive_on_generic(self):
        rng = np.random.default_rng(1)
        T = Tensor4(rng.normal(size=(4, 4, 4, 4)))
        assert T.curvature_symmetry_defect() > 0.1

    def test_first_bianchi_on_metric_tensor(self):
        # pi built from a metric g satisfies the first Bianchi identity
        g = np.diag([1.0, 2.0, 3.0, 4.0])
        pi = np.einsum("jk,il->ijkl", g, g) - np.einsum("ik,jl->ijkl", g, g)
        T = Tensor4(pi)
        assert T.first_bianchi_defect() < 1e-14


class TestArithmetic:
    def test_add_scale(self):
        A = Tensor4(np.ones((2, 2, 2, 2)))
        B = Tensor4(2 * np.ones((2, 2, 2, 2)))
        C = A + B
        assert np.allclose(C.a, 3.0)
        D = A * -0.5
        assert np.allclose(D.a, -0.5)
        E = A - B
        assert np.allclose(E.a, -1.0)

    def test_norm_and_scale(self):
        A = Tensor4(np.ones((2, 2, 2, 2)))
        assert A.norm() == pytest.approx(4.0)
        assert (A * 3.0).scale() == pytest.approx(3.0)


class TestFit:
    def test_exact_recovery(self):
        rng = np.random.default_rng(3)
        basis = [Tensor4(curvature_like(4, s)) for s in (10, 11, 12)]
        want = np.array([0.7, -1.3, 0.2])
        target = Tensor4(sum((b.a * c for b, c in zip(basis, want)), np.zeros((4, 4, 4, 4))))
        got, residual = tensor4_fit(target, basis)
        assert np.allclose(got, want, atol=1e-10)
        assert residual < 1e-12

    def test_residual_reported(self):
        rng = np.random.default_rng(4)
        basis = [Tensor4(curvature_like(4, s)) for s in (20, 21)]
        target = Tensor4(rng.normal(size=(4, 4, 4, 4)))
        _, residual = tensor4_fit(target, basis)
        assert residual > 0.1

    def test_degenerate_basis_detected(self):
        b = Tensor4(curvature_like(4, 30))
        with pytest.raises(DegenerateBasis):
            tensor4_fit(b, [b, b * 2.0])

    def test_zero_target(self):
        basis = [Tensor4(curvature_like(4, 40))]
        coeffs, residual = tensor4_fit(Tensor4(np.zeros((4, 4, 4, 4))), basis)
        assert abs(coeffs[0]) < 1e-12
        assert residual < 1e-12
