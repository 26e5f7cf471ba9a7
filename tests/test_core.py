import numpy as np
import pytest

from qck.core import (
    apply_j0,
    hermitian_to_real,
    j0_matrix,
)
from oracles import (adapted_complex_frame, complex_to_real, dz_basis,
                     holomorphic_coefficients, real_to_complex)


def test_complex_real_roundtrip():
    z = np.array([1 + 2j, -3j, 0.5])
    x = complex_to_real(z)
    assert x.tolist() == [1.0, 2.0, 0.0, -3.0, 0.5, 0.0]
    assert np.allclose(real_to_complex(x), z)


def test_j0_squares_to_minus_identity():
    for n in (2, 3, 4):
        J = j0_matrix(n)
        assert np.allclose(J @ J, -np.eye(2 * n))


def test_j0_is_built_once_and_read_only():
    assert j0_matrix(3) is j0_matrix(3)
    with pytest.raises(ValueError, match="read-only"):
        j0_matrix(3)[0, 1] = 2.0


def test_apply_j0_is_multiplication_by_i():
    z = np.array([2 - 1j, 0.25 + 3j])
    x = complex_to_real(z)
    assert np.allclose(real_to_complex(np.asarray(apply_j0(x))), 1j * z)


def test_apply_j0_generic_list():
    out = apply_j0([1.0, 2.0, 3.0, 4.0])
    assert out == [-2.0, 1.0, -4.0, 3.0]


def test_hermitian_to_real_flat_lorentz():
    H = np.diag([0.5, 0.5, -0.5]).astype(complex)
    G = hermitian_to_real(H)
    assert np.allclose(G, np.diag([1.0, 1.0, 1.0, 1.0, -1.0, -1.0]))


def test_hermitian_to_real_general():
    # off-diagonal Hermitian entries produce the paired real blocks
    H = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, 2.0]], dtype=complex)
    G = hermitian_to_real(H)
    assert np.allclose(G, G.T)
    # compare against 2 Re(H_ab z^a conj(w^b)) on random complex vectors
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        w = rng.normal(size=2) + 1j * rng.normal(size=2)
        want = 2 * np.real(z @ H @ np.conj(w))
        got = complex_to_real(z) @ G @ complex_to_real(w)
        assert got == pytest.approx(want, rel=1e-12)


def test_dz_basis_action():
    # dz(v) for v = d/dx should be 1/2, for v = d/dy should be -i/2
    D = dz_basis(2)
    ex = np.array([1.0, 0, 0, 0])
    ey = np.array([0, 1.0, 0, 0])
    assert D[0] @ ex == pytest.approx(0.5)
    assert D[0] @ ey == pytest.approx(-0.5j)
    assert D[1] @ ex == 0


def test_holomorphic_coefficients_invert_dz():
    # A maps holomorphic components back to real vectors: dz_a(A e_b) = delta
    n = 3
    D = dz_basis(n)
    A = holomorphic_coefficients(n)
    assert np.allclose(D @ A, np.eye(n))


class TestAdaptedComplexFrame:
    def rand_structure(self, n, seed):
        # conjugate the standard structure by a random invertible matrix
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(2 * n, 2 * n))
        while abs(np.linalg.det(S)) < 1e-3:
            S = rng.normal(size=(2 * n, 2 * n))
        J0 = j0_matrix(n)
        return S @ J0 @ np.linalg.inv(S)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_standard_structure(self, n):
        J0 = j0_matrix(n)
        V, A = adapted_complex_frame(J0)
        for k in range(n):
            assert np.allclose(J0 @ V[k], 1j * V[k], atol=1e-12)
        # components of a real vector x satisfy x = 2 Re(sum z_a V_a)
        rng = np.random.default_rng(1)
        x = rng.normal(size=2 * n)
        z = A.T @ x
        recon = 2 * np.real(z @ V)
        assert np.allclose(recon, x, atol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_conjugated_structure(self, seed):
        n = 3
        J = self.rand_structure(n, seed)
        V, A = adapted_complex_frame(J)
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=2 * n)
        z = A.T @ x
        recon = 2 * np.real(z @ V)
        assert np.allclose(recon, x, atol=1e-8)
        # each frame vector is of type (1,0): J v = i v
        for k in range(n):
            assert np.allclose(J @ V[k], 1j * V[k], atol=1e-8)
