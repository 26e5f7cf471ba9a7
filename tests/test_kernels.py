"""The coordinate kernels against the forms they replaced.

``qch.basis_arrays`` and ``qch.bochner_arrays`` take each block of outer
products as one product with a table of weights, and
``tensors.fit_tensors`` takes one QR factorisation per point in place of
the Gram matrix, its condition and ``lstsq``.  Their references in
``tests/oracles.py`` are the stacked outer products and the ``lstsq`` fit.
The cases: random J-invariant metrics of both signatures under the standard
structure and under a conjugated one, d = 4, 6 and 8, and batches of 1 to
50 points.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck import qch
from qck.core import hermitian_to_real, j0_matrix
from qck.errors import DegenerateBasis
from qck.qch import _frame_basis, basis_arrays, bochner_arrays
from qck.tensors import COND_LIMIT, fit_tensors
from oracles import (basis_arrays_stacked, bochner_arrays_stacked,
                     fit_tensors_lstsq)
from test_layout import LAYOUTS
from test_tensor4 import curvature_like


def metric_points(n, signature, P, rng, conjugate):
    """G and J (P, d, d) with G J-invariant, and xi (P, d) with
    |g(xi, xi)| = 1.  G is Hermitian for the standard structure, of
    signature (2n - 2, 2) for "lorentz"; with ``conjugate`` both are
    carried by a random linear map of singular values in [0.5, 2], so J is
    no longer constant."""
    d = 2 * n
    G = np.empty((P, d, d))
    for p in range(P):
        Q = np.linalg.qr(rng.normal(size=(n, n))
                         + 1j * rng.normal(size=(n, n)))[0]
        lam = rng.uniform(0.5, 2.0, size=n)
        if signature == "lorentz":
            lam[-1] = -lam[-1]
        G[p] = hermitian_to_real((Q * lam) @ Q.conj().T)
    J = np.broadcast_to(j0_matrix(n), (P, d, d)).copy()
    if conjugate:
        Q1, Q2 = (np.linalg.qr(rng.normal(size=(P, d, d)))[0]
                  for _ in range(2))
        M = (Q1 * rng.uniform(0.5, 2.0, size=(P, 1, d))) @ Q2
        Minv = np.linalg.inv(M)
        G = Minv.swapaxes(1, 2) @ G @ Minv
        J = M @ J @ Minv
    xi = np.empty((P, d))
    for p in range(P):
        while True:
            v = rng.normal(size=d)
            sq = v @ G[p] @ v
            if abs(sq) > 0.1 * (v @ v):
                xi[p] = v / np.sqrt(abs(sq))
                break
    return G, J, xi


cases = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]),
                  st.sampled_from(["definite", "lorentz"]),
                  st.integers(1, 50), st.booleans())


def scale(T):
    return max(1.0, float(np.max(np.abs(T))))


class TestBasisAndBochner:
    @given(cases)
    @settings(max_examples=30, deadline=None)
    def test_basis_matches_the_stacked_products(self, case):
        seed, n, signature, P, conjugate = case
        G, J, xi = metric_points(n, signature, P, np.random.default_rng(seed),
                                 conjugate)
        B, gates = basis_arrays(G, J, xi)
        assert not gates[0][0].any()
        want = basis_arrays_stacked(G, J, xi)
        assert np.max(np.abs(B - want)) <= 1e-13 * scale(want)

    @given(cases)
    @settings(max_examples=30, deadline=None)
    def test_bochner_matches_the_stacked_products(self, case):
        seed, n, signature, P, conjugate = case
        rng = np.random.default_rng(seed)
        G, J, xi = metric_points(n, signature, P, rng, conjugate)
        # a combination of the basis and a curvature-like tensor, Kahler
        # or not: the operator is linear in T either way
        T = (np.einsum("pm,pm...->p...", rng.normal(size=(P, 3)),
                       basis_arrays(G, J, xi)[0])
             + rng.normal() * curvature_like(2 * n, seed % 1000))
        want = bochner_arrays_stacked(T, G, J)
        assert np.max(np.abs(bochner_arrays(T, G, J) - want)) <= (
            1e-13 * scale(want))

    def test_bochner_of_a_jet_is_the_stacked_products_to_the_bit(self):
        # on equal inputs the weight tables sum the same terms in the same
        # order as the stacked products
        rng = np.random.default_rng(5)
        for n, signature in itertools.product((2, 3, 4),
                                              ("definite", "lorentz")):
            G, J, _ = metric_points(n, signature, 7, rng, False)
            T = rng.normal(size=(7,) + (2 * n,) * 4)
            assert np.array_equal(bochner_arrays(T, G, J),
                                  bochner_arrays_stacked(T, G, J))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_frame_basis_keeps_its_values_and_pseudo_inverse(self, n,
                                                             monkeypatch):
        # every sign pattern of the frame rows, each pair (f, J f) alike as
        # in ``adapted_frames``; at n = 2 every pattern of the four rows
        d = 2 * n
        patterns = (itertools.product((1.0, -1.0), repeat=d) if n == 2 else
                    (tuple(np.repeat(s, 2)) for s in
                     itertools.product((1.0, -1.0), repeat=n)))
        monkeypatch.setattr(qch, "_FRAME_BASES", {})
        for signs in patterns:
            signs = tuple(float(s) for s in signs)
            B, pinv = _frame_basis(signs)
            want = basis_arrays_stacked(np.diag(signs)[None],
                                        j0_matrix(n)[None],
                                        np.eye(d)[None, 0])[0].reshape(3, -1)
            assert np.array_equal(B, want)
            assert np.linalg.pinv(want).tobytes() == pinv.tobytes()
            qch._FRAME_BASES.clear()

    @pytest.mark.parametrize("signature", ["definite", "lorentz"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_basis_rows_do_not_depend_on_the_batch_or_layout(self, n,
                                                               signature):
        G, J, xi = metric_points(n, signature, 6, np.random.default_rng(n),
                                 True)
        B = basis_arrays(G, J, xi)[0]
        for p in range(6):
            one = basis_arrays(G[p:p + 1], J[p:p + 1], xi[p:p + 1])[0]
            assert np.array_equal(B[p], one[0])
        for to in LAYOUTS.values():
            assert np.array_equal(basis_arrays(to(G), to(J), to(xi))[0], B)


def conditioned_basis(rng, P, N, cond):
    """Bases (P, 3, N) whose Gram matrices have the conditions ``cond``
    (P,): singular values 1, one in between and 1 / sqrt(cond), under random
    orthogonal maps and a random overall scale."""
    cond = np.asarray(cond, dtype=float)
    U = np.linalg.qr(rng.normal(size=(P, N, 3)))[0]
    V = np.linalg.qr(rng.normal(size=(P, 3, 3)))[0]
    s = np.stack([np.ones(P), cond ** -rng.uniform(0.0, 0.5, size=P),
                  cond ** -0.5], axis=1)
    s *= 10.0 ** rng.uniform(-2.0, 2.0, size=(P, 1))
    return ((U * s[:, None, :]) @ V).swapaxes(1, 2)


def rows(targets, basis):
    """The rows that ``fit_tensors`` takes: each basis, then its target."""
    return np.concatenate((basis, targets[:, None]), axis=1)


class TestFit:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([4, 6, 8]),
           st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_matches_lstsq(self, seed, d, P):
        # bases with Gram conditions up to 1e8, targets in their span plus
        # noise of 1e-12 to 1 of their size.  The coefficients agree to
        # 1e-12 relative, or to what the least-squares problem itself
        # allows two backward-stable solvers: eps (k + k^2 residual) for a
        # basis of condition k, with a factor 64 over the largest ratio seen
        rng = np.random.default_rng(seed)
        N = d ** 4
        basis = conditioned_basis(rng, P, N, 10.0 ** rng.uniform(0, 8, P))
        t = np.einsum("pm,pmn->pn", rng.normal(size=(P, 3)), basis)
        t += (rng.normal(size=(P, N)) * 10.0 ** rng.uniform(-12, 0, (P, 1))
              * np.linalg.norm(t, axis=1, keepdims=True) / np.sqrt(N))
        coeffs, residual, gates = fit_tensors(rows(t, basis))
        want, want_residual, cond, bad = fit_tensors_lstsq(t, basis)
        assert not bad.any() and not gates[0][0].any()
        assert np.all(cond < 1e8)
        err = np.max(np.abs(coeffs - want), axis=1) / np.max(np.abs(want),
                                                             axis=1)
        k = np.sqrt(cond)
        eps = np.finfo(float).eps
        assert np.all(err <= np.maximum(
            1e-12, 64.0 * eps * (k + k * k * want_residual)))
        # the residual is a misfit relative to |t| already
        assert np.max(np.abs(residual - want_residual)) <= 1e-12

    def test_rank_deficient_bases_fail_alike(self):
        # the cases of ``test_tensor4``: b against (b, 2 b), and beside it a
        # full basis, in one batch
        b = curvature_like(4, 30).ravel()
        full = np.stack([curvature_like(4, s).ravel() for s in (10, 11)])
        basis = np.stack([np.stack([b, 2.0 * b]), full])
        t = np.stack([b, full[0] - full[1]])
        coeffs, residual, gates = fit_tensors(rows(t, basis))
        *_, bad = fit_tensors_lstsq(t, basis)
        assert gates[0][0].tolist() == bad.tolist() == [True, False]
        assert np.isnan(coeffs[0]).all() and np.isnan(residual[0])
        assert np.allclose(coeffs[1], [1.0, -1.0], atol=1e-12)
        assert isinstance(gates[0][1](0), DegenerateBasis)

    @pytest.mark.parametrize("d", [4, 6, 8])
    def test_gate_at_the_limit(self, d):
        # Gram conditions 1e-3 either side of COND_LIMIT land on the side of
        # their construction.  The triangle's singular values give the
        # condition to 1e-9; the Gram matrix formed over d^4 entries gives
        # it to about 1e-3 at d = 8, so the oracle is held to the same
        # decisions only 10 % either side of the limit
        rng = np.random.default_rng(d)
        for margin, oracle in ((1e-3, False), (1e-1, True)):
            cond = COND_LIMIT * np.array([1.0 - margin, 1.0 + margin] * 4)
            basis = conditioned_basis(rng, len(cond), d ** 4, cond)
            t = rng.normal(size=(len(cond), d ** 4))
            bad, error = fit_tensors(rows(t, basis))[2][0]
            assert bad.tolist() == [False, True] * 4
            assert "exceeds" in str(error(1))
            if oracle:
                assert fit_tensors_lstsq(t, basis)[3].tolist() == bad.tolist()

    def test_rows_do_not_depend_on_the_batch_or_layout(self):
        rng = np.random.default_rng(3)
        basis = conditioned_basis(rng, 9, 6 ** 4, 10.0 ** rng.uniform(0, 6, 9))
        t = rng.normal(size=(9, 6 ** 4))
        whole = fit_tensors(rows(t, basis))[:2]
        for p in range(9):
            one = fit_tensors(rows(t[p:p + 1], basis[p:p + 1]))[:2]
            assert all(np.array_equal(a[p], b[0]) for a, b in zip(whole, one))
        for to in LAYOUTS.values():
            got = fit_tensors(to(rows(t, basis)))[:2]
            assert all(np.array_equal(a, b) for a, b in zip(got, whole))

