"""Radial shape data, structural curvature bases, and the quasi-constant
decomposition R = a*pi + b*phi + c*psi.

The basis tensors are algebraic combinations of the metric, the fundamental
2-form and the radial frame covectors.  A curvature tensor is decomposed
against {pi, phi, psi} by least squares; the fit residual is the falsifiable
measure of whether the metric actually has quasi-constant holomorphic
sectional curvatures, and the sign of a + k^2 classifies it.  The shape data
(k, p*) come from the covariant derivative of the radial unit field, whose
values and partials at each point ``ambient.radial_unit_jets`` reads off
the metric's jet, so nothing here evaluates a metric.

Both run in one J-adapted G-orthonormal frame per point
(``adapted_frames``): rows xi, J xi, u_1, J u_1, ....  There G, J and xi
have constant components, so pi, phi and psi are constants for each n and
signature, built once with their pseudo-inverse; a fit (``frame_fit``) is R
carried into the frame and one matrix product.  k is averaged over the
frame's complement rows.  ``basis_arrays`` and ``build_basis_tensors`` build
the tensors in coordinates, where ``tensors.tensor4_fit`` fits them by one
QR factorisation; that path is the oracle of the frame fit.  In coordinates
every term of pi, phi and psi is a weighted outer product of two of the
matrices g, the fundamental 2-form and two of the radial covectors, so the
tensors are two matrix products per point with constant tables of weights
(``_weighted_products``).

``decompose_points`` is the one entry point for many sample points of
potential metrics: it runs the jet, connection, curvature, unit field,
frame, shape data and fit over a points axis, as many points per pass as
``PASS_COMPONENTS`` allows, and gives each point the error its gates name
there.  The potential may differ from row to row: a family enters a pass
only through its domain and its derivatives f', ..., f'''' at the rows'
square norms, so the rows of several families share one pass.  It returns
one ``DecompositionRecord`` of arrays over the rows: the values that its
readers take of a row, each taken inside the pass, and no jet or
curvature tensor, so that the record of many passes is their
concatenation.  The frame, shape data and fit kernels (``adapted_frames``,
``shape_arrays``, ``frame_fit``) take the points axis, and so do the
hypersphere reports of ``qck.sasakian``.

The Bochner operator lives here as well since its kernel test consumes the
same decomposition.  It is Tachibana's real form: the tensor less one
Kahler product K of a combination of its Ricci contraction and g, with no
complex frame, over a points axis (``bochner_arrays``), with
``bochner_of_tensor`` as its one-point form.  K is two products with weight
tables as well, and builds phi, from the radial projector.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .ambient import (AdmissibilityReport, AmbientSpace, PotentialFamily,
                      RadialFrame, _potential_rule, _radial_unit_jets,
                      potential_metric)
from .core import j0_matrix
from .curvature import (PointJet, covariant_derivative, curvature_gate,
                        curvature_invariants, curvature_tensors, gated_jets,
                        kahler_defect)
from .errors import (FrameError, QckError, ShapeUniformityError, Sieve,
                     raise_first)
from .tensors import Tensor4

ZERO_BAND = 1e-8
# largest component of a Bochner tensor that counts as zero
BOCHNER_FLAT_TOL = 1e-6
# largest spread of the normal curvature over the complement directions
SPREAD_GATE = 1e-6
# largest deviation of |g(xi, xi)| and |g(J xi, J xi)| from 1 in a basis frame
UNIT_TOL = 1e-8


# -- shape data of the radial distribution -------------------------------------


def _gdot(G, u, v):
    """g(u, v) at each point of G (P, d, d), for the vectors on the last
    axis of u and v (P, ..., d)."""
    return np.einsum("p...i,pij,p...j->p...", u, G, v)


def adapted_frames(G, J, xi):
    """J-adapted G-orthonormal frames at each point: (F, signs, gates).

    F (P, d, d) has the rows xi, J xi, u_1, J u_1, ..., u_{n-1}, J u_{n-1},
    and signs (P, d) holds g(f, f) of each row, 0 on a row left empty.  In
    such a frame G has the components diag(signs), J those of
    ``core.j0_matrix`` and xi those of the first basis vector, so the
    structural tensors are constants there.

    The u come from Gram-Schmidt over the coordinate directions in order,
    each direction projected off the rows so far twice and normalised by
    sqrt|g(w, w)|; a direction with |g(w, w)| below 1e-10 of the largest
    |G| component of its point is skipped, so that the test means the same
    at every scale of the metric.  J u needs no projection: g is J-invariant
    and so is the span of the rows so far.  The signed normalisers complete
    the frame where the complement of (xi, J xi) is indefinite.  A
    direction that no point takes costs no step, as J e_i past e_i does
    under a constant J, and the pairs are reordered only where some point
    skipped a direction that others took.

    The gates: |g(xi, xi)| and |g(J xi, J xi)| within ``UNIT_TOL`` of 1
    (either sign of the square norm is accepted so the flat indefinite form
    can be probed too), and a complete frame.  The inputs are taken as
    contiguous copies, so that a point's frame does not depend on their
    memory layout.
    """
    G, J, xi = (np.ascontiguousarray(a) for a in (G, J, xi))
    P, d = xi.shape
    F = np.zeros((P, d, d))
    F[:, 0] = xi
    F[:, 1] = (J @ xi[:, :, None])[:, :, 0]
    GF = F[:, :2] @ G  # g(f, .) of xi and J xi
    sq = np.sum(GF * F[:, :2], axis=2)
    unit = (np.any(np.abs(np.abs(sq) - 1.0) > UNIT_TOL, axis=1),
            lambda j: FrameError(
                f"frame is not unit in the supplied metric: "
                f"g(xi,xi)={sq[j, 0]:.6g}, g(Jxi,Jxi)={sq[j, 1]:.6g}"))
    signs = np.zeros((P, d))
    signs[:, :2] = np.where(sq < 0.0, -1.0, 1.0)
    # the g-orthogonal projector onto the span of the rows so far
    Q = (F[:, :2].swapaxes(1, 2) * signs[:, None, :2]) @ GF
    count = np.full(P, 2)
    # the least |g(w, w)| of a direction taken, relative to the point's scale
    floor = 1e-10 * np.abs(G).max(axis=(1, 2))
    pairs, pair_signs = [], []
    for i in range(d):
        if np.all(count == d):
            break
        # e_i less its components along the rows so far, twice over
        w = -Q[:, :, i]
        w[:, i] += 1.0
        w = w - (Q @ w[:, :, None])[:, :, 0]
        nrm2 = np.sum(w * (G @ w[:, :, None])[:, :, 0], axis=1)
        take = (np.abs(nrm2) >= floor) & (count < d)
        if not take.any():
            continue
        sign = np.where(take, np.sign(nrm2), 0.0)
        scale = np.where(take, np.sqrt(np.abs(nrm2)), 1.0)
        # u and J u, zero where the point takes no row here
        U = np.stack([w, (J @ w[:, :, None])[:, :, 0]], axis=1) * (
            np.abs(sign) / scale)[:, None, None]
        Q += (U.swapaxes(1, 2) * sign[:, None, None]) @ (U @ G)
        pairs.append(U)
        pair_signs.append(sign)
        count += 2 * take
    if pairs:
        S = np.stack(pair_signs, axis=1)
        U = np.stack(pairs, axis=1)
        if not S.all():
            # each point's pairs in the order it took them, the empty ones last
            order = np.argsort(S == 0.0, axis=1, kind="stable")
            U = np.take_along_axis(U, order[:, :, None, None], axis=1)
            S = np.take_along_axis(S, order, axis=1)
        m = min(2 * len(pairs), d - 2)
        F[:, 2:2 + m] = U.reshape(P, -1, d)[:, :m]
        signs[:, 2:2 + m] = np.repeat(S, 2, axis=1)[:, :m]
    complete = (count != d, lambda j: FrameError(
        "could not complete a basis of the complement distribution"))
    return F, signs, [unit, complete]


def shape_arrays(jet: PointJet, F, signs, dxi):
    """Shape data of unit vector fields at the points of a jet with a points
    axis, from their J-adapted frames F (P, d, d) and square norms signs
    (``adapted_frames``), whose first row is the field xi, and the partials
    dxi (P, d, d) of xi: (k, p_star, sq, spread, model_defect, gates), each
    an array over the points, with sq = g(xi, xi).

    The sign of g(xi, xi) picks the "riemannian" or the "lorentz" sign
    conventions.  k is averaged over the complement rows of the frame; the
    per-direction spread is itself the test that the field has the required
    shape.  The gates, in order: g(xi, xi) = +-1 within ``UNIT_TOL``, the
    test of ``adapted_frames``; a complement distribution whose frame rows
    F[:, 2:] are all space-like; and a spread of the normal curvature
    within ``SPREAD_GATE``, past which ShapeUniformityError stands for an
    average of unlike things.  The arrays are taken as contiguous copies,
    as in ``adapted_frames``.
    """
    F, signs, dxi, G = (np.ascontiguousarray(a)
                        for a in (F, signs, dxi, jet.G))
    xi, jxi = F[:, 0], F[:, 1]
    D = covariant_derivative(jet, xi, dxi)
    d = xi.shape[1]
    sq = _gdot(G, xi, xi)
    sq_sign = np.where(sq < 0.0, -1.0, 1.0)
    unit = (np.abs(sq - sq_sign) > UNIT_TOL, lambda j: FrameError(
        f"field is not unit: g(xi, xi) = {sq[j]:.12g}"))
    complete = (np.any(signs[:, 2:] <= 0.0, axis=1), lambda j: FrameError(
        "could not complete a basis of the complement distribution"))
    # nabla_u xi for each complement row u; k along u is 2 g(u, nabla_u xi),
    # with the sign of g(xi, xi)
    basis = F[:, 2:]
    nab = np.einsum("psi,pim->psm", basis, D)
    k_dirs = 2.0 * sq_sign[:, None] * np.einsum("psi,pij,psj->ps", basis, G, nab)
    k = np.mean(k_dirs, axis=1)
    spread = np.max(np.abs(k_dirs - k[:, None]), axis=1)
    uniform = (spread > SPREAD_GATE, lambda j: ShapeUniformityError(
        f"normal curvature spread {spread[j]:.3e} exceeds {SPREAD_GATE:.1e}"))

    nab_j = np.einsum("pi,pim->pm", jxi, D)
    p_star = -_gdot(G, jxi, nab_j)

    eta = np.einsum("pij,pj->pi", G, xi)
    eta_t = np.einsum("pij,pj->pi", G, jxi)
    outer_t = eta_t[:, :, None] * jxi[:, None, :]
    radial = eta[:, :, None] * xi[:, None, :] + outer_t
    s3 = sq_sign[:, None, None]
    model = (0.5 * s3 * k[:, None, None] * (np.eye(d) - s3 * radial)
             - p_star[:, None, None] * outer_t)
    model_defect = np.max(np.abs(D - model), axis=(1, 2))
    return k, p_star, sq, spread, model_defect, [unit, complete, uniform]


# -- structural basis tensors ---------------------------------------------------


@dataclass(frozen=True)
class BasisTensors:
    pi: Tensor4
    phi: Tensor4
    psi: Tensor4

    def fit_basis(self):
        return [self.pi, self.phi, self.psi]


# Each term of pi, phi, psi and of the Kahler product K is a weighted outer
# product A_ab B_ce of two of four matrices L: (G, Om, P, W) in
# ``basis_arrays`` and (G, Om, S, JS) in ``bochner_arrays``.  A table of
# weights M (outputs, 4, 4) makes a block of terms the one product L^T M L
# per point.  Crossed terms enter as A_jk B_il - A_ik B_jl at [i, j, k, l],
# straight ones as A_ij B_kl; psi has no crossed term.
_BASIS_CROSSED = np.zeros((2, 4, 4))
_BASIS_CROSSED[0, [0, 1], [0, 1]] = 1.0 / 4.0  # pi: (G.G + Om.Om) / 4
# phi is the Kahler product of P over 8, since J^T P = W
_BASIS_CROSSED[1, [0, 1, 2, 3], [2, 3, 0, 1]] = 1.0 / 8.0
_BASIS_STRAIGHT = np.zeros((3, 4, 4))
_BASIS_STRAIGHT[0, 1, 1] = -1.0 / 2.0  # pi: -Om.Om / 2
_BASIS_STRAIGHT[1, [1, 3], [3, 1]] = -1.0 / 4.0  # phi: -(Om.W + W.Om) / 4
_BASIS_STRAIGHT[2, 3, 3] = -1.0  # psi: -W.W
# K: G.S + Om.JS + S.G + JS.Om crossed, and -2 (Om.JS + JS.Om) straight
_KAHLER_CROSSED = np.zeros((1, 4, 4))
_KAHLER_CROSSED[0, [0, 1, 2, 3], [2, 3, 0, 1]] = 1.0
_KAHLER_STRAIGHT = np.zeros((1, 4, 4))
_KAHLER_STRAIGHT[0, [1, 3], [3, 1]] = -2.0
for _weights in (_BASIS_CROSSED, _BASIS_STRAIGHT, _KAHLER_CROSSED,
                 _KAHLER_STRAIGHT):
    _weights.flags.writeable = False


def _weighted_products(L, crossed, straight):
    """The tensors (P, outputs, d, d, d, d) of the weight tables
    ``crossed`` (c, 4, 4) and ``straight`` (outputs, 4, 4) on the four
    matrices of each point, L (P, 4, d, d): the crossed block gives the
    leading c outputs their crossed terms, and the straight block gives
    every output its straight ones.

    The crossed block is antisymmetrised into the result, and the straight
    one is then added there from the buffer of the crossed one; its
    outputs past c are written in place.  So the result and one block of c
    outputs are all the tensors held at once.
    """
    P, _, d = L.shape[:3]
    c = len(crossed)
    L = L.reshape(P, 1, 4, d * d)
    Lt = L.swapaxes(2, 3)
    X = Lt @ (crossed @ L)
    # X[p, o, j, k, i, l] = A_jk B_il, i moved in front of j
    Y = X.reshape((P, c) + (d,) * 4).transpose(0, 1, 4, 2, 3, 5)
    out = np.empty((P, len(straight)) + (d,) * 4)
    np.subtract(Y, Y.swapaxes(2, 3), out=out[:, :c])
    out[:, :c] += np.matmul(Lt, straight[:c] @ L, out=X).reshape(Y.shape)
    if len(straight) > c:
        np.matmul(Lt, straight[c:] @ L,
                  out=out.reshape(P, -1, d * d, d * d)[:, c:])
    return out


def basis_arrays(G, J, xi):
    """The structural tensors at each point: (B, gates) with
    B[p] = (pi, phi, psi), (P, 3, d, d, d, d), built on the metric values
    G (P, d, d), the structure J and the unit vectors xi (P, d).

    Every term is a weighted outer product of two of the matrices G,
    Om = J^T G, P and W (``_weighted_products``).  The gate: |g(xi, xi)| and
    |g(J xi, J xi)| within ``UNIT_TOL`` of 1 (either sign of the square norm
    is accepted so the flat indefinite form can be probed too).  The inputs
    are taken as contiguous copies, as in ``adapted_frames``.
    """
    G, J, xi = (np.ascontiguousarray(a) for a in (G, J, xi))
    P, d = xi.shape
    V = np.empty((P, d, 2))  # the columns xi and J xi
    V[:, :, 0] = xi
    np.matmul(J, xi[:, :, None], out=V[:, :, 1:])
    ET = G @ V  # the covectors E = g(xi, .) and T = g(J xi, .)
    sq = np.einsum("pia,pia->pa", V, ET)
    unit = (np.any(np.abs(np.abs(sq) - 1.0) > UNIT_TOL, axis=1),
            lambda j: FrameError(
                f"frame is not unit in the supplied metric: "
                f"g(xi,xi)={sq[j, 0]:.6g}, g(Jxi,Jxi)={sq[j, 1]:.6g}"))
    # L = (G, Om = J^T G, P = E E^T + T T^T, W = E T^T - T E^T)
    L = np.empty((P, 4, d, d))
    L[:, 0] = G
    np.matmul(J.swapaxes(1, 2), G, out=L[:, 1])
    np.matmul(ET, ET.swapaxes(1, 2), out=L[:, 2])
    X = ET[:, :, 0, None] * ET[:, None, :, 1]
    np.subtract(X, X.swapaxes(1, 2), out=L[:, 3])
    return _weighted_products(L, _BASIS_CROSSED, _BASIS_STRAIGHT), [unit]


def build_basis_tensors(G, J, frame: RadialFrame) -> BasisTensors:
    """The structural (0,4)-tensors pi, phi and psi determined by (g, J, xi)
    at a point: the one-point case of ``basis_arrays``.

    ``frame.xi``, the unit vector of any frame record, must be unit with
    respect to G to within ``UNIT_TOL``; FrameError otherwise.
    """
    B, gates = basis_arrays(np.asarray(G, float)[None],
                            np.asarray(J, float)[None],
                            np.asarray(frame.xi, float)[None])
    raise_first(gates)
    return BasisTensors(*(Tensor4(b) for b in B[0]))


# -- decomposition ---------------------------------------------------------------


def classify(a_plus_k2: float) -> str:
    if a_plus_k2 > ZERO_BAND:
        return "positive"
    if a_plus_k2 < -ZERO_BAND:
        return "negative"
    return "zero"


@dataclass(frozen=True)
class QCDecomposition:
    """Least-squares coefficients of R against {pi, phi, psi} plus the derived
    classifier a + k^2."""

    a: float
    b: float
    c: float
    residual: float
    k: float
    a_plus_k2: float
    klass: str

    def to_json(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "residual": self.residual,
            "k": self.k,
            "a_plus_k2": self.a_plus_k2,
            "class": self.klass,
        }

    @classmethod
    def of(cls, a, b, c, residual, k) -> "QCDecomposition":
        """The decomposition of a fit (a, b, c, residual) with shape value k."""
        apk = a + k ** 2
        return cls(a=a, b=b, c=c, residual=residual, k=k, a_plus_k2=apk,
                   klass=classify(apk))


# pi, phi and psi in a J-adapted frame, flattened, with their pseudo-inverse,
# by the square norms of the frame's rows
_FRAME_BASES: dict = {}


def _frame_basis(signs: tuple):
    """The structural tensors (3, d^4) in a J-adapted frame whose rows have
    the square norms ``signs``, and their pseudo-inverse (d^4, 3): built on
    first use, on G = diag(signs), J = ``core.j0_matrix`` and xi = e_0."""
    if signs not in _FRAME_BASES:
        d = len(signs)
        B, _ = basis_arrays(np.diag(signs)[None], j0_matrix(d // 2)[None],
                            np.eye(d)[None, 0])
        B = B[0].reshape(3, d ** 4)
        pinv = np.linalg.pinv(B)
        B.flags.writeable = pinv.flags.writeable = False
        _FRAME_BASES[signs] = B, pinv
    return _FRAME_BASES[signs]


def frame_fit(R, F, signs):
    """Least-squares fits of curvature tensors R (P, d, d, d, d) against pi,
    phi and psi in the frames F of ``adapted_frames``, whose rows have the
    square norms signs: (coeffs (P, 3), residual (P,)).

    Four matrix products carry R into each frame, where the structural
    tensors are constants, so a fit is one product with their
    pseudo-inverse.  The residual is the Frobenius misfit in the frame
    relative to max(1, |R|) there; for a definite metric the frame norm is
    the norm that g gives a 4-tensor, the same in every chart.  Each point is
    its own product, so a point's fit does not depend on the batch around it.
    """
    P, d = F.shape[:2]
    T = np.ascontiguousarray(R)
    for _ in range(4):
        # the last index into the frame, moved to the front: F times the
        # transpose of a view, so that no step copies T
        T = F @ T.reshape(P, d ** 3, d).swapaxes(1, 2)
    T = T.reshape(P, 1, d ** 4)
    coeffs = np.empty((P, 3))
    residual = np.empty(P)
    keys = [tuple(s) for s in signs.tolist()]
    for key in set(keys):
        rows = [p for p, k in enumerate(keys) if k == key]
        if len(rows) == P:
            rows = slice(None)  # no copy of T when every frame is alike
        B, pinv = _frame_basis(key)
        t = T[rows]
        c = t @ pinv
        misfit = c @ B
        np.subtract(t, misfit, out=misfit)
        coeffs[rows] = c[:, 0]
        residual[rows] = np.sqrt(
            (misfit @ misfit.swapaxes(1, 2))[:, 0, 0]
            / np.maximum(1.0, (t @ t.swapaxes(1, 2))[:, 0, 0]))
    return coeffs, residual


# -- Bochner operator -------------------------------------------------------------


def bochner_arrays(T, G, J):
    """Trace-free parts of Kahler curvature tensors T (P, d, d, d, d) in the
    holomorphic sense, at metric values G (P, d, d) and structures J
    (P, d, d): the Bochner tensors, (P, d, d, d, d).

    Tachibana's real form of Bochner's tensor: with rho = G^-1 . T,
    tau = tr_G rho and K the Kahler product,
    B = T - K(rho) / (2 (n + 2)) + tau pi / ((n + 1)(n + 2)).  As
    pi = K(g) / 8, T - B is the one product K(S) of
    S = rho / (2 (n + 2)) - tau g / (8 (n + 1)(n + 2)).  The Ricci data is
    contracted from each tensor itself, so the operator applies equally to
    synthetic combinations of the basis tensors and to curvature tensors
    coming from a jet.  Every contraction is a matrix product per point, so
    a row's result does not depend on the batch around it.

    T must carry the Kahler symmetries: those of a curvature tensor and
    T(JX, JY, Z, W) = T(X, Y, Z, W).  A part of T without them is carried
    into B, not projected away.  Each J must square to -identity within
    1e-9; ValueError otherwise.
    """
    P, d = G.shape[:2]
    if np.abs(J @ J + np.eye(d)).max() > 1e-9:
        raise ValueError("J does not square to -identity")
    # L = (G, Om = J^T G, S, JS = J^T S)
    L = np.empty((P, 4, d, d))
    L[:, 0], L[:, 2] = G, _ricci_form(T, G)
    np.matmul(J.swapaxes(1, 2)[:, None], L[:, 0::2], out=L[:, 1::2])
    K = _weighted_products(L, _KAHLER_CROSSED, _KAHLER_STRAIGHT)[:, 0]
    return np.subtract(T, K, out=K)


def _ricci_form(T, G):
    """S = rho / (2 (n + 2)) - tau g / (8 (n + 1)(n + 2)) of each tensor T
    (P, d, d, d, d) at the metric values G, the form whose Kahler product
    is T less its Bochner tensor; its contractions are freed on return."""
    P, d = G.shape[:2]
    Ginv = np.linalg.inv(G)
    # rho_jk = sum_il Ginv_il T_ijkl, and tau = sum_jk Ginv_jk rho_jk
    rho = (T.transpose(0, 2, 3, 1, 4).reshape(P, d * d, d * d)
           @ Ginv.reshape(P, d * d, 1)).reshape(P, d, d)
    tau = Ginv.reshape(P, 1, d * d) @ rho.reshape(P, d * d, 1)
    n = d / 2.0
    return rho / (2.0 * (n + 2.0)) - tau * G / (8.0 * (n + 1.0) * (n + 2.0))


def bochner_of_tensor(T: Tensor4, G, J) -> Tensor4:
    """The Bochner tensor of the Kahler curvature tensor T at the metric
    values G and structure J of one point: the one-point case of
    ``bochner_arrays``, with its conditions and its ValueError."""
    B = bochner_arrays(T.a[None], np.asarray(G, float)[None],
                       np.asarray(J, float)[None])
    return Tensor4(B[0])


def bochner_flat(B: Tensor4) -> bool:
    """Whether the Bochner tensor vanishes numerically: no component
    reaches ``BOCHNER_FLAT_TOL``."""
    return B.scale() < BOCHNER_FLAT_TOL


# -- many points of a potential metric ---------------------------------------------

# Curvature components that one pass of ``decompose_points`` holds, rows
# times d^4: 256 rows at n = 2, 50 at n = 3 and 16 at n = 4.  A pass holds
# about 0.3 MB of arrays per row at n = 4, so this bounds its working
# memory; the record keeps no tensor, only the values its readers take at
# each row, about 0.3 KB per row at n = 4.
PASS_COMPONENTS = 16 * 8 ** 4


def pass_rows(dim: int) -> int:
    """Rows per pass of ``decompose_points`` in a chart of dimension dim."""
    return max(1, PASS_COMPONENTS // dim ** 4)


class _RowFamilies(PotentialFamily):
    """One potential family per row of a pass.  Its array methods take the
    square norms w of those rows and evaluate each distinct family once, on
    its own rows; they are all that the pass reads of a family (its domain
    and its derivatives), so a row gets the values of its own family to the
    bit."""

    kind = "rows"

    def __init__(self, families):
        groups = {}
        for row, family in enumerate(families):
            groups.setdefault(family, []).append(row)
        self.groups = [(f, np.array(rows)) for f, rows in groups.items()]

    def in_domain(self, w):
        out = np.empty(w.shape, dtype=bool)
        for family, rows in self.groups:
            out[rows] = family.in_domain(w[rows])
        return out

    def derivatives(self, w):
        out = np.empty((4,) + w.shape)
        for family, rows in self.groups:
            for o, v in zip(out, family.derivatives(w[rows])):
                o[rows] = v
        return tuple(out)


@dataclass(frozen=True)
class DecompositionRecord:
    """What ``decompose_points`` found at the P rows of X, as arrays over
    the rows: each array is nan where its stage failed or was not reached,
    and each error tuple holds None there.

    Per row: ``point`` (P, d); ``admissibility``, whose fields are arrays
    (P,); ``error``, the first gate the row failed up to its radial unit
    field (the family's domain, admissibility when checked, a radius, a
    finite jet, the condition of G, the curvature symmetries, a space-like
    radial direction) or None.

    By stage: ``curved`` holds the rows past the curvature gate, in order,
    whose ``min_eigenvalue``, the least eigenvalue of G, and
    ``kahler_defect`` (``curvature.kahler_defect``) are arrays (P,); and
    ``unit`` the rows of those with a radial unit field ``xi`` (P, d).

    With ``fit``: the shape data of each unit row, ``k``, ``p_star``, ``sq``
    = g(xi, xi), ``spread`` and ``model_defect`` (P,), or ``shape_error``;
    and the fit on the frame of its xi, ``coeffs`` (P, 3) = (a, b, c) and
    ``residual`` (P,), or ``fit_error``.  Without ``fit``: the curvature
    invariants of each unit row on its xi, ``invariants`` (P, 6), whose
    columns ``curvature.INVARIANTS`` names.  The arrays of the stage not
    taken are None.
    """

    point: np.ndarray
    admissibility: AdmissibilityReport
    error: tuple
    curved: np.ndarray
    min_eigenvalue: np.ndarray
    kahler_defect: np.ndarray
    unit: np.ndarray
    xi: np.ndarray
    shape_error: tuple
    fit_error: tuple
    k: np.ndarray | None = None
    p_star: np.ndarray | None = None
    sq: np.ndarray | None = None
    spread: np.ndarray | None = None
    model_defect: np.ndarray | None = None
    coeffs: np.ndarray | None = None
    residual: np.ndarray | None = None
    invariants: np.ndarray | None = None

    def first_error(self, row: int) -> QckError | None:
        """The first error of a row, whatever the stage."""
        return self.error[row] or self.shape_error[row] or self.fit_error[row]

    def fit(self, row: int) -> tuple | None:
        """(a, b, c, residual) of a row as floats, None without a fit."""
        if self.residual is None or self.fit_error[row] is not None \
                or self.error[row] is not None:
            return None
        return tuple(self.coeffs[row].tolist()) + (float(self.residual[row]),)

    def decomposition(self, row: int) -> QCDecomposition | None:
        """The fit of a row classified with its k; None unless both its
        shape data and its fit stand."""
        fit = self.fit(row)
        if fit is None or self.shape_error[row] is not None:
            return None
        return QCDecomposition.of(*fit, float(self.k[row]))

    def fit_entries(self) -> list:
        """The JSON of every row's fit, from one ``tolist`` per array:
        {a, b, c, residual} where the fit stands, and where the shape data
        stands too, ``QCDecomposition.of(...).to_json()``, with k, a + k^2
        and the class; None where the fit does not stand or was not taken."""
        if self.residual is None:
            return [None] * len(self.point)
        out = []
        for (a, b, c), residual, k, error, shape_error, fit_error in zip(
                self.coeffs.tolist(), self.residual.tolist(),
                self.k.tolist(), self.error, self.shape_error,
                self.fit_error):
            if error is not None or fit_error is not None:
                out.append(None)
                continue
            out.append(
                {"a": a, "b": b, "c": c, "residual": residual}
                if shape_error is not None
                else QCDecomposition.of(a, b, c, residual, k).to_json())
        return out


def decompose_points(space: AmbientSpace,
                     family: PotentialFamily | Sequence[PotentialFamily], X,
                     checked: bool = True,
                     fit: bool = True) -> DecompositionRecord:
    """The quasi-constant decomposition at each row of X, (P, d), for the
    metric of ``family``, a ``PotentialFamily`` or a sequence of them with
    one per row: one ``DecompositionRecord``.

    Rows go ``pass_rows(d)`` at a time through one batched pass of the jet,
    connection, curvature, unit field, shape data, frame and fit, with the
    rows of several families in one pass.  A row that fails a gate gets the
    error the one-point functions raise there, and the rest of its pass goes
    on; a row's values do not depend on the rows around it.  ``checked`` is
    ``potential_metric``'s.  ``fit=False`` takes the curvature invariants
    of each row with a unit field (``curvature.curvature_invariants``) in
    place of the shape data and the fit.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != space.dim:
        raise ValueError(f"points of shape {X.shape} in a "
                         f"{space.dim}-dimensional chart")
    if isinstance(family, PotentialFamily):
        families = None
    else:
        families = list(family)
        if len(families) != len(X):
            raise ValueError(f"{len(families)} families for {len(X)} points")
    size = pass_rows(space.dim)

    def passes():
        for start in range(0, max(len(X), 1), size):
            rows = slice(start, start + size)
            rows_family = family
            if families is not None:
                rows_family = (families[start]
                               if len(set(families[rows])) == 1
                               else _RowFamilies(families[rows]))
            yield _decompose_pass(space, rows_family, X[rows], checked, fit)

    if len(X) <= size:
        return next(passes())
    return _join(passes())


def _spread(rows, values, count):
    """values of the given rows on all count rows, nan on the others;
    values itself where the rows are all count rows."""
    if len(rows) == count:
        return values
    out = np.full((count,) + values.shape[1:], np.nan)
    out[rows] = values
    return out


def _decompose_pass(space, family, X, checked, fit):
    P = len(X)
    sieve = Sieve(P)
    # the square norms and the family's derivatives, once for the pass
    adm, *rule = _potential_rule(space, family, X, checked)
    jet = gated_jets(potential_metric(space, family, checked), X, *rule,
                     "closed-form", sieve)
    R = curvature_tensors(jet)
    keep = sieve.drop([curvature_gate(R)])
    jet, R = jet.rows(keep), R[keep]
    curved = sieve.running
    xi, dxi, gates = _radial_unit_jets(space, jet, adm.w[curved])
    keep = sieve.drop(gates)
    unit = sieve.running
    ujet, R, xi, dxi = jet.rows(keep), R[keep], xi[keep], dxi[keep]
    shape_error, fit_error = [None] * P, [None] * P
    record = dict(point=X, admissibility=adm, error=tuple(sieve.errors),
                  curved=curved, unit=unit,
                  min_eigenvalue=_spread(curved, jet.eigenvalues[:, 0], P),
                  kahler_defect=_spread(curved, kahler_defect(jet), P),
                  xi=_spread(unit, xi, P))
    if not fit:
        record["invariants"] = _spread(
            unit, curvature_invariants(ujet, R, xi), P)
    else:
        F, signs, frame_gates = adapted_frames(ujet.G, ujet.J, xi)
        *shape, gates = shape_arrays(ujet, F, signs, dxi)
        shape_sieve = Sieve(len(xi))
        shape_sieve.drop(gates)
        fit_sieve = Sieve(len(xi))
        keep = fit_sieve.drop(frame_gates)
        coeffs, residual = frame_fit(R[keep], F[keep], signs[keep])
        for errors, stage in ((shape_error, shape_sieve),
                              (fit_error, fit_sieve)):
            for row, error in zip(unit.tolist(), stage.errors):
                errors[row] = error
        shaped, fitted = unit[shape_sieve.running], unit[fit_sieve.running]
        record.update(zip(("k", "p_star", "sq", "spread", "model_defect"),
                          (_spread(shaped, a[shape_sieve.running], P)
                           for a in shape)))
        record.update(coeffs=_spread(fitted, coeffs, P),
                      residual=_spread(fitted, residual, P))
    return DecompositionRecord(shape_error=tuple(shape_error),
                               fit_error=tuple(fit_error), **record)


def _join(parts):
    """The record of the rows of several passes, in order: each field
    concatenated over the passes, with the stage rows ``curved`` and
    ``unit`` of a pass counted from its first row."""
    parts = list(parts)
    starts = np.cumsum([0] + [len(part.point) for part in parts])

    def joined(name, values):
        if values[0] is None:
            return None
        if isinstance(values[0], tuple):
            return tuple(chain.from_iterable(values))
        if name in ("curved", "unit"):
            values = [rows + start for rows, start in zip(values, starts)]
        return np.concatenate(values)

    out = {f.name: joined(f.name, [getattr(part, f.name) for part in parts])
           for f in fields(DecompositionRecord) if f.name != "admissibility"}
    return DecompositionRecord(admissibility=AdmissibilityReport(**{
        f.name: np.concatenate([getattr(part.admissibility, f.name)
                                for part in parts])
        for f in fields(AdmissibilityReport)}), **out)
