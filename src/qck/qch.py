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
the tensors in coordinates, where ``tensors.tensor4_fit`` fits them; that
path is the oracle of the frame fit.

``decompose_points`` is the one entry point for many sample points of
potential metrics: it runs the jet, connection, curvature, unit field,
frame, shape data and fit over a points axis, as many points per pass as
``PASS_COMPONENTS`` allows, and gives each point the error its gates name
there.  The potential may differ from row to row: a family enters a pass
only through its domain and its derivatives f', ..., f'''' at the rows'
square norms, so the rows of several families share one pass.  It returns
one ``DecompositionRecord`` of arrays over the rows.  The frame, shape data
and fit kernels (``adapted_frames``, ``shape_arrays``, ``frame_fit``) take
the points axis, and so do the hypersphere reports of ``qck.sasakian``.

The Bochner operator lives here as well since its kernel test consumes the
same decomposition.  It is Tachibana's real form: the tensor less one
Kahler product K of a combination of its Ricci contraction and g, with no
complex frame, over a points axis (``bochner_arrays``), with
``bochner_of_tensor`` as its one-point form.  K builds phi too, from the
radial projector.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .ambient import (AdmissibilityReport, AmbientSpace, PotentialFamily,
                      RadialFrame, _potential_rule, _radial_unit_jets,
                      potential_metric)
from .core import j0_matrix
from .curvature import (PointJet, covariant_derivative, curvature_gate,
                        curvature_tensors, gated_jets)
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
    sqrt|g(w, w)|; a direction with |g(w, w)| below 1e-10 is skipped.  J u
    needs no projection: g is J-invariant and so is the span of the rows so
    far.  The signed normalisers complete the frame where the complement of
    (xi, J xi) is indefinite.

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
    pairs, pair_signs = [], []
    for i in range(d):
        if np.all(count == d):
            break
        # e_i less its components along the rows so far, twice over
        w = -Q[:, :, i]
        w[:, i] += 1.0
        w = w - (Q @ w[:, :, None])[:, :, 0]
        nrm2 = np.sum(w * (G @ w[:, :, None])[:, :, 0], axis=1)
        take = (np.abs(nrm2) >= 1e-10) & (count < d)
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
        # each point's pairs in the order it took them, the empty ones last
        S = np.stack(pair_signs, axis=1)
        order = np.argsort(S == 0.0, axis=1, kind="stable")
        U = np.take_along_axis(np.stack(pairs, axis=1),
                               order[:, :, None, None], axis=1)
        m = min(2 * len(pairs), d - 2)
        F[:, 2:2 + m] = U.reshape(P, -1, d)[:, :m]
        signs[:, 2:2 + m] = np.repeat(np.take_along_axis(S, order, axis=1),
                                      2, axis=1)[:, :m]
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
    shape.  The gates, in order: g(xi, xi) = +-1, a complement distribution
    whose frame rows F[:, 2:] are all space-like, and a spread of the normal
    curvature within ``SPREAD_GATE``, past which ShapeUniformityError stands
    for an average of unlike things.  The arrays are taken as contiguous
    copies, as in ``adapted_frames``.
    """
    F, signs, dxi, G = (np.ascontiguousarray(a)
                        for a in (F, signs, dxi, jet.G))
    xi, jxi = F[:, 0], F[:, 1]
    D = covariant_derivative(jet, xi, dxi)
    d = xi.shape[1]
    sq = _gdot(G, xi, xi)
    sq_sign = np.where(sq < 0.0, -1.0, 1.0)
    unit = (np.abs(sq - sq_sign) > 1e-8, lambda j: FrameError(
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


def _outer_sum(pairs):
    """sum over the pairs (A, B) of A[p, a, b] B[p, c, e], as T[p, a, b, c, e]:
    one matrix product per point."""
    A = np.stack([a for a, _ in pairs], axis=1)
    B = np.stack([b for _, b in pairs], axis=1)
    P, Q, d = A.shape[:3]
    T = A.reshape(P, Q, d * d).swapaxes(1, 2) @ B.reshape(P, Q, d * d)
    return T.reshape(P, d, d, d, d)


def _antisym_cross(pairs):
    """sum over the pairs of A_jk B_il - A_ik B_jl, at [p, i, j, k, l]."""
    T = _outer_sum(pairs).transpose(0, 3, 1, 2, 4)
    return T - T.swapaxes(1, 2)


def _kahler_product(G, Om, S, JS):
    """The Kahler product of a J-invariant symmetric S with g at each point,
    from G, Om = J^T G, S and JS = J^T S.

    Its two halves, with G and Om on either side of S and JS, are only
    antisymmetric in their first index pair; the full curvature symmetries
    appear in the sum, where each supplies the pair transpose of the other.
    """
    # in place: one batch of tensors at d = 6 takes 10 KiB per point
    K = _antisym_cross([(G, S), (Om, JS), (S, G), (JS, Om)])
    twice = _outer_sum([(Om, JS), (JS, Om)])
    twice *= 2.0
    K -= twice
    return K


def basis_arrays(G, J, xi):
    """The structural tensors at each point: (B, gates) with
    B[p] = (pi, phi, psi), (P, 3, d, d, d, d), built on the metric values
    G (P, d, d), the structure J and the unit vectors xi (P, d).

    The gate: |g(xi, xi)| and |g(J xi, J xi)| within ``UNIT_TOL`` of 1 (either
    sign of the square norm is accepted so the flat indefinite form can be
    probed too).
    """
    jxi = np.einsum("pij,pj->pi", J, xi)
    sq = np.einsum("pi,pij,pj->p", xi, G, xi)
    sqj = np.einsum("pi,pij,pj->p", jxi, G, jxi)
    unit = ((np.abs(np.abs(sq) - 1.0) > UNIT_TOL)
            | (np.abs(np.abs(sqj) - 1.0) > UNIT_TOL),
            lambda j: FrameError(
                f"frame is not unit in the supplied metric: "
                f"g(xi,xi)={sq[j]:.6g}, g(Jxi,Jxi)={sqj[j]:.6g}"))

    Om = np.einsum("pai,paj->pij", J, G)
    E = np.einsum("pij,pj->pi", G, xi)
    T = np.einsum("pij,pj->pi", G, jxi)
    Pm = E[:, :, None] * E[:, None, :] + T[:, :, None] * T[:, None, :]
    W = E[:, :, None] * T[:, None, :] - T[:, :, None] * E[:, None, :]

    B = np.empty((len(xi), 3) + (xi.shape[1],) * 4)
    B[:, 0] = (_antisym_cross([(G, G), (Om, Om)])
               - 2.0 * _outer_sum([(Om, Om)])) / 4.0
    # J^T P = W, so phi is the Kahler product of P
    B[:, 1] = _kahler_product(G, Om, Pm, W) / 8.0
    B[:, 2] = -_outer_sum([(W, W)])
    return B, [unit]


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
    if np.max(np.abs(J @ J + np.eye(d))) > 1e-9:
        raise ValueError("J does not square to -identity")
    Ginv = np.linalg.inv(G)
    # rho_jk = sum_il Ginv_il T_ijkl, and tau = sum_jk Ginv_jk rho_jk
    rho = (T.transpose(0, 2, 3, 1, 4).reshape(P, d * d, d * d)
           @ Ginv.reshape(P, d * d, 1)).reshape(P, d, d)
    tau = Ginv.reshape(P, 1, d * d) @ rho.reshape(P, d * d, 1)
    n = d / 2.0
    S = rho / (2.0 * (n + 2.0)) - tau * G / (8.0 * (n + 1.0) * (n + 2.0))
    JT = J.swapaxes(1, 2)
    K = _kahler_product(G, JT @ G, S, JT @ S)
    return np.subtract(T, K, out=K)


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
# memory; the record keeps R and the first jet (``PointJet.first``) of each
# curved row, about 42 KB per row at n = 4.
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
    """What ``decompose_points`` found at the P rows of X, as arrays.

    Per row: ``point`` (P, d); ``admissibility``, whose fields are arrays
    (P,); ``error``, the first gate the row failed up to its radial unit
    field (the family's domain, admissibility when checked, a radius, a
    finite jet, the condition of G, the curvature symmetries, a space-like
    radial direction) or None.

    By stage: ``curved`` holds the rows past the curvature gate, in order,
    and ``jet`` and ``R`` (C, d, d, d, d) their first jets (G, dG, J, dJ
    and G^-1, see ``PointJet.first``) and curvature tensors, row for row;
    ``unit`` the rows of those with a radial unit field, whose
    ``xi`` (P, d) is nan on the other rows.

    With ``fit``: the shape data of each unit row, ``k``, ``p_star``, ``sq``
    = g(xi, xi), ``spread`` and ``model_defect`` (P,), or ``shape_error``;
    and the fit on the frame of its xi, ``coeffs`` (P, 3) = (a, b, c) and
    ``residual`` (P,), or ``fit_error``.  Each array is nan where its
    stage failed or was not reached, and each error tuple holds None there.
    Without ``fit`` these arrays are None.
    """

    point: np.ndarray
    admissibility: AdmissibilityReport
    error: tuple
    curved: np.ndarray
    jet: PointJet
    R: np.ndarray
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
    ``potential_metric``'s; ``fit=False`` stops after the unit field.
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
    return _join(passes(), len(X))


def _spread(rows, values, count):
    """values of the given rows on all count rows, nan on the others."""
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
    shape_error, fit_error = [None] * P, [None] * P
    record = dict(point=X, admissibility=adm, error=tuple(sieve.errors),
                  curved=curved, jet=jet.first(), R=R, unit=unit,
                  xi=_spread(unit, xi[keep], P))
    if fit:
        ujet, R, xi, dxi = jet.rows(keep), R[keep], xi[keep], dxi[keep]
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


def _leaves(record, path=()):
    """(path, value) of each field of a record and of the records in it."""
    if not is_dataclass(record):
        yield path, record
        return
    for f in fields(record):
        yield from _leaves(getattr(record, f.name), path + (f.name,))


def _join(parts, count):
    """The record of the ``count`` rows of several passes, in order.  Each
    pass is copied into arrays sized for every row as it comes, so the join
    holds one pass beside the record, not every pass; the jet and R end at
    the last row past the curvature gate."""
    out, pieces = {}, {}
    rows = curved = 0
    for part in parts:
        for path, value in _leaves(part):
            if path in (("curved",), ("unit",)):
                # the stage rows of a pass count from its first row
                pieces.setdefault(path, []).append(value + rows)
            elif isinstance(value, tuple):
                pieces.setdefault(path, []).append(value)
            elif isinstance(value, np.ndarray):
                at = curved if path[0] in ("jet", "R") else rows
                if path not in out:
                    out[path] = np.empty((count,) + value.shape[1:],
                                         value.dtype)
                out[path][at:at + len(value)] = value
            else:
                out[path] = value  # None, or the method of the jet
        rows += len(part.point)
        curved += len(part.curved)
    for path, values in pieces.items():
        out[path] = (sum(values, ()) if isinstance(values[0], tuple)
                     else np.concatenate(values))
    nested = {}
    for path, value in out.items():
        if path[0] in ("jet", "R") and isinstance(value, np.ndarray):
            value = value[:curved]
        if len(path) == 1:
            nested[path[0]] = value
        else:
            nested.setdefault(path[0], {})[path[1]] = value
    return DecompositionRecord(**dict(
        nested, admissibility=AdmissibilityReport(**nested["admissibility"]),
        jet=PointJet(**nested["jet"])))
