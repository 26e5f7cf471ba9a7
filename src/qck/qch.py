"""Radial shape data, structural curvature bases, and the quasi-constant
decomposition R = a*pi + b*phi + c*psi.

The basis tensors are algebraic combinations of the metric, the fundamental
2-form and the radial frame covectors.  A curvature tensor is decomposed
against {pi, phi, psi} by least squares; the fit residual is the falsifiable
measure of whether the metric actually has quasi-constant holomorphic
sectional curvatures, and the sign of a + k^2 classifies it.  The shape data
(k, p*) come from the covariant derivative of the radial unit field, whose
values and partials at the point ``ambient.radial_unit_jet`` reads off the
metric's jet, so nothing here evaluates a metric.

Both run in one J-adapted G-orthonormal frame per point
(``adapted_frames``): rows xi, J xi, u_1, J u_1, ....  There G, J and xi
have constant components, so pi, phi and psi are constants for each n and
signature, built once with their pseudo-inverse; a fit (``frame_fit``) is R
carried into the frame and one matrix product.  k is averaged over the
frame's complement rows.  ``basis_arrays`` and ``build_basis_tensors`` build
the tensors in coordinates, where ``tensors.tensor4_fit`` fits them; that
path is the oracle of the frame fit.

``decompose_points`` is the one entry point for many sample points of a
potential metric: it runs the jet, connection, curvature, unit field, frame,
shape data and fit over a points axis, ``CHUNK`` points per pass, and gives
each point the error the one-point functions would raise there.  The frame,
shape data and fit kernels (``adapted_frames``, ``shape_arrays``,
``frame_fit``) take that axis; ``extract_shape_data`` and ``decompose`` are
their one-point forms.

The Bochner operator lives here as well since its kernel test consumes the
same decomposition.  It is Tachibana's real form: the tensor less one
Kahler product K of a combination of its Ricci contraction and g, with no
complex frame.  K builds phi too, from the radial projector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import (AdmissibilityReport, AmbientSpace, PotentialFamily,
                      RadialFrame, admissibility, potential_metric,
                      radial_unit_jets)
from .core import j0_matrix
from .curvature import (CurvatureBundle, PointJet, covariant_derivative,
                        curvature_gate, curvature_tensors, point_jets)
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


@dataclass(frozen=True)
class ShapeData:
    """Shape coefficients of a unit radial field: the common normal curvature
    k of the directions orthogonal to the (xi, J xi) plane, and the structure
    coefficient p_star of the J xi direction."""

    k: float
    p_star: float
    xi: np.ndarray
    variant: str  # "riemannian" | "lorentz"
    spread: float
    model_defect: float


def _gdot(G, u, v):
    """g(u, v) at each point: u, v (P, d), G (P, d, d)."""
    return np.einsum("pi,pij,pj->p", u, G, v)


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
    can be probed too), and a complete frame.
    """
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

    The gates, in order: g(xi, xi) = +-1, a complement distribution whose
    frame rows F[:, 2:] are all space-like, and a spread of the normal
    curvature within ``SPREAD_GATE``.  See ``extract_shape_data``.
    """
    xi, jxi = F[:, 0], F[:, 1]
    D = covariant_derivative(jet, xi, dxi)
    G = jet.G
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


def extract_shape_data(jet: PointJet, xi, dxi) -> ShapeData:
    """Measure (k, p_star) of a unit vector field at the point of ``jet``
    from its values xi and partials dxi[i, m] = d_i xi^m there; G, J and the
    connection are the jet's.  Pure linear algebra: the field's jet comes
    from ``ambient.radial_unit_jet`` for the radial unit field, or from
    ``curvature.vector_jet`` for any other.  The one-point case of
    ``adapted_frames`` and ``shape_arrays``.

    g(xi, xi) must be +1 or -1, and its sign picks the "riemannian" or the
    "lorentz" sign conventions.  k is averaged over the complement rows of
    the J-adapted frame, which must be space-like; the per-direction spread
    is itself the test that the field has the required shape, and exceeding
    ``SPREAD_GATE`` raises ShapeUniformityError instead of returning an
    average of unlike things.
    """
    xi = np.asarray(xi, float)
    jet = jet.stacked()
    F, signs, _ = adapted_frames(jet.G, jet.J, xi[None])
    *shape, gates = shape_arrays(jet, F, signs, np.asarray(dxi, float)[None])
    raise_first(gates)
    return _shape_data(xi, *(a[0] for a in shape))


def _shape_data(xi, k, p_star, sq, spread, model_defect) -> ShapeData:
    return ShapeData(k=float(k), p_star=float(p_star), xi=xi,
                     variant="lorentz" if sq < 0.0 else "riemannian",
                     spread=float(spread), model_defect=float(model_defect))


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
    return (_antisym_cross([(G, S), (Om, JS), (S, G), (JS, Om)])
            - 2.0 * _outer_sum([(Om, JS), (JS, Om)]))


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


def build_basis_tensors(G, J, frame: RadialFrame | ShapeData) -> BasisTensors:
    """The structural (0,4)-tensors pi, phi and psi determined by (g, J, xi)
    at a point: the one-point case of ``basis_arrays``.

    ``frame.xi`` must be unit with respect to G to within ``UNIT_TOL``;
    FrameError otherwise.
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


def _decomposition(a, b, c, residual, k) -> QCDecomposition:
    apk = a + k ** 2
    return QCDecomposition(a=a, b=b, c=c, residual=residual, k=k,
                           a_plus_k2=apk, klass=classify(apk))


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
    T = R
    for _ in range(4):
        # the last index into the frame, moved to the front
        T = (T.reshape(P, d ** 3, d) @ F.swapaxes(1, 2)).swapaxes(1, 2)
    T = T.reshape(P, 1, d ** 4)
    coeffs = np.empty((P, 3))
    residual = np.empty(P)
    keys = [tuple(s) for s in signs.tolist()]
    for key in set(keys):
        rows = [p for p, k in enumerate(keys) if k == key]
        B, pinv = _frame_basis(key)
        t = T[rows]
        c = t @ pinv
        misfit = t - c @ B
        coeffs[rows] = c[:, 0]
        residual[rows] = np.sqrt(
            (misfit @ misfit.swapaxes(1, 2))[:, 0, 0]
            / np.maximum(1.0, (t @ t.swapaxes(1, 2))[:, 0, 0]))
    return coeffs, residual


def decompose(bundle: CurvatureBundle, shape: ShapeData) -> QCDecomposition:
    """Fit the bundle's curvature against the structural basis in the
    J-adapted frame of the unit vector of ``shape``, and classify by
    a + k^2 with its k: the one-point case of ``adapted_frames`` and
    ``frame_fit``.  FrameError where the vector is not unit or the frame
    cannot be completed."""
    F, signs, gates = adapted_frames(bundle.jet.G[None], bundle.jet.J[None],
                                     np.asarray(shape.xi, float)[None])
    raise_first(gates)
    coeffs, residual = frame_fit(bundle.R.a[None], F, signs)
    return _decomposition(*coeffs[0].tolist(), float(residual[0]), shape.k)


# -- Bochner operator -------------------------------------------------------------


def bochner_of_tensor(T: Tensor4, G, J) -> Tensor4:
    """Trace-free part of a Kahler curvature tensor in the holomorphic sense.

    Tachibana's real form of Bochner's tensor: with rho = G^-1 . T,
    tau = tr_G rho and K the Kahler product,
    B = T - K(rho) / (2 (n + 2)) + tau pi / ((n + 1)(n + 2)).  As
    pi = K(g) / 8, T - B is the one product K(S) of
    S = rho / (2 (n + 2)) - tau g / (8 (n + 1)(n + 2)).  The Ricci data is
    contracted from the tensor itself, so the operator applies equally to
    synthetic combinations of the basis tensors and to curvature tensors
    coming from a bundle.

    T must carry the Kahler symmetries: those of a curvature tensor and
    T(JX, JY, Z, W) = T(X, Y, Z, W).  A part of T without them is carried
    into B, not projected away.  J must square to -identity within 1e-9;
    ValueError otherwise.
    """
    G = np.asarray(G, float)
    J = np.asarray(J, float)
    d = G.shape[0]
    if np.max(np.abs(J @ J + np.eye(d))) > 1e-9:
        raise ValueError("J does not square to -identity")
    Ginv = np.linalg.inv(G)
    rho = np.einsum("il,ijkl->jk", Ginv, T.a)
    tau = float(np.einsum("jk,jk->", Ginv, rho))
    n = d / 2.0
    S = rho / (2.0 * (n + 2.0)) - tau * G / (8.0 * (n + 1.0) * (n + 2.0))
    K = _kahler_product(G[None], (J.T @ G)[None], S[None], (J.T @ S)[None])
    return Tensor4(T.a - K[0])


def bochner_flat(B: Tensor4) -> bool:
    """Whether the Bochner tensor vanishes numerically: no component
    reaches ``BOCHNER_FLAT_TOL``."""
    return B.scale() < BOCHNER_FLAT_TOL


# -- many points of a potential metric ---------------------------------------------

# Points per batched pass of ``decompose_points``.  A pass holds about 0.3 MB
# of arrays per point at n = 4, so this bounds the memory of any sample.
CHUNK = 16


@dataclass(frozen=True)
class PointResult:
    """What ``decompose_points`` found at one sample point.

    ``error`` is the first gate the point failed up to its radial unit field:
    the family's domain, admissibility (when checked), a radius, a finite
    jet, the condition of G, the curvature symmetries, and a space-like
    radial direction.  A point past the curvature gate has its curvature
    ``bundle`` (whose jet is the point's); one that passes them all has the
    unit field ``xi`` too.  With ``fit``, ``shape`` or ``shape_error`` say
    how its shape data went, and ``fit`` = (a, b, c, residual) or
    ``fit_error`` how the fit on the basis built on xi went;
    ``decomposition`` combines the two.
    """

    point: np.ndarray
    admissibility: AdmissibilityReport
    error: QckError | None = None
    bundle: CurvatureBundle | None = None
    xi: np.ndarray | None = None
    shape: ShapeData | None = None
    shape_error: QckError | None = None
    fit: tuple | None = None
    fit_error: QckError | None = None

    @property
    def first_error(self) -> QckError | None:
        """The first error of the point, whatever the stage."""
        return self.error or self.shape_error or self.fit_error

    @property
    def decomposition(self) -> QCDecomposition | None:
        if self.shape is None or self.fit is None:
            return None
        return _decomposition(*self.fit, self.shape.k)


def decompose_points(space: AmbientSpace, family: PotentialFamily, X,
                     checked: bool = True, fit: bool = True):
    """The pipeline of ``decompose`` at each row of X, (P, d), for the metric
    of ``family``: yields one ``PointResult`` per row, in order.

    Rows are processed ``CHUNK`` at a time, each chunk in one batched pass
    of the jet, connection, curvature, unit field, shape data, basis and
    fit.  A row that fails a gate gets the error the one-point functions
    raise there, and the rest of its chunk goes on.  ``checked`` is
    ``potential_metric``'s; ``fit=False`` stops after the unit field.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != space.dim:
        raise ValueError(f"points of shape {X.shape} in a "
                         f"{space.dim}-dimensional chart")
    metric = potential_metric(space, family, checked)
    for start in range(0, len(X), CHUNK):
        yield from _decompose_chunk(space, family, metric,
                                    X[start:start + CHUNK], fit)


def _decompose_chunk(space, family, metric, X, fit):
    adm = admissibility(space, family, space.square_norm(X.T))
    sieve = Sieve(len(X))
    jet = point_jets(metric, X, sieve)
    R = curvature_tensors(jet)
    keep = sieve.drop([curvature_gate(R)])
    jet, R = jet.rows(keep), R[keep]
    # a point whose unit field fails still has its bundle
    bundles = {i: CurvatureBundle(jet.rows(r), Tensor4(R[r]))
               for r, i in enumerate(sieve.running.tolist())}
    xi, dxi, gates = radial_unit_jets(space, jet)
    keep = sieve.drop(gates)
    jet, R, xi, dxi = jet.rows(keep), R[keep], xi[keep], dxi[keep]
    if fit:
        F, signs, frame_gates = adapted_frames(jet.G, jet.J, xi)
        shape_sieve = Sieve(len(xi))
        *shape, gates = shape_arrays(jet, F, signs, dxi)
        shape_sieve.drop(gates)
        shapes = {r: _shape_data(xi[r], *(a[r] for a in shape))
                  for r in shape_sieve.running.tolist()}
        fit_sieve = Sieve(len(xi))
        keep = fit_sieve.drop(frame_gates)
        coeffs, residual = frame_fit(R[keep], F[keep], signs[keep])
        fits = dict(zip(fit_sieve.running.tolist(),
                        (tuple(c) + (q,) for c, q in zip(
                            coeffs.tolist(), residual.tolist()))))
    rows = {i: r for r, i in enumerate(sieve.running.tolist())}
    for i, x in enumerate(X):
        rep = AdmissibilityReport(*(a[i] for a in (
            adm.w, adm.f_prime, adm.f_prime_plus_wf2, adm.in_domain, adm.ok)))
        r = rows.get(i)
        if r is None:
            yield PointResult(x, rep, error=sieve.errors[i],
                              bundle=bundles.get(i))
            continue
        stages = {}
        if fit:
            stages = dict(shape=shapes.get(r), shape_error=shape_sieve.errors[r],
                          fit=fits.get(r), fit_error=fit_sieve.errors[r])
        yield PointResult(x, rep, bundle=bundles[i], xi=xi[r], **stages)
