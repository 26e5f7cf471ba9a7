"""Radial shape data, structural curvature bases, and the quasi-constant
decomposition R = a*pi + b*phi + c*psi.

The five basis tensors are algebraic combinations of the metric, the
fundamental 2-form and the radial frame covectors.  A curvature tensor is
decomposed against {pi, phi, psi} by least squares; the fit residual is the
falsifiable measure of whether the metric actually has quasi-constant
holomorphic sectional curvatures, and the sign of a + k^2 classifies it.
The shape data (k, p*) come from the covariant derivative of the radial unit
field, whose values and partials at the point ``ambient.radial_unit_jet``
reads off the metric's jet, so nothing here evaluates a metric.

The Bochner operator lives here as well since its kernel test consumes the
same decomposition: the tensor is moved to holomorphic components through an
adapted complex frame, the trace corrections are subtracted there, and the
result is pulled back to real components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import RadialFrame
from .core import adapted_complex_frame
from .curvature import CurvatureBundle, PointJet, covariant_derivative
from .errors import FrameError, ShapeUniformityError
from .tensors import Tensor4, tensor4_fit

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


def _complement_basis(G, xi, jxi, sq_sign):
    """G-orthonormal basis of the orthogonal complement of span(xi, J xi).

    The complement is space-like in both variants, so plain Gram-Schmidt with
    positive normalizers applies there; only the projection coefficients see
    the sign of g(xi, xi).
    """
    d = G.shape[0]
    frame = [(xi, sq_sign), (jxi, sq_sign)]
    out = []
    for i in range(d):
        w = np.zeros(d)
        w[i] = 1.0
        for v, s in frame:
            w = w - (float(w @ G @ v) / s) * v
        for u in out:
            w = w - float(w @ G @ u) * u
        nrm2 = float(w @ G @ w)
        if nrm2 < 1e-10:
            continue
        out.append(w / np.sqrt(nrm2))
        if len(out) == d - 2:
            break
    if len(out) != d - 2:
        raise FrameError("could not complete a basis of the complement distribution")
    return out


def extract_shape_data(jet: PointJet, xi, dxi) -> ShapeData:
    """Measure (k, p_star) of a unit vector field at the point of ``jet``
    from its values xi and partials dxi[i, m] = d_i xi^m there; G, J and the
    connection are the jet's.  Pure linear algebra: the field's jet comes
    from ``ambient.radial_unit_jet`` for the radial unit field, or from
    ``curvature.vector_jet`` for any other.

    g(xi, xi) must be +1 or -1, and its sign picks the "riemannian" or the
    "lorentz" sign conventions.  k is averaged over a full orthonormal basis
    of the complement distribution; the per-direction spread is itself the
    test that the field has the required shape, and exceeding
    ``SPREAD_GATE`` raises ShapeUniformityError instead of returning an
    average of unlike things.
    """
    xi = np.asarray(xi, float)
    D = covariant_derivative(jet, xi, np.asarray(dxi, float))
    G, J = jet.G, jet.J
    jxi = J @ xi
    sq = float(xi @ G @ xi)
    variant = "lorentz" if sq < 0.0 else "riemannian"
    sq_sign = -1.0 if variant == "lorentz" else 1.0
    if abs(sq - sq_sign) > 1e-8:
        raise FrameError(f"field is not unit: g(xi, xi) = {sq:.12g}")

    basis = _complement_basis(G, xi, jxi, sq_sign)
    k_dirs = []
    for u in basis:
        nab = u @ D  # components of the derivative along u
        val = float(u @ G @ nab)
        k_dirs.append(2.0 * val if variant == "riemannian" else -2.0 * val)
    k = float(np.mean(k_dirs))
    spread = float(np.max(np.abs(np.asarray(k_dirs) - k))) if k_dirs else 0.0
    if spread > SPREAD_GATE:
        raise ShapeUniformityError(
            f"normal curvature spread {spread:.3e} exceeds {SPREAD_GATE:.1e}")

    nab_j = jxi @ D
    proj = float(jxi @ G @ nab_j) / sq_sign
    p_star = -proj if variant == "riemannian" else proj

    eta = G @ xi
    eta_t = G @ jxi
    d = G.shape[0]
    if variant == "riemannian":
        model = 0.5 * k * (np.eye(d) - np.outer(eta, xi) - np.outer(eta_t, jxi)) \
            - p_star * np.outer(eta_t, jxi)
    else:
        model = -0.5 * k * (np.eye(d) + np.outer(eta, xi) + np.outer(eta_t, jxi)) \
            - p_star * np.outer(eta_t, jxi)
    model_defect = float(np.max(np.abs(D - model)))

    return ShapeData(k=k, p_star=p_star, xi=xi, variant=variant, spread=spread,
                     model_defect=model_defect)


# -- structural basis tensors ---------------------------------------------------


@dataclass(frozen=True)
class BasisTensors:
    pi: Tensor4
    phi: Tensor4
    psi: Tensor4

    def fit_basis(self):
        return [self.pi, self.phi, self.psi]


def build_basis_tensors(G, J, frame: RadialFrame | ShapeData) -> BasisTensors:
    """The structural (0,4)-tensors pi, phi and psi determined by (g, J, xi)
    at a point.

    ``frame.xi`` must be unit with respect to G to within ``UNIT_TOL``
    (either sign of the square norm is accepted so the flat indefinite form
    can be probed too).
    """
    G = np.asarray(G, float)
    xi = np.asarray(frame.xi, float)
    jxi = J @ xi
    sq = float(xi @ G @ xi)
    sqj = float(jxi @ G @ jxi)
    if abs(abs(sq) - 1.0) > UNIT_TOL or abs(abs(sqj) - 1.0) > UNIT_TOL:
        raise FrameError(
            f"frame is not unit in the supplied metric: g(xi,xi)={sq:.6g}, "
            f"g(Jxi,Jxi)={sqj:.6g}")

    Om = np.einsum("ai,aj->ij", J, G)
    E = G @ xi
    T = G @ jxi

    pi4 = (np.einsum("jk,il->ijkl", G, G) - np.einsum("ik,jl->ijkl", G, G)
           - 2.0 * np.einsum("ij,kl->ijkl", Om, Om)
           + np.einsum("jk,il->ijkl", Om, Om) - np.einsum("ik,jl->ijkl", Om, Om))
    pi = Tensor4(pi4 / 4.0)

    P = np.outer(E, E) + np.outer(T, T)
    W = np.outer(E, T) - np.outer(T, E)

    phi1_8 = (np.einsum("jk,il->ijkl", G, P) - np.einsum("ik,jl->ijkl", G, P)
              + np.einsum("jk,il->ijkl", Om, W) - np.einsum("ik,jl->ijkl", Om, W)
              - 2.0 * np.einsum("ij,kl->ijkl", Om, W))
    phi2_8 = (np.einsum("jk,il->ijkl", P, G) - np.einsum("ik,jl->ijkl", P, G)
              + np.einsum("jk,il->ijkl", W, Om) - np.einsum("ik,jl->ijkl", W, Om)
              - 2.0 * np.einsum("ij,kl->ijkl", W, Om))
    # the two halves are only antisymmetric in their first index pair; the
    # full curvature symmetries appear in the sum, where each supplies the
    # pair transpose of the other.
    phi = Tensor4((phi1_8 + phi2_8) / 8.0)

    psi = Tensor4(-np.einsum("ij,kl->ijkl", W, W))

    return BasisTensors(pi=pi, phi=phi, psi=psi)


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


def decompose(bundle: CurvatureBundle, shape: ShapeData) -> QCDecomposition:
    """Fit the bundle's curvature against the structural basis built on the
    unit vector of ``shape``, and classify by a + k^2 with its k."""
    basis = build_basis_tensors(bundle.jet.G, bundle.jet.J, shape)
    coeffs, residual = tensor4_fit(bundle.R, basis.fit_basis())
    a, b, c = (float(v) for v in coeffs)
    apk = a + shape.k ** 2
    return QCDecomposition(a=a, b=b, c=c, residual=residual, k=shape.k,
                           a_plus_k2=apk, klass=classify(apk))


# -- Bochner operator -------------------------------------------------------------


def holomorphic_components(T: Tensor4, J):
    """Complex-bilinear components T(V_a, conj V_b, V_c, conj V_d) of a
    4-tensor in the frame V adapted to J.

    Returns (C, V, A) with A the coefficient matrix of the frame, kept for
    the inverse transform.
    """
    V, A = adapted_complex_frame(np.asarray(J, float))
    Vc = V.conj()
    C = np.einsum("ijkl,ai,bj,ck,dl->abcd", T.a, V, Vc, V, Vc, optimize=True)
    return C, V, A


def real_from_holomorphic(C, A):
    """Real components of the curvature-type tensor with holomorphic
    components C in the frame with coefficient matrix A."""
    Ac = A.conj()
    s1 = np.einsum("abcd,ia,jb,kc,ld->ijkl", C, A, Ac, A, Ac, optimize=True)
    s2 = np.einsum("abdc,ia,jb,kc,ld->ijkl", C, A, Ac, Ac, A, optimize=True)
    return 2.0 * np.real(s1 - s2)


def bochner_of_tensor(T: Tensor4, G, J) -> Tensor4:
    """Trace-free part of a curvature tensor in the holomorphic sense.

    The Ricci data is contracted from the tensor itself, so the operator
    applies equally to synthetic combinations of the basis tensors and to
    curvature tensors coming from a bundle.
    """
    G = np.asarray(G, float)
    Ginv = np.linalg.inv(G)
    rho = np.einsum("il,ijkl->jk", Ginv, T.a)
    tau = float(np.einsum("jk,jk->", Ginv, rho))

    C, V, A = holomorphic_components(T, J)
    Vc = V.conj()
    n = V.shape[0]
    gh = V @ G @ Vc.T
    rh = V @ rho @ Vc.T

    corr = (np.einsum("ab,cd->abcd", gh, rh) + np.einsum("cb,ad->abcd", gh, rh)
            + np.einsum("cd,ab->abcd", gh, rh) + np.einsum("ad,cb->abcd", gh, rh))
    trace2 = np.einsum("ab,cd->abcd", gh, gh) + np.einsum("cb,ad->abcd", gh, gh)
    B = C - corr / (n + 2.0) + tau * trace2 / (2.0 * (n + 1.0) * (n + 2.0))

    return Tensor4(real_from_holomorphic(B, A))


def bochner_flat(B: Tensor4) -> bool:
    """Whether the Bochner tensor vanishes numerically: no component
    reaches ``BOCHNER_FLAT_TOL``."""
    return B.scale() < BOCHNER_FLAT_TOL
