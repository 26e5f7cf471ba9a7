"""Reference paths the tests check the library against.

Dual-number seeds and the elementary functions only the tests use, with
scalar fields with exact dual-number partials and a finite-difference
oracle for them.  The coordinate holomorphic frame of the flat structure,
the frame adapted to any complex structure, holomorphic components and the
Bochner tensor computed in them: the complex-frame reference for the
real-form ``qch.bochner_of_tensor``.  The radial unit field, and the fields
phi Y and Y of the hypersphere phi law, as generic-scalar vector fields
that evaluate the metric themselves: the dual-number references for the
closed-form ``ambient.radial_unit_jets`` and the phi-law jets of
``qck.sasakian``.  The hypersphere curvature as a scalar closure
K(x, y, z, u), with the looped phi-sectional and space form samples that
use it, and the looped derivative laws and Gauss cross-check: the
references for the curvature tensor, its batched contractions and the
batched checks in ``qck.sasakian``.  And curvature helpers that only the
tests use: the holomorphic sectional curvature by angle, the Kahler-gated
Bochner tensor and the covariant derivative of the complex structure.  And
the conformal-pair metrics, a rotationally symmetric Hermitian family that
is not built from a potential: an independent non-potential metric for the
curvature and Kahler tests.  And the one-point forms of batched kernels
that no command calls any more: the metric jet and its curvature bundle,
whose invariants one point at a time are the oracle of
``curvature.curvature_invariants``, the sectional curvature of a plane,
the radial unit field, the shape data, the fit, the hypersphere contact
structure and its Gauss cross-check.  And
the dual fields written entry by entry, in lists of scalars: the graph
chart, the pullback, the rotational metric and structure, and the Sasakian
family with its Reeb and phi fields, the references for their array forms
in ``qck.charts``, ``qck.rotational`` and ``qck.sasakian``.  And the
curvature assembly from the derivatives of the Christoffel symbols of the
second kind, the reference for ``curvature.curvature_tensors``, and the
seeded samplers one point at a time, the references for the array
expressions of ``qck.sampling``.  And the coordinate kernels as they stood
before their weight tables and their one QR factorisation: pi, phi, psi and
the Bochner tensor from stacks of outer products, the fit by ``lstsq`` gated
on the condition of the Gram matrix, the float evaluation of a metric
converted entry by entry, and the curvature gate over all three identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from qck.ambient import (AdmissibilityReport, AmbientSpace,
                         DefiniteLogFamily, InverseFamily, LogFamily,
                         MetricField, PotentialFamily, UserSeries,
                         _radial_projectors, admissibility, radial_unit_jets)
from qck.charts import GraphChart, pullback_metric
from qck.core import apply_j0
from qck.curvature import (SYMMETRY_GATE, PointJet, covariant_derivative,
                           curvature_gate, curvature_tensors, fd_jets,
                           holomorphic_curvatures, kahler_defect, point_jets)
from qck.duals import MultiDual, _series, coefficients, glog, gsqrt, value
from qck.errors import (DomainError, FrameError, NumericalBreakdown, QckError,
                        raise_first)
from qck.qch import (UNIT_TOL, QCDecomposition, adapted_frames,
                     bochner_of_tensor, frame_fit, shape_arrays)
from qck.sampling import SPREAD
from qck.sasakian import _gauss_delta, _induced_contacts, _sphere_chart
from qck.tensors import (COND_LIMIT, Tensor4, curvature_symmetry_defect,
                         tensor_scale)

# Every potential family, with a radius in its admissible region for each n:
# (signature, family, r).
POTENTIAL_CASES = [
    ("lorentz", LogFamily(-1.0, 1.0), 1.9),
    ("lorentz", LogFamily(-2.0, 1.5), 2.3),
    ("lorentz", InverseFamily(), 1.6),
    ("lorentz", UserSeries((0.0, 1.0, 0.1)), 1.9),
    ("definite", DefiniteLogFamily(2.0, 1.0), 1.3),
    ("definite", UserSeries((0.0, 1.0, 0.1)), 0.8),
]


class ConformalDomainError(QckError):
    """The conformal profile pair is undefined at the requested radius."""


class NotKahler(QckError):
    """Metric fails the closedness test of its fundamental two-form."""


# -- dual-number seeds and elementary functions ----------------------------------


def generator(slot: int, m: int) -> MultiDual:
    """The nilpotent generator e_{slot+1} as a MultiDual with m generators."""
    c = np.zeros((1 << m, 1))
    c[1 << slot] = 1.0
    return MultiDual(c, m)


def gexp(x):
    if not isinstance(x, MultiDual):
        return math.exp(x)
    return x.apply_series(_series(x, lambda v, m: [math.exp(v)] * (m + 1)))


def _cyclic_ders(v: float, m: int, shift: int) -> list:
    """sin(v + shift pi/2) and its first m derivatives."""
    cyc = [math.sin(v), math.cos(v), -math.sin(v), -math.cos(v)]
    return [cyc[(k + shift) % 4] for k in range(m + 1)]


def gsin(x):
    if not isinstance(x, MultiDual):
        return math.sin(x)
    return x.apply_series(_series(x, lambda v, m: _cyclic_ders(v, m, 0)))


def gcos(x):
    if not isinstance(x, MultiDual):
        return math.cos(x)
    return x.apply_series(_series(x, lambda v, m: _cyclic_ders(v, m, 1)))


# -- complex coordinates ----------------------------------------------------------


def complex_to_real(z) -> np.ndarray:
    """Interleave complex coordinates into (x1, y1, ..., xn, yn)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(2 * z.size)
    out[0::2] = z.real
    out[1::2] = z.imag
    return out


def real_to_complex(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size % 2:
        raise ValueError("real coordinate vector must have even length")
    return x[0::2] + 1j * x[1::2]


def dz_basis(n: int) -> np.ndarray:
    """Rows are the holomorphic coordinate vectors (d/dx - i d/dy)/2 in R^{2n}."""
    V = np.zeros((n, 2 * n), dtype=complex)
    for a in range(n):
        V[a, 2 * a] = 0.5
        V[a, 2 * a + 1] = -0.5j
    return V


def holomorphic_coefficients(n: int) -> np.ndarray:
    """A[i, a]: coefficient of the a-th holomorphic vector in the (1,0)-part of e_i."""
    A = np.zeros((2 * n, n), dtype=complex)
    for a in range(n):
        A[2 * a, a] = 1.0
        A[2 * a + 1, a] = 1.0j
    return A



def adapted_complex_frame(J: np.ndarray):
    """Holomorphic frame rows V and coefficient matrix A adapted to a complex
    structure J (a real matrix with J @ J = -I).

    For J equal to ``j0_matrix`` this reduces to the coordinate frame of
    ``dz_basis`` and ``holomorphic_coefficients``.  Returns (V, A) with V of
    shape (n, 2n) and A of shape (2n, n); the (1,0)-part of a real vector x
    has coefficients (A.T @ x) in the frame spanned by the rows of V.
    """
    d = J.shape[0]
    n = d // 2
    if np.max(np.abs(J @ J + np.eye(d))) > 1e-9:
        raise ValueError("J does not square to -identity")
    cols: list[np.ndarray] = []
    while len(cols) < d:
        span = np.column_stack(cols) if cols else np.zeros((d, 0))
        Q = np.linalg.qr(span, mode="reduced")[0] if cols else np.zeros((d, 0))
        best, best_res = None, 0.0
        for i in range(d):
            e = np.zeros(d)
            e[i] = 1.0
            res = np.linalg.norm(e - Q @ (Q.T @ e))
            if res > best_res:
                best, best_res = e, res
        # keep the partner column exactly J @ v so coefficient extraction
        # below stays exact
        cols.extend([best, J @ best])
    W = np.column_stack(cols)
    Winv = np.linalg.inv(W)
    V = np.zeros((n, d), dtype=complex)
    A = np.zeros((d, n), dtype=complex)
    for k in range(n):
        u = W[:, 2 * k]
        V[k] = (u - 1j * (J @ u)) / 2.0
        A[:, k] = Winv[2 * k] + 1j * Winv[2 * k + 1]
    return V, A


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


def complex_bochner(T: Tensor4, G, J) -> Tensor4:
    """The Bochner tensor of T computed in holomorphic components: the
    complex-frame reference for the real form ``qch.bochner_of_tensor``.

    Only the (1,1) part of T reaches the frame components, so a T without
    the Kahler symmetries loses the rest here.
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

# -- scalar fields ------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """Evaluator over generic scalars: floats in, float out; duals in, dual out."""

    fn: Callable[[Sequence], object]
    dim: int

    def __call__(self, x):
        return self.fn(x)


def differentiate(field, p, multi_index) -> float:
    """Exact mixed partial of ``field`` at ``p``.

    ``multi_index`` is a sequence of coordinate indices, one per derivative;
    repeats give higher pure derivatives.  Total order is capped at 4.
    """
    idx = tuple(multi_index)
    m = len(idx)
    if m == 0:
        out = field(list(map(float, p)))
        return value(out)
    if m > 4:
        raise ValueError("derivative order above 4 is not supported")
    coords: list = list(map(float, p))
    for slot, j in enumerate(idx):
        coords[j] = coords[j] + generator(slot, m)
    out = field(coords)
    d = out.coeff((1 << m) - 1) if isinstance(out, MultiDual) else 0.0
    if not math.isfinite(d):
        raise NumericalBreakdown(f"non-finite derivative {idx} at {list(p)}")
    return d


def _fd_first(f, p, i, h):
    """Richardson-extrapolated 4th-order central first difference."""

    def stencil(step):
        vals = []
        for k in (-2, -1, 1, 2):
            q = list(p)
            q[i] += k * step
            vals.append(f(q))
        fm2, fm1, fp1, fp2 = vals
        return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * step)

    d1, d2 = stencil(h), stencil(h / 2)
    return (16 * d2 - d1) / 15


def differentiate_fd(field, p, multi_index) -> float:
    """Finite-difference oracle for ``differentiate`` (same multi-index format)."""
    idx = tuple(multi_index)
    if not idx:
        return float(field(list(map(float, p))))

    def rec(q, rest):
        if not rest:
            return float(field(q))
        i = rest[0]
        h = max(1e-2 * abs(q[i]), 1e-3)
        return _fd_first(lambda s: rec(s, rest[1:]), q, i, h)

    d = rec(list(map(float, p)), idx)
    if not math.isfinite(d):
        raise NumericalBreakdown(f"non-finite finite-difference {idx} at {list(p)}")
    return d


def radial_unit_vector(space, x, G, orientation: str):
    """The radial unit vector at x on generic scalars, normalized in the
    metric values ``G`` at x."""
    if orientation not in ("outward", "inward"):
        raise ValueError("orientation must be outward or inward")
    r = space.radius(x)
    xi = [xi_i / r for xi_i in x]
    nrm2 = 0.0
    for i in range(len(xi)):
        for j in range(len(xi)):
            nrm2 = nrm2 + xi[i] * G[i][j] * xi[j]
    if value(nrm2) <= 0:
        raise FrameError("radial direction has non-positive square norm "
                         f"{value(nrm2):.3e}")
    s = gsqrt(nrm2)
    sign = -1.0 if orientation == "inward" else 1.0
    return [sign * c / s for c in xi]


def radial_unit_field(space, metric=None, orientation: str = "outward"):
    """The radial unit vector as a generic-scalar field x -> xi(x): one
    metric evaluation per call, normalized in ``metric``, or in the flat
    form when ``metric`` is None (g(xi, xi) = -1 on the Lorentz background).
    Differentiate it with ``duals.eval_with_partials``."""
    sign = -1.0 if orientation == "inward" else 1.0

    def xi_field(x):
        if metric is None:
            r = space.radius(x)
            return [sign * c / r for c in x]
        return radial_unit_vector(space, x, metric(x), orientation)

    return xi_field


def sphere_phi_fields(space, metric, orientation):
    """y -> (phi Y, Y) for the tangential part Y = y - g(y, xi) xi of a
    constant vector y, with phi v = J0 v + g(v, J0 xi) xi on the hypersphere
    through the point; each field evaluation runs the metric once.
    Differentiate them with ``duals.eval_with_partials``."""

    def tangential(x, y):
        g = metric(x)
        xf = radial_unit_vector(space, x, g, orientation)
        d = len(y)
        gy = [sum(g[i][j] * y[j] for j in range(d)) for i in range(d)]
        coef = sum(gy[i] * xf[i] for i in range(d))
        return g, xf, [y[i] - coef * xf[i] for i in range(d)]

    def fields(y):
        def phiy_field(x):
            g, xf, v = tangential(x, y)
            d = len(v)
            jxf = apply_j0(xf)
            gv = [sum(g[i][j] * v[j] for j in range(d)) for i in range(d)]
            coef = sum(gv[i] * jxf[i] for i in range(d))
            jv = apply_j0(v)
            return [jv[i] + coef * xf[i] for i in range(d)]

        return phiy_field, lambda x: tangential(x, y)[2]

    return fields


# -- hypersphere curvature, one quadruple at a time -----------------------------


def tensor_closure(T):
    """(x, y, z, u) -> T(x, y, z, u) of a 4-tensor array."""

    def K(x, y, z, u):
        return float(np.einsum("ijkl,i,j,k,l->", T, x, y, z, u))

    return K


def gauss_curvature_closure(structure, spheres, R, p: int = 0):
    """Curvature quadruple (x, y, z, u) -> K(x, y, z, u) of the hypersphere
    through point p of a structure, by the Gauss equation with the ambient
    curvature tensors R, and the second fundamental form
    h(x, y) = -g(nabla_x xi, y) evaluated per pair of vectors."""
    jet = structure.jet.rows(p)
    G = jet.G
    D = covariant_derivative(jet, spheres.xi[p], spheres.dxi[p])

    def h(x, y):
        return -float((x @ D) @ G @ y)

    R = tensor_closure(R[p])

    def K(x, y, z, u):
        return R(x, y, z, u) + h(y, z) * h(x, u) - h(x, z) * h(y, u)

    return K


def phi_sectional_values(structure, K, seed=0, p: int = 0):
    """K(x, phi x, phi x, x) / |x ^ phi x|^2 at point p of a structure over
    the unit directions of the seeded draws of ``sasakian.phi_sectional``,
    one direction at a time."""
    G, phi = structure.jet.G[p], structure.phi[p]
    dbasis = structure.tangent_basis[p, 1:]
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(12):
        x = rng.normal(size=len(dbasis)) @ dbasis
        nrm = math.sqrt(abs(float(x @ G @ x)))
        if nrm < 1e-6:
            continue
        x = x / nrm
        px = phi @ x
        den = float(x @ G @ x) * float(px @ G @ px) - float(x @ G @ px) ** 2
        vals.append(K(x, px, px, x) / den)
    return vals


def space_form_samples(structure, K, c, alpha, p: int = 0):
    """The quadruples of ``sasakian.space_form_model_defect`` at point p of
    a structure with, per quadruple, the value of K and of the
    alpha-Sasakian space form model from scalar products: (quads, K values,
    model values)."""
    G, phi = structure.jet.G[p], structure.phi[p]
    eta_t = structure.eta_tilde[p]
    A = 0.25 * (c + 3.0 * alpha * alpha)
    B = 0.25 * (c - alpha * alpha)
    basis = structure.tangent_basis[p]
    rng = np.random.default_rng(1)

    def g(u, v):
        return float(u @ G @ v)

    def et(u):
        return float(eta_t @ u)

    quads, kvals, mvals = [], [], []
    for _ in range(30):
        x, y, z, u = (rng.normal(size=len(basis)) @ basis for _ in range(4))
        model = A * (g(y, z) * g(x, u) - g(x, z) * g(y, u))
        model += B * (g(phi @ y, z) * g(phi @ x, u)
                      - g(phi @ x, z) * g(phi @ y, u)
                      - 2.0 * g(phi @ x, y) * g(phi @ z, u)
                      - g(y, z) * et(x) * et(u) - g(x, u) * et(y) * et(z)
                      + g(x, z) * et(y) * et(u) + g(y, u) * et(x) * et(z))
        quads.append((x, y, z, u))
        kvals.append(K(x, y, z, u))
        mvals.append(model)
    return quads, kvals, mvals


def alpha_check_looped(structure, dreeb, phi_law, p: int = 0):
    """The derivative laws of ``sasakian._alpha_check`` at point p of a
    structure, one basis vector at a time: (alpha, alpha defect, phi
    defect)."""
    jet = structure.jet.rows(p)
    G, phi, basis = jet.G, structure.phi[p], structure.tangent_basis[p]
    xit, eta_t = structure.xi_tilde[p], structure.eta_tilde[p]
    T = structure.tangential[p]

    def gnorm(v):
        return math.sqrt(abs(float(v @ G @ v)))

    D = covariant_derivative(jet, xit, dreeb[p])
    pairs = [(T @ (u @ D), phi @ u) for u in basis]
    alpha = (sum(float(d @ G @ q) for d, q in pairs)
             / sum(float(q @ G @ q) for _, q in pairs))
    alpha_defect = max(gnorm(d - alpha * q) for d, q in pairs)
    (PY, dPY), (Y, dY) = phi_law
    phi_defect = 0.0
    for b, y in enumerate(basis):
        Dp = covariant_derivative(jet, PY[p, b], dPY[p, b])
        Dy = covariant_derivative(jet, Y[p, b], dY[p, b])
        for u in basis:
            lhs = T @ (u @ Dp) - phi @ (T @ (u @ Dy))
            rhs = alpha * (float(eta_t @ y) * u - float(u @ G @ y) * xit)
            phi_defect = max(phi_defect, gnorm(lhs - rhs))
    return alpha, alpha_defect, phi_defect


def gauss_delta_looped(structure, K, cjet, Rc, seed, p: int = 0,
                       min_den: float = 1e-3):
    """The Gauss cross-check of ``sasakian._gauss_delta`` at point p of a
    structure, drawing seeded planes one pair at a time until 6 reach a
    Gram determinant of ``min_den``, and comparing each with the intrinsic
    sectional curvature of the chart point: (gap, planes drawn)."""
    G, basis = structure.jet.G[p], structure.tangent_basis[p]
    intrinsic = CurvatureBundle(cjet.rows(p), Tensor4(Rc[p]))
    rng = np.random.default_rng(seed)
    worst, done, drawn = 0.0, 0, 0
    while done < 6:
        x, y = (rng.normal(size=len(basis)) @ basis for _ in range(2))
        drawn += 1
        den = float(x @ G @ x) * float(y @ G @ y) - float(x @ G @ y) ** 2
        if abs(den) < min_den:
            continue
        extr = float(np.einsum("ijkl,i,j,k,l->", K[p], x, y, y, x)) / den
        worst = max(worst, abs(extr - sectional(intrinsic, x[:-1], y[:-1])))
        done += 1
    return worst, drawn


# -- curvature helpers only the tests use --------------------------------------


@dataclass(frozen=True)
class SectionAngle:
    theta: float
    cos2: float


def section_angle(frame, X, G) -> SectionAngle:
    """Angle between the holomorphic plane of a unit X and the (xi, J xi) plane."""
    X = np.asarray(X, float)
    G = np.asarray(G, float)
    eta = float(frame.xi @ G @ X)
    eta_t = float(frame.jxi @ G @ X)
    cos2 = min(1.0, max(0.0, eta * eta + eta_t * eta_t))
    return SectionAngle(theta=float(np.arccos(np.sqrt(cos2))), cos2=cos2)


def hsc_angle_profile(bundle, frame, samples):
    """(theta, H) pairs for the holomorphic sections of the sample vectors."""
    G = bundle.jet.G
    out = []
    for X in samples:
        X = np.asarray(X, float)
        Xu = X / np.sqrt(abs(float(X @ G @ X)))
        out.append((section_angle(frame, Xu, G).theta, bundle.hsc(Xu)))
    return out


def bochner_tensor(jet, bundle=None, kahler_gate: float = 1e-9):
    """Bochner tensor at the point of ``jet``, gated on the metric actually
    being Kahler there; ``bundle`` is the curvature bundle of the same jet
    when the caller has built it already."""
    defect = kahler_defect(jet)
    if defect > kahler_gate:
        raise NotKahler(
            f"fundamental form closedness defect {defect:.3e} exceeds {kahler_gate:.1e}")
    if bundle is None:
        bundle = curvature_bundle(jet)
    return bochner_of_tensor(bundle.R, jet.G, jet.J)


def structure_covariant_defect(jet) -> float:
    """Max entry of the covariant derivative of the complex structure.

    A stronger pointwise Kahler test than ``curvature.kahler_defect``.
    """
    gamma, J, dJ = jet.gamma, jet.J, jet.dJ
    # (nabla_k J)^i_j = d_k J^i_j + gamma^i_{ka} J^a_j - gamma^a_{kj} J^i_a
    nj = dJ + np.einsum("ika,aj->kij", gamma, J) - np.einsum("akj,ia->kij", gamma, J)
    return float(np.max(np.abs(nj)))


# -- the frame loop over every coordinate direction ---------------------------


def adapted_frames_every_direction(G, J, xi):
    """``qch.adapted_frames`` as its loop stood before it skipped a
    direction that no point takes: every coordinate direction is one step,
    an empty pair included, and every point's pairs are reordered, the
    empty ones last, with the same relative threshold.  The reference that
    the leaner loop keeps to the bit."""
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


# -- one-point forms of batched kernels that only the tests call -------------


def stacked(jet):
    """A one-point jet with a points axis of length 1."""
    return jet.rows(None)


def curvature_tensors_second_kind(jet):
    """The curvature tensors at the points of a jet, assembled from the
    derivatives of the Christoffel symbols of the second kind and lowered
    by G at the end: the assembly that ``curvature.curvature_tensors``
    replaced, kept as its oracle.  d_i gamma^m_jk comes from
    d_i Ginv = -Ginv dG_i Ginv and the bracket of d2G."""
    G, dG, d2G, gamma, Ginv = jet.G, jet.dG, jet.d2G, jet.gamma, jet.Ginv
    P, d = G.shape[:2]

    def bracket(T):
        # d_j T_{lk} + d_k T_{lj} - d_l T_{jk} at [..., l, j, k]
        return T.swapaxes(-3, -2) + np.moveaxis(T, -3, -1) - T

    dGinv = -(Ginv[:, None] @ dG @ Ginv[:, None])
    dgamma = 0.5 * (dGinv @ bracket(dG).reshape(P, 1, d, d * d)
                    + Ginv[:, None] @ bracket(d2G).reshape(P, d, d, d * d))
    dgamma = dgamma.reshape(P, d, d, d, d)
    # sum_a gamma^m_{ia} gamma^a_{jk}, and the same with i and j swapped
    quad = (gamma.reshape(P, d * d, d)
            @ gamma.reshape(P, d, d * d)).reshape(P, d, d, d, d)
    Rm = (dgamma.swapaxes(1, 2) - dgamma.transpose(0, 2, 3, 1, 4)
          + quad - quad.swapaxes(2, 3))
    # R_{ijkl} = g_{ml} Rm^m_{ijk}
    return (Rm.reshape(P, d, d ** 3).swapaxes(1, 2) @ G).reshape(P, d, d, d, d)


def point_jet(metric, x, method: str = "exact"):
    """The PointJet of ``metric`` at ``x``: the row of ``point_jets``
    (``method="exact"``) or of the finite-difference oracle ``fd_jets``
    (``method="fd"``) at the batch of this one point, raising its first
    failing gate."""
    X = np.array([[float(c) for c in x]])
    if method == "fd":
        return fd_jets(metric, X).rows(0)
    if method != "exact":
        raise ValueError(f"unknown jet method {method!r}")
    return point_jets(metric, X).rows(0)


@dataclass
class CurvatureBundle:
    """Curvature tensor of a metric field at the point of a one-point
    ``jet``, whose metric, inverse metric and complex structure the
    invariants use: the invariants one point at a time, the oracle of
    ``curvature.curvature_invariants``."""

    jet: PointJet
    R: Tensor4  # R[i, j, k, l], all indices down

    def ricci(self) -> np.ndarray:
        return np.einsum("il,ijkl->jk", self.jet.Ginv, self.R.a)

    def scalar_curvature(self) -> float:
        return float(np.einsum("jk,jk->", self.jet.Ginv, self.ricci()))

    def hsc(self, X) -> float:
        """Holomorphic sectional curvature of the section (X, JX): the
        one-point case of ``holomorphic_curvatures``."""
        return float(holomorphic_curvatures(
            self.R.a[None], self.jet.G[None], self.jet.J[None],
            np.asarray(X, float)[None, None])[0, 0])

    def sigma_radial(self, xi) -> float:
        """Negated Ricci value on a radial unit direction."""
        xi = np.asarray(xi, float)
        return float(-xi @ self.ricci() @ xi)

    def kappa_radial(self, xi) -> float:
        """Curvature value on the radial holomorphic section."""
        xi = np.asarray(xi, float)
        jxi = self.jet.J @ xi
        return float(np.einsum("ijkl,i,j,k,l->", self.R.a, xi, jxi, jxi, xi))

    def invariants(self, xi) -> list:
        """The row of ``curvature.curvature_invariants`` at this point on
        the unit direction xi, taken one invariant at a time."""
        scale = max(1.0, self.R.scale())
        return [self.scalar_curvature(), self.sigma_radial(xi),
                self.kappa_radial(xi), self.hsc(xi),
                self.R.curvature_symmetry_defect() / scale,
                self.R.first_bianchi_defect() / scale]


def curvature_bundle(jet):
    """The curvature bundle at the point of a one-point ``jet``: the
    one-point case of ``curvature_tensors``, with NumericalBreakdown past
    the symmetry gate rather than a garbage tensor."""
    R = curvature_tensors(stacked(jet))
    raise_first([curvature_gate(R)])
    return CurvatureBundle(jet, Tensor4(R[0]))


def sectional(bundle, X, Y) -> float:
    """Sectional curvature of the plane of X and Y at the point of a
    curvature bundle; NumericalBreakdown for a degenerate plane."""
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    num = float(np.einsum("ijkl,i,j,k,l->", bundle.R.a, X, Y, Y, X))
    G = bundle.jet.G
    den = (X @ G @ X) * (Y @ G @ Y) - (X @ G @ Y) ** 2
    if abs(den) < 1e-14:
        raise NumericalBreakdown("degenerate section")
    return num / den


def radial_unit_jet(space, jet, orientation: str = "outward"):
    """The metric-normalized radial unit field at the point of ``jet``:
    (xi, dxi) with dxi[i, m] = d_i xi^m, the one-point case of
    ``ambient.radial_unit_jets``, raising its first failing gate."""
    xi, dxi, gates = radial_unit_jets(space, stacked(jet), orientation)
    raise_first(gates)
    return xi[0], dxi[0]


@dataclass(frozen=True)
class ShapeData:
    """Shape coefficients of a unit radial field at one point: the common
    normal curvature k of the directions orthogonal to the (xi, J xi)
    plane, and the structure coefficient p_star of the J xi direction."""

    k: float
    p_star: float
    xi: np.ndarray
    variant: str  # "riemannian" | "lorentz"
    spread: float
    model_defect: float


def shape_data(xi, k, p_star, sq, spread, model_defect) -> ShapeData:
    return ShapeData(k=float(k), p_star=float(p_star), xi=xi,
                     variant="lorentz" if sq < 0.0 else "riemannian",
                     spread=float(spread), model_defect=float(model_defect))


def extract_shape_data(jet, xi, dxi) -> ShapeData:
    """Shape data (k, p_star) of a unit vector field with values xi and
    partials dxi at the point of ``jet``: the one-point case of
    ``qch.adapted_frames`` and ``qch.shape_arrays``, raising the first
    failing gate of the shape data."""
    xi = np.asarray(xi, float)
    jet = stacked(jet)
    F, signs, _ = adapted_frames(jet.G, jet.J, xi[None])
    *shape, gates = shape_arrays(jet, F, signs, np.asarray(dxi, float)[None])
    raise_first(gates)
    return shape_data(xi, *(a[0] for a in shape))


def decompose(bundle, shape: ShapeData) -> QCDecomposition:
    """The fit of the bundle's curvature in the J-adapted frame of the unit
    vector of ``shape``, classified with its k: the one-point case of
    ``qch.adapted_frames`` and ``qch.frame_fit``."""
    F, signs, gates = adapted_frames(bundle.jet.G[None], bundle.jet.J[None],
                                     np.asarray(shape.xi, float)[None])
    raise_first(gates)
    coeffs, residual = frame_fit(bundle.R.a[None], F, signs)
    return QCDecomposition.of(*coeffs[0].tolist(), float(residual[0]), shape.k)


@dataclass(frozen=True)
class PointRow:
    """One row of a ``qch.DecompositionRecord``, point by point: its
    admissibility as scalars, the error up to its unit field, whether it
    passed the curvature gate with the least eigenvalue of G and the Kahler
    defect there, its unit field, its curvature invariants, and its shape
    data and fit where they stand, each with its own error."""

    point: np.ndarray
    admissibility: AdmissibilityReport
    error: QckError | None
    curved: bool
    min_eigenvalue: float | None
    kahler_defect: float | None
    xi: np.ndarray | None
    invariants: list | None
    shape: ShapeData | None
    shape_error: QckError | None
    fit: tuple | None
    fit_error: QckError | None
    first_error: QckError | None
    decomposition: QCDecomposition | None


def point_rows(record) -> list:
    """The rows of a ``qch.DecompositionRecord``, in order."""
    adm = record.admissibility
    curved = set(record.curved.tolist())
    unit = set(record.unit.tolist())
    out = []
    for i, x in enumerate(record.point):
        shape = None
        if record.k is not None and i in unit \
                and record.shape_error[i] is None:
            shape = shape_data(record.xi[i], *(a[i] for a in (
                record.k, record.p_star, record.sq, record.spread,
                record.model_defect)))
        out.append(PointRow(
            point=x,
            admissibility=AdmissibilityReport(*(
                getattr(adm, f)[i] for f in ("w", "f_prime",
                                             "f_prime_plus_wf2",
                                             "in_domain", "ok"))),
            error=record.error[i],
            curved=i in curved,
            min_eigenvalue=(float(record.min_eigenvalue[i]) if i in curved
                            else None),
            kahler_defect=(float(record.kahler_defect[i]) if i in curved
                           else None),
            xi=record.xi[i] if i in unit else None,
            invariants=(record.invariants[i].tolist()
                        if record.invariants is not None and i in unit
                        else None),
            shape=shape, shape_error=record.shape_error[i],
            fit=record.fit(i), fit_error=record.fit_error[i],
            first_error=record.first_error(i),
            decomposition=record.decomposition(i)))
    return out


def induced_contact(space, metric, x, orientation: str = "auto"):
    """The contact structure of the hypersphere through x, and that
    hypersphere's data: ``sasakian._induced_contacts`` at a batch of one
    point."""
    jet = point_jets(metric, np.asarray([[float(c) for c in x]]))
    return _induced_contacts(space, jet, orientation)[:2]


def gauss_consistency(space, metric, structure, spheres, K,
                      seed: int = 2):
    """The Gauss cross-check of ``sasakian.sphere_reports`` on a structure
    and its hyperspheres: the pulled-back metric's jet at the points' chart
    parameters, and ``sasakian._gauss_delta``."""
    chart, U = _sphere_chart(space, structure.jet.point, spheres.radius)
    cjet = point_jets(pullback_metric(chart, metric), U)
    Rc = curvature_tensors(cjet)
    raise_first([curvature_gate(Rc)])
    return _gauss_delta(structure, K, chart, cjet, Rc, seed)


# -- the dual fields entry by entry -----------------------------------------------


def chart_fn_looped(chart, u):
    """``GraphChart.fn`` as a list, its radicand summed entry by entry."""
    chart.guard([value(c) for c in u])
    return list(u) + [chart.sign * gsqrt(_radicand_looped(chart, u))]


def chart_jac_looped(chart, u):
    """``GraphChart.jac`` as a list of rows of scalars."""
    chart.guard([value(c) for c in u])
    w = chart.sign * gsqrt(_radicand_looped(chart, u))
    k = len(u) - 1 if chart.lorentz else 0
    rows = [[1.0 if q == p else 0.0 for q in range(chart.nparams)]
            for p in range(chart.nparams)]
    rows.append([c / w for c in u[:k]] + [-c / w for c in u[k:]])
    return rows


def _radicand_looped(chart, u):
    k = len(u) - 1 if chart.lorentz else 0
    arg = chart.radius**2
    for c in u[:k]:
        arg = arg + c * c
    for c in u[k:]:
        arg = arg - c * c
    return arg


def pullback_metric_looped(chart, ambient) -> MetricField:
    """``charts.pullback_metric`` with J^T G J summed entry by entry, the
    entries p <= q mirrored."""
    constant = not isinstance(ambient, MetricField)
    Gconst = np.asarray(ambient, float) if constant else None
    d, m = chart.ambient_dim, chart.nparams

    def ev(u):
        jc = chart_jac_looped(chart, u)
        rows = Gconst if constant else ambient(chart_fn_looped(chart, u))
        gj = []
        for i in range(d):
            col = []
            for q in range(m):
                acc = 0.0
                for a in range(d):
                    gia = rows[i][a]
                    if constant and gia == 0.0:
                        continue
                    acc = acc + gia * jc[a][q]
                col.append(acc)
            gj.append(col)
        out = [[0.0] * m for _ in range(m)]
        for p in range(m):
            for q in range(p, m):
                e = sum(jc[i][p] * gj[i][q] for i in range(d))
                out[p][q] = e
                out[q][p] = e
        return out

    return MetricField(ev, m, name="pullback-looped")


def rotation_metric_looped(profile, n: int = 2) -> MetricField:
    """``rotational.rotation_metric``'s metric and structure with the inner
    products of the coordinate vectors of the embedding summed entry by
    entry."""
    tag = profile.rotation_type
    dsph = m = 2 * n
    sphere = GraphChart(1.0, dsph, lorentz=tag == "III")
    hs = np.ones(dsph)
    if tag == "III":
        hs[-2:] = -1.0
    e2 = -1.0 if tag == "II" else 1.0
    esign = -1.0 if tag == "III" else 1.0
    source = profile.source

    def pieces(u):
        t = u[0]
        y = list(u[1:])
        nv = chart_fn_looped(sphere, y)
        dn = chart_jac_looped(sphere, y)
        tp = source.tp(t)
        dqdt = profile.dqdt(t)
        cols = [list(nv) + [dqdt]]
        for j in range(m - 1):
            cols.append([t * dn[i][j] for i in range(dsph)] + [0.0])
        return nv, tp, dqdt, cols

    def amb_inner(xa, xb):
        acc = 0.0
        for i in range(dsph):
            acc = acc + hs[i] * xa[i] * xb[i]
        return acc + e2 * xa[dsph] * xb[dsph]

    def metric_fn(u):
        nv, tp, dqdt, cols = pieces(u)
        gb = [[amb_inner(cols[p], cols[s]) for s in range(m)] for p in range(m)]
        eb = [tp * gb[p][0] for p in range(m)]
        jn = apply_j0(nv)
        et = [sum(cols[p][i] * hs[i] * jn[i] for i in range(dsph))
              for p in range(m)]
        w = (tp - 1.0) if tag in ("I", "II") else (1.0 - tp)
        return [[gb[p][s] + w * (eb[p] * eb[s] + et[p] * et[s])
                 for s in range(m)] for p in range(m)]

    def structure_fn(u):
        nv, tp, dqdt, cols = pieces(u)
        jn = apply_j0(nv)
        qp = dqdt * tp
        xib = [tp * c for c in nv] + [qp]
        xit = list(jn) + [0.0]
        images = []
        for p in range(m):
            W = cols[p]
            acf = esign * amb_inner(W, xib)
            bcf = esign * amb_inner(W, xit)
            wd = [W[i] - acf * xib[i] - bcf * xit[i] for i in range(dsph)]
            jwd = apply_j0(wd)
            img = [acf * xit[i] - bcf * xib[i] + jwd[i] for i in range(dsph)]
            img.append(-bcf * qp)
            images.append(img)
        M = [[sum(cols[p][i] * cols[s][i] for i in range(dsph + 1))
              for s in range(m)] for p in range(m)]
        B = [[sum(cols[r][i] * images[p][i] for i in range(dsph + 1))
              for p in range(m)] for r in range(m)]
        if not isinstance(u[0], MultiDual):
            return np.linalg.solve(M, B)
        return _solve_first_jet_looped(M, B, u[0])

    return MetricField(metric_fn, m, name=f"rotational-{tag}-looped",
                       complex_structure=structure_fn)


def _solve_first_jet_looped(M, B, seed):
    p = seed.c.shape[-1]
    Mc, Bc = coefficients(M, 1, p), coefficients(B, 1, p)
    M0 = Mc[..., 0, 0]
    dM, dB = (np.moveaxis(c[..., 1, :], -1, -3) for c in (Mc, Bc))
    X = np.linalg.solve(M0, Bc[..., 0, 0])
    dX = np.linalg.solve(M0[..., None, :, :], dB - dM @ X[..., None, :, :])
    out = np.empty(X.shape + (2, p))
    out[..., 0, :] = X[..., None]
    out[..., 1, :] = np.moveaxis(dX, -3, -1)
    return [[MultiDual(out[..., i, j, :, :], 1) for j in range(len(M))]
            for i in range(len(M))]


def family_h1_metric_looped(n: int, q: float):
    """``sasakian.family_h1_metric`` entry by entry: (metric, reeb, phi)."""
    space = AmbientSpace(n, "lorentz")
    H = space.flat_real()
    d = space.dim
    chart = GraphChart(1.0, d, lorentz=True)
    m = chart.nparams
    hbar = pullback_metric_looped(chart, H)

    def eta_chart(u):
        jn = apply_j0(chart_fn_looped(chart, u))
        jc = chart_jac_looped(chart, u)
        return [sum(jc[i][p] * H[i, i] * jn[i] for i in range(d))
                for p in range(m)]

    def metric_fn(u):
        base = hbar(u)
        et = eta_chart(u)
        w = 1.0 + q * q
        return [[q * q * (base[p][s] + w * et[p] * et[s]) for s in range(m)]
                for p in range(m)]

    def reeb_field(u):
        jn = apply_j0(chart_fn_looped(chart, u))
        return [-jn[p] / (q * q) for p in range(m)]

    def phi_matrix(u):
        nv = chart_fn_looped(chart, u)
        jn = apply_j0(nv)
        jc = chart_jac_looped(chart, u)
        cols = []
        for p in range(m):
            W = [jc[i][p] for i in range(d)]
            coef = -sum(W[i] * H[i, i] * jn[i] for i in range(d))
            jw = apply_j0(W)
            cols.append([jw[i] + coef * nv[i] for i in range(d)][:m])
        return [[cols[s][p] for s in range(m)] for p in range(m)]

    return (MetricField(metric_fn, m, name=f"sasakian-family-looped[q={q}]"),
            reeb_field, phi_matrix)


# -- conformal pairs ----------------------------------------------------------


@dataclass(frozen=True)
class ConformalPair:
    """Radial conformal profiles (u(r), v(r)) as generic-scalar callables."""

    u: Callable
    v: Callable
    source: str = "custom"


def conformal_factors(family: PotentialFamily, r: float):
    """Profile values (u(r), v(r)) matching the potential metric scales.

    exp(-2u) = 2 f' and exp(-2v) + 1 = r^2 f'' / f', both at w = -r^2; the
    second requires r^2 f''/f' > 1, which every admissible Lorentz potential
    satisfies, but user profiles may not (ConformalDomainError).
    """
    w = -float(r) ** 2
    if not family.in_domain(w):
        raise DomainError(f"radius {r} outside the family domain")
    fp = family.d1(w)
    if fp <= 0:
        raise ConformalDomainError(f"2f' = {2 * fp:.6g} not positive at r={r}")
    ratio = r**2 * family.d2(w) / fp
    if ratio <= 1.0:
        raise ConformalDomainError(f"r^2 f''/f' = {ratio:.6g} <= 1 at r={r}")
    u = -0.5 * math.log(2.0 * fp)
    v = -0.5 * math.log(ratio - 1.0)
    return u, v


def conformal_pair_from_family(family: PotentialFamily) -> ConformalPair:
    def u(r):
        return -0.5 * glog(2.0 * family.d1(-r * r))

    def v(r):
        fp = family.d1(-r * r)
        return -0.5 * glog(r * r * family.d2(-r * r) / fp - 1.0)

    return ConformalPair(u, v, source=family.describe())


def metric_from_conformal_pair(space: AmbientSpace, pair: ConformalPair) -> MetricField:
    """Rotationally symmetric Hermitian metric from conformal profiles:

        G = exp(-2u(r)) (H + (exp(-2v(r)) + 1) (eta (x) eta + jeta (x) jeta))

    Defined on the time-like region of the Lorentz background only.
    """
    if not space.lorentz:
        raise DomainError("conformal pair metrics are defined on the Lorentz background")
    H = space.flat_real()
    d = space.dim

    def ev(x):
        r = space.radius(x)
        s1 = gexp(-2.0 * pair.u(r))
        s2 = gexp(-2.0 * pair.v(r)) + 1.0
        eta, jeta = _radial_projectors(space, x, r)
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                e = s2 * (eta[i] * eta[j] + jeta[i] * jeta[j])
                if i == j:
                    e = e + H[i, i]
                row.append(s1 * e)
            out.append(row)
        return out

    return MetricField(ev, d, name=f"conformal[{pair.source}]")


# -- the seeded samplers one point at a time ------------------------------------


def point_at_radius_looped(space: AmbientSpace, r: float, rng) -> np.ndarray:
    """A point at radius r, its coordinates one point at a time: the
    reference for the array expression of ``sampling.point_at_radius``."""
    if not space.lorentz:
        v = rng.normal(size=space.dim)
        return r * v / float(np.linalg.norm(v))
    w = (rng.normal(scale=SPREAD, size=space.n - 1)
         + 1j * rng.normal(scale=SPREAD, size=space.n - 1))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    zn = np.exp(1j * theta) * np.sqrt(r * r + float(np.sum(np.abs(w) ** 2)))
    return complex_to_real(np.append(w, zn))


def radial_points_looped(space: AmbientSpace, count: int, rmin: float,
                         rmax: float, rng, family=None) -> tuple:
    """The sample of ``sampling.radial_points`` drawn one point at a time
    from ``rng``, which it leaves after the last point kept: (points, the
    number of points drawn)."""
    pts, drawn = [], 0
    while len(pts) < count:
        x = point_at_radius_looped(space, rng.uniform(rmin, rmax), rng)
        drawn += 1
        w = float(space.square_norm(x))
        if family is None or admissibility(space, family, w).ok:
            pts.append(x)
    return pts, drawn


# -- the coordinate kernels as sums of stacked outer products -------------------


def outer_sum(pairs):
    """sum over the pairs (A, B) of A[p, a, b] B[p, c, e], as T[p, a, b, c, e]:
    one matrix product per point."""
    A = np.stack([a for a, _ in pairs], axis=1)
    B = np.stack([b for _, b in pairs], axis=1)
    P, Q, d = A.shape[:3]
    T = A.reshape(P, Q, d * d).swapaxes(1, 2) @ B.reshape(P, Q, d * d)
    return T.reshape(P, d, d, d, d)


def antisym_cross(pairs):
    """sum over the pairs of A_jk B_il - A_ik B_jl, at [p, i, j, k, l]."""
    T = outer_sum(pairs).transpose(0, 3, 1, 2, 4)
    return T - T.swapaxes(1, 2)


def kahler_product(G, Om, S, JS):
    """The Kahler product of a J-invariant symmetric S with g at each point,
    from G, Om = J^T G, S and JS = J^T S: its crossed terms less twice the
    straight ones."""
    K = antisym_cross([(G, S), (Om, JS), (S, G), (JS, Om)])
    K -= 2.0 * outer_sum([(Om, JS), (JS, Om)])
    return K


def basis_arrays_stacked(G, J, xi):
    """pi, phi and psi at each point, (P, 3, d, d, d, d), each term its own
    stack of outer products: the reference for the weight tables of
    ``qch.basis_arrays``."""
    Om = np.einsum("pai,paj->pij", J, G)
    E = np.einsum("pij,pj->pi", G, xi)
    T = np.einsum("pij,pj->pi", G, np.einsum("pij,pj->pi", J, xi))
    Pm = E[:, :, None] * E[:, None, :] + T[:, :, None] * T[:, None, :]
    W = E[:, :, None] * T[:, None, :] - T[:, :, None] * E[:, None, :]
    return np.stack([
        (antisym_cross([(G, G), (Om, Om)]) - 2.0 * outer_sum([(Om, Om)]))
        / 4.0,
        kahler_product(G, Om, Pm, W) / 8.0,
        -outer_sum([(W, W)])], axis=1)


def bochner_arrays_stacked(T, G, J):
    """The Bochner tensors of T at each point with the Kahler product of
    ``kahler_product``: the reference for ``qch.bochner_arrays``."""
    P, d = G.shape[:2]
    Ginv = np.linalg.inv(G)
    rho = (T.transpose(0, 2, 3, 1, 4).reshape(P, d * d, d * d)
           @ Ginv.reshape(P, d * d, 1)).reshape(P, d, d)
    tau = Ginv.reshape(P, 1, d * d) @ rho.reshape(P, d * d, 1)
    n = d / 2.0
    S = rho / (2.0 * (n + 2.0)) - tau * G / (8.0 * (n + 1.0) * (n + 2.0))
    JT = J.swapaxes(1, 2)
    return T - kahler_product(G, JT @ G, S, JT @ S)


def fit_tensors_lstsq(targets, basis):
    """Least-squares fits of targets (P, N) against each basis (P, m, N) by
    ``np.linalg.lstsq`` one point at a time, gated on the condition of the
    Gram matrix formed and taken by ``np.linalg.cond``: (coeffs, residual,
    cond, bad), nan on the rows past ``tensors.COND_LIMIT``.  The
    reference for the one factorisation of ``tensors.fit_tensors``."""
    cond = np.linalg.cond(np.einsum("pmn,pqn->pmq", basis, basis))
    bad = ~np.isfinite(cond) | (cond > COND_LIMIT)
    coeffs = np.full(basis.shape[:2], np.nan)
    residual = np.full(len(targets), np.nan)
    for p in np.flatnonzero(~bad):
        B, t = basis[p], targets[p]
        coeffs[p] = np.linalg.lstsq(B.T, t, rcond=None)[0]
        misfit = t - coeffs[p] @ B
        residual[p] = math.sqrt((misfit @ misfit) / max(1.0, t @ t))
    return coeffs, residual, cond, bad


def matrix_per_entry(metric: MetricField, x) -> np.ndarray:
    """The float evaluation of a metric field converted entry by entry, as
    ``MetricField.matrix`` took it before one conversion of the whole."""
    out = metric.fn([float(c) for c in x])
    if isinstance(out, np.ndarray):
        return out.astype(float)
    return np.array([[value(e) for e in row] for row in out])


def curvature_gate_three_identities(R):
    """The rows of R past the curvature gate when it checked all three
    identities of ``tensors.curvature_symmetry_defect``, the (i, j)
    antisymmetry included, and let a nan defect through."""
    return curvature_symmetry_defect(R) > SYMMETRY_GATE * np.maximum(
        1.0, tensor_scale(R))
