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
use it: the references for the curvature tensor and its batched
contractions in ``qck.sasakian``.  And curvature helpers that only the
tests use: the holomorphic sectional curvature by angle, the Kahler-gated
Bochner tensor and the covariant derivative of the complex structure.  And
the conformal-pair metrics, a rotationally symmetric Hermitian family that
is not built from a potential: an independent non-potential metric for the
curvature and Kahler tests.  And the one-point forms of batched kernels
that no command calls any more: the radial unit field, the shape data, the
fit, the hypersphere contact structure and its Gauss cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from qck.ambient import (AmbientSpace, DefiniteLogFamily, InverseFamily,
                         LogFamily, MetricField, PotentialFamily, UserSeries,
                         _radial_projectors, radial_unit_jets)
from qck.charts import pullback_metric
from qck.core import apply_j0
from qck.curvature import (covariant_derivative, curvature_bundle,
                           kahler_defect, point_jet, point_jets)
from qck.duals import MultiDual, _series, glog, gsqrt, value
from qck.errors import (DomainError, FrameError, NumericalBreakdown, QckError,
                        raise_first)
from qck.qch import (QCDecomposition, ShapeData, _shape_data, adapted_frames,
                     bochner_of_tensor, frame_fit, shape_arrays)
from qck.sasakian import _gauss_delta, _induced_contacts, _sphere_chart
from qck.tensors import Tensor4

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


def gauss_curvature_closure(structure, bundle):
    """Curvature quadruple (x, y, z, u) -> K(x, y, z, u) of the hypersphere
    by the Gauss equation, with the second fundamental form
    h(x, y) = -g(nabla_x xi, y) evaluated per pair of vectors."""
    G = structure.jet.G
    D = covariant_derivative(structure.jet, structure.xi, structure.dxi)

    def h(x, y):
        return -float((x @ D) @ G @ y)

    R = tensor_closure(bundle.R.a)

    def K(x, y, z, u):
        return R(x, y, z, u) + h(y, z) * h(x, u) - h(x, z) * h(y, u)

    return K


def phi_sectional_values(structure, K, seed=0):
    """K(x, phi x, phi x, x) / |x ^ phi x|^2 over the unit directions of the
    seeded draws of ``sasakian.phi_sectional``, one direction at a time."""
    G, phi = structure.jet.G, structure.phi
    dbasis = structure.tangent_basis[1:]
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


def space_form_samples(structure, K, c, alpha):
    """The quadruples of ``sasakian.space_form_model_defect`` with, per
    quadruple, the value of K and of the alpha-Sasakian space form model
    from scalar products: (quads, K values, model values)."""
    G, phi, eta_t = structure.jet.G, structure.phi, structure.eta_tilde
    A = 0.25 * (c + 3.0 * alpha * alpha)
    B = 0.25 * (c - alpha * alpha)
    basis = structure.tangent_basis
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


# -- one-point forms of batched kernels that only the tests call -------------


def radial_unit_jet(space, jet, orientation: str = "outward"):
    """The metric-normalized radial unit field at the point of ``jet``:
    (xi, dxi) with dxi[i, m] = d_i xi^m, the one-point case of
    ``ambient.radial_unit_jets``, raising its first failing gate."""
    xi, dxi, gates = radial_unit_jets(space, jet.stacked(), orientation)
    raise_first(gates)
    return xi[0], dxi[0]


def extract_shape_data(jet, xi, dxi) -> ShapeData:
    """Shape data (k, p_star) of a unit vector field with values xi and
    partials dxi at the point of ``jet``: the one-point case of
    ``qch.adapted_frames`` and ``qch.shape_arrays``, raising the first
    failing gate of the shape data."""
    xi = np.asarray(xi, float)
    jet = jet.stacked()
    F, signs, _ = adapted_frames(jet.G, jet.J, xi[None])
    *shape, gates = shape_arrays(jet, F, signs, np.asarray(dxi, float)[None])
    raise_first(gates)
    return _shape_data(xi, *(a[0] for a in shape))


def decompose(bundle, shape: ShapeData) -> QCDecomposition:
    """The fit of the bundle's curvature in the J-adapted frame of the unit
    vector of ``shape``, classified with its k: the one-point case of
    ``qch.adapted_frames`` and ``qch.frame_fit``."""
    F, signs, gates = adapted_frames(bundle.jet.G[None], bundle.jet.J[None],
                                     np.asarray(shape.xi, float)[None])
    raise_first(gates)
    coeffs, residual = frame_fit(bundle.R.a[None], F, signs)
    return QCDecomposition.of(*coeffs[0].tolist(), float(residual[0]), shape.k)


def induced_contact(space, metric, x, orientation: str = "auto"):
    """The contact structure of the hypersphere through x: the one-point
    case of ``sasakian._induced_contacts``."""
    jet = point_jets(metric, np.asarray([[float(c) for c in x]]))
    return _induced_contacts(space, jet, orientation)[0][0]


def gauss_consistency(space, metric, structure, K, seed: int = 2) -> float:
    """The Gauss cross-check of ``sasakian.sphere_reports`` at one
    structure: the pulled-back metric's jet at the point's chart
    parameters, and ``sasakian._gauss_delta``."""
    chart, u0 = _sphere_chart(space, structure)
    bundle = curvature_bundle(point_jet(pullback_metric(chart, metric), u0))
    return _gauss_delta(structure, K, chart, bundle, seed)


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
