"""Almost contact structures induced on hyperspheres.

A hypersphere of a radially generated Kähler metric carries the structure
(g, phi, xi_tilde, eta_tilde) with xi_tilde = J xi and phi x = J x +
eta_tilde(x) xi.  The derivative law D_x xi_tilde = alpha phi x makes it an
alpha-Sasakian manifold; this module fits alpha, measures the defect of the
law and of the structure equation for phi, samples the phi-holomorphic
sectional curvature through the Gauss equation, and compares everything with
the ambient quasi-constant decomposition.

The intrinsic family on the unit Lorentz hypersphere rescales the flat
induced structure into Sasakian metrics of prescribed negative
phi-holomorphic curvature; it is handled in chart coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import (AmbientSpace, MetricField, flat_metric, potential_metric,
                      radial_frame, radial_unit_field)
from .charts import LorentzGraphChart, pullback_metric, tangent_params
from .core import apply_j0, j0_matrix
from .curvature import covariant_vector_derivative, curvature_bundle, point_jet
from .duals import gsqrt
from .errors import DomainError, NotSasakian, NotSpaceForm
from .qch import (QCDecomposition, ShapeData, _complement_basis,
                  build_basis_tensors, decompose, extract_shape_data)
from .sampling import timelike_point

ZERO_BAND = 1e-8


def _type_tag(c_plus_3a2: float, band: float = ZERO_BAND) -> str:
    if c_plus_3a2 > band:
        return "I"
    if c_plus_3a2 < -band:
        return "III"
    return "II"


@dataclass(frozen=True)
class ContactStructure:
    """Induced almost contact data at a point of a hypersphere."""

    point: np.ndarray
    radius: float
    orientation: str
    xi: np.ndarray
    xi_tilde: np.ndarray
    eta_tilde: np.ndarray  # covector components of g(., xi_tilde)
    phi: np.ndarray
    tangent_basis: np.ndarray  # rows span the tangent space, g-orthonormal
    G: np.ndarray
    J: np.ndarray
    k: float
    alpha: float
    shape: ShapeData
    identity_defect: float

    def eta_t(self, v) -> float:
        return float(self.eta_tilde @ np.asarray(v, float))


def induced_contact(space: AmbientSpace, metric: MetricField, x,
                    orientation: str = "auto") -> ContactStructure:
    """Contact structure of the hypersphere through x.

    With orientation "auto" the normal is chosen so that the normal curvature
    k comes out positive, which matches the classical sphere structures on
    both signatures.
    """
    xv = np.asarray([float(c) for c in x])
    tags = ("outward", "inward") if orientation == "auto" else (orientation,)
    jet = point_jet(metric, xv)
    shape = None
    tag = tags[0]
    for tag in tags:
        field = radial_unit_field(space, metric, orientation=tag)
        shape = extract_shape_data(metric, field, xv, jet=jet)
        if shape.k > 0:
            break
    frame = radial_frame(space, xv, metric=metric, orientation=tag, jet=jet)
    bundle = curvature_bundle(metric, xv, jet=jet)
    G, J = bundle.G, bundle.J
    xi = frame.xi
    xit = frame.jxi
    eta_t = G @ xit
    phi = J + np.outer(xi, eta_t)
    rest = _complement_basis(G, xi, xit, 1.0)
    basis = np.vstack([xit] + list(rest))

    defects = [abs(eta_t @ xit - 1.0), _gnorm(G, phi @ xit)]
    for u in basis:
        defects.append(_gnorm(G, phi @ (phi @ u) + u - (eta_t @ u) * xit))
        defects.append(abs(eta_t @ (phi @ u)))
        for v in basis:
            defects.append(abs((phi @ u) @ G @ (phi @ v) - u @ G @ v
                               + (eta_t @ u) * (eta_t @ v)))

    return ContactStructure(
        point=xv, radius=frame.r, orientation=tag, xi=xi, xi_tilde=xit,
        eta_tilde=eta_t, phi=phi, tangent_basis=basis, G=G, J=J,
        k=shape.k, alpha=0.5 * shape.k, shape=shape,
        identity_defect=float(max(defects)))


def _gnorm(G, v) -> float:
    return math.sqrt(abs(float(v @ G @ v)))


def _tangential(G, xi, v):
    return v - float(v @ G @ xi) * xi


@dataclass(frozen=True)
class AlphaCheck:
    alpha: float
    alpha_defect: float
    phi_defect: float


def alpha_sasakian_check(space: AmbientSpace, metric: MetricField,
                         structure: ContactStructure,
                         gate: float = 1e-5) -> AlphaCheck:
    """Fit alpha in D_x xi_tilde = alpha phi x and measure both derivative laws.

    The covariant derivatives are taken in the ambient metric and projected
    onto the tangent space.  Raises NotSasakian when the fitted law leaves a
    residual above ``gate``.
    """
    Z = structure.point
    G, xi, phi = structure.G, structure.xi, structure.phi
    sigma = -1.0 if structure.orientation == "inward" else 1.0
    unit = radial_unit_field(space, metric, orientation=structure.orientation)

    def xit_field(x):
        return apply_j0(unit(x))

    D, _ = covariant_vector_derivative(metric, xit_field, Z)
    num = den = 0.0
    residual = []
    for u in structure.tangent_basis:
        dxit = _tangential(G, xi, u @ D)
        pu = phi @ u
        num += float(dxit @ G @ pu)
        den += float(pu @ G @ pu)
        residual.append((dxit, pu))
    alpha = num / den
    alpha_defect = max(_gnorm(G, d - alpha * p) for d, p in residual)
    if alpha_defect > gate:
        raise NotSasakian(
            f"derivative law residual {alpha_defect:.3e} exceeds {gate:.1e}")

    phi_defect = _phi_structure_defect(metric, structure, unit, alpha)
    return AlphaCheck(alpha=alpha, alpha_defect=alpha_defect,
                      phi_defect=phi_defect)


def _phi_structure_defect(metric, structure, unit_field, alpha) -> float:
    """Residual of (D_x phi)(y) = alpha (eta_t(y) x - g(x,y) xi_tilde)."""
    Z = structure.point
    G, xi, xit, phi = structure.G, structure.xi, structure.xi_tilde, structure.phi
    eta_t = structure.eta_tilde
    d = len(Z)

    def proj_field(x, y):
        g = metric(x)
        xf = unit_field(x)
        gy = [sum(g[i][j] * y[j] for j in range(d)) for i in range(d)]
        coef = sum(gy[i] * xf[i] for i in range(d))
        return [y[i] - coef * xf[i] for i in range(d)]

    def phi_apply(x, v):
        g = metric(x)
        xf = unit_field(x)
        jxf = apply_j0(xf)
        gv = [sum(g[i][j] * v[j] for j in range(d)) for i in range(d)]
        coef = sum(gv[i] * jxf[i] for i in range(d))
        jv = apply_j0(v)
        return [jv[i] + coef * xf[i] for i in range(d)]

    worst = 0.0
    for y in structure.tangent_basis:
        yl = [float(c) for c in y]

        def phiy_field(x, yl=yl):
            return phi_apply(x, proj_field(x, yl))

        def y_field(x, yl=yl):
            return proj_field(x, yl)

        Dp, _ = covariant_vector_derivative(metric, phiy_field, Z)
        Dy, _ = covariant_vector_derivative(metric, y_field, Z)
        for u in structure.tangent_basis:
            lhs = _tangential(G, xi, u @ Dp) - phi @ _tangential(G, xi, u @ Dy)
            rhs = alpha * (float(eta_t @ y) * u - float(u @ G @ y) * xit)
            worst = max(worst, _gnorm(G, lhs - rhs))
    return worst


@dataclass(frozen=True)
class PhiSectional:
    c: float
    spread: float
    values: tuple


def gauss_curvature_fn(metric: MetricField, structure: ContactStructure,
                       space: AmbientSpace):
    """Curvature quadruple (x,y,z,u) -> K(x,y,z,u) of the hypersphere.

    Uses the Gauss equation with the second fundamental form
    h(x,y) = -g(nabla_x xi, y) of the unit normal xi.
    """
    Z = structure.point
    bundle = curvature_bundle(metric, Z)
    G = structure.G
    unit = radial_unit_field(space, metric, orientation=structure.orientation)
    D, _ = covariant_vector_derivative(metric, unit, Z)

    def h(x, y):
        return -float((x @ D) @ G @ y)

    R = bundle.R.a

    def K(x, y, z, u):
        amb = float(np.einsum("ijkl,i,j,k,l->", R, x, y, z, u))
        return amb + h(y, z) * h(x, u) - h(x, z) * h(y, u)

    return K


def phi_sectional(space: AmbientSpace, metric: MetricField,
                  structure: ContactStructure, samples: int = 12,
                  seed: int = 0, spread_gate: float = 1e-6) -> PhiSectional:
    """Sample K(x, phi x, phi x, x) over unit directions in the distribution
    orthogonal to xi_tilde.  Raises NotSpaceForm when the values disagree."""
    K = gauss_curvature_fn(metric, structure, space)
    G, phi = structure.G, structure.phi
    dbasis = structure.tangent_basis[1:]
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(samples):
        x = rng.normal(size=len(dbasis)) @ dbasis
        nrm = _gnorm(G, x)
        if nrm < 1e-6:
            continue
        x = x / nrm
        px = phi @ x
        den = float(x @ G @ x) * float(px @ G @ px) - float(x @ G @ px) ** 2
        vals.append(K(x, px, px, x) / den)
    c = float(np.mean(vals))
    spread = float(np.max(vals) - np.min(vals))
    if spread > spread_gate * max(1.0, abs(c)):
        raise NotSpaceForm(
            f"phi-sectional values spread {spread:.3e} at c ~ {c:.6g}")
    return PhiSectional(c=c, spread=spread, values=tuple(vals))


def space_form_model_defect(structure: ContactStructure, K, c: float,
                            alpha: float, samples: int = 30,
                            seed: int = 1) -> float:
    """Largest deviation of K from the alpha-Sasakian space form model
    with coefficients (c + 3 alpha^2)/4 and (c - alpha^2)/4."""
    G, phi, eta_t = structure.G, structure.phi, structure.eta_tilde
    A = 0.25 * (c + 3.0 * alpha * alpha)
    B = 0.25 * (c - alpha * alpha)
    basis = structure.tangent_basis
    rng = np.random.default_rng(seed)

    def g(u, v):
        return float(u @ G @ v)

    def et(u):
        return float(eta_t @ u)

    worst = 0.0
    for _ in range(samples):
        x, y, z, u = (rng.normal(size=len(basis)) @ basis for _ in range(4))
        model = A * (g(y, z) * g(x, u) - g(x, z) * g(y, u))
        model += B * (g(phi @ y, z) * g(phi @ x, u)
                      - g(phi @ x, z) * g(phi @ y, u)
                      - 2.0 * g(phi @ x, y) * g(phi @ z, u)
                      - g(y, z) * et(x) * et(u) - g(x, u) * et(y) * et(z)
                      + g(x, z) * et(y) * et(u) + g(y, u) * et(x) * et(z))
        worst = max(worst, abs(K(x, y, z, u) - model))
    return worst


def gauss_consistency(space: AmbientSpace, metric: MetricField,
                      structure: ContactStructure, samples: int = 6,
                      seed: int = 2) -> float:
    """Cross-check of the extrinsic curvature against the intrinsic one.

    The hypersphere is realized as a graph chart, the ambient metric is
    pulled back, and sectional curvatures of chart planes are compared with
    the Gauss-equation values on the matching ambient planes.
    """
    Z = structure.point
    r = structure.radius
    if space.lorentz:
        sheet = 1.0 if Z[-1] > 0 else -1.0
        chart = LorentzGraphChart(r, space.dim, sign=sheet)
    else:
        raise DomainError("chart cross-check is wired for the Lorentz signature")
    u0 = chart.params_of(Z)
    g = pullback_metric(chart, metric)
    bundle = curvature_bundle(g, u0)
    K = gauss_curvature_fn(metric, structure, space)
    basis = structure.tangent_basis
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < samples:
        x, y = (rng.normal(size=len(basis)) @ basis for _ in range(2))
        den = (float(x @ structure.G @ x) * float(y @ structure.G @ y)
               - float(x @ structure.G @ y) ** 2)
        if abs(den) < 1e-3:
            continue
        extr = K(x, y, y, x) / den
        intr = bundle.sectional(tangent_params(chart, x), tangent_params(chart, y))
        worst = max(worst, abs(extr - intr))
        done += 1
    return worst


@dataclass(frozen=True)
class SasakianReport:
    radius: float
    orientation: str
    alpha: float
    alpha_defect: float
    phi_defect: float
    c: float
    c_spread: float
    c_plus_3a2: float
    type_tag: str
    model_defect: float
    identity_defect: float
    decomposition: QCDecomposition | None = None
    decompose_delta: float | None = None
    gauss_delta: float | None = None
    q: float | None = None

    def to_json(self) -> dict:
        out = {
            "radius": self.radius,
            "orientation": self.orientation,
            "alpha": self.alpha,
            "alpha_defect": self.alpha_defect,
            "phi_defect": self.phi_defect,
            "c": self.c,
            "c_spread": self.c_spread,
            "c_plus_3a2": self.c_plus_3a2,
            "type": self.type_tag,
            "model_defect": self.model_defect,
            "identity_defect": self.identity_defect,
        }
        if self.decomposition is not None:
            out["ambient"] = self.decomposition.to_json()
            out["decompose_delta"] = self.decompose_delta
        if self.gauss_delta is not None:
            out["gauss_delta"] = self.gauss_delta
        if self.q is not None:
            out["q"] = self.q
        return out


def sphere_report(space: AmbientSpace, family, r: float, seed: int = 0,
                  orientation: str = "auto", cross_check: bool = True,
                  metric: MetricField | None = None) -> SasakianReport:
    """Full alpha-Sasakian verification of the hypersphere of radius r.

    ``family`` may be None together with an explicit ``metric`` (the flat
    field gives the classical round-sphere structures).
    """
    if metric is None:
        metric = potential_metric(space, family)
    Z = (_chartable_timelike_point(space, r, seed) if space.lorentz
         else _definite_axis_point(space, r, seed))
    structure = induced_contact(space, metric, Z, orientation=orientation)
    check = alpha_sasakian_check(space, metric, structure)
    phis = phi_sectional(space, metric, structure, seed=seed)
    K = gauss_curvature_fn(metric, structure, space)
    model = space_form_model_defect(structure, K, phis.c, check.alpha)
    c3 = phis.c + 3.0 * check.alpha ** 2

    frame = radial_frame(space, Z, metric=metric, orientation=structure.orientation)
    bundle = curvature_bundle(metric, Z)
    basis = build_basis_tensors(bundle.G, bundle.J, frame)
    dec = decompose(bundle, basis, structure.shape)
    delta = max(abs(c3 - dec.a_plus_k2), abs(phis.c - check.alpha ** 2 - dec.a))

    gauss_delta = None
    if cross_check and space.lorentz:
        gauss_delta = gauss_consistency(space, metric, structure, seed=seed)

    return SasakianReport(
        radius=structure.radius, orientation=structure.orientation,
        alpha=check.alpha, alpha_defect=check.alpha_defect,
        phi_defect=check.phi_defect, c=phis.c, c_spread=phis.spread,
        c_plus_3a2=c3, type_tag=_type_tag(c3), model_defect=model,
        identity_defect=structure.identity_defect, decomposition=dec,
        decompose_delta=delta, gauss_delta=gauss_delta)


def _chartable_timelike_point(space, r, seed, margin=0.25, tries=64):
    """Time-like sample kept clear of the graph chart equator, so the
    intrinsic cross-check can place the point in a chart."""
    floor = (r * math.sin(margin)) ** 2
    for k in range(tries):
        Z = timelike_point(space, r, seed=seed + 1000 * k)
        if Z[-1] ** 2 >= floor:
            return Z
    raise DomainError("could not draw a chart-compatible sphere point")


def _definite_axis_point(space, r, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=space.dim)
    return r * v / float(np.linalg.norm(v))


# -- the intrinsic family on the unit Lorentz hypersphere ---------------------


def family_h1_metric(n: int, q: float, sign: float = 1.0):
    """Sasakian family metric on the unit hypersphere of the Lorentz flat
    form, in graph chart coordinates.

    Returns (metric, chart, fields) where fields carries the chart
    expressions of the structure: the Reeb field, its covector, and the phi
    matrix field.
    """
    if q <= 0:
        raise DomainError("family parameter q must be positive")
    space = AmbientSpace(n, "lorentz")
    H = space.flat_real()
    d = space.dim
    chart = LorentzGraphChart(1.0, d, sign=sign)
    m = chart.nparams
    hbar = pullback_metric(chart, H)

    def eta_chart(u):
        # unflipped covector h'(., J0 normal) in chart components
        nv = chart.fn(u)
        jn = apply_j0(nv)
        jc = chart.jac(u)
        return [sum(jc[i][p] * H[i, i] * jn[i] for i in range(d))
                for p in range(m)]

    def metric_fn(u):
        base = hbar(u)
        et = eta_chart(u)
        w = 1.0 + q * q
        out = []
        for p in range(m):
            row = []
            for s in range(m):
                row.append(q * q * (base[p][s] + w * et[p] * et[s]))
            out.append(row)
        return out

    # The Reeb field is fixed by the derivative law D_x reeb = + phi x; with
    # the phi below this selects the inward-based rotation of the normal.
    def reeb_field(u):
        nv = chart.fn(u)
        jn = apply_j0(nv)
        return [-jn[p] / (q * q) for p in range(m)]

    def xi_tilde_field(u):
        nv = chart.fn(u)
        jn = apply_j0(nv)
        return [-jn[p] for p in range(m)]

    def phi_matrix(u):
        # phi w = J0 w + eta_f(w) normal, eta_f = -h'(., J0 normal)
        nv = chart.fn(u)
        jn = apply_j0(nv)
        jc = chart.jac(u)
        cols = []
        for p in range(m):
            W = [jc[i][p] for i in range(d)]
            coef = -sum(W[i] * H[i, i] * jn[i] for i in range(d))
            jw = apply_j0(W)
            img = [jw[i] + coef * nv[i] for i in range(d)]
            cols.append(img[:m])
        return [[cols[s][p] for s in range(m)] for p in range(m)]

    metric = MetricField(metric_fn, m, name=f"sasakian-family[q={q}]",
                         meta={"chart": chart, "q": q})
    fields = {"reeb": reeb_field, "xi_tilde": xi_tilde_field,
              "phi": phi_matrix, "eta_chart": eta_chart}
    return metric, chart, fields


def family_h1_report(n: int, q: float, seed: int = 0,
                     samples: int = 10) -> SasakianReport:
    """Verification of the family metric: alpha, the derivative laws, the
    phi-sectional value, and the space form model, all intrinsic."""
    metric, chart, fields = family_h1_metric(n, q)
    m = chart.nparams
    rng = np.random.default_rng(seed)
    u0 = 0.25 * rng.normal(size=m)
    u0[-1] *= 0.5

    G = metric.matrix(u0)
    xb = np.array([float(c) for c in fields["reeb"](list(u0))])
    phi = np.array([[float(e) for e in row] for row in fields["phi"](list(u0))])
    eta_bar = G @ xb

    D, _ = covariant_vector_derivative(metric, fields["reeb"], u0)
    basis = _family_tangent_basis(G, xb)
    num = den = 0.0
    pairs = []
    for u in basis:
        du = u @ D
        pu = phi @ u
        num += float(du @ G @ pu)
        den += float(pu @ G @ pu)
        pairs.append((du, pu))
    alpha = num / den
    alpha_defect = max(_gnorm(G, d_ - alpha * p_) for d_, p_ in pairs)
    if alpha_defect > 1e-5:
        raise NotSasakian(
            f"family derivative law residual {alpha_defect:.3e}")

    phi_defect = _family_phi_defect(metric, fields, u0, G, phi, xb, eta_bar,
                                    alpha, basis)

    bundle = curvature_bundle(metric, u0)
    vals = []
    for _ in range(samples):
        x = rng.normal(size=len(basis)) @ basis
        x = x - float(eta_bar @ x) * xb  # into the phi-distribution
        nrm = _gnorm(G, x)
        if nrm < 1e-6:
            continue
        vals.append(bundle.sectional(x / nrm, phi @ x / nrm))
    c = float(np.mean(vals))
    spread = float(np.max(vals) - np.min(vals))
    if spread > 1e-6 * max(1.0, abs(c)):
        raise NotSpaceForm(f"family phi-sectional spread {spread:.3e}")

    struct = ContactStructure(
        point=u0, radius=1.0, orientation="outward", xi=np.zeros(m),
        xi_tilde=xb, eta_tilde=eta_bar, phi=phi,
        tangent_basis=np.vstack([xb] + list(basis[1:])), G=G,
        J=np.zeros((m, m)), k=2.0 * alpha, alpha=alpha,
        shape=None, identity_defect=0.0)

    def K(x, y, z, u):
        return float(np.einsum("ijkl,i,j,k,l->", bundle.R.a, x, y, z, u))

    model = space_form_model_defect(struct, K, c, alpha)
    c3 = c + 3.0 * alpha * alpha
    return SasakianReport(
        radius=1.0, orientation="outward", alpha=alpha,
        alpha_defect=alpha_defect, phi_defect=phi_defect, c=c,
        c_spread=spread, c_plus_3a2=c3, type_tag=_type_tag(c3),
        model_defect=model, identity_defect=0.0, q=q)


def _family_tangent_basis(G, reeb):
    m = len(reeb)
    sq = float(reeb @ G @ reeb)
    vecs = [np.asarray(reeb, float) / math.sqrt(abs(sq))]
    for i in range(m):
        cand = np.zeros(m)
        cand[i] = 1.0
        for v in vecs:
            cand = cand - (float(cand @ G @ v) / float(v @ G @ v)) * v
        nrm2 = float(cand @ G @ cand)
        if abs(nrm2) < 1e-10:
            continue
        vecs.append(cand / math.sqrt(abs(nrm2)))
        if len(vecs) == m:
            break
    return np.vstack(vecs)


def _family_phi_defect(metric, fields, u0, G, phi, reeb, eta_bar, alpha,
                       basis) -> float:
    """Residual of (D_x phi)(y) = alpha (eta(y) x - g(x,y) reeb), intrinsically."""
    m = len(u0)
    worst = 0.0
    for y in basis:
        yl = [float(c) for c in y]

        def phiy_field(u, yl=yl):
            pm = fields["phi"](u)
            return [sum(pm[i][j] * yl[j] for j in range(m)) for i in range(m)]

        def y_field(u, yl=yl):
            return list(yl)

        Dp, _ = covariant_vector_derivative(metric, phiy_field, u0)
        Dy, _ = covariant_vector_derivative(metric, y_field, u0)
        for x in basis:
            lhs = x @ Dp - phi @ (x @ Dy)
            rhs = alpha * (float(eta_bar @ y) * x - float(x @ G @ y) * reeb)
            worst = max(worst, _gnorm(G, lhs - rhs))
    return worst
