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
phi-holomorphic curvature; it is handled in chart coordinates.  Both
constructions go through the same checks: ``_alpha_check`` for the two
derivative laws and ``_report`` for the phi-sectional curvature and the space
form model.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .ambient import (AmbientSpace, MetricField, potential_metric,
                      radial_frame, radial_unit_field, radial_unit_vector)
from .charts import LorentzGraphChart, pullback_metric, tangent_params
from .core import apply_j0
from .curvature import (CurvatureBundle, PointJet, covariant_vector_derivative,
                        curvature_bundle, point_jet)
from .errors import DomainError, NotSasakian, NotSpaceForm
from .qch import (QCDecomposition, ShapeData, _complement_basis, decompose,
                  extract_shape_data)
from .sampling import timelike_point

ZERO_BAND = 1e-8
ALPHA_GATE = 1e-5


@dataclass(frozen=True)
class AlmostContact:
    """Almost contact data (phi, xi_tilde, eta_tilde) at a point, with the
    metric's PointJet there and a g-orthonormal tangent basis whose first row
    is xi_tilde and whose other rows span the phi-distribution."""

    jet: PointJet
    xi_tilde: np.ndarray
    eta_tilde: np.ndarray  # covector components of g(., xi_tilde)
    phi: np.ndarray
    tangent_basis: np.ndarray

    @property
    def point(self) -> np.ndarray:
        return self.jet.point

    @property
    def G(self) -> np.ndarray:
        return self.jet.G

    def tangential(self, v):
        """Tangential part of a vector; every vector is tangent when the
        structure is given intrinsically."""
        return v


@dataclass(frozen=True)
class ContactStructure(AlmostContact):
    """Almost contact structure induced on a hypersphere with unit normal xi."""

    radius: float
    orientation: str
    xi: np.ndarray
    k: float
    alpha: float
    shape: ShapeData
    identity_defect: float

    def tangential(self, v):
        return v - float(v @ self.G @ self.xi) * self.xi


def induced_contact(space: AmbientSpace, metric: MetricField, x,
                    orientation: str = "auto") -> ContactStructure:
    """Contact structure of the hypersphere through x.

    With orientation "auto" the normal is chosen so that the normal curvature
    k comes out positive, which matches the classical sphere structures on
    both signatures.
    """
    tags = ("outward", "inward") if orientation == "auto" else (orientation,)
    jet = point_jet(metric, x)
    shape = None
    tag = tags[0]
    for tag in tags:
        field = radial_unit_field(space, metric, orientation=tag)
        shape = extract_shape_data(jet, field)
        if shape.k > 0:
            break
    frame = radial_frame(space, jet.point, orientation=tag, jet=jet)
    G, J = jet.G, jet.J
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
        jet, xi_tilde=xit, eta_tilde=eta_t, phi=phi, tangent_basis=basis,
        radius=frame.r, orientation=tag, xi=xi, k=shape.k,
        alpha=0.5 * shape.k, shape=shape,
        identity_defect=float(max(defects)))


def _gnorm(G, v) -> float:
    return math.sqrt(abs(float(v @ G @ v)))


@dataclass(frozen=True)
class AlphaCheck:
    alpha: float
    alpha_defect: float
    phi_defect: float


def _alpha_check(structure: AlmostContact, D, phi_fields,
                 gate: float) -> AlphaCheck:
    """Fit alpha in D_x xi_tilde = alpha phi x and measure both derivative laws
    over the tangent basis, with derivatives projected tangentially.

    ``D`` is the covariant derivative of the Reeb field at the point, and
    ``phi_fields(y)`` gives the vector fields (phi Y, Y) of a vector field Y
    through the basis vector y, for the law
    (D_x phi)(y) = alpha (eta_t(y) x - g(x, y) xi_tilde).  Raises NotSasakian
    when the fitted law for xi_tilde leaves a residual above ``gate``.
    """
    G, phi, basis = structure.G, structure.phi, structure.tangent_basis
    pairs = [(structure.tangential(u @ D), phi @ u) for u in basis]
    alpha = (sum(float(d @ G @ p) for d, p in pairs)
             / sum(float(p @ G @ p) for _, p in pairs))
    alpha_defect = max(_gnorm(G, d - alpha * p) for d, p in pairs)
    if alpha_defect > gate:
        raise NotSasakian(
            f"derivative law residual {alpha_defect:.3e} exceeds {gate:.1e}")

    xit, eta_t = structure.xi_tilde, structure.eta_tilde
    phi_defect = 0.0
    for y in basis:
        phiy_field, y_field = phi_fields([float(c) for c in y])
        Dp, _ = covariant_vector_derivative(structure.jet, phiy_field)
        Dy, _ = covariant_vector_derivative(structure.jet, y_field)
        for u in basis:
            lhs = (structure.tangential(u @ Dp)
                   - phi @ structure.tangential(u @ Dy))
            rhs = alpha * (float(eta_t @ y) * u - float(u @ G @ y) * xit)
            phi_defect = max(phi_defect, _gnorm(G, lhs - rhs))
    return AlphaCheck(alpha=alpha, alpha_defect=alpha_defect,
                      phi_defect=phi_defect)


def alpha_sasakian_check(space: AmbientSpace, metric: MetricField,
                         structure: ContactStructure,
                         gate: float = ALPHA_GATE) -> AlphaCheck:
    """The derivative laws of the hypersphere structure, with the ambient
    connection of the structure's jet; see ``_alpha_check``."""
    unit = radial_unit_field(space, metric, orientation=structure.orientation)
    D, _ = covariant_vector_derivative(structure.jet,
                                       lambda x: apply_j0(unit(x)))
    return _alpha_check(structure, D,
                        _sphere_phi_fields(space, metric, structure.orientation),
                        gate)


def _sphere_phi_fields(space, metric, orientation):
    """(phi Y, Y) for the tangential part Y of a constant vector y, with
    phi v = J v + eta_t(v) xi; each field evaluation runs the metric once."""

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


@dataclass(frozen=True)
class PhiSectional:
    c: float
    spread: float
    values: tuple


def gauss_curvature_fn(space: AmbientSpace, metric: MetricField,
                       structure: ContactStructure, bundle: CurvatureBundle):
    """Curvature quadruple (x,y,z,u) -> K(x,y,z,u) of the hypersphere.

    Uses the Gauss equation with the second fundamental form
    h(x,y) = -g(nabla_x xi, y) of the unit normal xi.  ``bundle`` is the
    ambient curvature bundle of the structure's jet, which also gives the
    connection.
    """
    G = structure.G
    unit = radial_unit_field(space, metric, orientation=structure.orientation)
    D, _ = covariant_vector_derivative(structure.jet, unit)

    def h(x, y):
        return -float((x @ D) @ G @ y)

    R = bundle.R.a

    def K(x, y, z, u):
        amb = float(np.einsum("ijkl,i,j,k,l->", R, x, y, z, u))
        return amb + h(y, z) * h(x, u) - h(x, z) * h(y, u)

    return K


def phi_sectional(structure: AlmostContact, K, seed: int = 0) -> PhiSectional:
    """Sample K(x, phi x, phi x, x) over 12 unit directions in the
    distribution orthogonal to xi_tilde, K being the curvature of the
    structure's manifold.  Raises NotSpaceForm when the values disagree."""
    G, phi = structure.G, structure.phi
    dbasis = structure.tangent_basis[1:]
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(12):
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
    if spread > 1e-6 * max(1.0, abs(c)):
        raise NotSpaceForm(
            f"phi-sectional values spread {spread:.3e} at c ~ {c:.6g}")
    return PhiSectional(c=c, spread=spread, values=tuple(vals))


def space_form_model_defect(structure: AlmostContact, K, c: float,
                            alpha: float) -> float:
    """Largest deviation of K, over 30 sampled quadruples, from the
    alpha-Sasakian space form model with coefficients (c + 3 alpha^2)/4 and
    (c - alpha^2)/4."""
    G, phi, eta_t = structure.G, structure.phi, structure.eta_tilde
    A = 0.25 * (c + 3.0 * alpha * alpha)
    B = 0.25 * (c - alpha * alpha)
    basis = structure.tangent_basis
    rng = np.random.default_rng(1)

    def g(u, v):
        return float(u @ G @ v)

    def et(u):
        return float(eta_t @ u)

    worst = 0.0
    for _ in range(30):
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
                      structure: ContactStructure, K, seed: int = 2) -> float:
    """Cross-check of the extrinsic curvature K against the intrinsic one.

    The hypersphere is realized as a graph chart, the ambient metric is
    pulled back, and sectional curvatures of 6 chart planes are compared
    with the Gauss-equation values K on the matching ambient planes.
    """
    Z = structure.point
    r = structure.radius
    if space.lorentz:
        sheet = 1.0 if Z[-1] > 0 else -1.0
        chart = LorentzGraphChart(r, space.dim, sign=sheet)
    else:
        raise DomainError("chart cross-check is wired for the Lorentz signature")
    u0 = chart.params_of(Z)
    bundle = curvature_bundle(point_jet(pullback_metric(chart, metric), u0))
    basis = structure.tangent_basis
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < 6:
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
    model_defect: float
    identity_defect: float
    decomposition: QCDecomposition | None = None
    decompose_delta: float | None = None
    gauss_delta: float | None = None
    q: float | None = None

    @property
    def c_plus_3a2(self) -> float:
        return self.c + 3.0 * self.alpha ** 2

    @property
    def type_tag(self) -> str:
        if self.c_plus_3a2 > ZERO_BAND:
            return "I"
        if self.c_plus_3a2 < -ZERO_BAND:
            return "III"
        return "II"

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


def _report(structure: AlmostContact, check: AlphaCheck, K, seed: int,
            **fields) -> SasakianReport:
    """The checked derivative laws plus the phi-sectional curvature and the
    space form model of the curvature K of the structure's manifold."""
    phis = phi_sectional(structure, K, seed=seed)
    return SasakianReport(
        alpha=check.alpha, alpha_defect=check.alpha_defect,
        phi_defect=check.phi_defect, c=phis.c, c_spread=phis.spread,
        model_defect=space_form_model_defect(structure, K, phis.c, check.alpha),
        **fields)


def sphere_report(space: AmbientSpace, family, r: float, seed: int = 0,
                  orientation: str = "auto",
                  metric: MetricField | None = None) -> SasakianReport:
    """Full alpha-Sasakian verification of the hypersphere of radius r, with
    the chart cross-check of the Gauss equation on the Lorentz signature.

    ``family`` may be None together with an explicit ``metric`` (the flat
    field gives the classical round-sphere structures).
    """
    if metric is None:
        metric = potential_metric(space, family)
    Z = (_chartable_timelike_point(space, r, seed) if space.lorentz
         else _definite_axis_point(space, r, seed))
    structure = induced_contact(space, metric, Z, orientation=orientation)
    check = alpha_sasakian_check(space, metric, structure)
    bundle = curvature_bundle(structure.jet)
    K = gauss_curvature_fn(space, metric, structure, bundle)
    rep = _report(structure, check, K, seed, radius=structure.radius,
                  orientation=structure.orientation,
                  identity_defect=structure.identity_defect)

    dec = decompose(bundle, structure.shape)
    delta = max(abs(rep.c_plus_3a2 - dec.a_plus_k2),
                abs(rep.c - rep.alpha ** 2 - dec.a))
    gauss_delta = (gauss_consistency(space, metric, structure, K, seed=seed)
                   if space.lorentz else None)
    return dataclasses.replace(rep, decomposition=dec, decompose_delta=delta,
                               gauss_delta=gauss_delta)


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
    expressions of the structure: the Reeb field and the phi matrix field.
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
    return metric, chart, {"reeb": reeb_field, "phi": phi_matrix}


def family_h1_report(n: int, q: float, seed: int = 0) -> SasakianReport:
    """Verification of the family metric: alpha, the derivative laws, the
    phi-sectional value, and the space form model, all intrinsic."""
    metric, chart, fields = family_h1_metric(n, q)
    m = chart.nparams
    rng = np.random.default_rng(seed)
    u0 = 0.25 * rng.normal(size=m)
    u0[-1] *= 0.5

    jet = point_jet(metric, u0)
    D, reeb = covariant_vector_derivative(jet, fields["reeb"])
    phi = np.array([[float(e) for e in row] for row in fields["phi"](list(u0))])
    structure = AlmostContact(
        jet, xi_tilde=reeb, eta_tilde=jet.G @ reeb, phi=phi,
        tangent_basis=_family_tangent_basis(jet.G, reeb))

    def phi_fields(y):
        def phiy_field(u):
            pm = fields["phi"](u)
            return [sum(pm[i][j] * y[j] for j in range(m)) for i in range(m)]

        return phiy_field, lambda u: list(y)

    check = _alpha_check(structure, D, phi_fields, ALPHA_GATE)
    R = curvature_bundle(jet).R.a

    def K(x, y, z, u):
        return float(np.einsum("ijkl,i,j,k,l->", R, x, y, z, u))

    return _report(structure, check, K, seed, radius=1.0,
                   orientation="outward", identity_defect=0.0, q=q)


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
