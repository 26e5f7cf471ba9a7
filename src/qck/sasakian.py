"""Almost contact structures induced on hyperspheres.

A hypersphere of a radially generated Kähler metric carries the structure
(g, phi, xi_tilde, eta_tilde) with xi_tilde = J xi and phi x = J x +
eta_tilde(x) xi.  The derivative law D_x xi_tilde = alpha phi x makes it an
alpha-Sasakian manifold; this module fits alpha, measures the defect of the
law and of the structure equation for phi, samples the phi-holomorphic
sectional curvature through the Gauss equation, and compares everything with
the ambient quasi-constant decomposition.  The unit normal xi, the Reeb field
J xi, the second fundamental form and the fields of the phi law all come from
the ambient metric's jet at the point (``ambient.radial_unit_jets`` and the
product rule on G and xi), and the connection is the jet's; only the chart
cross-check evaluates the metric again.  The curvature K of the
hypersphere is a (0,4)-tensor array: the ambient R plus the Gauss-equation
terms of the second fundamental form.  The checks contract it, and the space
form model built as a tensor beside it, with all sampled vectors at once.

``sphere_reports`` takes many radii at once: one jet at all their sample
points gives the unit normals, shape data and J-adapted frames
(``qch.adapted_frames``, whose complement rows are the tangent basis past
xi_tilde), and one jet of the pulled-back metric, on a chart whose radius
varies by row, gives every intrinsic curvature.

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
                      radial_unit_jets)
from .charts import LorentzGraphChart, pullback_metric, tangent_params
from .core import apply_j0, j0_matrix
from .curvature import (CurvatureBundle, PointJet, _first_jet,
                        covariant_derivative, curvature_bundle, curvature_gate,
                        curvature_tensors, point_jet, point_jets, vector_jet)
from .errors import DomainError, NotSasakian, NotSpaceForm, raise_first
from .qch import (QCDecomposition, ShapeData, _shape_data, adapted_frames,
                  frame_fit, shape_arrays)
from .sampling import definite_point, timelike_point
from .tensors import Tensor4

ZERO_BAND = 1e-8
ALPHA_GATE = 1e-5
# polar angle that a sphere sample keeps from the graph chart equator
CHART_MARGIN = 0.25
# seeded draws of such a sample before giving up
CHART_TRIES = 64


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

    def tangential(self, v):
        """Tangential part of a vector; every vector is tangent when the
        structure is given intrinsically."""
        return v


@dataclass(frozen=True)
class ContactStructure(AlmostContact):
    """Almost contact structure induced on a hypersphere with unit normal xi,
    whose partials at the point are dxi[i, m] = d_i xi^m."""

    radius: float
    orientation: str
    xi: np.ndarray
    dxi: np.ndarray
    k: float
    alpha: float
    shape: ShapeData
    identity_defect: float

    def tangential(self, v):
        return v - float(v @ self.jet.G @ self.xi) * self.xi


def _gates_at(gates, row: int):
    """The gates of a batch at one of its rows, raising as that row would."""
    return [(bad[row], lambda j, error=error: error(row)) for bad, error in gates]


def _induced_contacts(space: AmbientSpace, jet: PointJet, orientation: str):
    """Contact structures of the hyperspheres through the points of ``jet``
    (with a points axis), and each point's J-adapted frame and square norms
    of its rows (``qch.adapted_frames``): (structures, F, signs).

    The unit normal of every orientation tried, its shape data and its
    frame are one batched pass over the points.  A point raises the first
    gate its one-point form fails, orientation by orientation.  The tangent
    basis is J0 xi followed by the frame's rows 2.., which span the
    complement of span(xi, J xi).
    """
    tags = ("outward", "inward") if orientation == "auto" else (orientation,)
    P = len(jet.point)
    units = [radial_unit_jets(space, jet, tag) for tag in tags]
    xi = np.concatenate([u[0] for u in units])
    dxi = np.concatenate([u[1] for u in units])
    both = jet.rows(np.tile(np.arange(P), len(tags)))
    with np.errstate(all="ignore"):
        F, signs, frame_gates = adapted_frames(both.G, both.J, xi)
        *shape, shape_gates = shape_arrays(both, F, signs, dxi)
    k = shape[0]
    rows = []
    for p in range(P):
        for t, tag in enumerate(tags):
            row = t * P + p
            raise_first(_gates_at(units[t][2], p))
            raise_first(_gates_at(shape_gates, row))
            if k[row] > 0:
                break
        raise_first(_gates_at(frame_gates, row))
        rows.append((row, tag))
    sel = np.array([row for row, _ in rows])
    xi, dxi, F, signs = xi[sel], dxi[sel], F[sel], signs[sel]
    G = jet.G
    J0 = j0_matrix(space.n)
    xit = xi @ J0.T
    eta_t = np.einsum("pij,pj->pi", G, xit)
    phi = jet.J + xi[:, :, None] * eta_t[:, None, :]
    basis = np.concatenate([xit[:, None], F[:, 2:]], axis=1)
    identity = _identity_defects(G, phi, xit, eta_t, basis)
    structures = []
    for p, (row, tag) in enumerate(rows):
        shape_p = _shape_data(xi[p], *(a[row] for a in shape))
        structures.append(ContactStructure(
            jet.rows(p), xi_tilde=xit[p], eta_tilde=eta_t[p], phi=phi[p],
            tangent_basis=basis[p],
            radius=float(space.radius(jet.point[p])), orientation=tag,
            xi=xi[p], dxi=dxi[p], k=shape_p.k, alpha=0.5 * shape_p.k,
            shape=shape_p, identity_defect=float(identity[p])))
    return structures, F, signs


def _identity_defects(G, phi, xit, eta_t, basis):
    """Largest defect of the almost contact identities at each point:
    eta(xi~) = 1, phi xi~ = 0, and for u, v in the tangent basis
    phi^2 u = -u + eta(u) xi~, eta(phi u) = 0 and
    g(phi u, phi v) = g(u, v) - eta(u) eta(v)."""
    def gnorm(V):
        return np.sqrt(np.abs(np.einsum("p...i,pij,p...j->p...", V, G, V)))

    PB = basis @ phi.swapaxes(1, 2)  # rows phi u
    e = np.einsum("pbi,pi->pb", basis, eta_t)
    defects = [
        np.abs(np.einsum("pi,pi->p", eta_t, xit) - 1.0),
        gnorm(np.einsum("pij,pj->pi", phi, xit)),
        np.max(gnorm(PB @ phi.swapaxes(1, 2) + basis
                     - e[:, :, None] * xit[:, None, :]), axis=1),
        np.max(np.abs(np.einsum("pbi,pi->pb", PB, eta_t)), axis=1),
        np.max(np.abs(PB @ G @ PB.swapaxes(1, 2)
                      - basis @ G @ basis.swapaxes(1, 2)
                      + e[:, :, None] * e[:, None, :]), axis=(1, 2)),
    ]
    return np.max(defects, axis=0)


def _gnorm(G, v) -> float:
    return math.sqrt(abs(float(v @ G @ v)))


@dataclass(frozen=True)
class AlphaCheck:
    alpha: float
    alpha_defect: float
    phi_defect: float


def _alpha_check(structure: AlmostContact, D, phi_law,
                 gate: float) -> AlphaCheck:
    """Fit alpha in D_x xi_tilde = alpha phi x and measure both derivative laws
    over the tangent basis, with derivatives projected tangentially.

    ``D`` is the covariant derivative of the Reeb field at the point, and
    ``phi_law`` holds the jets ((phi Y, d phi Y), (Y, dY)) of the vector
    fields phi Y and Y through each basis vector y, stacked in basis order,
    for the law (D_x phi)(y) = alpha (eta_t(y) x - g(x, y) xi_tilde).
    Raises NotSasakian when the fitted law for xi_tilde leaves a residual
    above ``gate``.
    """
    G, phi, basis = structure.jet.G, structure.phi, structure.tangent_basis
    pairs = [(structure.tangential(u @ D), phi @ u) for u in basis]
    alpha = (sum(float(d @ G @ p) for d, p in pairs)
             / sum(float(p @ G @ p) for _, p in pairs))
    alpha_defect = max(_gnorm(G, d - alpha * p) for d, p in pairs)
    if alpha_defect > gate:
        raise NotSasakian(
            f"derivative law residual {alpha_defect:.3e} exceeds {gate:.1e}")

    xit, eta_t = structure.xi_tilde, structure.eta_tilde
    Dps = covariant_derivative(structure.jet, *phi_law[0])
    Dys = covariant_derivative(structure.jet, *phi_law[1])
    phi_defect = 0.0
    for y, Dp, Dy in zip(basis, Dps, Dys):
        for u in basis:
            lhs = (structure.tangential(u @ Dp)
                   - phi @ structure.tangential(u @ Dy))
            rhs = alpha * (float(eta_t @ y) * u - float(u @ G @ y) * xit)
            phi_defect = max(phi_defect, _gnorm(G, lhs - rhs))
    return AlphaCheck(alpha=alpha, alpha_defect=alpha_defect,
                      phi_defect=phi_defect)


def alpha_sasakian_check(space: AmbientSpace, structure: ContactStructure,
                         gate: float = ALPHA_GATE) -> AlphaCheck:
    """The derivative laws of the hypersphere structure, with the ambient
    connection of the structure's jet; see ``_alpha_check``.  The Reeb field
    J0 xi has the partials dxi J0^T."""
    J0 = j0_matrix(space.n)
    D = covariant_derivative(structure.jet, structure.xi_tilde,
                             structure.dxi @ J0.T)
    return _alpha_check(structure, D, sphere_phi_law(structure, J0), gate)


def sphere_phi_law(structure: ContactStructure, J0):
    """Jets of the phi-law fields through the tangent basis vectors y:
    Y = y - g(y, xi) xi and phi Y = J0 Y + g(Y, J0 xi) xi, returned as
    ((phi Y, d phi Y), (Y, dY)) with values [b, m] and partials [b, i, m] =
    d_i of the field through basis vector b.

    Both fields depend on the point only through G and xi, so the product
    rule on the jet's dG and the structure's dxi gives their partials; no
    field is evaluated.
    """
    G, dG = structure.jet.G, structure.jet.dG
    B, xi, dxi = structure.tangent_basis, structure.xi, structure.dxi
    jxi, djxi = J0 @ xi, dxi @ J0.T
    # Y = y - s xi with s = g(y, xi)
    s = B @ G @ xi
    ds = np.einsum("bi,kij,j->bk", B, dG, xi) + B @ G @ dxi.T
    Y = B - np.outer(s, xi)
    dY = -(ds[:, :, None] * xi + s[:, None, None] * dxi)
    # phi Y = J0 Y + t xi with t = g(Y, J0 xi)
    t = Y @ G @ jxi
    dt = (dY @ (G @ jxi) + np.einsum("bm,kmn,n->bk", Y, dG, jxi)
          + Y @ G @ djxi.T)
    PY = Y @ J0.T + np.outer(t, xi)
    dPY = dY @ J0.T + dt[:, :, None] * xi + t[:, None, None] * dxi
    return (PY, dPY), (Y, dY)


@dataclass(frozen=True)
class PhiSectional:
    c: float
    spread: float
    values: tuple


def gauss_curvature_fn(structure: ContactStructure, bundle: CurvatureBundle):
    """Curvature tensor K[i, j, k, l] of the hypersphere, by the Gauss
    equation K = R + h_jk h_il - h_ik h_jl.

    The second fundamental form h(x, y) = -g(nabla_x xi, y) of the unit
    normal xi has the matrix h = -D G, with D the covariant derivative of xi
    from the structure's jet and the partials it carries.  ``bundle`` is the
    ambient curvature bundle of the same jet.
    """
    h = -covariant_derivative(structure.jet, structure.xi,
                              structure.dxi) @ structure.jet.G
    return (bundle.R.a + np.einsum("jk,il->ijkl", h, h)
            - np.einsum("ik,jl->ijkl", h, h))


def _quadruple(T, x, y, z, u):
    """T(x, y, z, u) of a 4-tensor, per row of the stacked vectors."""
    return np.einsum("ijkl,si,sj,sk,sl->s", T, x, y, z, u)


def phi_sectional(structure: AlmostContact, K, seed: int = 0) -> PhiSectional:
    """Sample K(x, phi x, phi x, x) over 12 unit directions in the
    distribution orthogonal to xi_tilde, K being the curvature tensor of the
    structure's manifold.  Raises NotSpaceForm when the values disagree."""
    G, phi = structure.jet.G, structure.phi
    dbasis = structure.tangent_basis[1:]
    X = np.random.default_rng(seed).normal(size=(12, len(dbasis))) @ dbasis
    nrm = np.sqrt(np.abs(np.einsum("si,ij,sj->s", X, G, X)))
    X = X[nrm >= 1e-6] / nrm[nrm >= 1e-6, None]
    PX = X @ phi.T
    den = (np.einsum("si,ij,sj->s", X, G, X) * np.einsum("si,ij,sj->s", PX, G, PX)
           - np.einsum("si,ij,sj->s", X, G, PX) ** 2)
    vals = _quadruple(K, X, PX, PX, X) / den
    c = float(np.mean(vals))
    spread = float(np.max(vals) - np.min(vals))
    if spread > 1e-6 * max(1.0, abs(c)):
        raise NotSpaceForm(
            f"phi-sectional values spread {spread:.3e} at c ~ {c:.6g}")
    return PhiSectional(c=c, spread=spread, values=tuple(vals.tolist()))


def space_form_model(structure: AlmostContact, c: float,
                     alpha: float) -> np.ndarray:
    """The alpha-Sasakian space form curvature with phi-sectional value c as
    a (0,4)-tensor, from G, P = phi^T G (so P[a, b] = g(phi a, b)) and
    eta_tilde, with coefficients (c + 3 alpha^2)/4 and (c - alpha^2)/4."""
    G, eta = structure.jet.G, structure.eta_tilde
    P = structure.phi.T @ G
    E = np.outer(eta, eta)

    def pair(S, T):
        # S(y, z) T(x, u) - S(x, z) T(y, u)
        return np.einsum("jk,il->ijkl", S, T) - np.einsum("ik,jl->ijkl", S, T)

    A = 0.25 * (c + 3.0 * alpha * alpha)
    B = 0.25 * (c - alpha * alpha)
    return A * pair(G, G) + B * (pair(P, P) - 2.0 * np.einsum("ij,kl->ijkl", P, P)
                                 - pair(G, E) - pair(E, G))


def space_form_model_defect(structure: AlmostContact, K, c: float,
                            alpha: float) -> float:
    """Largest deviation of the curvature tensor K, over 30 sampled
    quadruples, from the alpha-Sasakian space form model of
    ``space_form_model``."""
    basis = structure.tangent_basis
    rng = np.random.default_rng(1)
    quads = np.moveaxis(rng.normal(size=(30, 4, len(basis))) @ basis, 1, 0)
    model = space_form_model(structure, c, alpha)
    return float(np.max(np.abs(_quadruple(K, *quads) - _quadruple(model, *quads))))


def _sphere_chart(space: AmbientSpace, structure: ContactStructure):
    """The graph chart of the hypersphere through the structure's point, on
    the sheet of the point, and the point's chart parameters."""
    if not space.lorentz:
        raise DomainError("chart cross-check is wired for the Lorentz signature")
    Z = structure.jet.point
    sheet = 1.0 if Z[-1] > 0 else -1.0
    chart = LorentzGraphChart(structure.radius, space.dim, sign=sheet)
    return chart, chart.params_of(Z)


def _gauss_delta(structure: ContactStructure, K, chart,
                 bundle: CurvatureBundle, seed: int) -> float:
    """Largest gap between the Gauss-equation sectional curvatures of K and
    the intrinsic ones of ``bundle``, the curvature of the pulled-back
    metric at the point's parameters in ``chart``, over 6 seeded planes of
    the tangent basis."""
    G = structure.jet.G
    basis = structure.tangent_basis
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < 6:
        x, y = (rng.normal(size=len(basis)) @ basis for _ in range(2))
        den = float(x @ G @ x) * float(y @ G @ y) - float(x @ G @ y) ** 2
        if abs(den) < 1e-3:
            continue
        extr = float(np.einsum("ijkl,i,j,k,l->", K, x, y, y, x)) / den
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
    space form model of the curvature tensor K of the structure's
    manifold."""
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
    the chart cross-check of the Gauss equation on the Lorentz signature:
    the one-radius case of ``sphere_reports``.

    ``family`` may be None together with an explicit ``metric`` (the flat
    field gives the classical round-sphere structures).
    """
    return sphere_reports(space, family, [r], seed, orientation, metric)[0]


def sphere_reports(space: AmbientSpace, family, radii, seed: int = 0,
                   orientation: str = "auto",
                   metric: MetricField | None = None) -> list:
    """``sphere_report`` at each of ``radii``, with one batched pass per
    stage.

    Each radius draws its sample point Z with ``seed`` as the one-radius
    report does.  One jet of the metric at all points Z gives the unit
    normals, shape data, J-adapted frames, structures and the ambient fit;
    one jet of the pulled-back metric, on a chart whose radius and sheet
    vary by row, gives the intrinsic curvature at every chart point.  The
    seeded samples of the derivative laws, the phi-sectional curvature, the
    space form model and the Gauss cross-check then run per radius, in the
    order of the one-radius report.
    """
    if metric is None:
        metric = potential_metric(space, family)
    Z = np.array([_chartable_timelike_point(space, r, seed) if space.lorentz
                  else definite_point(space, r, seed=seed) for r in radii])
    jet = point_jets(metric, Z)
    structures, F, signs = _induced_contacts(space, jet, orientation)
    R = curvature_tensors(jet)
    raise_first([curvature_gate(R)])
    coeffs, residual = frame_fit(R, F, signs)
    if space.lorentz:
        charts = [_sphere_chart(space, s) for s in structures]
        sphere = LorentzGraphChart(np.array([c.radius for c, _ in charts]),
                                   space.dim,
                                   sign=np.array([c.sign for c, _ in charts]))
        cjet = point_jets(pullback_metric(sphere, metric),
                          np.array([u for _, u in charts]))
        Rc = curvature_tensors(cjet)
        raise_first([curvature_gate(Rc)])
    reports = []
    for p, structure in enumerate(structures):
        check = alpha_sasakian_check(space, structure)
        bundle = CurvatureBundle(structure.jet, Tensor4(R[p]))
        K = gauss_curvature_fn(structure, bundle)
        rep = _report(structure, check, K, seed, radius=structure.radius,
                      orientation=structure.orientation,
                      identity_defect=structure.identity_defect)
        dec = QCDecomposition.of(*coeffs[p].tolist(), float(residual[p]),
                                 structure.shape.k)
        delta = max(abs(rep.c_plus_3a2 - dec.a_plus_k2),
                    abs(rep.c - rep.alpha ** 2 - dec.a))
        gauss_delta = None
        if space.lorentz:
            chart = charts[p][0]
            intrinsic = CurvatureBundle(cjet.rows(p), Tensor4(Rc[p]))
            gauss_delta = _gauss_delta(structure, K, chart, intrinsic, seed)
        reports.append(dataclasses.replace(
            rep, decomposition=dec, decompose_delta=delta,
            gauss_delta=gauss_delta))
    return reports


def _chartable_timelike_point(space, r, seed):
    """Time-like sample kept clear of the graph chart equator, so the
    intrinsic cross-check can place the point in a chart."""
    floor = (r * math.sin(CHART_MARGIN)) ** 2
    for k in range(CHART_TRIES):
        Z = timelike_point(space, r, seed=seed + 1000 * k)
        if Z[-1] ** 2 >= floor:
            return Z
    raise DomainError("could not draw a chart-compatible sphere point")


# -- the intrinsic family on the unit Lorentz hypersphere ---------------------


def family_h1_metric(n: int, q: float):
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
    chart = LorentzGraphChart(1.0, d)
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
    reeb, dreeb = vector_jet(fields["reeb"], u0)
    D = covariant_derivative(jet, reeb, dreeb)
    phi, dphi = _first_jet(fields["phi"], u0, m)
    B = _family_tangent_basis(jet.G, reeb)
    structure = AlmostContact(jet, xi_tilde=reeb, eta_tilde=jet.G @ reeb,
                              phi=phi, tangent_basis=B)
    # Y = y is constant, and phi Y = phi y has the partials (d_i phi) y
    phi_law = ((B @ phi.T, np.einsum("kij,bj->bki", dphi, B)),
               (B, np.zeros((len(B), m, m))))
    check = _alpha_check(structure, D, phi_law, ALPHA_GATE)
    return _report(structure, check, curvature_bundle(jet).R.a, seed,
                   radius=1.0, orientation="outward", identity_defect=0.0, q=q)


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
