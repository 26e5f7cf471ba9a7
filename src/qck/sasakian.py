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

One array pipeline over a points axis: an ``AlmostContact`` holds a
structure at many points, and every check is one call over them, with each
seeded draw made once for all rows.  ``sphere_reports`` takes any number of
radii, one sample point each.  The intrinsic family on the unit Lorentz
hypersphere rescales the flat induced structure into Sasakian metrics of
prescribed negative phi-holomorphic curvature; it is handled in chart
coordinates, where every vector is tangent, as a batch of one point.  Both
go through ``_alpha_check`` for the two derivative laws and ``_reports``
for the phi-sectional curvature and the space form model.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .ambient import (AmbientSpace, MetricField, potential_metric,
                      radial_unit_jets)
from .charts import (MARGIN, GraphChart, pullback_metric, pulled_back,
                     tangent_params)
from .core import apply_j0, j0_matrix
from .curvature import (PointJet, covariant_derivative, curvature_gate,
                        curvature_tensors, point_jets)
from .duals import concat, contract, eval_with_partials, weigh
from .errors import (DomainError, NotSasakian, NotSpaceForm,
                     NumericalBreakdown, raise_first)
from .qch import QCDecomposition, adapted_frames, frame_fit, shape_arrays
from .sampling import point_at_radius

ZERO_BAND = 1e-8
ALPHA_GATE = 1e-5
# seeded draws of such a sample before giving up
CHART_TRIES = 64
# seeded planes that the Gauss cross-check draws for every row, of which it
# compares the first GAUSS_PLANES whose Gram determinant reaches GAUSS_MIN_DEN
GAUSS_TRIES = 32
GAUSS_PLANES = 6
GAUSS_MIN_DEN = 1e-3


@dataclass(frozen=True)
class AlmostContact:
    """Almost contact data (phi, xi_tilde, eta_tilde) at the points of a
    jet with a points axis, which leads every field: a g-orthonormal
    tangent basis whose first row is xi_tilde and whose other rows span the
    phi-distribution, and the projector onto the tangent space, acting on
    vectors v as v @ tangential^T: I - xi (G xi)^T on a hypersphere with unit
    normal xi, and the identity where the structure is given
    intrinsically."""

    jet: PointJet
    xi_tilde: np.ndarray  # (P, d)
    eta_tilde: np.ndarray  # (P, d), covector components of g(., xi_tilde)
    phi: np.ndarray  # (P, d, d)
    tangent_basis: np.ndarray  # (P, b, d)
    tangential: np.ndarray  # (P, d, d)


@dataclass(frozen=True)
class Hyperspheres:
    """Per point of a structure, the data of the hypersphere through it:
    radius, orientation and partials dxi[p, i, m] = d_i xi^m of its unit
    normal xi, shape value k and defect of the almost contact identities."""

    radius: np.ndarray
    orientation: list
    xi: np.ndarray
    dxi: np.ndarray
    k: np.ndarray
    identity_defect: np.ndarray


def _gates_at(gates, rows):
    """The gates of a batch at its rows ``rows``, raising as those rows
    would."""
    return [(bad[rows], lambda j, error=error: error(rows[j]))
            for bad, error in gates]


def _induced_contacts(space: AmbientSpace, jet: PointJet, orientation: str):
    """The almost contact structure induced on the hypersphere through each
    point of ``jet`` (with a points axis), the data of those hyperspheres,
    and each point's J-adapted frame and square norms of its rows
    (``qch.adapted_frames``): (structure, spheres, F, signs).

    The unit normal of every orientation tried, its shape data and its
    frame are one batched pass over the points.  With ``orientation``
    "auto" a point keeps the outward normal where its k is positive and
    takes the inward one otherwise.  A point raises the first gate its
    one-point form fails, orientation by orientation.  The tangent basis is
    J0 xi followed by the frame's rows 2.., which span the complement of
    span(xi, J xi).
    """
    tags = ("outward", "inward") if orientation == "auto" else (orientation,)
    P = len(jet.point)
    units = [radial_unit_jets(space, jet, tag) for tag in tags]
    xi = np.concatenate([u[0] for u in units])
    dxi = np.concatenate([u[1] for u in units])
    both = jet.rows(np.tile(np.arange(P), len(tags)))
    with np.errstate(all="ignore"):
        F, signs, frame_gates = adapted_frames(both.G, both.J, xi)
        k, _, shape_gates = shape_arrays(both, F, signs, dxi)
    # the orientation of each point, as an index into tags
    pick = np.zeros(P, dtype=int)
    for t in range(len(tags)):
        at = np.flatnonzero(pick == t)
        raise_first(_gates_at(units[t][2], at)
                    + _gates_at(shape_gates, t * P + at))
        if t + 1 < len(tags):
            pick[at[~(k[t * P + at] > 0)]] = t + 1
    rows = pick * P + np.arange(P)
    raise_first(_gates_at(frame_gates, rows))
    xi, dxi, F, signs = xi[rows], dxi[rows], F[rows], signs[rows]
    G = jet.G
    J0 = j0_matrix(space.n)
    xit = xi @ J0.T
    eta_t = np.einsum("pij,pj->pi", G, xit)
    phi = jet.J + xi[:, :, None] * eta_t[:, None, :]
    basis = np.concatenate([xit[:, None], F[:, 2:]], axis=1)
    tangential = (np.eye(space.dim)
                  - xi[:, :, None] * np.einsum("pij,pj->pi", G, xi)[:, None])
    w = space.square_norm(jet.point.T)
    spheres = Hyperspheres(
        radius=np.sqrt(-w if space.lorentz else w),
        orientation=np.array(tags)[pick].tolist(), xi=xi, dxi=dxi, k=k[rows],
        identity_defect=_identity_defects(G, phi, xit, eta_t, basis))
    return (AlmostContact(jet, xit, eta_t, phi, basis, tangential), spheres,
            F, signs)


def _gdot(G, u, v):
    """g(u, v) at each point of G (P, d, d), for the vectors on the last
    axis of u and v (P, ..., d)."""
    return np.einsum("p...i,pij,p...j->p...", u, G, v)


def _gnorm(G, V):
    return np.sqrt(np.abs(_gdot(G, V, V)))


def _identity_defects(G, phi, xit, eta_t, basis):
    """Largest defect of the almost contact identities at each point:
    eta(xi~) = 1, phi xi~ = 0, and for u, v in the tangent basis
    phi^2 u = -u + eta(u) xi~, eta(phi u) = 0 and
    g(phi u, phi v) = g(u, v) - eta(u) eta(v)."""
    PB = basis @ phi.swapaxes(1, 2)  # rows phi u
    e = np.einsum("pbi,pi->pb", basis, eta_t)
    defects = [
        np.abs(np.einsum("pi,pi->p", eta_t, xit) - 1.0),
        _gnorm(G, np.einsum("pij,pj->pi", phi, xit)),
        np.max(_gnorm(G, PB @ phi.swapaxes(1, 2) + basis
                      - e[:, :, None] * xit[:, None, :]), axis=1),
        np.max(np.abs(np.einsum("pbi,pi->pb", PB, eta_t)), axis=1),
        np.max(np.abs(PB @ G @ PB.swapaxes(1, 2)
                      - basis @ G @ basis.swapaxes(1, 2)
                      + e[:, :, None] * e[:, None, :]), axis=(1, 2)),
    ]
    return np.max(defects, axis=0)


@dataclass(frozen=True)
class AlphaCheck:
    """The fitted alpha and the defects of both derivative laws, one value
    per point."""

    alpha: np.ndarray
    alpha_defect: np.ndarray
    phi_defect: np.ndarray


def _alpha_check(structure: AlmostContact, dreeb, phi_law) -> AlphaCheck:
    """Fit alpha in D_x xi_tilde = alpha phi x and measure both derivative
    laws over the tangent basis at every point, with derivatives projected
    tangentially.

    ``dreeb`` holds the partials dreeb[p, i, m] = d_i xi_tilde^m of the Reeb
    field, and ``phi_law`` the jets ((phi Y, d phi Y), (Y, dY)) of the vector
    fields phi Y and Y through each basis vector y, values (P, b, d) and
    partials (P, b, d, d) in basis order, for the law
    (D_x phi)(y) = alpha (eta_t(y) x - g(x, y) xi_tilde).  All their
    covariant derivatives are one call.  Raises NotSasakian where the fitted
    law for xi_tilde leaves a residual above ``ALPHA_GATE``.
    """
    G, phi, B = structure.jet.G, structure.phi, structure.tangent_basis
    xit, eta_t = structure.xi_tilde, structure.eta_tilde
    (PY, dPY), (Y, dY) = phi_law
    b = B.shape[1]
    D = covariant_derivative(
        structure.jet, np.concatenate([xit[:, None], PY, Y], axis=1),
        np.concatenate([dreeb[:, None], dPY, dY], axis=1))
    # the tangential part of x @ D for every field and basis vector x
    DX = B[:, None] @ D @ structure.tangential.swapaxes(1, 2)[:, None]
    dxit = DX[:, 0]
    PB = B @ phi.swapaxes(1, 2)  # rows phi x
    alpha = _gdot(G, dxit, PB).sum(axis=1) / _gdot(G, PB, PB).sum(axis=1)
    alpha_defect = np.max(_gnorm(G, dxit - alpha[:, None, None] * PB),
                          axis=1)
    raise_first([(alpha_defect > ALPHA_GATE, lambda j: NotSasakian(
        f"derivative law residual {alpha_defect[j]:.3e} exceeds "
        f"{ALPHA_GATE:.1e}"))])

    # lhs[p, y, x] = (D_x phi)(y), rhs[p, y, x] its value by the law
    lhs = DX[:, 1:1 + b] - DX[:, 1 + b:] @ phi.swapaxes(1, 2)[:, None]
    ey = np.einsum("pyi,pi->py", B, eta_t)
    gxy = _gdot(G, B[:, None], B[:, :, None])
    rhs = alpha[:, None, None, None] * (ey[:, :, None, None] * B[:, None]
                                        - gxy[..., None] * xit[:, None, None])
    phi_defect = np.max(_gnorm(G, lhs - rhs), axis=(1, 2))
    return AlphaCheck(alpha=alpha, alpha_defect=alpha_defect,
                      phi_defect=phi_defect)


def alpha_sasakian_check(space: AmbientSpace, structure: AlmostContact,
                         spheres: Hyperspheres) -> AlphaCheck:
    """The derivative laws of the hypersphere structures, with the ambient
    connection of the structure's jet; see ``_alpha_check``.  The Reeb field
    J0 xi has the partials dxi J0^T."""
    J0 = j0_matrix(space.n)
    return _alpha_check(structure, spheres.dxi @ J0.T,
                        sphere_phi_law(structure, spheres, J0))


def sphere_phi_law(structure: AlmostContact, spheres: Hyperspheres, J0):
    """Jets of the phi-law fields through the tangent basis vectors y:
    Y = y - g(y, xi) xi and phi Y = J0 Y + g(Y, J0 xi) xi, returned as
    ((phi Y, d phi Y), (Y, dY)) with values [p, b, m] and partials
    [p, b, i, m] = d_i of the field through basis vector b at point p.

    Both fields depend on the point only through G and xi, so the product
    rule on the jet's dG and the hypersphere's dxi gives their partials; no
    field is evaluated.
    """
    G, dG = structure.jet.G, structure.jet.dG
    B, xi, dxi = structure.tangent_basis, spheres.xi, spheres.dxi
    jxi, djxi = xi @ J0.T, dxi @ J0.T
    # Y = y - s xi with s = g(y, xi)
    s = np.einsum("pbi,pij,pj->pb", B, G, xi)
    ds = (np.einsum("pbi,pkij,pj->pbk", B, dG, xi)
          + np.einsum("pbi,pij,pkj->pbk", B, G, dxi))
    Y = B - s[:, :, None] * xi[:, None]
    dY = -(ds[..., None] * xi[:, None, None] + s[..., None, None] * dxi[:, None])
    # phi Y = J0 Y + t xi with t = g(Y, J0 xi)
    t = np.einsum("pbi,pij,pj->pb", Y, G, jxi)
    dt = (np.einsum("pbki,pij,pj->pbk", dY, G, jxi)
          + np.einsum("pbm,pkmn,pn->pbk", Y, dG, jxi)
          + np.einsum("pbi,pij,pkj->pbk", Y, G, djxi))
    PY = Y @ J0.T + t[:, :, None] * xi[:, None]
    dPY = (dY @ J0.T + dt[..., None] * xi[:, None, None]
           + t[..., None, None] * dxi[:, None])
    return (PY, dPY), (Y, dY)


def gauss_curvature_fn(R, h):
    """Curvature tensors K[p, i, j, k, l] of hyperspheres, by the Gauss
    equation K = R + h_jk h_il - h_ik h_jl, from the ambient curvature
    tensors R (P, d, d, d, d) and the second fundamental forms h (P, d, d)
    at the same points."""
    return (R + np.einsum("pjk,pil->pijkl", h, h)
            - np.einsum("pik,pjl->pijkl", h, h))


def _quadruple(T, x, y, z, u):
    """T(x, y, z, u) of 4-tensors T (P, d, d, d, d), per point and row of
    the stacked vectors (P, S, d), contracting one vector at a time."""
    T = np.einsum("pijkl,psi->psjkl", T, x)
    T = np.einsum("psjkl,psj->pskl", T, y)
    T = np.einsum("pskl,psk->psl", T, z)
    return np.einsum("psl,psl->ps", T, u)


@dataclass(frozen=True)
class PhiSectional:
    """The mean c and the spread of the phi-sectional values at each point,
    with the values (P, 12), NaN for a direction too short to use."""

    c: np.ndarray
    spread: np.ndarray
    values: np.ndarray


def phi_sectional(structure: AlmostContact, K, seed: int = 0) -> PhiSectional:
    """Sample K(x, phi x, phi x, x) over 12 unit directions in the
    distribution orthogonal to xi_tilde, K (P, d, d, d, d) being the
    curvature tensors of the structure's manifold at its points.  Raises
    NotSpaceForm where the values disagree."""
    G, phi = structure.jet.G, structure.phi
    dbasis = structure.tangent_basis[:, 1:]
    X = (np.random.default_rng(seed).normal(size=(12, dbasis.shape[1]))
         @ dbasis)
    nrm = np.sqrt(np.abs(_gdot(G, X, X)))
    keep = nrm >= 1e-6
    with np.errstate(all="ignore"):
        X = X / nrm[..., None]
        PX = X @ phi.swapaxes(1, 2)
        den = _gdot(G, X, X) * _gdot(G, PX, PX) - _gdot(G, X, PX) ** 2
        vals = np.where(keep, _quadruple(K, X, PX, PX, X) / den, np.nan)
    c = np.where(keep, vals, 0.0).sum(axis=1) / keep.sum(axis=1)
    spread = (np.max(np.where(keep, vals, -np.inf), axis=1)
              - np.min(np.where(keep, vals, np.inf), axis=1))
    raise_first([(spread > 1e-6 * np.maximum(1.0, np.abs(c)),
                  lambda j: NotSpaceForm(
                      f"phi-sectional values spread {spread[j]:.3e} at "
                      f"c ~ {c[j]:.6g}"))])
    return PhiSectional(c=c, spread=spread, values=vals)


def space_form_model(structure: AlmostContact, c, alpha) -> np.ndarray:
    """The alpha-Sasakian space form curvature with phi-sectional value c as
    a (0,4)-tensor at each point, (P, d, d, d, d), from G, P = phi^T G (so
    P[a, b] = g(phi a, b)) and eta_tilde, with coefficients
    (c + 3 alpha^2)/4 and (c - alpha^2)/4; c and alpha hold a value per
    point."""
    G, eta = structure.jet.G, structure.eta_tilde
    P = structure.phi.swapaxes(1, 2) @ G
    E = eta[:, :, None] * eta[:, None, :]

    def pair(S, T):
        # S(y, z) T(x, u) - S(x, z) T(y, u)
        return (np.einsum("pjk,pil->pijkl", S, T)
                - np.einsum("pik,pjl->pijkl", S, T))

    c, alpha = (np.asarray(v, float)[:, None, None, None, None]
                for v in (c, alpha))
    A = 0.25 * (c + 3.0 * alpha * alpha)
    B = 0.25 * (c - alpha * alpha)
    return A * pair(G, G) + B * (pair(P, P)
                                 - 2.0 * np.einsum("pij,pkl->pijkl", P, P)
                                 - pair(G, E) - pair(E, G))


def space_form_model_defect(structure: AlmostContact, K, c, alpha):
    """Largest deviation at each point of the curvature tensors K, over 30
    sampled quadruples, from the alpha-Sasakian space form model of
    ``space_form_model``."""
    basis = structure.tangent_basis
    draws = np.random.default_rng(1).normal(size=(30, 4, basis.shape[1]))
    quads = np.moveaxis(draws @ basis[:, None], 2, 0)
    model = space_form_model(structure, c, alpha)
    return np.max(np.abs(_quadruple(K, *quads) - _quadruple(model, *quads)),
                  axis=1)


def _sphere_chart(space: AmbientSpace, Z, radius):
    """The graph chart of the hypersphere of ``radius`` (P,) through each
    point of Z (P, d), on the sheet of the point, as one chart whose radius
    and sheet vary by row, and the chart parameters of the points; the
    chart's guard runs as a pulled-back metric evaluates them."""
    if not space.lorentz:
        raise DomainError("chart cross-check is wired for the Lorentz signature")
    return (GraphChart(radius, space.dim, lorentz=True,
                       sign=np.where(Z[:, -1] > 0, 1.0, -1.0)), Z[:, :-1])


def _gauss_delta(structure: AlmostContact, K, chart, cjet: PointJet, Rc,
                 seed: int) -> np.ndarray:
    """Largest gap at each point between the Gauss-equation sectional
    curvatures of K and the intrinsic ones of Rc, the curvature tensors of
    the pulled-back metric at the chart points of ``cjet`` in ``chart``.

    The planes are the first ``GAUSS_PLANES`` of ``GAUSS_TRIES`` seeded
    pairs of the tangent basis whose Gram determinant reaches
    ``GAUSS_MIN_DEN``; a point with fewer raises NumericalBreakdown.
    """
    G, B = structure.jet.G, structure.tangent_basis
    draws = np.random.default_rng(seed).normal(size=(GAUSS_TRIES, 2,
                                                     B.shape[1]))
    x, y = np.moveaxis(draws @ B[:, None], 2, 0)
    den = _gdot(G, x, x) * _gdot(G, y, y) - _gdot(G, x, y) ** 2
    ok = np.abs(den) >= GAUSS_MIN_DEN
    found = ok.sum(axis=1)
    raise_first([(found < GAUSS_PLANES, lambda j: NumericalBreakdown(
        f"{found[j]} of {GAUSS_TRIES} seeded planes reach a Gram "
        f"determinant of {GAUSS_MIN_DEN:g}, fewer than {GAUSS_PLANES}"))])
    first = np.argsort(~ok, axis=1, kind="stable")[:, :GAUSS_PLANES]
    x, y = (np.take_along_axis(v, first[..., None], axis=1) for v in (x, y))
    extr = (_quadruple(K, x, y, y, x)
            / np.take_along_axis(den, first, axis=1))
    xc, yc = tangent_params(chart, x), tangent_params(chart, y)
    Gc = cjet.G
    denc = _gdot(Gc, xc, xc) * _gdot(Gc, yc, yc) - _gdot(Gc, xc, yc) ** 2
    raise_first([(np.any(np.abs(denc) < 1e-14, axis=1),
                  lambda j: NumericalBreakdown("degenerate section"))])
    intr = _quadruple(Rc, xc, yc, yc, xc) / denc
    return np.max(np.abs(extr - intr), axis=1)


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


def _reports(structure: AlmostContact, check: AlphaCheck, K, seed: int,
             **fields) -> list:
    """One report per point of the structure: the checked derivative laws
    plus the phi-sectional curvature and the space form model of the
    curvature tensors K of the structure's manifold.  Each of ``fields``
    holds its value at every point."""
    phis = phi_sectional(structure, K, seed=seed)
    columns = {"alpha": check.alpha, "alpha_defect": check.alpha_defect,
               "phi_defect": check.phi_defect, "c": phis.c,
               "c_spread": phis.spread,
               "model_defect": space_form_model_defect(structure, K, phis.c,
                                                       check.alpha)}
    columns = {name: v.tolist() for name, v in columns.items()} | fields
    return [SasakianReport(**dict(zip(columns, row)))
            for row in zip(*columns.values())]


def sphere_reports(space: AmbientSpace, family, radii, seed: int = 0,
                   orientation: str = "auto",
                   metric: MetricField | None = None) -> list:
    """Full alpha-Sasakian verification of the hypersphere of each of
    ``radii``, with the chart cross-check of the Gauss equation on the
    Lorentz signature: one report per radius, the same as that radius
    alone gets.

    ``family`` may be None together with an explicit ``metric`` (the flat
    field gives the classical round-sphere structures).  Each radius draws
    its sample point Z with ``seed``.  One jet of the metric at all points
    Z gives the unit normals, shape data, J-adapted frames, structures and
    the ambient fit; one jet of the pulled-back metric, on a chart whose
    radius and sheet vary by row, gives the intrinsic curvature at every
    chart point.  Each check is then one call over all points.
    """
    if metric is None:
        metric = potential_metric(space, family)
    Z = np.array([_chartable_timelike_point(space, r, seed) if space.lorentz
                  else point_at_radius(space, r, seed=seed) for r in radii])
    jet = point_jets(metric, Z)
    structure, spheres, F, signs = _induced_contacts(space, jet, orientation)
    R = curvature_tensors(jet)
    raise_first([curvature_gate(R)])
    coeffs, residual = frame_fit(R, F, signs)
    if space.lorentz:
        chart, U = _sphere_chart(space, Z, spheres.radius)
        cjet = point_jets(pullback_metric(chart, metric), U)
        Rc = curvature_tensors(cjet)
        raise_first([curvature_gate(Rc)])
    check = alpha_sasakian_check(space, structure, spheres)
    # the second fundamental form h(x, y) = -g(nabla_x xi, y) of the normal
    h = -covariant_derivative(jet, spheres.xi, spheres.dxi) @ jet.G
    K = gauss_curvature_fn(R, h)
    reports = _reports(structure, check, K, seed,
                       radius=spheres.radius.tolist(),
                       orientation=spheres.orientation,
                       identity_defect=spheres.identity_defect.tolist())
    gauss = (_gauss_delta(structure, K, chart, cjet, Rc, seed).tolist()
             if space.lorentz else [None] * len(Z))
    out = []
    for rep, fit, res, k, gd in zip(reports, coeffs.tolist(),
                                    residual.tolist(), spheres.k.tolist(),
                                    gauss):
        dec = QCDecomposition.of(*fit, res, k)
        delta = max(abs(rep.c_plus_3a2 - dec.a_plus_k2),
                    abs(rep.c - rep.alpha ** 2 - dec.a))
        out.append(dataclasses.replace(rep, decomposition=dec,
                                       decompose_delta=delta, gauss_delta=gd))
    return out


def _chartable_timelike_point(space, r, seed):
    """Time-like sample kept clear of the graph chart equator by the chart's
    own ``charts.MARGIN``, so the intrinsic cross-check can place the point
    in a chart."""
    floor = (r * math.sin(MARGIN)) ** 2
    for k in range(CHART_TRIES):
        Z = point_at_radius(space, r, seed=seed + 1000 * k)
        if Z[-1] ** 2 >= floor:
            return Z
    raise DomainError("could not draw a chart-compatible sphere point")


# -- the intrinsic family on the unit Lorentz hypersphere ---------------------


def family_h1_metric(n: int, q: float):
    """Sasakian family metric on the unit hypersphere of the Lorentz flat
    form, in graph chart coordinates.

    Returns (metric, chart, structure) where structure is the chart
    expression of the structure: at u, the m x (m + 1) matrix whose first m
    columns are the phi matrix and whose last column is the Reeb field, both
    from one solve of the chart.  Both fields are array expressions on
    floats or on duals with component axes (``qck.duals``): the covector
    eta of the chart is one contraction of the chart Jacobian with J0 of the
    normal, and phi applies J0 to every column of the Jacobian at once.
    """
    if q <= 0:
        raise DomainError("family parameter q must be positive")
    space = AmbientSpace(n, "lorentz")
    H = space.flat_real()
    hcol = np.diag(H)[:, None]
    chart = GraphChart(1.0, space.dim, lorentz=True)
    m = chart.nparams

    def frame(u):
        # the normal, the chart Jacobian and the unflipped covector
        # h'(., J0 normal) in chart components
        nv, jc = chart.fn_jac(u)
        return nv, jc, contract(weigh(hcol, jc), apply_j0(nv)[:, None])

    def metric_fn(u):
        _, jc, et = frame(u)
        return q * q * (pulled_back(H, jc) + (1.0 + q * q) * et[:, None] * et)

    def structure(u):
        nv, jc, et = frame(u)
        # phi w = J0 w + eta_f(w) normal, eta_f = -h'(., J0 normal), on
        # every column w of the Jacobian
        phi = (apply_j0(jc) + (-et) * nv[:, None])[:m]
        # The Reeb field is fixed by the derivative law D_x reeb = + phi x;
        # with this phi it is the inward-based rotation of the normal.
        reeb = -apply_j0(nv)[:m] / (q * q)
        return concat([phi, reeb[:, None]], axis=1)

    metric = MetricField(metric_fn, m, name=f"sasakian-family[q={q}]")
    return metric, chart, structure


def family_h1_report(n: int, q: float, seed: int = 0) -> SasakianReport:
    """Verification of the family metric: alpha, the derivative laws, the
    phi-sectional value, and the space form model, all intrinsic, by the
    checks of ``sphere_reports`` at a batch of one chart point."""
    metric, chart, phi_reeb = family_h1_metric(n, q)
    m = chart.nparams
    rng = np.random.default_rng(seed)
    u0 = 0.25 * rng.normal(size=m)
    u0[-1] *= 0.5

    U = u0[None]
    jet = point_jets(metric, U)
    # phi and the Reeb field, with their partials, from one evaluation;
    # contiguous, as the kernels below round by the layout of their input
    values, partials = eval_with_partials(phi_reeb, U)
    phi, dphi = (np.ascontiguousarray(a[..., :m]) for a in (values, partials))
    reeb, dreeb = (np.ascontiguousarray(a[..., m]) for a in (values, partials))
    B = _family_tangent_basis(jet.G[0], reeb[0])[None]
    structure = AlmostContact(jet, xi_tilde=reeb,
                              eta_tilde=np.einsum("pij,pj->pi", jet.G, reeb),
                              phi=phi, tangent_basis=B,
                              tangential=np.eye(m)[None])
    # Y = y is constant, and phi Y = phi y has the partials (d_i phi) y
    phi_law = ((B @ phi.swapaxes(1, 2), np.einsum("pkij,pbj->pbki", dphi, B)),
               (B, np.zeros(B.shape + (m,))))
    check = _alpha_check(structure, dreeb, phi_law)
    R = curvature_tensors(jet)
    raise_first([curvature_gate(R)])
    return _reports(structure, check, R, seed, radius=[1.0],
                    orientation=["outward"], identity_defect=[0.0], q=[q])[0]


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
