"""Curvature of metric fields.

Everything is computed pointwise from a ``PointJet``: the metric values
G_ij with their first partials dG[k, i, j] and second partials
d2G[k, l, i, j], the complex structure J with its first partials, and the
connection (Christoffel symbols and inverse metric), all at one point.
``point_jet(metric, x)`` is the one place that evaluates a metric for this
work, and the one place that computes its connection; ``curvature_bundle``,
``kahler_defect``, ``covariant_derivative``, ``ambient.radial_unit_jet`` and
``qch.extract_shape_data`` all take the jet, so a per-point pipeline builds
it once.  A ``CurvatureBundle`` holds only that jet and the curvature tensor
R assembled from it; its invariants read G, G^-1 and J off the jet.  The
radial unit field and its partials follow from G and dG in closed form, so
they cost no further evaluation; ``vector_jet`` differentiates other vector
fields by duals.

Which path makes the metric jet (``PointJet.method``): a field with a
closed-form derivative rule, as the potential metrics of
``ambient.potential_metric`` have, gets "closed-form": G from one float
evaluation of the field, dG and d2G from the rule.  Every other field gets
"dual": one evaluation of the metric on dual numbers whose coordinates carry
one payload column per index pair (k, l) of the second jet, see
``qck.duals``.  ``method="fd"`` takes the jet by finite differences instead,
with the same downstream assembly, as an independent oracle.

Conventions.  Connection coefficients are the usual Christoffel symbols of
the second kind.  The curvature tensor is

    R(X, Y, Z, U) = g((nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]) Z, U)

so a space of constant sectional curvature K has
R(X, Y, Y, X) = K (g(X,X) g(Y,Y) - g(X,Y)^2), and on the hyperbolic plane
the Ricci form equals -g and the scalar curvature is -2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duals import MultiDual, coefficients, eval_with_partials
from .errors import DegenerateMetric, DomainError, NumericalBreakdown
from .tensors import Tensor4

# largest condition number of G that ``christoffel`` inverts
COND_LIMIT = 1e12
# coordinate step of the finite-difference jet
FD_STEP = 1e-3


def _seeded_coordinates(x, m: int, p: int) -> np.ndarray:
    """Payloads (d, 2**m, p) holding the coordinates of x in every column
    and no derivative part yet."""
    xf = np.array([float(c) for c in x])
    seeds = np.zeros((len(xf), 1 << m, p))
    seeds[:, 0, :] = xf[:, None]
    return seeds


def _first_jet(field, x, d):
    """Values and first partials of a matrix field in one evaluation:
    coordinate k carries the generator in column k."""
    seeds = _seeded_coordinates(x, 1, d)
    seeds[np.arange(d), 1, np.arange(d)] = 1.0
    out = coefficients(field([MultiDual(s, 1) for s in seeds]), 1, d)
    return out[:, :, 0, 0], np.moveaxis(out[:, :, 1, :], 2, 0)


def metric_second_jet(metric, x):
    """(G, dG, d2G) by dual numbers: one 2-generator evaluation.

    Column p stands for the index pair (k, l), k <= l: coordinate k carries
    e1 and coordinate l carries e2 there (both on k when k == l), so the
    e1 e2 coefficient of the column is d_k d_l G and its e1 coefficient d_k G.
    """
    d = metric.dim
    ks, ls = np.triu_indices(d)
    cols = np.arange(len(ks))
    seeds = _seeded_coordinates(x, 2, len(ks))
    seeds[ks, 1, cols] = 1.0
    seeds[ls, 2, cols] = 1.0
    out = coefficients(metric([MultiDual(s, 2) for s in seeds]), 2, len(ks))
    G = out[:, :, 0, 0]
    dG = np.moveaxis(out[:, :, 1, cols[ks == ls]], 2, 0)
    d2G = np.empty((d, d, d, d))
    d2G[ks, ls] = d2G[ls, ks] = np.moveaxis(out[:, :, 3, :], 2, 0)
    return _finite(G, dG, d2G)


def closed_form_second_jet(metric, x):
    """(G, dG, d2G) of a field with a closed-form derivative rule: G from
    one float evaluation of the field, which raises its domain and
    admissibility errors, and the partials from ``metric.derivatives``."""
    xf = np.array([float(c) for c in x])
    G = metric.matrix(xf)
    return _finite(G, *metric.derivatives(xf))


def _finite(G, dG, d2G):
    if not np.all(np.isfinite(G)) or not np.all(np.isfinite(d2G)):
        raise NumericalBreakdown("metric jet produced non-finite entries")
    return G, dG, d2G


def _central(fun, x, k, h):
    e = np.zeros(len(x))
    e[k] = 1.0
    return (8.0 * (fun(x + h * e) - fun(x - h * e))
            - (fun(x + 2 * h * e) - fun(x - 2 * h * e))) / (12.0 * h)


def metric_second_jet_fd(metric, x):
    """Finite-difference jet with the same layout as ``metric_second_jet``,
    with step ``FD_STEP``.

    Fourth-order stencils for the first partials and the diagonal second
    partials, Richardson-extrapolated cross stencil for the mixed ones.
    Useful as an oracle; the exact paths are faster and exact to rounding.
    """
    d = metric.dim
    h = FD_STEP
    xf = np.asarray([float(c) for c in x])
    M = metric.matrix
    G = M(xf)
    dG = np.empty((d, d, d))
    d2G = np.empty((d, d, d, d))
    for k in range(d):
        dG[k] = _central(M, xf, k, h)
        e = np.zeros(d)
        e[k] = 1.0
        d2G[k, k] = (-M(xf + 2 * h * e) + 16 * M(xf + h * e) - 30 * G
                     + 16 * M(xf - h * e) - M(xf - 2 * h * e)) / (12 * h * h)
    for k in range(d):
        for l in range(k + 1, d):
            ek = np.zeros(d)
            ek[k] = 1.0
            el = np.zeros(d)
            el[l] = 1.0

            def cross(step):
                return (M(xf + step * (ek + el)) + M(xf - step * (ek + el))
                        - M(xf + step * (ek - el)) - M(xf - step * (ek - el))) \
                    / (4 * step * step)

            d2G[k, l] = d2G[l, k] = (4.0 * cross(h / 2) - cross(h)) / 3.0
    return G, dG, d2G


def christoffel(G, dG):
    """Connection coefficients gamma[m, j, k] and the inverse metric."""
    if np.linalg.cond(G) > COND_LIMIT:
        raise DegenerateMetric(f"metric condition number exceeds {COND_LIMIT:.1e}")
    Ginv = np.linalg.inv(G)
    # gamma^m_{jk} = 1/2 g^{ml} (d_j G_{lk} + d_k G_{lj} - d_l G_{jk})
    bracket = np.einsum("jlk->ljk", dG) + np.einsum("klj->ljk", dG) - dG
    gamma = 0.5 * np.einsum("ml,ljk->mjk", Ginv, bracket)
    return gamma, Ginv


@dataclass
class CurvatureBundle:
    """Curvature tensor of a metric field at the point of ``jet``, whose
    metric, inverse metric and complex structure the invariants use."""

    jet: PointJet
    R: Tensor4  # R[i, j, k, l], all indices down

    def ricci(self) -> np.ndarray:
        return np.einsum("il,ijkl->jk", self.jet.Ginv, self.R.a)

    def scalar_curvature(self) -> float:
        return float(np.einsum("jk,jk->", self.jet.Ginv, self.ricci()))

    def sectional(self, X, Y) -> float:
        X = np.asarray(X, float)
        Y = np.asarray(Y, float)
        num = float(np.einsum("ijkl,i,j,k,l->", self.R.a, X, Y, Y, X))
        G = self.jet.G
        gXX = X @ G @ X
        gYY = Y @ G @ Y
        gXY = X @ G @ Y
        den = gXX * gYY - gXY * gXY
        if abs(den) < 1e-14:
            raise NumericalBreakdown("degenerate section")
        return num / den

    def hsc(self, X) -> float:
        """Holomorphic sectional curvature of the section (X, JX)."""
        X = np.asarray(X, float)
        JX = self.jet.J @ X
        num = float(np.einsum("ijkl,i,j,k,l->", self.R.a, X, JX, JX, X))
        gXX = float(X @ self.jet.G @ X)
        if abs(gXX) < 1e-14:
            raise DomainError("null direction has no holomorphic curvature")
        return num / (gXX * gXX)

    def sigma_radial(self, xi) -> float:
        """Negated Ricci value on a radial unit direction."""
        xi = np.asarray(xi, float)
        return float(-xi @ self.ricci() @ xi)

    def kappa_radial(self, xi) -> float:
        """Curvature value on the radial holomorphic section."""
        xi = np.asarray(xi, float)
        jxi = self.jet.J @ xi
        return float(np.einsum("ijkl,i,j,k,l->", self.R.a, xi, jxi, jxi, xi))


@dataclass(frozen=True)
class PointJet:
    """Jets of a metric field at one point: the metric G with its first and
    second partials dG[k, i, j] and d2G[k, l, i, j], the complex structure J
    with its first partials dJ[k, i, j], and the connection they fix: the
    Christoffel symbols gamma[m, j, k] and the inverse metric Ginv."""

    point: np.ndarray
    G: np.ndarray
    dG: np.ndarray
    d2G: np.ndarray
    J: np.ndarray
    dJ: np.ndarray
    gamma: np.ndarray
    Ginv: np.ndarray
    method: str  # how the metric jet was taken: "closed-form" | "dual" | "fd"


def point_jet(metric, x, method: str = "exact") -> PointJet:
    """The PointJet of ``metric`` at ``x``.  ``method="exact"`` takes the
    field's closed-form derivative rule where it has one and one metric
    evaluation by duals otherwise; ``method="fd"`` is the finite-difference
    oracle.  The connection is computed here once; DegenerateMetric where G
    is too ill-conditioned to invert."""
    if method == "fd":
        G, dG, d2G = metric_second_jet_fd(metric, x)
    elif method != "exact":
        raise ValueError(f"unknown jet method {method!r}")
    elif metric.derivatives is not None:
        G, dG, d2G = closed_form_second_jet(metric, x)
        method = "closed-form"
    else:
        G, dG, d2G = metric_second_jet(metric, x)
        method = "dual"
    J, dJ = structure_jet(metric, x)
    gamma, Ginv = christoffel(G, dG)
    return PointJet(np.array([float(c) for c in x]), G, dG, d2G, J, dJ,
                    gamma, Ginv, method)


def curvature_bundle(jet: PointJet,
                     symmetry_gate: float = 1e-6) -> CurvatureBundle:
    """Assemble the curvature tensor at the point of ``jet``.

    The algebraic curvature identities hold exactly in exact arithmetic, so
    their numerical violation is a direct error estimate; past the gate the
    result is garbage and NumericalBreakdown is raised rather than returned.
    """
    G, dG, d2G, gamma, Ginv = jet.G, jet.dG, jet.d2G, jet.gamma, jet.Ginv
    # d_i gamma^m_{jk}, using d_i Ginv = -Ginv dG_i Ginv
    dGinv = -np.einsum("ma,iab,bl->iml", Ginv, dG, Ginv)
    bracket = np.einsum("jlk->ljk", dG) + np.einsum("klj->ljk", dG) - dG
    dbracket = (np.einsum("ijlk->iljk", d2G) + np.einsum("iklj->iljk", d2G)
                - d2G)
    dgamma = 0.5 * (np.einsum("iml,ljk->imjk", dGinv, bracket)
                    + np.einsum("ml,iljk->imjk", Ginv, dbracket))
    quad1 = np.einsum("ajk,mia->mijk", gamma, gamma)
    quad2 = np.einsum("aik,mja->mijk", gamma, gamma)
    Rm = (np.einsum("imjk->mijk", dgamma) - np.einsum("jmik->mijk", dgamma)
          + quad1 - quad2)
    R = np.einsum("ml,mijk->ijkl", G, Rm)
    T = Tensor4(R)
    defect = T.curvature_symmetry_defect()
    if defect > symmetry_gate * max(1.0, T.scale()):
        raise NumericalBreakdown(
            f"curvature symmetry defect {defect:.3e} exceeds the gate")
    return CurvatureBundle(jet, T)


def vector_jet(vfield, x):
    """Values and partials of a vector field: (V, dV) with dV[i, m] = d_i V^m."""
    vals, cols = eval_with_partials(vfield, [float(c) for c in x])
    V = np.asarray(vals, float)
    dV = np.asarray(cols, float)
    return V, dV


def covariant_derivative(jet: PointJet, V, dV):
    """(nabla_i V)^m as a matrix D[i, m] at the point of ``jet``, for a
    vector field with values V^m and partials dV[i, m] = d_i V^m there
    (from ``vector_jet``, or in closed form as ``ambient.radial_unit_jet``).
    Leading axes of V and dV, one per field, carry through to D."""
    return dV + np.einsum("mia,...a->...im", jet.gamma, V)


def structure_jet(metric, x):
    """Values and partials of the complex structure field: (J, dJ), with one
    evaluation of a varying structure and none of the constant one."""
    d = metric.dim
    if metric.complex_structure is None:
        return metric.structure_matrix(x), np.zeros((d, d, d))
    return _first_jet(metric.complex_structure, x, d)


def kahler_defect(jet: PointJet) -> float:
    """Max component of the exterior derivative of the fundamental 2-form.

    Omega(X, Y) = g(JX, Y); the metric is Kaehler at x exactly when dOmega
    vanishes there (for the integrable structures handled here), so this is
    the closedness test in coordinate components.
    """
    G, dG, J, dJ = jet.G, jet.dG, jet.J, jet.dJ
    dOm = np.einsum("kai,aj->kij", dJ, G) + np.einsum("ai,kaj->kij", J, dG)
    ext = dOm - np.einsum("ikj->kij", dOm) + np.einsum("jki->kij", dOm)
    return float(np.max(np.abs(ext)))

