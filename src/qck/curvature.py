"""Curvature of metric fields.

Everything is computed pointwise from a ``PointJet``: the metric values
G_ij with their first partials dG[k, i, j] and second partials
d2G[k, l, i, j], and the complex structure J with its first partials, all at
one point.  ``point_jet(metric, x)`` is the one place that evaluates a metric
for this work; ``curvature_bundle``, ``kahler_defect``,
``structure_covariant_defect``, ``covariant_vector_derivative`` and
``qch.extract_shape_data`` all take the jet, so a per-point pipeline builds
it once.  The jet comes from dual numbers by default; ``method="fd"`` takes
it by finite differences instead, with the same downstream assembly, as an
independent oracle.

A dual jet costs one evaluation of the metric: the coordinates carry one
payload column per index pair (k, l) of the second jet, see ``qck.duals``.

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
    if not np.all(np.isfinite(G)) or not np.all(np.isfinite(d2G)):
        raise NumericalBreakdown("metric jet produced non-finite entries")
    return G, dG, d2G


def _central(fun, x, k, h):
    e = np.zeros(len(x))
    e[k] = 1.0
    return (8.0 * (fun(x + h * e) - fun(x - h * e))
            - (fun(x + 2 * h * e) - fun(x - 2 * h * e))) / (12.0 * h)


def metric_second_jet_fd(metric, x, h: float = 1e-3):
    """Finite-difference jet with the same layout as ``metric_second_jet``.

    Fourth-order stencils for the first partials and the diagonal second
    partials, Richardson-extrapolated cross stencil for the mixed ones.
    Useful as an oracle; the dual path is both faster and exact to rounding.
    """
    d = metric.dim
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


def christoffel(G, dG, cond_limit: float = 1e12):
    """Connection coefficients gamma[m, j, k] and the inverse metric."""
    if np.linalg.cond(G) > cond_limit:
        raise DegenerateMetric(f"metric condition number exceeds {cond_limit:.1e}")
    Ginv = np.linalg.inv(G)
    # gamma^m_{jk} = 1/2 g^{ml} (d_j G_{lk} + d_k G_{lj} - d_l G_{jk})
    bracket = np.einsum("jlk->ljk", dG) + np.einsum("klj->ljk", dG) - dG
    gamma = 0.5 * np.einsum("ml,ljk->mjk", Ginv, bracket)
    return gamma, Ginv


@dataclass
class CurvatureBundle:
    """Curvature data of a metric field at one point."""

    point: np.ndarray
    G: np.ndarray
    Ginv: np.ndarray
    gamma: np.ndarray  # gamma[m, j, k]
    R: Tensor4  # R[i, j, k, l], all indices down
    J: np.ndarray  # complex structure at the point
    method: str

    def ricci(self) -> np.ndarray:
        return np.einsum("il,ijkl->jk", self.Ginv, self.R.a)

    def scalar_curvature(self) -> float:
        return float(np.einsum("jk,jk->", self.Ginv, self.ricci()))

    def sectional(self, X, Y) -> float:
        X = np.asarray(X, float)
        Y = np.asarray(Y, float)
        num = float(np.einsum("ijkl,i,j,k,l->", self.R.a, X, Y, Y, X))
        gXX = X @ self.G @ X
        gYY = Y @ self.G @ Y
        gXY = X @ self.G @ Y
        den = gXX * gYY - gXY * gXY
        if abs(den) < 1e-14:
            raise NumericalBreakdown("degenerate section")
        return num / den

    def hsc(self, X) -> float:
        """Holomorphic sectional curvature of the section (X, JX)."""
        X = np.asarray(X, float)
        JX = self.J @ X
        num = float(np.einsum("ijkl,i,j,k,l->", self.R.a, X, JX, JX, X))
        gXX = float(X @ self.G @ X)
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
        jxi = self.J @ xi
        return float(np.einsum("ijkl,i,j,k,l->", self.R.a, xi, jxi, jxi, xi))


@dataclass(frozen=True)
class PointJet:
    """Jets of a metric field at one point: the metric G with its first and
    second partials dG[k, i, j] and d2G[k, l, i, j], and the complex
    structure J with its first partials dJ[k, i, j]."""

    point: np.ndarray
    G: np.ndarray
    dG: np.ndarray
    d2G: np.ndarray
    J: np.ndarray
    dJ: np.ndarray
    method: str  # how the metric jet was taken: "dual" | "fd"


def point_jet(metric, x, method: str = "dual") -> PointJet:
    """The PointJet of ``metric`` at ``x``: one metric evaluation by duals
    (``method="dual"``), or the finite-difference oracle (``method="fd"``)."""
    if method == "dual":
        G, dG, d2G = metric_second_jet(metric, x)
    elif method == "fd":
        G, dG, d2G = metric_second_jet_fd(metric, x)
    else:
        raise ValueError(f"unknown jet method {method!r}")
    J, dJ = structure_jet(metric, x)
    return PointJet(np.array([float(c) for c in x]), G, dG, d2G, J, dJ, method)


def curvature_bundle(jet: PointJet,
                     symmetry_gate: float = 1e-6) -> CurvatureBundle:
    """Assemble the curvature tensor at the point of ``jet``.

    The algebraic curvature identities hold exactly in exact arithmetic, so
    their numerical violation is a direct error estimate; past the gate the
    result is garbage and NumericalBreakdown is raised rather than returned.
    """
    G, dG, d2G = jet.G, jet.dG, jet.d2G
    gamma, Ginv = christoffel(G, dG)
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
    return CurvatureBundle(jet.point, G, Ginv, gamma, T, jet.J,
                           method=jet.method)


def vector_jet(vfield, x):
    """Values and partials of a vector field: (V, dV) with dV[i, m] = d_i V^m."""
    vals, cols = eval_with_partials(vfield, [float(c) for c in x])
    V = np.asarray(vals, float)
    dV = np.asarray(cols, float)
    return V, dV


def covariant_vector_derivative(jet: PointJet, vfield):
    """(nabla_i V)^m as a matrix D[i, m], plus the values V^m, at the point
    of ``jet``."""
    gamma, _ = christoffel(jet.G, jet.dG)
    V, dV = vector_jet(vfield, jet.point)
    D = dV + np.einsum("mia,a->im", gamma, V)
    return D, V


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


def structure_covariant_defect(jet: PointJet) -> float:
    """Max entry of the covariant derivative of the complex structure.

    A stronger pointwise Kaehler test than ``kahler_defect``; used as an
    independent oracle on metrics whose structure field varies.
    """
    gamma, _ = christoffel(jet.G, jet.dG)
    J, dJ = jet.J, jet.dJ
    # (nabla_k J)^i_j = d_k J^i_j + gamma^i_{ka} J^a_j - gamma^a_{kj} J^i_a
    nj = dJ + np.einsum("ika,aj->kij", gamma, J) - np.einsum("akj,ia->kij", gamma, J)
    return float(np.max(np.abs(nj)))
