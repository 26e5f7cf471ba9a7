"""Curvature of metric fields.

Everything is computed pointwise from a ``PointJet``: the metric values
G_ij with their first partials dG[k, i, j] and second partials
d2G[k, l, i, j], the complex structure J with its first partials, and the
connection (Christoffel symbols and inverse metric), all at one point.
``point_jet(metric, x)``, with its batched form ``point_jets``, is the one
place that evaluates a metric for this work, and the one place that computes
its connection; ``curvature_bundle``,
``kahler_defect``, ``covariant_derivative``, ``ambient.radial_unit_jets`` and
``qch.shape_arrays`` all take the jet, so a per-point pipeline builds it
once.  A ``CurvatureBundle`` holds only that jet and the curvature tensor
R assembled from it; its invariants read G, G^-1 and J off the jet.  The
radial unit field and its partials follow from G and dG in closed form, so
they cost no further evaluation; ``duals.eval_with_partials`` differentiates
other fields by duals.

The points axis.  A jet may carry a leading axis over many points
(``point_jets``, ``PointJet.rows``), and the kernels behind the one-point
functions (``_connection``, ``curvature_tensors``, ``kahler_defect``,
``covariant_derivative``) take it: each contraction is one matrix product per
point.  A one-point function runs its kernel on a points axis of length 1,
so it is not a second code path: ``point_jet`` is the row of ``point_jets``
(or of ``fd_jets``) at a batch of one point.  Checks come as gates (see ``qck.errors``):
a one-point function raises the first failure, and a batch records it per
point and goes on with the rest.  ``qch.decompose_points`` drives the batch.

Which path makes the metric jet (``PointJet.method``): a field with a
closed-form rule over a points axis, as the potential metrics of
``ambient.potential_metric`` have, gets "closed-form": G, dG and d2G from the
rule, at every point of a batch in one call.  Every other field gets "dual":
one evaluation of the metric on dual numbers whose coordinates carry one
payload column per index pair (k, l) of the second jet, see ``qck.duals``.
The dual payloads take a points axis too, so ``point_jets`` differentiates a
dual field at every point of a batch in that one evaluation, and a varying
complex structure in one more, on first-order duals: ``_second_jets`` and
``duals.eval_with_partials`` are the one kernel of each order.
``method="fd"`` takes the jet by finite differences instead, with the same
downstream assembly, as an independent oracle: its whole stencil is one
``MetricField.matrices`` call, which reads G alone, from the closed-form
rule where the field has one.

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

from .duals import (MultiDual, _seeded_coordinates, coefficients,
                    eval_with_partials)
from .errors import (DegenerateMetric, DomainError, NumericalBreakdown, Sieve,
                     raise_first)
from .tensors import Tensor4, curvature_symmetry_defect, tensor_scale

# largest condition number of G whose connection ``point_jets`` computes
COND_LIMIT = 1e12
# coordinate step of the finite-difference jet
FD_STEP = 1e-3
# largest curvature symmetry defect, relative to max(1, |R|), that
# ``curvature_bundle`` accepts
SYMMETRY_GATE = 1e-6


def _second_jets(metric, X):
    """(G, dG, d2G) by dual numbers at x, (d,), or at each row of X,
    (..., d): one 2-generator evaluation at every point.

    Column p stands for the index pair (k, l), k <= l: coordinate k carries
    e1 and coordinate l carries e2 there (both on k when k == l), so the
    e1 e2 coefficient of the column is d_k d_l G and its e1 coefficient d_k G.
    """
    d = metric.dim
    ks, ls = np.triu_indices(d)
    cols = np.arange(len(ks))
    seeds = _seeded_coordinates(X, 2, len(ks))
    seeds[ks, ..., 1, cols] = 1.0
    seeds[ls, ..., 2, cols] = 1.0
    out = coefficients(metric([MultiDual(s, 2) for s in seeds]), 2, len(ks),
                       seeds.shape[1:-2])
    # contiguous, so that a point's rows lie alike in every batch
    G = np.ascontiguousarray(out[..., 0, 0])
    dG = np.ascontiguousarray(np.moveaxis(out[..., 1, cols[ks == ls]], -1, -3))
    d2G = np.empty(G.shape[:-2] + (d, d, d, d))
    d2G[..., ks, ls, :, :] = d2G[..., ls, ks, :, :] = np.moveaxis(
        out[..., 3, :], -1, -3)
    return G, dG, d2G


def _finite_gate(G, d2G):
    """The metric jet must come out finite."""
    bad = ~(np.isfinite(G).all(axis=(-2, -1))
            & np.isfinite(d2G).all(axis=(-4, -3, -2, -1)))
    return (bad, lambda j: NumericalBreakdown(
        "metric jet produced non-finite entries"))


def metric_second_jet_fd(metric, X):
    """Finite-difference jet with the same layout as the dual ``_second_jets``,
    with step ``FD_STEP``, at the point x, (d,), or at each row of X,
    (P, d), with the points axis leading G, dG and d2G.

    Fourth-order stencils for the first partials and the diagonal second
    partials, Richardson-extrapolated cross stencil for the mixed ones.  The
    stencils of all points, 1 + 4d + 4d(d - 1) rows each, are one
    ``MetricField.matrices`` call, which reads G alone; a row outside the
    field's domain raises its error.  Each point's jet takes the same
    operations on its own rows, so it is that point's one-point jet to the
    bit.  Useful as an oracle; the exact paths are faster and exact to
    rounding.
    """
    d = metric.dim
    h = FD_STEP
    X = np.asarray(X, dtype=float)
    x = X.reshape(-1, 1, d)
    P = len(x)
    E = np.eye(d)
    ks, ls = np.triu_indices(d, 1)
    both, apart = E[ks] + E[ls], E[ks] - E[ls]
    steps = (h / 2, h)
    stencil = [x, x + h * E, x - h * E, x + 2 * h * E, x - 2 * h * E]
    for step in steps:
        stencil += [x + step * both, x - step * both,
                    x + step * apart, x - step * apart]
    M = metric.matrices(np.concatenate(stencil, axis=1).reshape(-1, d))
    M = M.reshape(P, -1, d, d)
    G = M[:, 0]
    up, down, up2, down2 = np.moveaxis(M[:, 1:1 + 4 * d].reshape(P, 4, d, d, d),
                                       1, 0)
    dG = (8.0 * (up - down) - (up2 - down2)) / (12.0 * h)
    d2G = np.empty((P, d, d, d, d))
    d2G[:, np.arange(d), np.arange(d)] = (-up2 + 16 * up - 30 * G[:, None]
                                          + 16 * down - down2) / (12 * h * h)
    cross = [(pp + mm - pm - mp) / (4 * step * step) for step, (pp, mm, pm, mp)
             in zip(steps, np.moveaxis(
                 M[:, 1 + 4 * d:].reshape(P, 2, 4, len(ks), d, d), 0, 2))]
    d2G[:, ks, ls] = d2G[:, ls, ks] = (4.0 * cross[0] - cross[1]) / 3.0
    shape = X.shape[:-1]
    return (G.reshape(shape + (d, d)), dG.reshape(shape + (d,) * 3),
            d2G.reshape(shape + (d,) * 4))


def _cond_gate(G):
    """G must be well enough conditioned to invert."""
    return (np.linalg.cond(G) > COND_LIMIT, lambda j: DegenerateMetric(
        f"metric condition number exceeds {COND_LIMIT:.1e}"))


def _bracket(dG):
    """d_j G_{lk} + d_k G_{lj} - d_l G_{jk} at [..., l, j, k] from the
    partials dG[..., l, j, k]."""
    return dG.swapaxes(-3, -2) + np.moveaxis(dG, -3, -1) - dG


def _connection(G, dG):
    """Connection coefficients gamma[p, m, j, k] and the inverse metric at
    each point of G (P, d, d) and dG (P, d, d, d)."""
    P, d = G.shape[:2]
    Ginv = np.linalg.inv(G)
    # gamma^m_{jk} = 1/2 g^{ml} (d_j G_{lk} + d_k G_{lj} - d_l G_{jk})
    bracket = _bracket(dG).reshape(P, d, d * d)
    gamma = 0.5 * (Ginv @ bracket).reshape(P, d, d, d)
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


def holomorphic_curvatures(R, G, J, X):
    """Holomorphic sectional curvatures R(X, JX, JX, X) / g(X, X)^2 of the
    directions X (P, S, d) at each point of the curvature tensors R, metric
    values G and structures J: (P, S).  DomainError for a null direction."""
    JX = X @ J.swapaxes(1, 2)
    gXX = np.einsum("psi,pij,psj->ps", X, G, X)
    raise_first([(np.abs(gXX) < 1e-14, lambda j: DomainError(
        "null direction has no holomorphic curvature"))])
    num = np.einsum("pijkl,psi,psj,psk,psl->ps", R, X, JX, JX, X)
    return num / (gXX * gXX)


@dataclass(frozen=True)
class PointJet:
    """Jets of a metric field at one point: the metric G with its first and
    second partials dG[k, i, j] and d2G[k, l, i, j], the complex structure J
    with its first partials dJ[k, i, j], and the connection they fix: the
    Christoffel symbols gamma[m, j, k] and the inverse metric Ginv.

    ``point_jets`` makes the jets of many points at once; every field then
    carries a leading points axis, and ``rows`` takes points out of it."""

    point: np.ndarray
    G: np.ndarray
    dG: np.ndarray
    d2G: np.ndarray
    J: np.ndarray
    dJ: np.ndarray
    gamma: np.ndarray
    Ginv: np.ndarray
    method: str  # how the metric jet was taken: "closed-form" | "dual" | "fd"

    def rows(self, index) -> "PointJet":
        """The jet at the points ``index`` (a mask or an index array, or an
        integer for the jet of one point) of a jet with a points axis."""
        return PointJet(self.point[index], self.G[index], self.dG[index],
                        self.d2G[index], self.J[index], self.dJ[index],
                        self.gamma[index], self.Ginv[index], self.method)

    def stacked(self) -> "PointJet":
        """This one-point jet with a points axis of length 1."""
        return PointJet(self.point[None], self.G[None], self.dG[None],
                        self.d2G[None], self.J[None], self.dJ[None],
                        self.gamma[None], self.Ginv[None], self.method)


def point_jets(metric, X, sieve: Sieve | None = None) -> PointJet:
    """The jets, with a points axis, of ``metric`` at the rows of X, (P, d),
    that pass the field's gates, the finiteness of the jet and
    ``COND_LIMIT``; ``sieve`` records why the other rows stopped.  Without
    a sieve, the first row that stops raises its error.

    A field with a closed-form rule (``MetricField.jets``) takes it, with
    its gates.  Every other field is evaluated once on dual numbers at all
    rows, and a varying structure once more at the rows that pass."""
    X = np.asarray(X, dtype=float)
    raising = sieve is None
    if raising:
        sieve = Sieve(len(X))
    if metric.jets is not None:
        gates, G, dG, d2G = metric.jets(X)
        method = "closed-form"
    else:
        gates = []
        G, dG, d2G = _second_jets(metric, X)
        method = "dual"
    with np.errstate(all="ignore"):
        keep = sieve.drop(gates + [_finite_gate(G, d2G)])
    X, G, dG, d2G = X[keep], G[keep], dG[keep], d2G[keep]
    keep = sieve.drop([_cond_gate(G)])
    X, G, dG, d2G = X[keep], G[keep], dG[keep], d2G[keep]
    if raising:
        for error in filter(None, sieve.errors):
            raise error
    gamma, Ginv = _connection(G, dG)
    J, dJ = structure_jet(metric, X)
    return PointJet(X, G, dG, d2G, J, dJ, gamma, Ginv, method)


def fd_jets(metric, X) -> PointJet:
    """The finite-difference oracle's jets, with a points axis, at the rows
    of X, (P, d): ``metric_second_jet_fd`` at all rows in one stencil, and
    the structure and connection as ``point_jets`` takes them.  A row
    outside the field's domain, or past ``COND_LIMIT``, raises its error."""
    X = np.asarray(X, dtype=float)
    G, dG, d2G = metric_second_jet_fd(metric, X)
    raise_first([_cond_gate(G)])
    gamma, Ginv = _connection(G, dG)
    J, dJ = structure_jet(metric, X)
    return PointJet(X, G, dG, d2G, J, dJ, gamma, Ginv, "fd")


def point_jet(metric, x, method: str = "exact") -> PointJet:
    """The PointJet of ``metric`` at ``x``: the row of ``point_jets``
    (``method="exact"``: the field's closed-form rule where it has one, and
    one metric evaluation by duals otherwise) or of the finite-difference
    oracle ``fd_jets`` (``method="fd"``) at the batch of this one point,
    raising its first failing gate."""
    X = np.array([[float(c) for c in x]])
    if method == "fd":
        return fd_jets(metric, X).rows(0)
    if method != "exact":
        raise ValueError(f"unknown jet method {method!r}")
    return point_jets(metric, X).rows(0)


def curvature_tensors(jet: PointJet):
    """The curvature tensors R[p, i, j, k, l], all indices down, at the
    points of a jet with a points axis.  Every contraction is a matrix
    product per point."""
    G, dG, d2G, gamma, Ginv = jet.G, jet.dG, jet.d2G, jet.gamma, jet.Ginv
    P, d = G.shape[:2]
    # d_i gamma^m_{jk}, using d_i Ginv = -Ginv dG_i Ginv
    dGinv = -(Ginv[:, None] @ dG @ Ginv[:, None])
    bracket = _bracket(dG)
    dbracket = _bracket(d2G)
    dgamma = 0.5 * (dGinv @ bracket.reshape(P, 1, d, d * d)
                    + Ginv[:, None] @ dbracket.reshape(P, d, d, d * d))
    dgamma = dgamma.reshape(P, d, d, d, d)
    # sum_a gamma^m_{ia} gamma^a_{jk}, and the same with i and j swapped
    quad = (gamma.reshape(P, d * d, d)
            @ gamma.reshape(P, d, d * d)).reshape(P, d, d, d, d)
    Rm = (dgamma.swapaxes(1, 2) - dgamma.transpose(0, 2, 3, 1, 4)
          + quad - quad.swapaxes(2, 3))
    # R_{ijkl} = g_{ml} Rm^m_{ijk}
    return (Rm.reshape(P, d, d ** 3).swapaxes(1, 2) @ G).reshape(P, d, d, d, d)


def curvature_gate(R, gate: float = SYMMETRY_GATE):
    """The algebraic curvature identities hold exactly in exact arithmetic,
    so their violation, relative to max(1, |R|), is a direct error estimate;
    past ``gate`` the tensor is garbage."""
    defect = curvature_symmetry_defect(R)
    return (defect > gate * np.maximum(1.0, tensor_scale(R)),
            lambda j: NumericalBreakdown(
                f"curvature symmetry defect {defect[j]:.3e} exceeds the gate"))


def curvature_bundle(jet: PointJet,
                     symmetry_gate: float = SYMMETRY_GATE) -> CurvatureBundle:
    """Assemble the curvature tensor at the point of ``jet``: the one-point
    case of ``curvature_tensors``, with NumericalBreakdown past the
    symmetry gate rather than a garbage tensor."""
    R = curvature_tensors(jet.stacked())
    raise_first([curvature_gate(R, symmetry_gate)])
    return CurvatureBundle(jet, Tensor4(R[0]))


def covariant_derivative(jet: PointJet, V, dV):
    """(nabla_i V)^m as a matrix D[i, m] at the point of ``jet``, for a
    vector field with values V^m and partials dV[i, m] = d_i V^m there
    (from ``duals.eval_with_partials``, or in closed form as
    ``ambient.radial_unit_jets``).  Leading axes of V and dV carry through
    to D: one per field at the point, or the points axis of a jet that has
    one."""
    return dV + np.einsum("...mia,...a->...im", jet.gamma, V)


def structure_jet(metric, X):
    """Values and partials of the complex structure field at x, (d,), or at
    each row of X, (..., d), with the points axes leading J and dJ: one
    evaluation of a varying structure at all points, and none of the
    constant one."""
    X = np.asarray(X, dtype=float)
    d = metric.dim
    lead = X.shape[:-1]
    if metric.complex_structure is None:
        return (np.broadcast_to(metric.structure_matrix(None), lead + (d, d)),
                np.broadcast_to(0.0, lead + (d, d, d)))
    return eval_with_partials(metric.complex_structure, X)


def kahler_defect(jet: PointJet):
    """Max component of the exterior derivative of the fundamental 2-form,
    a float, or an array over the points axis of a jet that has one.

    Omega(X, Y) = g(JX, Y); the metric is Kaehler at x exactly when dOmega
    vanishes there (for the integrable structures handled here), so this is
    the closedness test in coordinate components.
    """
    G, dG, J, dJ = jet.G, jet.dG, jet.J, jet.dJ
    dOm = (np.einsum("...kai,...aj->...kij", dJ, G)
           + np.einsum("...ai,...kaj->...kij", J, dG))
    ext = (dOm - np.einsum("...ikj->...kij", dOm)
           + np.einsum("...jki->...kij", dOm))
    defect = np.max(np.abs(ext), axis=(-3, -2, -1))
    return float(defect) if defect.ndim == 0 else defect

