"""Curvature of metric fields.

Everything is computed pointwise from a ``PointJet``: the metric values
G_ij with their first partials dG[k, i, j] and second partials
d2G[k, l, i, j], the complex structure J with its first partials, and the
connection (the Christoffel symbols of both kinds and the inverse metric),
at each point of a points axis.  ``point_jets(metric, X)``, with the
finite-difference oracle ``fd_jets``, is the one place that evaluates a
metric for this work; ``qch.decompose_points`` takes the closed-form rule
of a potential metric itself, for the admissibility report that the rule
gives too, and goes on through ``gated_jets`` as ``point_jets`` does.
``_connection`` computes the connection of every jet.
``curvature_tensors``, ``kahler_defect``, ``covariant_derivative``,
``ambient.radial_unit_jets`` and ``qch.shape_arrays`` all take the jet, so
a pipeline builds it once.  ``curvature_invariants`` reads G, G^-1 and J
off the jet for the invariants of the tensors R assembled from it, and
``holomorphic_curvatures`` for the holomorphic sectional curvatures.
The radial unit field and its partials follow from G and dG in closed
form, so they cost no further evaluation; ``duals.eval_with_partials``
differentiates other fields by duals.

The points axis.  A jet carries a leading axis over its points
(``PointJet.rows`` takes points out of it), and the kernels take it: each
contraction is a matrix or broadcast product per point, with no einsum.
A single point is a batch of one point, not a second code path.  A
constant complex structure is one shared row broadcast over the points axis
(``core.constant_structure``), J and dJ alike, and stays so through
``PointJet.rows``; ``kahler_defect`` skips the product of its zero dJ.

One decomposition of G per point: the condition gate (``COND_LIMIT``)
reads the ratio of the extreme |eigenvalues| of ``np.linalg.eigvalsh``,
which for a symmetric G is its 2-norm condition number, and the jet keeps
those eigenvalues (``PointJet.eigenvalues``), so that a report of the least
one takes no second decomposition.
Checks come as gates (see ``qck.errors``): a batch records the first
failure of each point and goes on with the rest (``qch.decompose_points``
drives it), or raises the first failure with ``errors.raise_first``.

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
``fd_jets`` takes the jet by finite differences instead, with the same
downstream assembly, as an independent oracle: its whole stencil is one
``MetricField.matrices`` call, which reads G alone, from the closed-form
rule where the field has one.

Conventions.  Connection coefficients are the usual Christoffel symbols of
the second kind, gamma^m_jk = g^ml gamma1_{l,jk}, with those of the first
kind gamma1_{l,jk} = 1/2 (d_j g_lk + d_k g_lj - d_l g_jk).  The curvature
tensor is

    R(X, Y, Z, U) = g((nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]) Z, U)

and ``curvature_tensors`` assembles its components from the second partials
of g and the symbols of both kinds,

    R_ijkl = 1/2 (d_i d_k g_jl + d_j d_l g_ik - d_i d_l g_jk - d_j d_k g_il)
             + gamma1_{m,jl} gamma^m_ik - gamma1_{m,il} gamma^m_jk,

which needs no derivative of G^-1 or of the symbols.  So a space of
constant sectional curvature K has
R(X, Y, Y, X) = K (g(X,X) g(Y,Y) - g(X,Y)^2), and on the hyperbolic plane
the Ricci form equals -g and the scalar curvature is -2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import constant_structure
from .duals import (MultiDual, _seeded_coordinates, coefficients,
                    eval_with_partials)
from .errors import (DegenerateMetric, DomainError, NumericalBreakdown, Sieve,
                     raise_first)
from .tensors import (curvature_symmetry_defect, first_bianchi_defect,
                      pair_symmetry_defect, tensor_scale)

# largest condition number of G whose connection ``point_jets`` computes
COND_LIMIT = 1e12
# coordinate step of the finite-difference jet
FD_STEP = 1e-3
# largest curvature symmetry defect, relative to max(1, |R|), that
# ``curvature_gate`` accepts
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


def _cond_gate(eigenvalues):
    """G must be well enough conditioned to invert, by its eigenvalues
    (``np.linalg.eigvalsh``): for a symmetric G the 2-norm condition number
    is the ratio of the largest |eigenvalue| to the least, with no second
    decomposition.  A singular G fails, the zero G and a G with a nan
    entry, whose ratio is nan, included."""
    size = np.abs(eigenvalues)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = size.max(axis=-1) / size.min(axis=-1)
    return ~(cond <= COND_LIMIT), lambda j: DegenerateMetric(
        f"metric condition number exceeds {COND_LIMIT:.1e}")


def _connection(G, dG):
    """Christoffel symbols of the first kind gamma1[p, l, j, k], of the
    second kind gamma[p, m, j, k], and the inverse metric, at each point
    of G (P, d, d) and dG (P, d, d, d)."""
    P, d = G.shape[:2]
    Ginv = np.linalg.inv(G)
    # gamma1_{l,jk} = 1/2 (d_j G_{lk} + d_k G_{lj} - d_l G_{jk}), from the
    # partials dG[p, l, j, k]
    gamma1 = dG.swapaxes(-3, -2) + dG.transpose(0, 2, 3, 1)
    gamma1 -= dG
    gamma1 *= 0.5
    # gamma^m_{jk} = g^{ml} gamma1_{l,jk}
    gamma = (Ginv @ gamma1.reshape(P, d, d * d)).reshape(P, d, d, d)
    return gamma1, gamma, Ginv


def holomorphic_curvatures(R, G, J, X):
    """Holomorphic sectional curvatures R(X, JX, JX, X) / g(X, X)^2 of the
    directions X (P, S, d) at each point of the curvature tensors R, metric
    values G and structures J: (P, S).  DomainError for a null direction."""
    JX = X @ J.swapaxes(1, 2)
    gXX = ((X @ G) * X).sum(axis=2)
    raise_first([(np.abs(gXX) < 1e-14, lambda j: DomainError(
        "null direction has no holomorphic curvature"))])
    return _quartic(R, X, JX) / (gXX * gXX)


def _quartic(R, X, Y):
    """R(X, Y, Y, X) of the tensors R (P, d, d, d, d) on the directions X
    and Y (P, S, d): (P, S), an index contracted per matrix product."""
    P, S, d = X.shape
    T = (X @ R.reshape(P, d, d ** 3)).reshape(P, S, d, d * d)
    T = (Y[:, :, None] @ T).reshape(P, S, d, d)
    return (Y[:, :, None] @ T @ X[:, :, :, None])[:, :, 0, 0]


# the columns of ``curvature_invariants``, by the names of the curvature report
INVARIANTS = ("tau", "sigma_radial", "kappa_radial", "hsc_radial",
              "symmetry_defect", "bianchi_defect")


def curvature_invariants(jet: PointJet, R, xi):
    """Invariants of the curvature tensors R (P, d, d, d, d) at the points
    of a jet, on the unit directions xi (P, d): (P, 6), columns named by
    ``INVARIANTS``.  They are the scalar curvature tau, the negated Ricci
    value sigma on xi, kappa = R(xi, J xi, J xi, xi), the holomorphic
    sectional curvature of xi (``holomorphic_curvatures``), and the defects
    of the curvature symmetries and of the first Bianchi identity,
    relative to max(1, |R|).  Each row takes the operations of its point
    alone, so that a row's values do not depend on the batch around it.
    DomainError for a null xi."""
    Ginv, J = jet.Ginv, jet.J
    P, d = xi.shape
    # rho_jk = sum_il Ginv_il R_ijkl: l by one product per (p, i), then i
    ricci = (R.reshape(P, d, d * d, d) @ Ginv[:, :, :, None]).sum(axis=1)
    ricci = ricci.reshape(P, d, d)
    X = xi[:, None]
    scale = np.maximum(1.0, tensor_scale(R))
    return np.stack([
        (Ginv * ricci).sum(axis=(1, 2)),
        (-X @ ricci @ xi[:, :, None])[:, 0, 0],
        _quartic(R, X, X @ J.swapaxes(1, 2))[:, 0],
        holomorphic_curvatures(R, jet.G, J, X)[:, 0],
        curvature_symmetry_defect(R) / scale,
        first_bianchi_defect(R) / scale], axis=1)


@dataclass(frozen=True)
class PointJet:
    """Jets of a metric field at a point: the metric G with its first and
    second partials dG[k, i, j] and d2G[k, l, i, j], the complex structure J
    with its first partials dJ[k, i, j], and the connection they fix: the
    Christoffel symbols of the first kind gamma1[l, j, k] and of the second
    kind gamma[m, j, k], the inverse metric Ginv, and the eigenvalues of G
    in ascending order, which the condition gate read.

    ``point_jets`` makes the jets of many points at once; every field then
    carries a leading points axis, and ``rows`` takes points out of it.  A
    constant structure's J and dJ repeat one row as a broadcast view
    (``structure_jet``), and ``rows`` keeps them so."""

    point: np.ndarray
    G: np.ndarray
    dG: np.ndarray
    d2G: np.ndarray
    J: np.ndarray
    dJ: np.ndarray
    gamma1: np.ndarray
    gamma: np.ndarray
    Ginv: np.ndarray
    eigenvalues: np.ndarray
    method: str  # how the metric jet was taken: "closed-form" | "dual" | "fd"

    def rows(self, index) -> "PointJet":
        """The jet at the points ``index`` (a mask or an index array, or an
        integer for the jet of one point) of a jet with a points axis; the
        jet itself for the whole slice, which ``Sieve.drop`` gives."""
        if isinstance(index, slice) and index == slice(None):
            return self
        point = self.point[index]
        return PointJet(point, *(
            _take(a, index, point.shape[:-1])
            for a in (self.G, self.dG, self.d2G, self.J, self.dJ, self.gamma1,
                      self.gamma, self.Ginv, self.eigenvalues)), self.method)


def _take(a, index, lead):
    """a[index], whose leading axes are ``lead``; a broadcast view of one
    row (stride 0 along its leading axis) stays one where an index array
    would copy it."""
    if isinstance(index, np.ndarray) and a.ndim and a.shape[0] \
            and a.strides[0] == 0:
        return np.broadcast_to(a[0], lead + a.shape[1:])
    return a[index]


def point_jets(metric, X, sieve: Sieve | None = None) -> PointJet:
    """The jets, with a points axis, of ``metric`` at the rows of X, (P, d),
    that pass the field's gates, the finiteness of the jet and
    ``COND_LIMIT``; ``sieve`` records why the other rows stopped.  Without
    a sieve, the first row that stops raises its error.

    A field with a closed-form rule (``MetricField.jets``) takes it, with
    its gates.  Every other field is evaluated once on dual numbers at all
    rows, and a varying structure once more at the rows that pass."""
    X = np.asarray(X, dtype=float)
    if metric.jets is not None:
        return gated_jets(metric, X, *metric.jets(X), "closed-form", sieve)
    return gated_jets(metric, X, [], *_second_jets(metric, X), "dual", sieve)


def gated_jets(metric, X, gates, G, dG, d2G, method: str,
               sieve: Sieve | None = None) -> PointJet:
    """The jets of ``point_jets`` from the values G, dG and d2G of the
    metric jet at the rows of X and the field's gates there, taken by
    ``method``: a caller that holds a field's rule output, as
    ``qch.decompose_points`` does, goes on from here."""
    raising = sieve is None
    if raising:
        sieve = Sieve(len(X))
    with np.errstate(all="ignore"):
        keep = sieve.drop(gates + [_finite_gate(G, d2G)])
    X, G, dG, d2G = X[keep], G[keep], dG[keep], d2G[keep]
    eigenvalues = np.linalg.eigvalsh(G)
    keep = sieve.drop([_cond_gate(eigenvalues)])
    X, G, dG, d2G = X[keep], G[keep], dG[keep], d2G[keep]
    if raising:
        for error in filter(None, sieve.errors):
            raise error
    gamma1, gamma, Ginv = _connection(G, dG)
    J, dJ = structure_jet(metric, X)
    return PointJet(X, G, dG, d2G, J, dJ, gamma1, gamma, Ginv,
                    eigenvalues[keep], method)


def fd_jets(metric, X) -> PointJet:
    """The finite-difference oracle's jets, with a points axis, at the rows
    of X, (P, d): ``metric_second_jet_fd`` at all rows in one stencil, and
    the structure and connection as ``point_jets`` takes them.  A row
    outside the field's domain, or past ``COND_LIMIT``, raises its error."""
    X = np.asarray(X, dtype=float)
    G, dG, d2G = metric_second_jet_fd(metric, X)
    eigenvalues = np.linalg.eigvalsh(G)
    raise_first([_cond_gate(eigenvalues)])
    gamma1, gamma, Ginv = _connection(G, dG)
    J, dJ = structure_jet(metric, X)
    return PointJet(X, G, dG, d2G, J, dJ, gamma1, gamma, Ginv, eigenvalues,
                    "fd")


def curvature_tensors(jet: PointJet):
    """The curvature tensors R[p, i, j, k, l], all indices down, at the
    points of a jet with a points axis, from the second partials of the
    metric and the Christoffel symbols of both kinds (see the module
    docstring).  With
    X_ijkl = 1/2 (d_i d_k g_jl - d_i d_l g_jk) + gamma1_{m,jl} gamma^m_ik,
    R is X less its (i, j) transpose; the quadratic term is one matrix
    product per point."""
    d2G, gamma1, gamma = jet.d2G, jet.gamma1, jet.gamma
    P, d = gamma.shape[:2]
    # A[p, i, j, k, l] = d_i d_k g_jl
    A = d2G.transpose(0, 1, 3, 2, 4)
    X = A - A.swapaxes(3, 4)
    X *= 0.5
    # Q[p, j, l, i, k] = gamma1_{m,jl} gamma^m_ik
    Q = (gamma1.reshape(P, d, d * d).swapaxes(1, 2)
         @ gamma.reshape(P, d, d * d)).reshape(P, d, d, d, d)
    X += Q.transpose(0, 3, 1, 4, 2)
    # R into the buffer of Q, which X has taken
    return np.subtract(X, X.swapaxes(1, 2), out=Q)


def curvature_gate(R):
    """The algebraic curvature identities hold exactly in exact arithmetic,
    so their violation, relative to max(1, |R|), is a direct error estimate;
    past ``SYMMETRY_GATE`` the tensor is garbage.

    R comes from ``curvature_tensors``, X less its (i, j) transpose, whose
    (i, j) antisymmetry holds to the bit; the gate checks the other two
    identities (``tensors.pair_symmetry_defect``).  A tensor with a nan or
    inf entry fails.
    """
    defect = pair_symmetry_defect(R)
    scale = np.maximum(1.0, tensor_scale(R))
    return (~(defect <= SYMMETRY_GATE * scale) | np.isinf(scale),
            lambda j: NumericalBreakdown(
                f"curvature symmetry defect {defect[j]:.3e} exceeds the gate"))


def covariant_derivative(jet: PointJet, V, dV):
    """(nabla_i V)^m as a matrix D[i, m] at the point of ``jet``, for a
    vector field with values V^m and partials dV[i, m] = d_i V^m there
    (from ``duals.eval_with_partials``, or in closed form as
    ``ambient.radial_unit_jets``).  Leading axes of V and dV carry through
    to D: the points axis of a jet that has one, then one axis per field
    at each point, if any.  The symbols and V are taken as contiguous
    copies, so that D does not depend on their memory layout."""
    gamma, V = np.ascontiguousarray(jet.gamma), np.ascontiguousarray(V)
    d = V.shape[-1]
    fields = V.ndim - 1 - (gamma.ndim - 3)
    gamma = gamma.reshape(gamma.shape[:-3] + (1,) * fields + (d * d, d))
    # gamma^m_ia V^a over the rows (m, i), moved to [i, m]
    return dV + (gamma @ V[..., None]).reshape(V.shape + (d,)).swapaxes(-1, -2)


def structure_jet(metric, X):
    """Values and partials of the complex structure field at x, (d,), or at
    each row of X, (..., d), with the points axes leading J and dJ: one
    evaluation of a varying structure at all points, and none of the
    constant one."""
    X = np.asarray(X, dtype=float)
    if metric.complex_structure is None:
        return constant_structure(metric.dim, X.shape[:-1])
    return eval_with_partials(metric.complex_structure, X)


def kahler_defect(jet: PointJet):
    """Max component of the exterior derivative of the fundamental 2-form,
    a float, or an array over the points axis of a jet that has one.

    Omega(X, Y) = g(JX, Y); the metric is Kaehler at x exactly when dOmega
    vanishes there (for the integrable structures handled here), so this is
    the closedness test in coordinate components.  A constant structure,
    whose dJ is zero, takes no dJ G product.
    """
    G, dG, J, dJ = jet.G, jet.dG, jet.J, jet.dJ
    dOm = J.swapaxes(-1, -2)[..., None, :, :] @ dG
    if dJ.any():
        dOm += dJ.swapaxes(-1, -2) @ G[..., None, :, :]
    # dOm[k, i, j] less its [i, k, j] plus its [j, k, i]
    ext = dOm - dOm.swapaxes(-3, -2)
    ext += dOm.swapaxes(-3, -2).swapaxes(-2, -1)
    defect = np.abs(ext, out=ext).max(axis=(-3, -2, -1))
    return float(defect) if defect.ndim == 0 else defect

