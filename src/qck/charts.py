"""Graph charts on hyperspheres and metric pullbacks.

A graph chart solves the last ambient coordinate from the sphere equation
h(x, x) = +-radius^2 of the flat form h and uses the remaining ones as
parameters.  The signature of h is data of the chart, as in
``AmbientSpace.square_norm``: the definite h = diag(1, ..., 1) with the round
sphere h(x, x) = radius^2, or the Lorentz h = diag(1, ..., 1, -1, -1) with
the hypersphere h(x, x) = -radius^2.  The chart map and its closed-form
Jacobian are array expressions on floats or on duals with component axes
(``qck.duals``), so a pulled-back metric, J^T G J, goes through the
dual-number jet machinery in a few array operations without nesting
derivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ambient import MetricField
from .duals import MultiDual, concat, contract, gsqrt, stack, value, weigh
from .errors import ChartError, raise_first

# polar angle, in radians, that a chart point keeps from the chart boundary,
# where the graph Jacobian degenerates: the solved coordinate squared must
# stay above radius^2 sin^2(MARGIN)
MARGIN = 0.2


@dataclass(frozen=True)
class GraphChart:
    """Graph chart of the sphere of ``radius`` in R^d, d = ``ambient_dim``,
    of the definite flat form, or of the Lorentz one when ``lorentz`` is
    set, solving the last coordinate on the sheet of ``sign``: its square is
    radius^2 plus the squares of the parameters of the other sign in h
    (the space-like ones of the Lorentz form) minus those of its own sign.

    ``radius`` and ``sign`` may also be arrays over the points of duals
    with a points axis, one sphere per point: they act on the value row, so
    one evaluation of a pulled-back metric serves charts of many radii, and
    each row rounds as the chart of its own radius does.
    """

    radius: float
    ambient_dim: int
    lorentz: bool = False
    sign: float = 1.0

    def __post_init__(self):
        if np.any(np.asarray(self.radius) <= 0):
            raise ChartError("sphere radius must be positive")
        if self.lorentz and (self.ambient_dim < 4 or self.ambient_dim % 2):
            raise ChartError("Lorentz chart expects an even ambient dimension >= 4")

    @property
    def nparams(self) -> int:
        return self.ambient_dim - 1

    @functools.cached_property
    def _signs(self) -> np.ndarray:
        """+1 on the parameters of the other sign in h, -1 on those of its
        own: the sign each square takes in the solved coordinate squared."""
        plus = self.nparams - 1 if self.lorentz else 0
        return np.where(np.arange(self.nparams) < plus, 1.0, -1.0)

    def _radicand(self, u):
        """The solved coordinate squared at the parameters u, a float array
        or a MultiDual with the parameters on its first axis, summed in
        parameter order after radius^2."""
        arg = self.radius**2
        squares = weigh(self._signs, u) * u
        for i in range(self.nparams):
            arg = arg + squares[i]
        return arg

    def _check(self, arg):
        """ChartError where the solved coordinate squared, floats, comes
        within ``MARGIN`` of the boundary."""
        raise_first([(arg < self.radius**2 * math.sin(MARGIN) ** 2,
                      lambda j: ChartError(
                          "parameter point too close to the chart boundary "
                          f"(solved coordinate squared {np.ravel(arg)[j]:.6g})"))])

    def guard(self, u):
        """ChartError where the parameters u, floats or duals with or
        without a points axis, come within ``MARGIN`` of the boundary."""
        u = stack(u)
        self._check(self._radicand(u.value if isinstance(u, MultiDual) else u))

    def _solved(self, u):
        """The solved coordinate at the stacked parameters u, after the
        guard on the value of its square."""
        arg = self._radicand(u)
        self._check(value(arg) if isinstance(arg, MultiDual) else arg)
        return self.sign * gsqrt(arg)

    def _map(self, u, x_d):
        return concat([u, stack([x_d])])

    def _jac(self, u, x_d):
        return concat([np.eye(self.nparams), (weigh(self._signs, u) / x_d)[None]])

    def fn(self, u):
        """The ambient point (u, x_d) of the parameters u, a list or an
        array of floats or duals, as an array of its d coordinates."""
        u = stack(u)
        return self._map(u, self._solved(u))

    def jac(self, u):
        """Closed-form d x (d-1) Jacobian of ``fn``, as an array: the
        identity over the row d x_d / d u_i = +-u_i / x_d."""
        u = stack(u)
        return self._jac(u, self._solved(u))

    def fn_jac(self, u):
        """``fn`` and ``jac`` at u, from one solved coordinate."""
        u = stack(u)
        x_d = self._solved(u)
        return self._map(u, x_d), self._jac(u, x_d)


@functools.cache
def _upper(m: int):
    """The entries p <= q of an m x m matrix, and for every entry the index
    of its entry p <= q in that list."""
    ps, qs = np.triu_indices(m)
    mirror = np.empty((m, m), dtype=int)
    mirror[ps, qs] = mirror[qs, ps] = np.arange(len(ps))
    return ps, qs, mirror


def pulled_back(G, jac):
    """J^T G J for an ambient matrix G (d, d) and a chart Jacobian J (d, m),
    floats or duals with component axes, in two contractions over the
    ambient axis: (G J)[i, q] = sum_a G[i, a] J[a, q], and then the entries
    p <= q of sum_i J[i, p] (G J)[i, q], mirrored."""
    ps, qs, mirror = _upper((jac.c if isinstance(jac, MultiDual)
                             else jac).shape[1])
    gj = contract(G[:, :, None], jac[None], axis=1)
    return contract(jac[:, ps], gj[:, qs])[mirror]


def pullback_metric(chart, ambient) -> MetricField:
    """Induced metric of a chart inside an ambient metric.

    ``ambient`` is either a constant matrix or a MetricField evaluated at the
    chart image.  The result is a MetricField over the chart parameters with
    no registered complex structure (the parameter space is odd-dimensional),
    whose evaluation is ``pulled_back`` with the chart's Jacobian, on floats
    or on duals with component axes.
    """
    constant = not isinstance(ambient, MetricField)
    Gconst = np.asarray(ambient, float) if constant else None

    def ev(u):
        if constant:
            return pulled_back(Gconst, chart.jac(u))
        x, jac = chart.fn_jac(u)
        return pulled_back(stack(ambient(x)), jac)

    return MetricField(ev, chart.nparams,
                       name=f"pullback[{type(chart).__name__}]")


def tangent_params(chart, x_tangent) -> np.ndarray:
    """Chart components of an ambient vector tangent to the sphere.

    Graph charts are coordinate projections away from the solved slot, so the
    tangent map is simply dropping that slot, on the last axis.
    """
    return np.asarray(x_tangent, float)[..., :-1].copy()
