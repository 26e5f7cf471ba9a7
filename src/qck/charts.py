"""Graph charts on hyperspheres and metric pullbacks.

A graph chart solves the last ambient coordinate from the sphere equation
h(x, x) = +-radius^2 of the flat form h and uses the remaining ones as
parameters.  The signature of h is data of the chart, as in
``AmbientSpace.square_norm``: the definite h = diag(1, ..., 1) with the round
sphere h(x, x) = radius^2, or the Lorentz h = diag(1, ..., 1, -1, -1) with
the hypersphere h(x, x) = -radius^2.  Both the chart map and its closed-form
Jacobian evaluate in generic arithmetic, so a pulled-back metric can be
pushed through the dual-number jet machinery without nesting derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import MetricField
from .duals import gsqrt, value
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

    def _split(self, u):
        """The parameters of the other sign in h, and those of its own."""
        k = len(u) - 1 if self.lorentz else 0
        return u[:k], u[k:]

    def _radicand(self, u):
        """The solved coordinate squared, in generic arithmetic."""
        plus, minus = self._split(u)
        arg = self.radius**2
        for c in plus:
            arg = arg + c * c
        for c in minus:
            arg = arg - c * c
        return arg

    def guard(self, u):
        """ChartError where the parameters u, floats or duals with or
        without a points axis, come within ``MARGIN`` of the boundary."""
        arg = self._radicand([value(c) for c in u])
        raise_first([(arg < self.radius**2 * math.sin(MARGIN) ** 2,
                      lambda j: ChartError(
                          "parameter point too close to the chart boundary "
                          f"(solved coordinate squared {np.ravel(arg)[j]:.6g})"))])

    def fn(self, u):
        self.guard(u)
        return list(u) + [self.sign * gsqrt(self._radicand(u))]

    def jac(self, u):
        """Closed-form d x (d-1) Jacobian of ``fn`` as a list of rows."""
        self.guard(u)
        w = self.sign * gsqrt(self._radicand(u))
        plus, minus = self._split(u)
        rows = [[1.0 if q == p else 0.0 for q in range(self.nparams)]
                for p in range(self.nparams)]
        rows.append([c / w for c in plus] + [-c / w for c in minus])
        return rows


def pullback_metric(chart, ambient) -> MetricField:
    """Induced metric of a chart inside an ambient metric.

    ``ambient`` is either a constant matrix or a MetricField evaluated at the
    chart image.  The result is a MetricField over the chart parameters with
    no registered complex structure (the parameter space is odd-dimensional).
    """
    constant = not isinstance(ambient, MetricField)
    Gconst = np.asarray(ambient, float) if constant else None
    d = chart.ambient_dim
    m = chart.nparams

    def ev(u):
        jc = chart.jac(u)
        rows = Gconst if constant else ambient(chart.fn(u))
        gj = []
        for i in range(d):
            col = []
            for q in range(m):
                acc = 0.0
                for a in range(d):
                    gia = rows[i][a]
                    if constant and gia == 0.0:
                        continue
                    acc = acc + gia * jc[a][q]
                col.append(acc)
            gj.append(col)
        out = [[0.0] * m for _ in range(m)]
        for p in range(m):
            for q in range(p, m):
                e = sum(jc[i][p] * gj[i][q] for i in range(d))
                out[p][q] = e
                out[q][p] = e
        return out

    return MetricField(ev, m, name=f"pullback[{type(chart).__name__}]")


def tangent_params(chart, x_tangent) -> np.ndarray:
    """Chart components of an ambient vector tangent to the sphere.

    Graph charts are coordinate projections away from the solved slot, so the
    tangent map is simply dropping that slot, on the last axis.
    """
    return np.asarray(x_tangent, float)[..., :-1].copy()
