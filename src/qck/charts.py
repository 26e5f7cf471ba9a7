"""Graph charts on hyperspheres and metric pullbacks.

A graph chart solves one ambient coordinate from the sphere equation and uses
the remaining ones as parameters.  Both the chart map and its closed-form
Jacobian evaluate in generic arithmetic, so a pulled-back metric can be pushed
through the dual-number jet machinery without nesting derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import MetricField
from .duals import gsqrt, value
from .errors import ChartError, raise_first


@dataclass(frozen=True)
class SphereGraphChart:
    """Hemisphere of S^{d-1}(radius) in definite R^d as a graph over the
    coordinate plane orthogonal to ``axis``.

    Points closer than ``margin`` (radians of polar angle) to the equator
    boundary are rejected: the graph Jacobian degenerates there.
    """

    radius: float
    ambient_dim: int
    axis: int = -1
    sign: float = 1.0
    margin: float = 0.2

    def __post_init__(self):
        if self.radius <= 0:
            raise ChartError("sphere radius must be positive")
        ax = self.axis % self.ambient_dim
        object.__setattr__(self, "axis", ax)

    @property
    def nparams(self) -> int:
        return self.ambient_dim - 1

    def guard(self, u):
        """ChartError where the parameters u, floats or duals with or
        without a points axis, come within ``margin`` of the boundary."""
        s2 = sum(value(c) ** 2 for c in u)
        r2 = self.radius**2
        raise_first([(r2 - s2 < r2 * math.sin(self.margin) ** 2,
                      lambda j: ChartError(
                          f"parameter point at squared norm "
                          f"{np.ravel(s2)[j]:.6g} is within {self.margin}"
                          f" rad of the chart boundary (radius {self.radius})"))])

    def fn(self, u):
        self.guard(u)
        arg = self.radius**2
        for c in u:
            arg = arg - c * c
        w = self.sign * gsqrt(arg)
        out = list(u)
        out.insert(self.axis, w)
        return out

    def jac(self, u):
        """Closed-form d x (d-1) Jacobian of ``fn`` as a list of rows."""
        self.guard(u)
        arg = self.radius**2
        for c in u:
            arg = arg - c * c
        w = self.sign * gsqrt(arg)
        rows = []
        for i in range(self.ambient_dim):
            if i == self.axis:
                rows.append([-c / w for c in u])
            else:
                p = i if i < self.axis else i - 1
                rows.append([1.0 if q == p else 0.0 for q in range(self.nparams)])
        return rows

    def params_of(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        r = float(np.linalg.norm(x))
        if abs(r - self.radius) > 1e-9 * max(1.0, self.radius):
            raise ChartError(f"point at radius {r:.12g} is not on the sphere")
        if self.sign * x[self.axis] <= 0:
            raise ChartError("point lies on the opposite hemisphere of this chart")
        u = np.delete(x, self.axis)
        self.guard(u)
        return u


@dataclass(frozen=True)
class LorentzGraphChart:
    """Graph chart of the hypersphere {h(x,x) = -radius^2} in R^d with
    h = diag(1,...,1,-1,-1), solving the last (time-like) coordinate.

    The rejection margin is expressed through the same angular scale as the
    definite chart: the solved coordinate squared must stay above
    radius^2 sin^2(margin).

    ``radius`` and ``sign`` may also be arrays over the points of duals
    with a points axis, one sphere per point: they act on the value row, so
    one evaluation of a pulled-back metric serves charts of many radii, and
    each row rounds as the chart of its own radius does.  ``params_of``
    takes a scalar chart.
    """

    radius: float
    ambient_dim: int
    sign: float = 1.0
    margin: float = 0.2

    def __post_init__(self):
        if np.any(np.asarray(self.radius) <= 0):
            raise ChartError("sphere radius must be positive")
        if self.ambient_dim < 4 or self.ambient_dim % 2:
            raise ChartError("Lorentz chart expects an even ambient dimension >= 4")

    @property
    def nparams(self) -> int:
        return self.ambient_dim - 1

    def _arg_value(self, u):
        s2 = sum(value(c) ** 2 for c in u[:-1])
        return self.radius**2 + s2 - value(u[-1]) ** 2

    def guard(self, u):
        """ChartError where the parameters u, floats or duals with or
        without a points axis, come within ``margin`` of the boundary."""
        arg = self._arg_value(u)
        raise_first([(arg < self.radius**2 * math.sin(self.margin) ** 2,
                      lambda j: ChartError(
                          "parameter point too close to the chart boundary "
                          f"(solved coordinate squared {np.ravel(arg)[j]:.6g})"))])

    def fn(self, u):
        self.guard(u)
        arg = self.radius**2
        for c in u[:-1]:
            arg = arg + c * c
        arg = arg - u[-1] * u[-1]
        w = self.sign * gsqrt(arg)
        return list(u) + [w]

    def jac(self, u):
        self.guard(u)
        arg = self.radius**2
        for c in u[:-1]:
            arg = arg + c * c
        arg = arg - u[-1] * u[-1]
        w = self.sign * gsqrt(arg)
        rows = [[1.0 if q == p else 0.0 for q in range(self.nparams)]
                for p in range(self.nparams)]
        last = [c / w for c in u[:-1]] + [-u[-1] / w]
        rows.append(last)
        return rows

    def params_of(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        h = float(np.sum(x[:-2] ** 2) - x[-2] ** 2 - x[-1] ** 2)
        if abs(h + self.radius**2) > 1e-9 * max(1.0, self.radius**2):
            raise ChartError(f"point with h(x,x) = {h:.12g} is not on the sphere")
        if self.sign * x[-1] <= 0:
            raise ChartError("point lies on the opposite sheet of this chart")
        u = x[:-1].copy()
        self.guard(u)
        return u


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

    return MetricField(ev, m, name=f"pullback[{type(chart).__name__}]",
                       meta={"chart": chart})


def tangent_params(chart, x_tangent) -> np.ndarray:
    """Chart components of an ambient vector tangent to the sphere.

    Graph charts are coordinate projections away from the solved slot, so the
    tangent map is simply dropping that slot.
    """
    x = np.asarray(x_tangent, float)
    if isinstance(chart, SphereGraphChart):
        return np.delete(x, chart.axis)
    return x[:-1].copy()
