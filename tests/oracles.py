"""Reference derivative paths the tests check the library against.

Scalar fields with exact dual-number partials and a finite-difference
oracle for them.  The radial unit field, and the fields phi Y and Y of the
hypersphere phi law, as generic-scalar vector fields that evaluate the
metric themselves: the dual-number references for the closed-form
``ambient.radial_unit_jet`` and the phi-law jets of ``qck.sasakian``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from qck.ambient import DefiniteLogFamily, InverseFamily, LogFamily, UserSeries
from qck.core import apply_j0
from qck.duals import MultiDual, generator, gsqrt, value
from qck.errors import FrameError, NumericalBreakdown

# Every potential family, with a radius in its admissible region for each n:
# (signature, family, r).
POTENTIAL_CASES = [
    ("lorentz", LogFamily(-1.0, 1.0), 1.9),
    ("lorentz", LogFamily(-2.0, 1.5), 2.3),
    ("lorentz", InverseFamily(), 1.6),
    ("lorentz", UserSeries((0.0, 1.0, 0.1)), 1.9),
    ("definite", DefiniteLogFamily(2.0, 1.0), 1.3),
    ("definite", UserSeries((0.0, 1.0, 0.1)), 0.8),
]


@dataclass(frozen=True)
class ScalarField:
    """Evaluator over generic scalars: floats in, float out; duals in, dual out."""

    fn: Callable[[Sequence], object]
    dim: int

    def __call__(self, x):
        return self.fn(x)


def differentiate(field, p, multi_index) -> float:
    """Exact mixed partial of ``field`` at ``p``.

    ``multi_index`` is a sequence of coordinate indices, one per derivative;
    repeats give higher pure derivatives.  Total order is capped at 4.
    """
    idx = tuple(multi_index)
    m = len(idx)
    if m == 0:
        out = field(list(map(float, p)))
        return value(out)
    if m > 4:
        raise ValueError("derivative order above 4 is not supported")
    coords: list = list(map(float, p))
    for slot, j in enumerate(idx):
        coords[j] = coords[j] + generator(slot, m)
    out = field(coords)
    d = out.coeff((1 << m) - 1) if isinstance(out, MultiDual) else 0.0
    if not math.isfinite(d):
        raise NumericalBreakdown(f"non-finite derivative {idx} at {list(p)}")
    return d


def _fd_first(f, p, i, h):
    """Richardson-extrapolated 4th-order central first difference."""

    def stencil(step):
        vals = []
        for k in (-2, -1, 1, 2):
            q = list(p)
            q[i] += k * step
            vals.append(f(q))
        fm2, fm1, fp1, fp2 = vals
        return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * step)

    d1, d2 = stencil(h), stencil(h / 2)
    return (16 * d2 - d1) / 15


def differentiate_fd(field, p, multi_index) -> float:
    """Finite-difference oracle for ``differentiate`` (same multi-index format)."""
    idx = tuple(multi_index)
    if not idx:
        return float(field(list(map(float, p))))

    def rec(q, rest):
        if not rest:
            return float(field(q))
        i = rest[0]
        h = max(1e-2 * abs(q[i]), 1e-3)
        return _fd_first(lambda s: rec(s, rest[1:]), q, i, h)

    d = rec(list(map(float, p)), idx)
    if not math.isfinite(d):
        raise NumericalBreakdown(f"non-finite finite-difference {idx} at {list(p)}")
    return d


def radial_unit_vector(space, x, G, orientation: str):
    """The radial unit vector at x on generic scalars, normalized in the
    metric values ``G`` at x."""
    if orientation not in ("outward", "inward"):
        raise ValueError("orientation must be outward or inward")
    r = space.radius(x)
    xi = [xi_i / r for xi_i in x]
    nrm2 = 0.0
    for i in range(len(xi)):
        for j in range(len(xi)):
            nrm2 = nrm2 + xi[i] * G[i][j] * xi[j]
    if value(nrm2) <= 0:
        raise FrameError("radial direction has non-positive square norm "
                         f"{value(nrm2):.3e}")
    s = gsqrt(nrm2)
    sign = -1.0 if orientation == "inward" else 1.0
    return [sign * c / s for c in xi]


def radial_unit_field(space, metric=None, orientation: str = "outward"):
    """The radial unit vector as a generic-scalar field x -> xi(x): one
    metric evaluation per call, normalized in ``metric``, or in the flat
    form when ``metric`` is None (g(xi, xi) = -1 on the Lorentz background).
    Differentiate it with ``curvature.vector_jet``."""
    sign = -1.0 if orientation == "inward" else 1.0

    def xi_field(x):
        if metric is None:
            r = space.radius(x)
            return [sign * c / r for c in x]
        return radial_unit_vector(space, x, metric(x), orientation)

    return xi_field


def sphere_phi_fields(space, metric, orientation):
    """y -> (phi Y, Y) for the tangential part Y = y - g(y, xi) xi of a
    constant vector y, with phi v = J0 v + g(v, J0 xi) xi on the hypersphere
    through the point; each field evaluation runs the metric once.
    Differentiate them with ``curvature.vector_jet``."""

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
