"""Flat definite and Lorentz backgrounds, radial potential families, and the
metrics they generate.

A potential family is a scalar profile f(w) of the signed squared distance
w = <Z, Z> (negative on the time-like region of the Lorentz background,
positive on the punctured definite background).  The generated metric is the
complex Hessian of f(w), evaluated here in closed form:

    G = 2 f'(w) H + 2 r^2 f''(w) (eta (x) eta + jeta (x) jeta)

with H the flat form, r the distance, eta the radial unit covector of H and
jeta its rotation by the complex structure.  The closed form keeps the
evaluator cheap under dual numbers; an independent Hessian-by-duals oracle
lives in the test suite.  Family derivative methods are written with generic
arithmetic only, so f'(w) and f''(w) inherit whatever dual payload w carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import apply_j0, hermitian_to_real, j0_matrix
from .duals import gexp, glog, gsqrt, value
from .errors import (
    AdmissibilityError,
    ConformalDomainError,
    DomainError,
    FrameError,
)


@dataclass(frozen=True)
class AmbientSpace:
    """Flat complex background of complex dimension n."""

    n: int
    signature: str  # "definite" | "lorentz"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need complex dimension at least 2")
        if self.signature not in ("definite", "lorentz"):
            raise ValueError(f"unknown signature {self.signature!r}")

    @property
    def dim(self) -> int:
        return 2 * self.n

    @property
    def lorentz(self) -> bool:
        return self.signature == "lorentz"

    def flat_hermitian(self) -> np.ndarray:
        d = np.full(self.n, 0.5, dtype=complex)
        if self.lorentz:
            d[-1] = -0.5
        return np.diag(d)

    def flat_real(self) -> np.ndarray:
        return hermitian_to_real(self.flat_hermitian())

    def square_norm(self, x):
        """<Z, Z> of the flat form, on generic scalars."""
        d = self.dim
        w = 0.0
        for i in range(d):
            if self.lorentz and i >= d - 2:
                w = w - x[i] * x[i]
            else:
                w = w + x[i] * x[i]
        return w

    def radius(self, x):
        """Distance r > 0 from the centre; DomainError off the domain."""
        w = self.square_norm(x)
        wv = value(w)
        if self.lorentz:
            if wv >= 0.0:
                raise DomainError(f"point has square norm {wv:.3e}, not time-like")
            return gsqrt(-w)
        if wv <= 1e-300:
            raise DomainError("radius undefined at the puncture")
        return gsqrt(w)


# -- potential families -------------------------------------------------------


class PotentialFamily:
    """Radial potential profile f(w) with derivatives in generic arithmetic."""

    kind = "abstract"

    def __call__(self, w):
        raise NotImplementedError

    def d1(self, w):
        raise NotImplementedError

    def d2(self, w):
        raise NotImplementedError

    def in_domain(self, w: float) -> bool:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


def _require_finite(family: str, **params) -> None:
    for name, v in params.items():
        if not math.isfinite(v):
            raise ValueError(f"{family} requires a finite {name}, got {v}")


@dataclass(frozen=True)
class LogFamily(PotentialFamily):
    """f(w) = (2/a) log(-w - r0^2) on w < -r0^2, with a < 0.

    Generates the constant negative holomorphic curvature metrics on the
    time-like region outside distance r0; a = -1, r0 = 1 is the unit-disc
    model of curvature -1.
    """

    a: float
    r0: float
    kind = "log"

    def __post_init__(self):
        _require_finite("log family", a=self.a, r0=self.r0)
        if not self.a < 0:
            raise ValueError("log family requires a < 0")
        if not self.r0 > 0:
            raise ValueError("log family requires r0 > 0")

    def __call__(self, w):
        return (2.0 / self.a) * glog(-w - self.r0**2)

    def d1(self, w):
        return (-2.0 / self.a) / (-w - self.r0**2)

    def d2(self, w):
        return (-2.0 / self.a) / (-w - self.r0**2) ** 2

    def in_domain(self, w):
        return w < -self.r0**2

    def to_json(self):
        return {"kind": "log", "a": self.a, "r0": self.r0}

    def describe(self):
        return f"log(a={self.a}, r0={self.r0})"


@dataclass(frozen=True)
class DefiniteLogFamily(PotentialFamily):
    """f(w) = (2/a) log(w + r0^2) on w > -r0^2, with a > 0.

    The definite-signature sibling of ``LogFamily``; a = 2, r0 = 1 is the
    classical log(1 + r^2) potential.
    """

    a: float
    r0: float
    kind = "dlog"

    def __post_init__(self):
        _require_finite("definite log family", a=self.a, r0=self.r0)
        if not self.a > 0:
            raise ValueError("definite log family requires a > 0")
        if not self.r0 > 0:
            raise ValueError("definite log family requires r0 > 0")

    def __call__(self, w):
        return (2.0 / self.a) * glog(w + self.r0**2)

    def d1(self, w):
        return (2.0 / self.a) / (w + self.r0**2)

    def d2(self, w):
        return (-2.0 / self.a) / (w + self.r0**2) ** 2

    def in_domain(self, w):
        return w > -self.r0**2

    def to_json(self):
        return {"kind": "dlog", "a": self.a, "r0": self.r0}

    def describe(self):
        return f"dlog(a={self.a}, r0={self.r0})"


@dataclass(frozen=True)
class InverseFamily(PotentialFamily):
    """f(w) = -1/w on w < 0."""

    kind = "inverse"

    def __call__(self, w):
        return -1.0 / w

    def d1(self, w):
        return 1.0 / (w * w)

    def d2(self, w):
        return -2.0 / (w * w * w)

    def in_domain(self, w):
        return w < 0

    def to_json(self):
        return {"kind": "inverse"}


@dataclass(frozen=True)
class UserSeries(PotentialFamily):
    """Polynomial profile f(w) = sum(c_k w^k)."""

    coeffs: tuple
    kind = "series"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def __call__(self, w):
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * w + c
        return out

    def d1(self, w):
        out = 0.0
        for k in range(len(self.coeffs) - 1, 0, -1):
            out = out * w + k * self.coeffs[k]
        return out

    def d2(self, w):
        out = 0.0
        for k in range(len(self.coeffs) - 1, 1, -1):
            out = out * w + k * (k - 1) * self.coeffs[k]
        return out

    def in_domain(self, w):
        return w != 0.0

    def to_json(self):
        return {"kind": "series", "coeffs": list(self.coeffs)}

    def describe(self):
        return f"series{list(self.coeffs)}"


def family_from_json(obj: dict) -> PotentialFamily:
    kind = obj.get("kind")
    try:
        if kind == "log":
            return LogFamily(a=float(obj["a"]), r0=float(obj["r0"]))
        if kind == "dlog":
            return DefiniteLogFamily(a=float(obj["a"]), r0=float(obj["r0"]))
        if kind == "inverse":
            return InverseFamily()
        if kind == "series":
            return UserSeries(tuple(obj["coeffs"]))
    except KeyError as exc:
        raise ValueError(
            f"potential family {kind!r} needs a {exc.args[0]!r} field") from exc
    raise ValueError(f"unknown potential family kind {kind!r}")


# -- admissibility ------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    w: float
    f_prime: float
    f_prime_plus_wf2: float
    in_domain: bool
    ok: bool


def admissibility(space: AmbientSpace, family: PotentialFamily, w: float) -> AdmissibilityReport:
    """Positivity inequalities for the generated metric at square norm w.

    Both signatures share the combination s = f'(w) + w f''(w); the Lorentz
    background needs s < 0, the definite background s > 0, and f' > 0 in
    either case.
    """
    ok_dom = family.in_domain(w) and ((w < 0) if space.lorentz else (w > 0))
    if not ok_dom:
        return AdmissibilityReport(w, math.nan, math.nan, False, False)
    fp = family.d1(w)
    s = fp + w * family.d2(w)
    ok = fp > 0 and (s < 0 if space.lorentz else s > 0)
    return AdmissibilityReport(w, fp, s, True, ok)


# -- metric fields ------------------------------------------------------------


@dataclass
class MetricField:
    """Pointwise metric evaluator over generic scalars.

    ``fn`` maps a coordinate list to a dim x dim list-of-lists (a numpy array
    on the all-float path is fine too).  ``complex_structure`` is either None,
    meaning the constant standard structure, or a generic-scalar field
    x -> matrix for metrics whose structure varies over the chart.
    """

    fn: Callable[[Sequence], object]
    dim: int
    name: str = ""
    complex_structure: Callable | None = None
    meta: dict = field(default_factory=dict)

    def __call__(self, x):
        return self.fn(x)

    def matrix(self, x) -> np.ndarray:
        """Float-path evaluation as a numpy array."""
        out = self.fn([float(c) for c in x])
        if isinstance(out, np.ndarray):
            return out.astype(float)
        return np.array([[value(e) for e in row] for row in out])

    def structure_matrix(self, x) -> np.ndarray:
        if self.complex_structure is None:
            if self.dim % 2:
                # odd-dimensional charts carry no registered structure
                return np.zeros((self.dim, self.dim))
            return j0_matrix(self.dim // 2)
        out = self.complex_structure([float(c) for c in x])
        return np.array([[value(e) for e in row] for row in out])


def flat_metric(space: AmbientSpace) -> MetricField:
    G = space.flat_real()
    return MetricField(lambda x: G, space.dim, name=f"flat-{space.signature}",
                       meta={"space": space})


def _radial_projectors(space: AmbientSpace, x, r):
    """Radial unit covector of the flat form and its structure rotation."""
    H = space.flat_real()
    d = space.dim
    eta = [H[i, i] * x[i] / r for i in range(d)]  # H is diagonal
    jeta = apply_j0(eta)
    return eta, jeta


def potential_metric(space: AmbientSpace, family: PotentialFamily,
                     checked: bool = True) -> MetricField:
    """Metric generated by the potential f(<Z,Z>); see the module docstring.

    With ``checked`` the evaluator raises ``AdmissibilityError`` wherever the
    positivity inequalities fail, which is what library callers want; report
    generators pass checked=False and surface the failure in their output
    instead.
    """
    H = space.flat_real()
    d = space.dim

    def ev(x):
        w = space.square_norm(x)
        wv = value(w)
        if not family.in_domain(wv):
            raise DomainError(f"square norm {wv:.6g} outside the family domain")
        if checked:
            rep = admissibility(space, family, wv)
            if not rep.ok:
                raise AdmissibilityError(
                    f"inadmissible at w={wv:.6g}: f'={rep.f_prime:.6g}, "
                    f"f'+wf''={rep.f_prime_plus_wf2:.6g}")
        r2 = -w if space.lorentz else w
        r = gsqrt(r2)
        fp = family.d1(w)
        fpp = family.d2(w)
        eta, jeta = _radial_projectors(space, x, r)
        c1 = 2.0 * fp
        c2 = 2.0 * r2 * fpp
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                e = c2 * (eta[i] * eta[j] + jeta[i] * jeta[j])
                if i == j:
                    e = e + c1 * H[i, i]
                row.append(e)
            out.append(row)
        return out

    return MetricField(ev, d, name=f"potential[{family.describe()}]-{space.signature}",
                       meta={"space": space, "family": family})


# -- radial frames ------------------------------------------------------------


@dataclass(frozen=True)
class RadialFrame:
    """Unit radial frame at a point: xi, its structure rotation, and the
    corresponding covectors of the normalizing metric."""

    point: np.ndarray
    xi: np.ndarray
    jxi: np.ndarray
    eta: np.ndarray
    eta_tilde: np.ndarray
    r: float
    normalized_in: str  # "ambient" | "metric"
    orientation: str  # "outward" | "inward"


def radial_frame(space: AmbientSpace, x, metric: MetricField | None = None,
                 orientation: str = "outward", jet=None) -> RadialFrame:
    """Radial unit frame at x, normalized in the flat form or in ``metric``.

    ``jet`` is the ``curvature.PointJet`` of the metric at x when the caller
    has it; its G then stands in for an evaluation of ``metric``.  The
    Lorentz flat form gives eta(xi) = -1 (time-like unit); a supplied
    positive definite metric gives eta(xi) = +1.
    """
    if orientation not in ("outward", "inward"):
        raise ValueError("orientation must be outward or inward")
    xv = np.asarray([float(c) for c in x])
    r = float(space.radius(xv))
    xi = xv / r
    if metric is None and jet is None:
        G = space.flat_real()
        tag = "ambient"
    else:
        G = jet.G if jet is not None else metric.matrix(xv)
        nrm2 = float(xi @ G @ xi)
        if nrm2 <= 0:
            raise FrameError(f"radial direction has non-positive square norm {nrm2:.3e}")
        xi = xi / math.sqrt(nrm2)
        tag = "metric"
    if orientation == "inward":
        xi = -xi
    jxi = np.asarray(apply_j0(xi))
    eta = G @ xi
    eta_tilde = G @ jxi
    return RadialFrame(xv, xi, jxi, eta, eta_tilde, r, tag, orientation)


def radial_unit_vector(space: AmbientSpace, x, G, orientation: str):
    """The radial unit vector at x on generic scalars, normalized in the
    metric values ``G`` at x (left flat-normalized when G is None)."""
    r = space.radius(x)
    xi = [xi_i / r for xi_i in x]
    if G is not None:
        nrm2 = 0.0
        for i in range(len(xi)):
            for j in range(len(xi)):
                nrm2 = nrm2 + xi[i] * G[i][j] * xi[j]
        if value(nrm2) <= 0:
            raise FrameError("radial direction has non-positive square norm "
                             f"{value(nrm2):.3e}")
        s = gsqrt(nrm2)
        xi = [c / s for c in xi]
    sign = -1.0 if orientation == "inward" else 1.0
    return [sign * c for c in xi]


def radial_unit_field(space: AmbientSpace, metric: MetricField | None = None,
                      orientation: str = "outward"):
    """The radial unit frame as a generic-scalar vector field (for derivatives)."""

    def xi_field(x):
        return radial_unit_vector(space, x, None if metric is None else metric(x),
                                  orientation)

    return xi_field


# -- conformal pairs ----------------------------------------------------------


@dataclass(frozen=True)
class ConformalPair:
    """Radial conformal profiles (u(r), v(r)) as generic-scalar callables."""

    u: Callable
    v: Callable
    source: str = "custom"


def conformal_factors(family: PotentialFamily, r: float):
    """Profile values (u(r), v(r)) matching the potential metric scales.

    exp(-2u) = 2 f' and exp(-2v) + 1 = r^2 f'' / f', both at w = -r^2; the
    second requires r^2 f''/f' > 1, which every admissible Lorentz potential
    satisfies, but user profiles may not (ConformalDomainError).
    """
    w = -float(r) ** 2
    if not family.in_domain(w):
        raise DomainError(f"radius {r} outside the family domain")
    fp = family.d1(w)
    if fp <= 0:
        raise ConformalDomainError(f"2f' = {2 * fp:.6g} not positive at r={r}")
    ratio = r**2 * family.d2(w) / fp
    if ratio <= 1.0:
        raise ConformalDomainError(f"r^2 f''/f' = {ratio:.6g} <= 1 at r={r}")
    u = -0.5 * math.log(2.0 * fp)
    v = -0.5 * math.log(ratio - 1.0)
    return u, v


def conformal_pair_from_family(family: PotentialFamily) -> ConformalPair:
    def u(r):
        return -0.5 * glog(2.0 * family.d1(-r * r))

    def v(r):
        fp = family.d1(-r * r)
        return -0.5 * glog(r * r * family.d2(-r * r) / fp - 1.0)

    return ConformalPair(u, v, source=family.describe())


def metric_from_conformal_pair(space: AmbientSpace, pair: ConformalPair) -> MetricField:
    """Rotationally symmetric Hermitian metric from conformal profiles:

        G = exp(-2u(r)) (H + (exp(-2v(r)) + 1) (eta (x) eta + jeta (x) jeta))

    Defined on the time-like region of the Lorentz background only.
    """
    if not space.lorentz:
        raise DomainError("conformal pair metrics are defined on the Lorentz background")
    H = space.flat_real()
    d = space.dim

    def ev(x):
        r = space.radius(x)
        s1 = gexp(-2.0 * pair.u(r))
        s2 = gexp(-2.0 * pair.v(r)) + 1.0
        eta, jeta = _radial_projectors(space, x, r)
        out = []
        for i in range(d):
            row = []
            for j in range(d):
                e = s2 * (eta[i] * eta[j] + jeta[i] * jeta[j])
                if i == j:
                    e = e + H[i, i]
                row.append(s1 * e)
            out.append(row)
        return out

    return MetricField(ev, d, name=f"conformal[{pair.source}]", meta={"space": space, "pair": pair})
