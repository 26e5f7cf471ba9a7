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

Which path makes a jet: the metric field of ``potential_metric`` carries a
closed-form derivative rule.  With u = H x and v = J0 u the second term is
2 f''(w) A, A = u u^T + v v^T, so the partials of G are polynomials in x
times f' ... f'''' at w; ``curvature.point_jet`` takes G from one float
evaluation of the field and dG, d2G from the rule.  f''' and f'''' come from
one order-2 dual evaluation of the family's f'' at the scalar w.  Every other
metric field (flat, chart, pulled-back, rotational) has no rule and is
differentiated by duals.

The radial unit field xi = x / |x|_g of a metric, and with it the shape data
of the radial distribution, depends on the metric only through G and dG at
the point: ``radial_unit_jet`` reads both off the metric's jet, so the unit
field costs no evaluation of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import apply_j0, hermitian_to_real, j0_matrix
from .duals import MultiDual, coefficients, glog, gsqrt, value
from .errors import AdmissibilityError, DomainError, FrameError


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
    ``derivatives`` is either None, meaning the field is differentiated by
    duals, or a closed-form rule mapping a float point to the partials
    (dG[k, i, j], d2G[k, l, i, j]) there; the rule checks nothing, since
    ``fn`` owns the domain and admissibility errors.
    """

    fn: Callable[[Sequence], object]
    dim: int
    name: str = ""
    complex_structure: Callable | None = None
    meta: dict = field(default_factory=dict)
    derivatives: Callable | None = None

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
        if value(r2) <= 0.0:
            raise DomainError(f"square norm {wv:.6g} has no radius on the "
                              f"{space.signature} background")
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

    # m_k = J0 h_k is column k of M, and
    # d_k d_l A = h_k h_l^T + h_l h_k^T + m_k m_l^T + m_l m_k^T is constant
    M = j0_matrix(space.n) @ H
    cross = np.einsum("ik,jl->klij", H, H) + np.einsum("ik,jl->klij", M, M)
    d2A = cross + cross.transpose(1, 0, 2, 3)

    def derivatives(x):
        w = float(space.square_norm(x))
        # f'', f''' and f'''' from f'' with both generators seeded on w
        f2, f3, _, f4 = coefficients(
            family.d2(MultiDual([[w], [1.0], [1.0], [0.0]], 2)), 2, 1)[:, 0]
        u = H @ x
        v = M @ x
        A = np.outer(u, u) + np.outer(v, v)
        # d_k A = h_k u^T + u h_k^T + m_k v^T + v m_k^T
        half = H.T[:, :, None] * u + M.T[:, :, None] * v
        dA = half + half.transpose(0, 2, 1)
        # w_k = 2 u_k and w_kl = 2 H_kl
        wk = 2.0 * u
        ww = np.outer(wk, wk)
        dG = 2.0 * wk[:, None, None] * (f2 * H + f3 * A) + 2.0 * f2 * dA
        d2G = (2.0 * (f3 * ww + 2.0 * f2 * H)[:, :, None, None] * H
               + 2.0 * (f4 * ww + 2.0 * f3 * H)[:, :, None, None] * A
               + 2.0 * f3 * (wk[:, None, None, None] * dA
                             + wk[None, :, None, None] * dA[:, None])
               + 2.0 * f2 * d2A)
        return dG, d2G

    return MetricField(ev, d, name=f"potential[{family.describe()}]-{space.signature}",
                       meta={"space": space, "family": family},
                       derivatives=derivatives)


# -- radial frames ------------------------------------------------------------


@dataclass(frozen=True)
class RadialFrame:
    """Unit radial vector xi at a point and its structure rotation J xi."""

    xi: np.ndarray
    jxi: np.ndarray


def _check_orientation(orientation: str) -> float:
    """The sign of the unit radial vector for an orientation tag."""
    if orientation not in ("outward", "inward"):
        raise ValueError("orientation must be outward or inward")
    return -1.0 if orientation == "inward" else 1.0


def _metric_length(u: np.ndarray, G: np.ndarray) -> float:
    """Length of the radial direction u in the metric values G; FrameError
    where u is not space-like there."""
    nrm2 = float(u @ G @ u)
    if nrm2 <= 0:
        raise FrameError(f"radial direction has non-positive square norm {nrm2:.3e}")
    return math.sqrt(nrm2)


def radial_frame(space: AmbientSpace, x, metric: MetricField | None = None,
                 orientation: str = "outward") -> RadialFrame:
    """Radial unit frame at x, normalized in the flat form or in ``metric``.

    The Lorentz flat form gives g(xi, xi) = -1 (time-like unit); a supplied
    positive definite metric gives g(xi, xi) = +1.
    """
    sign = _check_orientation(orientation)
    xv = np.asarray([float(c) for c in x])
    xi = xv / float(space.radius(xv))
    if metric is not None:
        xi = xi / _metric_length(xi, metric.matrix(xv))
    xi = sign * xi
    return RadialFrame(xi, np.asarray(apply_j0(xi)))


def radial_unit_jet(space: AmbientSpace, jet, orientation: str = "outward"):
    """The metric-normalized radial unit field at the point of ``jet`` (a
    ``curvature.PointJet``): (xi, dxi) with dxi[i, m] = d_i xi^m.

    xi = x / sqrt(N) with N = x^T G x, so its partials need only G and dG:
    d_i N = 2 (G x)_i + x^T (d_i G) x and
    d_i xi = (e_i - x d_i N / (2 N)) / sqrt(N), up to the orientation sign.
    Nothing is evaluated; FrameError where g(xi, xi) <= 0, as for
    ``radial_frame``.
    """
    sign = _check_orientation(orientation)
    x = jet.point
    r = float(space.radius(x))
    length = _metric_length(x / r, jet.G)
    xi = sign * (x / r / length)
    N = float(x @ jet.G @ x)
    dN = 2.0 * (jet.G @ x) + np.einsum("a,kab,b->k", x, jet.dG, x)
    dxi = (sign / (r * length)) * (np.eye(len(x)) - np.outer(dN, x) / (2.0 * N))
    return xi, dxi

