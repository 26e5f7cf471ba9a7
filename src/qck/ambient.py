"""Flat definite and Lorentz backgrounds, radial potential families, and the
metrics they generate.

A potential family is a scalar profile f(w) of the signed squared distance
w = <Z, Z> (negative on the time-like region of the Lorentz background,
positive on the punctured definite background).  The generated metric is the
complex Hessian of f(w), evaluated here in closed form:

    G = 2 f'(w) H + 2 f''(w) A,    A = u u^T + v v^T,

with H the flat form, u = H x the flat covector of the point and v = J0 u
its rotation by the complex structure.  The field's evaluation writes this
once on component axes, so that the same lines run on a float point and on
duals; an independent Hessian-by-duals oracle lives in the test suite.
Family derivative methods are written with generic arithmetic only, so
f'(w) and f''(w) inherit whatever dual payload w carries.

Which path makes a jet: the metric field of ``potential_metric`` carries a
closed-form rule over a points axis, ``_potential_rule``.  A is quadratic
in x, so the partials of G are polynomials in x times f' ... f'''' at w,
and every family gives its derivatives up to f'''' in closed form on arrays
of w (``PotentialFamily.derivatives``, one evaluation for all four), f'''
and f'''' in the operation order of the order-2 dual of f''.  One call takes
the square norms and the derivatives once, and from them the admissibility
report, the gates and G, dG and d2G at many points at once;
``curvature.point_jets`` makes a jet of them, and ``qch.decompose_points``
keeps the report too.  Its G is the field's own expression on the rows of
points, entry for entry, so it is the field's evaluation to the bit.  With
``order=0`` the rule takes G alone, which is all that
``MetricField.matrices`` and the finite-difference oracle read.
``potential_gates``
holds the per-point checks the field's own evaluation raises (the family's
domain, admissibility, a radius), so a point fails with the same text alone
and in a batch; the field's evaluation tests its points in float arithmetic
first (``_passes_gates``), and on duals with a points axis raises the error
of the first row that fails.  Every other metric field (flat, chart,
pulled-back, rotational) has no rule and is differentiated by duals.

The radial unit field xi = x / |x|_g of a metric, and with it the shape data
of the radial distribution, depends on the metric only through G and dG at
the point: ``radial_unit_jets`` reads both off the metric's jets, at every
point of a batch, so the unit field costs no evaluation of its own.  It
needs the square norms of the points too; a pass hands on those of its
rule (``_radial_unit_jets``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import apply_j0, constant_structure, hermitian_to_real, j0_matrix
from .duals import gsqrt, stack, value, weigh
from .errors import AdmissibilityError, DomainError, FrameError, raise_first


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
        """The flat form in real coordinates: built once per space and
        read-only, as every caller shares it."""
        return _flat_real(self)

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

    def radius_gate(self, w):
        """The gate of a radius at square norms w, (P,) or one float: a
        Lorentz point must be time-like and a definite one off the
        puncture."""
        if self.lorentz:
            return (w >= 0.0, lambda j: DomainError(
                f"point has square norm {np.ravel(w)[j]:.3e}, not time-like"))
        return (w <= 1e-300,
                lambda j: DomainError("radius undefined at the puncture"))

    def radius(self, x):
        """Distance r > 0 from the centre; DomainError off the domain."""
        w = self.square_norm(x)
        raise_first([self.radius_gate(value(w))])
        return gsqrt(-w) if self.lorentz else gsqrt(w)


@functools.cache
def _flat_real(space: AmbientSpace) -> np.ndarray:
    H = hermitian_to_real(space.flat_hermitian())
    H.flags.writeable = False
    return H


# -- potential families -------------------------------------------------------


def _reciprocal_d3_d4(c, s, ds, d2s):
    """f''' and f'''' for f'' = c / s(w), from s and its first two
    derivatives at w, in the operation order of the dual numbers' inverse
    (``MultiDual._inverse``), so they round as the order-2 dual of f''
    does up to the last bit of the powers of s."""
    d1 = -1.0 / s**2
    t = ds * (2.0 / s**3 / 2.0) * ds
    return d1 * ds * c, (d1 * d2s + t + t) * c


class PotentialFamily:
    """Radial potential profile f(w), by its derivatives in generic
    arithmetic: the metric reads f' to f'''' and never f itself."""

    kind = "abstract"

    def d1(self, w):
        raise NotImplementedError

    def d2(self, w):
        raise NotImplementedError

    def _d3_d4(self, w):
        """f''' and f'''' at w, which the families take together."""
        raise NotImplementedError

    def derivatives(self, w):
        """f', f'', f''' and f'''' at w, each one array or float."""
        return (self.d1(w), self.d2(w), *self._d3_d4(w))

    def in_domain(self, w: float) -> bool:
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

    def d1(self, w):
        return (-2.0 / self.a) / (-w - self.r0**2)

    def d2(self, w):
        return (-2.0 / self.a) / (-w - self.r0**2) ** 2

    def _d3_d4(self, w):
        t = -w - self.r0**2
        return _reciprocal_d3_d4(-2.0 / self.a, t * t, -2.0 * t, 2.0)

    def in_domain(self, w):
        return w < -self.r0**2

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

    def d1(self, w):
        return (2.0 / self.a) / (w + self.r0**2)

    def d2(self, w):
        return (-2.0 / self.a) / (w + self.r0**2) ** 2

    def _d3_d4(self, w):
        t = w + self.r0**2
        return _reciprocal_d3_d4(-2.0 / self.a, t * t, 2.0 * t, 2.0)

    def in_domain(self, w):
        return w > -self.r0**2

    def describe(self):
        return f"dlog(a={self.a}, r0={self.r0})"


@dataclass(frozen=True)
class InverseFamily(PotentialFamily):
    """f(w) = -1/w on w < 0."""

    kind = "inverse"

    def d1(self, w):
        return 1.0 / (w * w)

    def d2(self, w):
        return -2.0 / (w * w * w)

    def _d3_d4(self, w):
        w2 = w * w
        return _reciprocal_d3_d4(-2.0, w2 * w, 3.0 * w2, 6.0 * w)

    def in_domain(self, w):
        return w < 0


@dataclass(frozen=True)
class UserSeries(PotentialFamily):
    """Polynomial profile f(w) = sum(c_k w^k)."""

    coeffs: tuple
    kind = "series"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    def _derivative(self, order, w):
        """The order-th derivative by Horner's rule on k!/(k-order)! c_k."""
        out = 0.0
        for k in range(len(self.coeffs) - 1, order - 1, -1):
            out = out * w + math.perm(k, order) * self.coeffs[k]
        return out

    def d1(self, w):
        return self._derivative(1, w)

    def d2(self, w):
        return self._derivative(2, w)

    def _d2_jet(self, w):
        """f'', f''' and f'''': Horner's rule on the coefficients of f'',
        carrying its first two derivatives along in the order the dual of
        ``d2`` rounds them."""
        terms = [math.perm(k, 2) * c for k, c in enumerate(self.coeffs)][2:]
        v, p, q = (terms.pop() if terms else 0.0), 0.0, 0.0
        for b in reversed(terms):
            q = p + p + q * w
            p = v + p * w
            v = v * w + b
        return v, p, q

    def _d3_d4(self, w):
        return self._d2_jet(w)[1:]

    def in_domain(self, w):
        return w != 0.0

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


def admissibility(space: AmbientSpace, family: PotentialFamily, w) -> AdmissibilityReport:
    """Positivity inequalities for the generated metric at square norm w, a
    float or an array of them (the fields are then arrays too).

    Both signatures share the combination s = f'(w) + w f''(w); the Lorentz
    background needs s < 0, the definite background s > 0, and f' > 0 in
    either case.  Off the domain, or on the wrong side of the light cone,
    f' and s are nan and the report is not ok.
    """
    w = np.asarray(w, dtype=float)
    with np.errstate(all="ignore"):
        return _admissibility(space, family, w, family.d1(w), family.d2(w))


def _admissibility(space, family, w, f1, f2) -> AdmissibilityReport:
    """``admissibility`` at the square norms w, an array, from f' and f''
    there, under the caller's ``np.errstate``."""
    ok_dom = family.in_domain(w) & ((w < 0) if space.lorentz else (w > 0))
    fp = np.where(ok_dom, f1, math.nan)
    s = np.where(ok_dom, fp + w * f2, math.nan)
    return AdmissibilityReport(w, fp, s, ok_dom, ok_dom & _positive(space, fp, s))


def _positive(space: AmbientSpace, fp, s):
    """The positivity inequalities on f' and s = f' + w f''."""
    return (fp > 0) & ((s < 0) if space.lorentz else (s > 0))


def potential_gates(space: AmbientSpace, family: PotentialFamily, w,
                    checked: bool = True) -> list:
    """The gates of the metric of ``family`` at square norms w, (P,), in
    order: the family's domain, admissibility when ``checked``, and a radius
    on the background."""
    return _potential_gates(space, family, w, admissibility(space, family, w)
                            if checked else None)


def _potential_gates(space, family, w, rep) -> list:
    """``potential_gates`` with the admissibility report ``rep`` of the
    square norms w, or None for no admissibility gate."""
    gates = [(~family.in_domain(w), lambda j: DomainError(
        f"square norm {w[j]:.6g} outside the family domain"))]
    if rep is not None:
        gates.append((~rep.ok, lambda j: AdmissibilityError(
            f"inadmissible at w={w[j]:.6g}: f'={rep.f_prime[j]:.6g}, "
            f"f'+wf''={rep.f_prime_plus_wf2[j]:.6g}")))
    r2 = -w if space.lorentz else w
    gates.append((~(r2 > 0.0), lambda j: DomainError(
        f"square norm {w[j]:.6g} has no radius on the {space.signature} "
        f"background")))
    return gates


def _passes_gates(space: AmbientSpace, family: PotentialFamily, w,
                  checked: bool) -> bool:
    """Whether square norms w, one float or an array over points, all pass
    every gate of ``potential_gates``, in float arithmetic.  A metric
    evaluation tests its points with this and builds the gates only to name
    a failure: building and testing the gates costs about as much as the
    float evaluation itself.  It must agree with ``potential_gates``, which
    the tests check on both sides of every edge."""
    inside = family.in_domain(w) & ((w < 0.0) if space.lorentz else (w > 0.0))
    if not (inside if isinstance(inside, bool) else inside.all()):
        return False
    if not checked:
        return True
    w = np.float64(w)
    with np.errstate(all="ignore"):
        fp = family.d1(w)
        return bool(_positive(space, fp, fp + w * family.d2(w)).all())


# -- metric fields ------------------------------------------------------------


@dataclass
class MetricField:
    """Pointwise metric evaluator over generic scalars.

    ``fn`` maps a coordinate list to a dim x dim matrix: a list of lists of
    scalars, a float array, or one MultiDual with two component axes.  ``complex_structure`` is either None,
    meaning the constant standard structure, or a generic-scalar field
    x -> matrix for metrics whose structure varies over the chart.
    ``jets`` is either None, meaning the field is differentiated by duals, or
    a closed-form rule over a leading points axis: it maps float points
    X, (P, d), to (gates, G, dG, d2G) with dG[p, k, i, j] and
    d2G[p, k, l, i, j] the partials of G at point p, and ``gates`` the
    field's per-point checks there in the order ``fn`` raises them (see
    ``qck.errors``); rows that fail a gate carry meaningless values.  With
    ``order=0`` the rule takes G alone, and dG and d2G are None.  Only
    fields with the constant structure have such a rule.
    """

    fn: Callable[[Sequence], object]
    dim: int
    name: str = ""
    complex_structure: Callable | None = None
    jets: Callable | None = None

    def __call__(self, x):
        return self.fn(x)

    def matrix(self, x) -> np.ndarray:
        """Float-path evaluation as a new numpy array: on floats, ``fn``
        gives floats or an array, which one conversion takes as they are."""
        return np.array(self.fn([float(c) for c in x]), dtype=float)

    def matrices(self, X) -> np.ndarray:
        """Float-path evaluations at the rows of X, (P, d), as a (P, d, d)
        array: G from the closed-form rule where the field has one, after
        its gates (that G is the field's own evaluation to the bit), and one
        ``matrix`` per row otherwise."""
        X = np.asarray(X, dtype=float)
        if self.jets is None:
            return np.array([self.matrix(x) for x in X])
        gates, G, _, _ = self.jets(X, order=0)
        raise_first(gates)
        return G

    def structure_matrix(self, x) -> np.ndarray:
        if self.complex_structure is None:
            return constant_structure(self.dim)[0]
        out = self.complex_structure([float(c) for c in x])
        return np.array([[value(e) for e in row] for row in out])


def flat_metric(space: AmbientSpace) -> MetricField:
    G = space.flat_real()
    return MetricField(lambda x: G, space.dim, name=f"flat-{space.signature}")


@functools.cache
def _jet_constants(space: AmbientSpace):
    """The constants of a space that ``_closed_form_jets`` reads: M = J0 H,
    and the second partials d2A[k, l, i, j] of A (see there), which do not
    depend on the point.  Built once per space, read-only."""
    H = space.flat_real()
    M = j0_matrix(space.n) @ H
    cross = np.einsum("ik,jl->klij", H, H) + np.einsum("ik,jl->klij", M, M)
    d2A = cross + cross.transpose(1, 0, 2, 3)
    M.flags.writeable = d2A.flags.writeable = False
    return M, d2A


def _potential_rule(space: AmbientSpace, family: PotentialFamily, X,
                    checked: bool, order: int = 2):
    """The closed-form rule of the metric of ``family`` at the rows of X,
    (P, d): (rep, gates, G, dG, d2G), with rep the admissibility report of
    the rows, whose ``w`` holds their square norms, and gates those of
    ``potential_gates``.  With ``order=0`` it takes G alone, and dG and d2G
    are None.  The square norms and the family's derivatives are taken once,
    and nothing is checked: a row that fails a gate gets meaningless values.
    G = 2 f' H + 2 f'' A, with A = u u^T + v v^T for u = H x and v = J0 u,
    takes at each row the operations of the field's own evaluation entry
    for entry, so it is that evaluation to the bit.
    """
    w = space.square_norm(X.T)
    with np.errstate(all="ignore"):
        f = family.derivatives(w) if order else (family.d1(w), family.d2(w))
        rep = _admissibility(space, family, w, f[0], f[1])
        gates = _potential_gates(space, family, w, rep if checked else None)
        # the derivatives as the rows of one array, a constant one included
        rows = np.empty((len(f),) + w.shape)
        for row, der in zip(rows, f):
            row[...] = der
        f = rows[:, :, None, None]
        H = space.flat_real()
        u = np.diag(H) * X
        v = apply_j0(u.T).T
        A = u[:, :, None] * u[:, None, :] + v[:, :, None] * v[:, None, :]
        G = (2.0 * f[0]) * H + (2.0 * f[1]) * A
        if order == 0:
            return rep, gates, G, None, None
        return (rep, gates, G, *_closed_form_jets(space, u, v, A, *f[1:]))


def _closed_form_jets(space: AmbientSpace, u, v, A, f2, f3, f4):
    """dG and d2G at the rows of points with u = H x and v = J0 u, (P, d),
    and A = u u^T + v v^T, from f'', f''' and f'''' there, each (P, 1, 1);
    see the module docstring."""
    H = space.flat_real()
    M, d2A = _jet_constants(space)
    # G = 2 f' H + 2 f'' A; d_k u = h_k and d_k v = m_k = J0 h_k, for h_k
    # the columns of H, and w_k = 2 u_k, w_kl = 2 H_kl.
    P, d = u.shape
    half = (H.T[:, :, None] * u[:, None, None, :]
            + M.T[:, :, None] * v[:, None, None, :])
    dA = half + half.swapaxes(-1, -2)
    wk = 2.0 * u
    ww = wk[:, :, None] * wk[:, None, :]
    dG = (2.0 * wk[:, :, None, None] * (f2 * H + f3 * A)[:, None]
          + (2.0 * f2[..., None]) * dA)
    # d2G[k, l, i, j] = e_k dA[l, i, j] + e_l dA[k, i, j] + c2_kl A_ij
    # + c1_kl H_ij + 2 f'' d2A[k, l, i, j]: each outer product is one
    # (P, d, 1) (P, 1, d^3) or (P, d^2, 1) (P, 1, d^2) product into a
    # buffer, and the accumulator takes it in place
    e = (2.0 * f3[:, :, 0]) * wk
    c1 = 2.0 * (f3 * ww + 2.0 * f2 * H)
    c2 = 2.0 * (f4 * ww + 2.0 * f3 * H)
    d2G = np.empty((P, d, d, d, d))
    buf = np.empty((P, d, d, d, d))
    np.multiply(e[:, :, None], dA.reshape(P, 1, d ** 3),
                out=buf.reshape(P, d, d ** 3))
    np.add(buf, buf.swapaxes(1, 2), out=d2G)
    acc, buf = d2G.reshape(P, d * d, d * d), buf.reshape(P, d * d, d * d)
    acc += np.multiply(c2.reshape(P, d * d, 1), A.reshape(P, 1, d * d),
                       out=buf)
    acc += np.multiply(c1.reshape(P, d * d, 1), H.reshape(1, 1, d * d),
                       out=buf)
    acc += np.multiply(2.0 * f2, d2A.reshape(1, d * d, d * d), out=buf)
    return dG, d2G


def potential_metric(space: AmbientSpace, family: PotentialFamily,
                     checked: bool = True) -> MetricField:
    """Metric generated by the potential f(<Z,Z>); see the module docstring.

    With ``checked`` the evaluator raises ``AdmissibilityError`` wherever the
    positivity inequalities fail, which is what library callers want; report
    generators pass checked=False and surface the failure in their output
    instead.  The field's ``jets`` rule is ``_potential_rule`` less its
    admissibility report.

    The evaluation is G = 2 f'(w) H + 2 f''(w) (u u^T + v v^T), u = H x and
    v = J0 u, on component axes: a float point gives a float array and a
    point of duals one MultiDual with the two matrix axes first.
    """
    H = space.flat_real()
    h = np.diag(H)

    def ev(x):
        w = space.square_norm(x)
        if not _passes_gates(space, family, value(w), checked):
            raise_first(potential_gates(space, family,
                                        np.atleast_1d(value(w)), checked))
        f1, f2 = family.d1(w), family.d2(w)
        u = weigh(h, stack(x))
        v = apply_j0(u)
        # + 0 w: an f' that a family returns as a float constant takes the
        # points axes of w, which a float (d, d) term would not broadcast to
        return (weigh(H, stack([[2.0 * f1 + 0.0 * w]]))
                + (2.0 * f2) * (u[:, None] * u + v[:, None] * v))

    def jets(X, order=2):
        return _potential_rule(space, family, X, checked, order)[1:]

    return MetricField(ev, space.dim, name=f"potential[{family.describe()}]-{space.signature}",
                       jets=jets)


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


def _length_gate(nrm2):
    """The radial direction must be space-like: nrm2 = g(u, u) > 0, over
    points or for one float."""
    return (nrm2 <= 0, lambda j: FrameError(
        f"radial direction has non-positive square norm "
        f"{np.ravel(nrm2)[j]:.3e}"))


def _metric_length(u: np.ndarray, G: np.ndarray) -> float:
    """Length of the radial direction u in the metric values G; FrameError
    where u is not space-like there."""
    nrm2 = float(u @ G @ u)
    raise_first([_length_gate(nrm2)])
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


def radial_unit_jets(space: AmbientSpace, jet, orientation: str = "outward"):
    """The metric-normalized radial unit field at the points of ``jet`` (a
    ``curvature.PointJet`` with a points axis): (xi, dxi, gates) with
    dxi[p, i, m] = d_i xi^m at point p.

    xi = x / sqrt(N) with N = x^T G x, so its partials need only G and dG:
    d_i N = 2 (G x)_i + x^T (d_i G) x and
    d_i xi = (e_i - x d_i N / (2 N)) / sqrt(N), up to the orientation sign.
    Nothing is evaluated.  The gates: a radius (``AmbientSpace.radius``),
    and g(xi, xi) > 0 as for ``radial_frame``.
    """
    return _radial_unit_jets(space, jet, space.square_norm(jet.point.T),
                             _check_orientation(orientation))


def _radial_unit_jets(space, jet, w, sign=1.0):
    """``radial_unit_jets`` with the square norms w of the jet's points and
    the sign of the orientation, outward by default."""
    X, G, dG = jet.point, jet.G, jet.dG
    with np.errstate(all="ignore"):
        r = np.sqrt(-w if space.lorentz else w)
        u = X / r[:, None]
        # as ``radial_frame`` takes it, so that xi is its xi to the bit
        nrm2 = (u[:, None] @ G @ u[:, :, None])[:, 0, 0]
        length = np.sqrt(nrm2)
        xi = sign * (u / length[:, None])
        GX = (G @ X[:, :, None])[:, :, 0]
        N = (X * GX).sum(axis=1)
        dN = 2.0 * GX + (X[:, None, None] @ dG @ X[:, None, :, None])[:, :, 0, 0]
        dxi = (sign / (r * length))[:, None, None] * (
            np.eye(X.shape[1]) - dN[:, :, None] * X[:, None, :]
            / (2.0 * N)[:, None, None])
    return xi, dxi, [space.radius_gate(w), _length_gate(nrm2)]
