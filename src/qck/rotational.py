"""Rotational hypersurface models carrying quasi-constant Kähler metrics.

A rotational hypersurface in C^n x R is a one-parameter family of parallel
hyperspheres of radius t(s) with centers q(s) e on the axis, s the natural
parameter of the meridian (t(s), q(s)).  Three types arise from the causal
characters of the sphere factor and the axis:

  I    definite C^n, e^2 = +1,  t'^2 + q'^2 = 1,  0 < t' <= 1
  II   definite C^n, e^2 = -1,  t'^2 - q'^2 = 1,  t' >= 1
  III  Lorentz C^n,  e^2 = +1,  q'^2 - t'^2 = -1, t' <= -1

Each carries a Kähler structure whose curvature decomposes over the basis
tensors with coefficients given in closed form by the meridian jets
(t, t', t'', t''').  The Bochner-flat meridians solve t' = c1 t^4 + c2 t^2
+ 1, and explicit profiles of constant holomorphic sectional curvature exist
for types II and III.  ``embed_and_verify`` rebuilds the metric from an
honest chart embedding and compares fitted coefficients with the formulas.

scipy is imported inside the two functions that integrate and interpolate a
meridian, so the commands that never build one do not pay its import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import MetricField
from .charts import LorentzGraphChart, SphereGraphChart
from .core import apply_j0
from .curvature import curvature_bundle, kahler_defect, point_jet, vector_jet
from .duals import eval_with_partials, gatan, glog, gsqrt, solve_generic, value
from .errors import (ChartError, DomainError, NumericalBreakdown,
                     TypeConstraintError)
from .qch import QCDecomposition, decompose, extract_shape_data

ROTATION_TYPES = ("I", "II", "III")
# slack on the t' band of a rotation type
TYPE_TOL = 1e-10
# radii at which ``MeridianProfile.natural_defect`` tests the constraint
NATURAL_SAMPLES = 33
# spread of the sphere chart coordinates drawn by ``embed_and_verify``
Y_SCALE = 0.2


def check_rotation_type(rotation_type: str, t: float, tp: float) -> None:
    """Defining constraint of the rotation type at one meridian sample."""
    if rotation_type not in ROTATION_TYPES:
        raise TypeConstraintError(f"unknown rotation type {rotation_type!r}")
    if t <= 0:
        raise TypeConstraintError(f"sphere radius t = {t:.6g} must be positive")
    if rotation_type == "I":
        if not (TYPE_TOL < tp <= 1.0 + TYPE_TOL):
            raise TypeConstraintError(
                f"type I needs 0 < t' <= 1, got t' = {tp:.6g} at t = {t:.6g}")
    elif rotation_type == "II":
        if tp < 1.0 - TYPE_TOL:
            raise TypeConstraintError(
                f"type II needs t' >= 1, got t' = {tp:.6g} at t = {t:.6g}")
    else:
        if tp > -1.0 + TYPE_TOL:
            raise TypeConstraintError(
                f"type III needs t' <= -1, got t' = {tp:.6g} at t = {t:.6g}")


@dataclass(frozen=True)
class CoefficientTriple:
    """Closed-form curvature data of a rotational model at radius t."""

    rotation_type: str
    t: float
    a: float
    b: float
    c: float
    k: float

    @property
    def a_plus_k2(self) -> float:
        return self.a + self.k * self.k

    def to_json(self) -> dict:
        return {"rotation_type": self.rotation_type, "t": self.t,
                "a": self.a, "b": self.b, "c": self.c, "k": self.k,
                "a_plus_k2": self.a_plus_k2}


def qc_coefficients(rotation_type: str, t: float, tp: float, tpp: float = 0.0,
                    tppp: float = 0.0) -> CoefficientTriple:
    """Coefficients (a, b, c) and the shape value k from meridian jets."""
    check_rotation_type(rotation_type, t, tp)
    t2 = t * t
    if rotation_type in ("I", "II"):
        a = 4.0 * (1.0 - tp) / t2
        b = 8.0 * ((tp - 1.0) / t2 - tpp / (2.0 * t * tp))
        c = (4.0 * (1.0 - tp) / t2 + 5.0 * tpp / (2.0 * t * tp)
             + (tpp * tpp - tp * tppp) / (2.0 * tp ** 3))
        k = 2.0 * math.sqrt(tp) / t
    else:
        a = 4.0 * (tp - 1.0) / t2
        b = -8.0 * ((tp - 1.0) / t2 - tpp / (2.0 * t * tp))
        c = (4.0 * (tp - 1.0) / t2 - 2.0 * tpp / (t * tp)
             - tpp * (tp * tp + t * tpp) / (2.0 * t * tp ** 3)
             + tppp / (2.0 * tp * tp))
        k = 2.0 * tp / (t * math.sqrt(-tp))
    return CoefficientTriple(rotation_type, float(t), float(a), float(b),
                             float(c), float(k))


# -- meridian sources ----------------------------------------------------------


@dataclass(frozen=True)
class BochnerFamily:
    """Meridians with t' = c1 t^4 + c2 t^2 + 1, which kill the c coefficient."""

    c1: float
    c2: float
    kind: str = "bochner"

    def tp(self, t):
        t2 = t * t
        return self.c1 * t2 * t2 + self.c2 * t2 + 1.0

    def jets(self, t: float):
        t = float(t)
        p = self.c1 * t ** 4 + self.c2 * t ** 2 + 1.0
        dp = 4.0 * self.c1 * t ** 3 + 2.0 * self.c2 * t
        ddp = 12.0 * self.c1 * t ** 2 + 2.0 * self.c2
        return p, dp * p, (ddp * p + dp * dp) * p

    def describe(self) -> str:
        return f"bochner(c1={self.c1:g}, c2={self.c2:g})"


@dataclass(frozen=True)
class ConstHSC:
    """Profiles of constant holomorphic sectional curvature a < 0.

    Type II: t' = 1 - a t^2 / 4 with
        q = (1/sqrt(-a)) (u + ln((u-2)/(u+2))),  u = sqrt(8 - a t^2).
    Type III: t' = 1 + a t^2 / 4, defined for t >= 2 sqrt(2)/sqrt(-a), with
        q = (1/(-a)) (sqrt(a (8 + a t^2)) - 2 sqrt(-a) atan(sqrt(-(8 + a t^2))/2)).
    """

    a: float
    rotation_type: str
    kind: str = "const-hsc"

    def __post_init__(self):
        if self.rotation_type not in ("II", "III"):
            raise TypeConstraintError(
                "constant-curvature profiles exist for types II and III only")
        if self.a >= 0:
            raise DomainError("the profile family needs a < 0")

    def tp(self, t):
        if self.rotation_type == "II":
            return 1.0 - 0.25 * self.a * t * t
        return 1.0 + 0.25 * self.a * t * t

    def jets(self, t: float):
        t = float(t)
        a = self.a
        if self.rotation_type == "II":
            p = 1.0 - 0.25 * a * t * t
            dp = -0.5 * a * t
        else:
            p = 1.0 + 0.25 * a * t * t
            dp = 0.5 * a * t
        ddp = dp / t if t != 0 else 0.0  # dp is linear in t
        return p, dp * p, (ddp * p + dp * dp) * p

    def min_radius(self) -> float:
        if self.rotation_type == "II":
            return 0.0
        return 2.0 * math.sqrt(2.0) / math.sqrt(-self.a)

    def q_closed(self, t):
        a = self.a
        if self.rotation_type == "II":
            u = gsqrt(8.0 - a * t * t)
            return (u + glog((u - 2.0) / (u + 2.0))) / math.sqrt(-a)
        arg = a * (8.0 + a * t * t)
        if value(arg) < 0.0:
            raise DomainError(
                f"type III profile needs t >= {self.min_radius():.6g}, "
                f"got t = {value(t):.6g}")
        inner = -(8.0 + a * t * t)
        return (gsqrt(arg) - 2.0 * math.sqrt(-a) * gatan(0.5 * gsqrt(inner))) / (-a)

    def describe(self) -> str:
        return f"const-hsc(a={self.a:g}, type={self.rotation_type})"


# -- meridian profiles ---------------------------------------------------------


class MeridianProfile:
    """A typed meridian with its natural-parameter data on a radius window.

    ``sign`` orients dq/dt: the default profiles use q' = + sqrt(|t'^2 - 1|)
    (types II, III) or q' = + sqrt(1 - t'^2) (type I); a reflected profile
    carries the opposite sign.  Reflection q -> -q is an ambient isometry, so
    every curvature output is independent of it.
    """

    def __init__(self, rotation_type: str, source, s_grid, t_grid, q_grid,
                 sign: float = 1.0):
        if rotation_type not in ROTATION_TYPES:
            raise TypeConstraintError(f"unknown rotation type {rotation_type!r}")
        from scipy.interpolate import CubicSpline

        self.rotation_type = rotation_type
        self.source = source
        self.s_grid = np.asarray(s_grid, float)
        self.t_grid = np.asarray(t_grid, float)
        self.q_grid = np.asarray(q_grid, float)
        self.sign = float(sign)
        tail = np.argsort(self.t_grid)
        self._s_of_t = CubicSpline(self.t_grid[tail], self.s_grid[tail])
        self._q_of_t = CubicSpline(self.t_grid[tail], self.q_grid[tail])

    @property
    def t_range(self):
        return float(self.t_grid.min()), float(self.t_grid.max())

    def _check_t(self, t: float) -> float:
        t = float(t)
        lo, hi = self.t_range
        pad = 1e-9 * max(1.0, hi)
        if not (lo - pad <= t <= hi + pad):
            raise DomainError(f"t = {t:.6g} outside the profile window "
                              f"[{lo:.6g}, {hi:.6g}]")
        return t

    def s_of_t(self, t: float) -> float:
        return float(self._s_of_t(self._check_t(t)))

    def q_of_t(self, t: float) -> float:
        return float(self._q_of_t(self._check_t(t)))

    def jets_at(self, t: float):
        return self.source.jets(self._check_t(t))

    def dqdt(self, t):
        """Generic dq/dt from the type constraint; sign per the profile."""
        tp = self.source.tp(t)
        if self.rotation_type == "I":
            root = gsqrt(1.0 - tp * tp)
        else:
            root = gsqrt(tp * tp - 1.0)
        return self.sign * root / tp

    def coefficients_at(self, t: float) -> CoefficientTriple:
        tp, tpp, tppp = self.jets_at(t)
        return qc_coefficients(self.rotation_type, float(t), tp, tpp, tppp)

    def natural_defect(self) -> float:
        """Largest violation of the defining constraint between t' and q'
        over ``NATURAL_SAMPLES`` radii of the window.

        Closed-form sources are differentiated directly (the q formula is
        checked against the t' formula); the Bochner family takes q' from
        the constraint itself, so its defect only reflects the stored grids.
        """
        out = 0.0
        lo, hi = self.t_range
        for t in np.linspace(lo, hi, NATURAL_SAMPLES):
            tp = self.source.jets(t)[0]
            if self.source.kind == "const-hsc":
                _, cols = eval_with_partials(
                    lambda args: [self.source.q_closed(args[0])], [float(t)])
                qp = cols[0][0] * tp * self.sign * self._closed_sign()
            else:
                qp = float(value(self.dqdt(t))) * tp
            out = max(out, self._constraint_defect(tp, qp))
        return out

    def _closed_sign(self) -> float:
        # orientation of the stored grid relative to the closed-form q
        return 1.0 if self.rotation_type == "II" else -1.0

    def _constraint_defect(self, tp: float, qp: float) -> float:
        if self.rotation_type == "I":
            return abs(tp * tp + qp * qp - 1.0)
        if self.rotation_type == "II":
            return abs(tp * tp - qp * qp - 1.0)
        return abs(qp * qp - tp * tp + 1.0)

    def rows(self, count: int = 9):
        """Meridian table: (s, t, q, tp, tpp, a, b, c, k, a_plus_k2)."""
        lo, hi = self.t_range
        out = []
        for t in np.linspace(lo, hi, count):
            tp, tpp, _ = self.jets_at(t)
            co = self.coefficients_at(t)
            out.append((self.s_of_t(t), float(t), self.q_of_t(t), tp, tpp,
                        co.a, co.b, co.c, co.k, co.a_plus_k2))
        return out

    def describe(self) -> str:
        lo, hi = self.t_range
        return (f"type {self.rotation_type} meridian, {self.source.describe()}, "
                f"t in [{lo:g}, {hi:g}]")


def _window_check(rotation_type: str, source, t0: float, t1: float,
                  steps: int) -> None:
    if not (0.0 < t0 < t1):
        raise DomainError(f"bad radius window [{t0}, {t1}]")
    for t in np.linspace(t0, t1, 4 * steps + 1):
        check_rotation_type(rotation_type, float(t), source.jets(float(t))[0])


def _integrate_meridian(rotation_type: str, source, t0: float, t1: float,
                        steps: int, sign: float):
    from scipy.integrate import solve_ivp

    def rhs(t, _y):
        tp = source.jets(float(t))[0]
        if rotation_type == "I":
            root = math.sqrt(max(0.0, 1.0 - tp * tp))
        else:
            root = math.sqrt(max(0.0, tp * tp - 1.0))
        return [1.0 / tp, sign * root / tp]

    grid = np.linspace(t0, t1, steps)
    sol = solve_ivp(rhs, (t0, t1), [0.0, 0.0], t_eval=grid, rtol=1e-12,
                    atol=1e-14, method="DOP853")
    if not sol.success:
        raise NumericalBreakdown(f"meridian quadrature failed: {sol.message}")
    return sol.t, sol.y[0], sol.y[1]


def bochner_meridian(c1: float, c2: float, t0: float, t1: float,
                     rotation_type: str = "II", steps: int = 257,
                     flip_q: bool = False) -> MeridianProfile:
    """Bochner-flat meridian profile on [t0, t1].

    Raises TypeConstraintError when t' = c1 t^4 + c2 t^2 + 1 leaves the band
    allowed by the requested rotation type anywhere on the window.
    """
    source = BochnerFamily(c1, c2)
    _window_check(rotation_type, source, t0, t1, steps)
    sign = -1.0 if flip_q else 1.0
    tg, sg, qg = _integrate_meridian(rotation_type, source, t0, t1, steps, sign)
    return MeridianProfile(rotation_type, source, sg, tg, qg, sign=sign)


def const_hsc_profile(rotation_type: str, a: float, t0: float, t1: float,
                      steps: int = 257, flip_q: bool = False) -> MeridianProfile:
    """Profile of constant holomorphic sectional curvature a on [t0, t1].

    q comes from the closed formula (so the stored grid matches
    ``ConstHSC.q_closed`` exactly); s from quadrature with s(t0) = 0.
    """
    source = ConstHSC(a, rotation_type)
    if rotation_type == "III" and t0 < source.min_radius() - 1e-12:
        raise DomainError(
            f"type III window must start at or above {source.min_radius():.6g}")
    _window_check(rotation_type, source, t0, t1, steps)
    closed_sign = 1.0 if rotation_type == "II" else -1.0
    sign = closed_sign * (-1.0 if flip_q else 1.0)
    flip = -1.0 if flip_q else 1.0
    tg, sg, _ = _integrate_meridian(rotation_type, source, t0, t1, steps, sign)
    qg = np.array([flip * float(source.q_closed(t)) for t in tg])
    return MeridianProfile(rotation_type, source, sg, tg, qg, sign=sign)


# -- chart embeddings ----------------------------------------------------------


def rotation_metric(profile: MeridianProfile, n: int = 2):
    """Chart metric of the embedded rotational hypersurface.

    Coordinates are u = (t, y) with y a graph chart on the unit parallel
    sphere.  Returns (metric, xi_field, sphere_chart); the metric field
    carries the complex structure, and xi_field is the unit radial-like
    field of the model in chart components.
    """
    tag = profile.rotation_type
    if n < 2:
        raise DomainError("the rotational models need n >= 2")
    dsph = 2 * n
    m = 2 * n
    if tag in ("I", "II"):
        sphere = SphereGraphChart(1.0, dsph)
        hs = np.ones(dsph)
        e2 = 1.0 if tag == "I" else -1.0
        esign = 1.0  # square norms of xi_bar and its rotation
    else:
        sphere = LorentzGraphChart(1.0, dsph)
        hs = np.ones(dsph)
        hs[-2:] = -1.0
        e2 = 1.0
        esign = -1.0
    source = profile.source

    def pieces(u):
        t = u[0]
        y = list(u[1:])
        nv = sphere.fn(y)
        dn = sphere.jac(y)
        tp = source.tp(t)
        dqdt = profile.dqdt(t)
        cols = [list(nv) + [dqdt]]
        for j in range(m - 1):
            cols.append([t * dn[i][j] for i in range(dsph)] + [0.0])
        return t, nv, tp, dqdt, cols

    def amb_inner(xa, xb):
        acc = 0.0
        for i in range(dsph):
            acc = acc + hs[i] * xa[i] * xb[i]
        return acc + e2 * xa[dsph] * xb[dsph]

    def metric_fn(u):
        t, nv, tp, dqdt, cols = pieces(u)
        gb = [[amb_inner(cols[p], cols[s]) for s in range(m)] for p in range(m)]
        eb = [tp * gb[p][0] for p in range(m)]
        jn = apply_j0(nv)
        et = [sum(cols[p][i] * hs[i] * jn[i] for i in range(dsph))
              for p in range(m)]
        w = (tp - 1.0) if tag in ("I", "II") else (1.0 - tp)
        out = []
        for p in range(m):
            row = []
            for s in range(m):
                row.append(gb[p][s] + w * (eb[p] * eb[s] + et[p] * et[s]))
            out.append(row)
        return out

    def structure_fn(u):
        t, nv, tp, dqdt, cols = pieces(u)
        jn = apply_j0(nv)
        qp = dqdt * tp
        xib = [tp * c for c in nv] + [qp]
        xit = list(jn) + [0.0]
        images = []
        for p in range(m):
            W = cols[p]
            acf = esign * amb_inner(W, xib)
            bcf = esign * amb_inner(W, xit)
            wd = [W[i] - acf * xib[i] - bcf * xit[i] for i in range(dsph)]
            jwd = apply_j0(wd)
            img = [acf * xit[i] - bcf * xib[i] + jwd[i] for i in range(dsph)]
            img.append(-bcf * qp)
            images.append(img)
        M = [[sum(cols[p][i] * cols[s][i] for i in range(dsph + 1))
              for s in range(m)] for p in range(m)]
        B = [[sum(cols[r][i] * images[p][i] for i in range(dsph + 1))
              for p in range(m)] for r in range(m)]
        return solve_generic(M, B)

    def xi_field(u):
        tp = source.tp(u[0])
        if tag == "III":
            head = 0.0 - gsqrt(0.0 - tp)
        else:
            head = gsqrt(tp)
        return [head] + [0.0] * (m - 1)

    metric = MetricField(metric_fn, m,
                         name=f"rotational-{tag}[{source.describe()}]",
                         complex_structure=structure_fn,
                         meta={"profile": profile, "n": n})
    return metric, xi_field, sphere


@dataclass(frozen=True)
class EmbedPoint:
    t: float
    u0: np.ndarray
    fitted: QCDecomposition
    closed: CoefficientTriple
    coefficient_delta: float
    k_delta: float
    min_eigenvalue: float
    kahler_defect: float

    def to_json(self) -> dict:
        return {"t": self.t, "fitted": self.fitted.to_json(),
                "closed": self.closed.to_json(),
                "coefficient_delta": self.coefficient_delta,
                "k_delta": self.k_delta,
                "min_eigenvalue": self.min_eigenvalue,
                "kahler_defect": self.kahler_defect}


@dataclass(frozen=True)
class EmbedVerification:
    rotation_type: str
    n: int
    points: tuple

    @property
    def max_coefficient_delta(self) -> float:
        return max(p.coefficient_delta for p in self.points)

    @property
    def max_k_delta(self) -> float:
        return max(p.k_delta for p in self.points)

    @property
    def max_kahler_defect(self) -> float:
        return max(p.kahler_defect for p in self.points)

    @property
    def min_eigenvalue(self) -> float:
        return min(p.min_eigenvalue for p in self.points)

    def to_json(self) -> dict:
        return {"rotation_type": self.rotation_type, "n": self.n,
                "max_coefficient_delta": self.max_coefficient_delta,
                "max_k_delta": self.max_k_delta,
                "max_kahler_defect": self.max_kahler_defect,
                "min_eigenvalue": self.min_eigenvalue,
                "points": [p.to_json() for p in self.points]}


def embed_and_verify(profile: MeridianProfile, n: int = 2, count: int = 6,
                     seed: int = 0) -> EmbedVerification:
    """Rebuild the model metric from the embedding and compare with the
    closed formulas at ``count`` chart points, at radii evenly spaced inside
    the profile window.

    Sphere chart draws that land outside the chart margin are redrawn.
    """
    metric, xi_field, sphere = rotation_metric(profile, n)
    lo, hi = profile.t_range
    pad = 0.08 * (hi - lo)
    rng = np.random.default_rng(seed)
    pts = []
    for tv in np.linspace(lo + pad, hi - pad, count):
        report = None
        for _ in range(40):
            y = Y_SCALE * rng.normal(size=2 * n - 1)
            if profile.rotation_type == "III":
                y[-1] *= 0.5
            u0 = np.concatenate([[tv], y])
            try:
                report = _verify_at(metric, xi_field, profile, u0)
            except ChartError:
                continue
            break
        if report is None:
            raise ChartError("no admissible sphere point after 40 draws")
        pts.append(report)
    return EmbedVerification(profile.rotation_type, n, tuple(pts))


def _verify_at(metric, xi_field, profile, u0) -> EmbedPoint:
    jet = point_jet(metric, u0)
    bundle = curvature_bundle(jet)
    eigs = np.linalg.eigvalsh(jet.G)
    kd = kahler_defect(jet)
    dec = decompose(bundle, extract_shape_data(jet, *vector_jet(xi_field, u0)))
    closed = profile.coefficients_at(float(u0[0]))
    delta = max(abs(dec.a - closed.a), abs(dec.b - closed.b),
                abs(dec.c - closed.c))
    return EmbedPoint(
        t=float(u0[0]), u0=np.asarray(u0, float), fitted=dec, closed=closed,
        coefficient_delta=float(delta), k_delta=float(abs(dec.k - closed.k)),
        min_eigenvalue=float(eigs.min()), kahler_defect=float(kd))
