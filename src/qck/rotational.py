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
honest chart embedding and compares fitted coefficients with the formulas,
at all its chart points in one batched pass: one dual evaluation of the
chart metric and one of its complex structure per profile, whose J the
structure field solves on its first jet with ``np.linalg.solve``.

A profile keeps only its window and orientation: s = int dt / t' and Bochner
q = int q' dt are integrated from t0 when read, by Gauss-Legendre panels that
are halved until their estimates settle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ambient import MetricField
from .charts import GraphChart
from .core import apply_j0
from .curvature import (curvature_gate, curvature_tensors, kahler_defect,
                        point_jets)
from .duals import (MultiDual, coefficients, concat, contract,
                    eval_with_partials, gatan, glog, gsqrt, stack, value,
                    weigh)
from .errors import (ChartError, DomainError, NumericalBreakdown, Sieve,
                     TypeConstraintError, raise_first)
from .qch import QCDecomposition, adapted_frames, frame_fit, shape_arrays

ROTATION_TYPES = ("I", "II", "III")
# slack on the t' band of a rotation type
TYPE_TOL = 1e-10
# radii at which ``MeridianProfile.natural_defect`` tests the constraint
NATURAL_SAMPLES = 33
# equal panels of a meridian integral, and Gauss-Legendre nodes per panel
PANELS = 8
GL_POINTS = 10
# tolerances of a meridian integral on one panel, and how often it may halve
QUAD_ATOL = 1e-15
QUAD_RTOL = 1e-13
MAX_HALVINGS = 40
# spread of the sphere chart coordinates drawn by ``embed_and_verify``
Y_SCALE = 0.2


@functools.cache
def _gauss_legendre():
    # built on first use: importing numpy.polynomial adds 0.7-1.0 MB of peak
    # RSS to every command, also to those that integrate no meridian
    return np.polynomial.legendre.leggauss(GL_POINTS)


def _adaptive(f, tp, cuts):
    """int f over each piece [cuts[i], cuts[i + 1]] of a meridian with slope
    t' = tp(t).  A piece is halved until its Gauss-Legendre estimate and the
    sum over its halves agree within QUAD_ATOL + QUAD_RTOL * int |f| / min(1,
    |t'|); that sum is kept.  The factor 1/|t'| is the rounding of f where t'
    cancels, near the lower edge of the type I band."""
    x, w = _gauss_legendre()

    def rule(a, b):
        half = 0.5 * (b - a)
        nodes = 0.5 * (a + b)[:, None] + half[:, None] * x
        vals = f(nodes)
        mass = np.abs(vals) / np.minimum(1.0, np.abs(tp(nodes)))
        return half * (vals @ w), np.abs(half) * (mass @ w)

    a, b, owner = cuts[:-1], cuts[1:], np.arange(cuts.size - 1)
    whole, out = rule(a, b)[0], np.zeros(cuts.size - 1)
    for _ in range(MAX_HALVINGS):
        mid = 0.5 * (a + b)
        (left, lmass), (right, rmass) = rule(a, mid), rule(mid, b)
        fine = left + right
        if not np.all(np.isfinite(fine)):
            raise NumericalBreakdown("meridian integrand is not finite")
        more = np.abs(fine - whole) > QUAD_ATOL + QUAD_RTOL * (lmass + rmass)
        np.add.at(out, owner[~more], fine[~more])
        if not more.any():
            return out
        if more.sum() > 2 * cuts.size:  # bounds the work of a bad integrand
            break
        a, b = np.r_[a[more], mid[more]], np.r_[mid[more], b[more]]
        owner, whole = np.tile(owner[more], 2), np.r_[left[more], right[more]]
    raise NumericalBreakdown(
        f"meridian integral unresolved near t = {mid[more][0]:.6g}")


def check_rotation_type(rotation_type: str, t: float, tp: float) -> None:
    """Defining constraint of the rotation type at one meridian sample;
    a NaN or infinite t' fails every band."""
    if rotation_type not in ROTATION_TYPES:
        raise TypeConstraintError(f"unknown rotation type {rotation_type!r}")
    if not t > 0:
        raise TypeConstraintError(f"sphere radius t = {t:.6g} must be positive")
    if rotation_type == "I":
        ok, band = TYPE_TOL < tp <= 1.0 + TYPE_TOL, "0 < t' <= 1"
    elif rotation_type == "II":
        ok, band = 1.0 - TYPE_TOL <= tp < math.inf, "finite t' >= 1"
    else:
        ok, band = -math.inf < tp <= -1.0 + TYPE_TOL, "finite t' <= -1"
    if not ok:
        raise TypeConstraintError(f"type {rotation_type} needs {band}, "
                                  f"got t' = {tp:.6g} at t = {t:.6g}")


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
        return (self.c1 * t2 + self.c2) * t2 + 1.0

    def jets(self, t: float):
        # float products overflow to inf where t ** 4 would raise
        t = float(t)
        t2 = t * t
        p = self.tp(t)
        dp = (4.0 * self.c1 * t2 + 2.0 * self.c2) * t
        ddp = 12.0 * self.c1 * t2 + 2.0 * self.c2
        return p, dp * p, (ddp * p + dp * dp) * p

    def turning_points(self) -> tuple:
        """Radii t > 0 where t' is stationary: t^2 = -c2 / (2 c1)."""
        if self.c1 == 0.0 or not -self.c2 / self.c1 > 0.0:
            return ()
        return (math.sqrt(-self.c2 / (2.0 * self.c1)),)

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
        ddp = -0.5 * self.a if self.rotation_type == "II" else 0.5 * self.a
        p, dp = self.tp(t), ddp * t
        return p, dp * p, (ddp * p + dp * dp) * p

    def turning_points(self) -> tuple:
        """t' = 1 -+ a t^2 / 4 is monotone for t > 0."""
        return ()

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
        raise_first([(value(arg) < 0.0, lambda j: DomainError(
            f"type III profile needs t >= {self.min_radius():.6g}, "
            f"got t = {np.ravel(value(t))[j]:.6g}"))])
        inner = -(8.0 + a * t * t)
        return (gsqrt(arg) - 2.0 * math.sqrt(-a) * gatan(0.5 * gsqrt(inner))) / (-a)

    def describe(self) -> str:
        return f"const-hsc(a={self.a:g}, type={self.rotation_type})"


# -- meridian profiles ---------------------------------------------------------


@dataclass(frozen=True)
class MeridianProfile:
    """A typed meridian on the radius window [t0, t1].

    ``sign`` orients dq/dt: the default profiles use q' = + sqrt(|t'^2 - 1|)
    (types II, III) or q' = + sqrt(1 - t'^2) (type I); a reflected profile
    carries the opposite sign.  Reflection q -> -q is an ambient isometry, so
    every curvature output is independent of it.
    """

    rotation_type: str
    source: object
    t0: float
    t1: float
    sign: float = 1.0

    def _check_t(self, t: float) -> float:
        t = float(t)
        pad = 1e-9 * max(1.0, self.t1)
        if not (self.t0 - pad <= t <= self.t1 + pad):
            raise DomainError(f"t = {t:.6g} outside the profile window "
                              f"[{self.t0:.6g}, {self.t1:.6g}]")
        return t

    def _integral(self, f, ts):
        """int_{t0}^{t} f for every t of ``ts``, as the running sum over the
        pieces between t0, every t, the turning points of t' and the ends of
        ``PANELS`` equal panels of the window."""
        ts = np.asarray(ts, float)
        if not ts.size:
            return ts
        lo, hi = min(self.t0, ts.min()), max(self.t0, ts.max())
        inner = np.concatenate([np.linspace(self.t0, self.t1, PANELS + 1),
                                self.source.turning_points()])
        cuts = np.unique(np.concatenate(
            [[self.t0], ts, inner[(lo < inner) & (inner < hi)]]))
        pieces = _adaptive(f, self.source.tp, cuts)
        total = np.concatenate([[0.0], np.cumsum(pieces)])
        return (total[np.searchsorted(cuts, ts)]
                - total[np.searchsorted(cuts, self.t0)])

    def _s(self, ts):
        return self._integral(lambda x: 1.0 / self.source.tp(x), ts)

    def _q(self, ts):
        if self.source.kind == "const-hsc":
            return np.array([float(self._closed_q(t)) for t in ts])
        return self._integral(self.dqdt, ts)

    def _closed_q(self, t):
        # the closed-form q of a const-hsc source, in this profile's orientation
        closed_sign = 1.0 if self.rotation_type == "II" else -1.0
        return self.sign * closed_sign * self.source.q_closed(t)

    def dqdt(self, t):
        """dq/dt from the type constraint, sign per the profile; on floats
        and arrays the radicand is clamped at 0 against rounding."""
        tp = self.source.tp(t)
        gap = 1.0 - tp * tp if self.rotation_type == "I" else tp * tp - 1.0
        if isinstance(gap, MultiDual):
            root = gsqrt(gap)
        else:
            root = np.sqrt(np.maximum(gap, 0.0))
        return self.sign * root / tp

    def coefficients_at(self, t: float) -> CoefficientTriple:
        t = self._check_t(t)
        return qc_coefficients(self.rotation_type, t, *self.source.jets(t))

    def natural_defect(self) -> float:
        """Largest violation of the defining constraint between t' and q'
        over ``NATURAL_SAMPLES`` radii of the window.

        Closed-form q is differentiated directly and checked against t';
        the Bochner family takes q' from the constraint itself, so its
        defect is rounding alone.
        """
        ts = np.linspace(self.t0, self.t1, NATURAL_SAMPLES)
        tp = self.source.tp(ts)
        if self.source.kind == "const-hsc":
            # q' at every radius in one evaluation
            _, cols = eval_with_partials(
                lambda args: [self._closed_q(args[0])], ts[:, None])
            qp = cols[:, 0, 0] * tp
        else:
            qp = self.dqdt(ts) * tp
        # types II and III share the constraint t'^2 - q'^2 = 1
        qp2 = qp * qp if self.rotation_type == "I" else -qp * qp
        return float(np.max(np.abs(tp * tp + qp2 - 1.0)))

    def rows(self, count: int = 9):
        """Meridian table: (s, t, q, tp, tpp, a, b, c, k, a_plus_k2)."""
        ts = np.linspace(self.t0, self.t1, count)
        out = []
        for s, t, q in zip(self._s(ts), ts, self._q(ts)):
            tp, tpp, tppp = self.source.jets(t)
            co = qc_coefficients(self.rotation_type, float(t), tp, tpp, tppp)
            out.append((float(s), float(t), float(q), tp, tpp,
                        co.a, co.b, co.c, co.k, co.a_plus_k2))
        return out


def _window_check(rotation_type: str, source, t0: float, t1: float) -> None:
    """The type band on the whole window.  t' is smooth, so its extremes on
    [t0, t1] lie at the ends or at a turning point inside."""
    if not (0.0 < t0 < t1):
        raise DomainError(f"bad radius window [{t0}, {t1}]")
    inside = [t for t in source.turning_points() if t0 < t < t1]
    for t in (t0, *inside, t1):
        check_rotation_type(rotation_type, t, source.tp(t))


def bochner_meridian(c1: float, c2: float, t0: float, t1: float,
                     rotation_type: str = "II",
                     flip_q: bool = False) -> MeridianProfile:
    """Bochner-flat meridian profile on [t0, t1].

    Raises TypeConstraintError when t' = c1 t^4 + c2 t^2 + 1 leaves the band
    allowed by the requested rotation type anywhere on the window.
    """
    source = BochnerFamily(c1, c2)
    _window_check(rotation_type, source, t0, t1)
    return MeridianProfile(rotation_type, source, float(t0), float(t1),
                           sign=-1.0 if flip_q else 1.0)


def const_hsc_profile(rotation_type: str, a: float, t0: float, t1: float,
                      flip_q: bool = False) -> MeridianProfile:
    """Profile of constant holomorphic sectional curvature a on [t0, t1].

    q is ``ConstHSC.q_closed`` (negated by ``flip_q``); s is integrated with
    s(t0) = 0.
    """
    source = ConstHSC(a, rotation_type)
    if rotation_type == "III" and t0 < source.min_radius() - 1e-12:
        raise DomainError(
            f"type III window must start at or above {source.min_radius():.6g}")
    _window_check(rotation_type, source, t0, t1)
    closed_sign = 1.0 if rotation_type == "II" else -1.0
    return MeridianProfile(rotation_type, source, float(t0), float(t1),
                           sign=closed_sign * (-1.0 if flip_q else 1.0))


# -- chart embeddings ----------------------------------------------------------


def rotation_metric(profile: MeridianProfile, n: int = 2):
    """Chart metric of the embedded rotational hypersurface.

    Coordinates are u = (t, y) with y a graph chart on the unit parallel
    sphere.  Returns (metric, xi_field, sphere_chart); the metric field
    carries the complex structure, and xi_field is the unit radial-like
    field of the model in chart components.

    Both fields are array expressions on floats or on duals with component
    axes (``qck.duals``).  The coordinate vectors of the embedding in C^n x R
    are the columns of D = [nv | t dn] over the sphere coordinates, with nv
    the sphere point and dn its chart Jacobian, and z = (q', 0, ..., 0)
    along the axis.  The ambient inner products of all pairs of them are
    one weighted contraction over the sphere axis plus e^2 z z^T, and the
    structure's matrices M X = B are two more contractions.
    """
    tag = profile.rotation_type
    if n < 2:
        raise DomainError("the rotational models need n >= 2")
    dsph = 2 * n
    m = 2 * n
    if tag in ("I", "II"):
        sphere = GraphChart(1.0, dsph)
        hs = np.ones(dsph)
        e2 = 1.0 if tag == "I" else -1.0
        esign = 1.0  # square norms of xi_bar and its rotation
    else:
        sphere = GraphChart(1.0, dsph, lorentz=True)
        hs = np.ones(dsph)
        hs[-2:] = -1.0
        e2 = 1.0
        esign = -1.0
    source = profile.source
    hcol = hs[:, None]

    def pieces(u):
        u = stack(u)
        t, y = u[0], u[1:]
        nv, dn = sphere.fn_jac(y)
        D = concat([nv[:, None], t * dn], axis=1)
        dqdt = profile.dqdt(t)
        z = stack([dqdt] + [0.0] * (m - 1))
        return u, nv, source.tp(t), dqdt, D, z

    def metric_fn(u):
        u, nv, tp, dqdt, D, z = pieces(u)
        hD = weigh(hcol, D)
        gb = contract(hD[:, :, None], D[:, None, :]) + e2 * (z[:, None] * z)
        eb = tp * gb[:, 0]
        et = contract(hD, apply_j0(nv)[:, None])
        w = (tp - 1.0) if tag in ("I", "II") else (1.0 - tp)
        return gb + w * (eb[:, None] * eb + et[:, None] * et)

    def structure_fn(u):
        u, nv, tp, dqdt, D, z = pieces(u)
        jn = apply_j0(nv)[:, None]
        qp = dqdt * tp
        xib = tp * nv[:, None]
        hD = weigh(hcol, D)
        acf = esign * (contract(hD, xib) + e2 * z * qp)
        bcf = esign * contract(hD, jn)
        jwd = apply_j0(D - acf * xib - bcf * jn)
        images = acf * jn - bcf * xib + jwd
        M = contract(D[:, :, None], D[:, None, :]) + z[:, None] * z
        B = (contract(D[:, :, None], images[:, None, :])
             + z[:, None] * (-bcf * qp))
        if not isinstance(u, MultiDual):
            return np.linalg.solve(M, B)
        return _solve_first_jet(M, B, u)

    def xi_field(u):
        tp = source.tp(u[0])
        if tag == "III":
            head = 0.0 - gsqrt(0.0 - tp)
        else:
            head = gsqrt(tp)
        return [head] + [0.0] * (m - 1)

    metric = MetricField(metric_fn, m,
                         name=f"rotational-{tag}[{source.describe()}]",
                         complex_structure=structure_fn)
    return metric, xi_field, sphere


def _solve_first_jet(M, B, seeds: MultiDual):
    """X with M X = B, for matrices M and B of order-1 duals with the
    direction columns and points axes of the coordinate vector ``seeds``,
    at every point: the value by ``np.linalg.solve``, then the partials
    from M dX = dB - dM X with the same matrix."""
    if seeds.m != 1:
        raise ValueError("the structure solve takes first jets only")
    lead, p = seeds.c.shape[1:-2], seeds.c.shape[-1]
    Mc, Bc = coefficients(M, 1, p, lead), coefficients(B, 1, p, lead)
    M0 = Mc[..., 0, 0]
    dM, dB = (np.moveaxis(c[..., 1, :], -1, -3) for c in (Mc, Bc))
    X = np.linalg.solve(M0, Bc[..., 0, 0])
    dX = np.linalg.solve(M0[..., None, :, :], dB - dM @ X[..., None, :, :])
    out = np.empty(X.shape + (2, p))
    out[..., 0, :] = X[..., None]
    out[..., 1, :] = np.moveaxis(dX, -3, -1)
    return MultiDual(np.moveaxis(out, (-4, -3), (0, 1)), 1)


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

    The sphere chart coordinates of every point are drawn first; a draw
    that lands outside the chart margin is redrawn, up to 40 times.  The
    points then run through one batched pass: one evaluation of the chart
    metric on order-2 duals and one of its structure on order-1 duals give
    their jets at all points, and the curvature, Kahler defect, frame,
    shape data and fit kernels take the points axis.  The first point, in
    order, that fails a gate raises its error.
    """
    metric, xi_field, sphere = rotation_metric(profile, n)
    lo, hi = profile.t0, profile.t1
    pad = 0.08 * (hi - lo)
    rng = np.random.default_rng(seed)
    U = np.array([_chart_point(sphere, profile.rotation_type, n, t, rng)
                  for t in np.linspace(lo + pad, hi - pad, count)]
                 ).reshape(count, 2 * n)
    sieve = Sieve(count)
    jet = point_jets(metric, U, sieve)
    R = curvature_tensors(jet)
    keep = sieve.drop([curvature_gate(R)])
    jet, R = jet.rows(keep), R[keep]
    xi, dxi = eval_with_partials(xi_field, jet.point)
    F, signs, frame_gates = adapted_frames(jet.G, jet.J, xi)
    k, *_, shape_gates = shape_arrays(jet, F, signs, dxi)
    sieve.drop(shape_gates + frame_gates)
    for error in sieve.errors:
        if error is not None:
            raise error
    coeffs, residual = frame_fit(R, F, signs)
    eigs = np.linalg.eigvalsh(jet.G).min(axis=1)
    pts = []
    for u0, fit, res, kk, eig, kd in zip(U, coeffs.tolist(), residual.tolist(),
                                         k.tolist(), eigs.tolist(),
                                         kahler_defect(jet).tolist()):
        dec = QCDecomposition.of(*fit, res, kk)
        closed = profile.coefficients_at(float(u0[0]))
        delta = max(abs(dec.a - closed.a), abs(dec.b - closed.b),
                    abs(dec.c - closed.c))
        pts.append(EmbedPoint(
            t=float(u0[0]), u0=u0, fitted=dec, closed=closed,
            coefficient_delta=float(delta), k_delta=float(abs(dec.k - closed.k)),
            min_eigenvalue=eig, kahler_defect=kd))
    return EmbedVerification(profile.rotation_type, n, tuple(pts))


def _chart_point(sphere, rotation_type: str, n: int, t: float, rng):
    """The chart point (t, y) with y drawn until it clears the chart margin
    of ``sphere``, checked in floats."""
    for _ in range(40):
        y = Y_SCALE * rng.normal(size=2 * n - 1)
        if rotation_type == "III":
            y[-1] *= 0.5
        try:
            sphere.guard(y)
        except ChartError:
            continue
        return np.concatenate([[t], y])
    raise ChartError("no admissible sphere point after 40 draws")
