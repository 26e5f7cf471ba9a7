"""Forward-mode automatic differentiation on nilpotent multi-dual numbers.

A ``MultiDual`` carries a truncated Taylor expansion in ``m`` anticommuting-free
nilpotent generators e_1, ..., e_m with e_k**2 = 0.  Coefficients are indexed by
subset bitmask, so a value with ``m`` generators stores ``2**m`` coefficients.
Seeding generator ``k`` on coordinate ``j`` and reading the coefficient of the
full mask ``e_1 e_2 ... e_m`` after evaluating a composite function yields the
exact mixed partial derivative of order ``m`` (up to floating point roundoff,
with no step size to tune).  Repeating a coordinate across slots yields
repeated partials, e.g. two slots on the same coordinate give the second pure
partial.

The payload is an array of shape ``(..., 2**m, P)``: P direction columns that
share one value part (row 0 is the same in every column).  Each column is
seeded with its own choice of coordinates, so a single evaluation of a
function carries P directional derivatives at once (vector forward mode,
after Griewank & Walther, *Evaluating Derivatives*; with m = 2 a column is a
hyper-dual number of Fike & Alonso).  P = 1 is the plain scalar dual, and
operands with one column broadcast against operands with P.  The leading
axes, when there are any, run over points: one evaluation of a function on
such duals differentiates it at every point at once, and a float, or an
array over the points, acts on the value row.  Products use the same tables
at every point, and an analytic function takes its derivative series point
by point with the float functions, so each point of a batch rounds exactly
as a 2-D payload of that point alone does.

The library builds orders 1 (first jets, vector fields) and 2 (metric second
jets), each on a points axis: ``qck.curvature`` seeds every direction and
every point it needs in one evaluation, and ``eval_with_partials`` below
does the same for vector fields.  Higher orders appear only in the tests.
The implementation is generic in ``m``, P and the leading axes.

The module also provides scalar-generic helpers (``gsqrt``, ``glog``, ...)
so that the same evaluator code runs on floats and on dual numbers.
"""

from __future__ import annotations

import math

import numpy as np


class _MulTables(dict):
    """Multiplication tables by generator count m, built on first use.

    The entry for m is (ia, ib, summed) over the disjoint subset pairs
    (a, b) of {1..m}: the product of payloads A and B has the coefficient
    rows ``summed @ (A[..., ia, :] * B[..., ib, :])``, where the 0/1 matrix
    ``summed`` adds up the pairs whose union is each output mask.  This is
    ``np.bincount`` by output mask, at every point.
    """

    def __missing__(self, m: int):
        size = 1 << m
        pairs = [(a, b) for a in range(size) for b in range(size) if a & b == 0]
        ia, ib = (np.array(col) for col in zip(*pairs))
        summed = np.zeros((size, len(pairs)))
        summed[ia | ib, np.arange(len(pairs))] = 1.0
        self[m] = (ia, ib, summed)
        return self[m]


_MUL_TABLES = _MulTables()


def _scale(x):
    """A float, or an array over the points shaped to scale payloads."""
    if isinstance(x, np.ndarray) and x.ndim:
        return x[..., None, None]
    return float(x)


class MultiDual:
    """Scalar with nilpotent generators: a value part plus P derivative
    columns, stored as a ``(..., 2**m, P)`` payload whose leading axes, if
    any, run over points."""

    __slots__ = ("c", "m")
    # numpy operands defer to the reflected operations below
    __array_ufunc__ = None

    def __init__(self, coeffs, m: int):
        self.c = np.asarray(coeffs, dtype=float)  # shape (..., 2**m, P)
        self.m = m

    # -- construction -----------------------------------------------------

    @staticmethod
    def constant(value: float, m: int) -> "MultiDual":
        c = np.zeros((1 << m, 1))
        c[0] = value
        return MultiDual(c, m)

    @property
    def value(self):
        """The value part: a float, or an array over the leading axes."""
        v = self.c[..., 0, 0]
        return float(v) if v.ndim == 0 else v.copy()

    def coeff(self, mask: int):
        """Coefficient of a subset mask in the first direction column."""
        v = self.c[..., mask, 0]
        return float(v) if v.ndim == 0 else v.copy()

    def __repr__(self):
        return f"MultiDual(m={self.m}, c={self.c!r})"

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiDual") -> None:
        if other.m != self.m:
            raise ValueError(f"generator count mismatch: {self.m} vs {other.m}")

    def _plus(self, x) -> "MultiDual":
        """This plus a float, or an array over the points, on the value row."""
        if isinstance(x, np.ndarray) and x.ndim:
            lead = np.broadcast_shapes(self.c.shape[:-2], x.shape)
            c = np.array(np.broadcast_to(self.c, lead + self.c.shape[-2:]))
            c[..., 0, :] += x[..., None]
        else:
            c = self.c.copy()
            c[..., 0, :] += float(x)
        return MultiDual(c, self.m)

    def __add__(self, other):
        if isinstance(other, MultiDual):
            self._check(other)
            return MultiDual(self.c + other.c, self.m)
        return self._plus(other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, MultiDual):
            self._check(other)
            return MultiDual(self.c - other.c, self.m)
        return self._plus(-other)

    def __rsub__(self, other):
        return (-self)._plus(other)

    def __neg__(self):
        return MultiDual(-self.c, self.m)

    def __mul__(self, other):
        if not isinstance(other, MultiDual):
            return MultiDual(self.c * _scale(other), self.m)
        self._check(other)
        ia, ib, summed = _MUL_TABLES[self.m]
        prod = self.c.take(ia, -2) * other.c.take(ib, -2)
        return MultiDual(summed @ prod, self.m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, MultiDual):
            return MultiDual(self.c / _scale(other), self.m)
        return self * other._inverse()

    def __rtruediv__(self, other):
        return self._inverse() * other

    def _inverse(self) -> "MultiDual":
        return self.apply_series(_series(self, _reciprocal_ders))

    def __pow__(self, p):
        if isinstance(p, int) or (isinstance(p, float) and p.is_integer()):
            p = int(p)
            if p == 0:
                return MultiDual.constant(1.0, self.m)
            if p < 0:
                return (self ** (-p))._inverse()
            out = self
            for _ in range(p - 1):
                out = out * self
            return out

        def power_ders(v, m):
            ders = []
            fac = 1.0
            for k in range(m + 1):
                ders.append(fac * v ** (p - k))
                fac *= p - k
            return ders

        return self.apply_series(_series(self, power_ders))

    # -- analytic functions -------------------------------------------------

    def apply_series(self, ders) -> "MultiDual":
        """Compose with f given f, f', f'', ... evaluated at the value part:
        floats, or arrays over the points of a payload with leading axes.

        Horner in the nilpotent part n: f(v + n) = sum(ders[k] n^k / k!) for
        k <= m, since n^(m+1) = 0; m - 1 dual products in all.
        """
        nil = self.c.copy()
        nil[..., 0, :] = 0.0
        nil = MultiDual(nil, self.m)
        out = nil * (ders[self.m] / math.factorial(self.m))
        for k in range(self.m - 1, 0, -1):
            out = (out + ders[k] / math.factorial(k)) * nil
        return out + ders[0]

    # -- comparisons on the value part --------------------------------------

    def _cmp_val(self, other):
        return other.value if isinstance(other, MultiDual) else float(other)

    def __lt__(self, other):
        return self.value < self._cmp_val(other)

    def __le__(self, other):
        return self.value <= self._cmp_val(other)

    def __gt__(self, other):
        return self.value > self._cmp_val(other)

    def __ge__(self, other):
        return self.value >= self._cmp_val(other)


def _series(x: MultiDual, ders_at):
    """The derivative series ``ders_at(v, m)`` (a list of floats f, f', ...)
    at the value part v of x: that list at one point, or, with leading axes,
    one array over the points per order, taken point by point with the same
    float function."""
    v = x.value
    if isinstance(v, float):
        return ders_at(v, x.m)
    rows = np.array([ders_at(t, x.m) for t in v.ravel().tolist()])
    return [col.reshape(v.shape) for col in rows.reshape(-1, x.m + 1).T]


def _reciprocal_ders(v: float, m: int) -> list:
    if v == 0.0:
        raise ZeroDivisionError("division by dual with zero value part")
    ders = [(-1.0) ** k * math.factorial(k) / v ** (k + 1) for k in range(m + 1)]
    ders[0] = 1.0 / v
    return ders


def value(x):
    """Value part of a float or MultiDual: a float, or an array over the
    points of a MultiDual that has a points axis."""
    return x.value if isinstance(x, MultiDual) else float(x)


def coefficients(ys, m: int, p: int, lead: tuple = ()) -> np.ndarray:
    """Payloads of a (nested) list or array of floats and MultiDuals.

    Returns an array of shape ``lead + shape(ys) + (2**m, p)``, with lead the
    leading axes of the MultiDuals' payloads broadcast with ``lead`` (none
    when neither has any): MultiDuals with fewer generators are lifted, and
    one-column payloads and floats are broadcast to all p columns and to
    every point (a float only has a value part).  The seeds' points axes
    passed as ``lead`` keep them where ys holds no MultiDual, as for a
    constant field.
    """
    objs = np.asarray(ys, dtype=object)
    lead = np.broadcast_shapes(lead, *(y.c.shape[:-2] for y in objs.flat
                                       if isinstance(y, MultiDual)))
    out = np.zeros(objs.shape + lead + (1 << m, p))
    flat = out.reshape((objs.size,) + lead + (1 << m, p))
    for k, y in enumerate(objs.flat):
        if isinstance(y, MultiDual):
            flat[k, ..., : y.c.shape[-2], :] = y.c
        else:
            flat[k, ..., 0, :] = y
    axes = tuple(range(objs.ndim))
    return np.moveaxis(out, axes, tuple(a + len(lead) for a in axes))


def eval_with_partials(fn, xs):
    """Evaluate fn(list of scalars) -> list of scalars together with all
    partials at the float point ``xs``, (d,), or at every row of points
    xs, (..., d).

    One evaluation: coordinate j carries the generator in direction column
    j, so every partial at every point comes out of the same call.  Returns
    (values, cols), arrays with values[..., i] = fn_i and
    cols[..., j, i] = d fn_i / d x_j.
    """
    X = np.asarray(xs, dtype=float)
    d = X.shape[-1]
    seeds = np.zeros((d,) + X.shape[:-1] + (2, d))
    seeds[..., 0, :] = np.moveaxis(X, -1, 0)[..., None]
    for j in range(d):
        seeds[j, ..., 1, j] = 1.0
    out = coefficients(fn([MultiDual(s, 1) for s in seeds]), 1, d, X.shape[:-1])
    return (np.ascontiguousarray(out[..., 0, 0]),
            np.ascontiguousarray(out[..., 1, :].swapaxes(-1, -2)))


# -- scalar-generic math -----------------------------------------------------


def _sqrt_ders(v: float, m: int) -> list:
    if v <= 0.0:
        raise ValueError("gsqrt requires positive value part")
    ders = [math.sqrt(v)]
    fac = 0.5
    for k in range(1, m + 1):
        ders.append(fac * v ** (0.5 - k))
        fac *= 0.5 - k
    return ders


def gsqrt(x):
    if not isinstance(x, MultiDual):
        return math.sqrt(x)
    return x.apply_series(_series(x, _sqrt_ders))


def _log_ders(v: float, m: int) -> list:
    if v <= 0.0:
        raise ValueError("glog requires positive value part")
    ders = [math.log(v)]
    for k in range(1, m + 1):
        ders.append((-1.0) ** (k - 1) * math.factorial(k - 1) / v ** k)
    return ders


def glog(x):
    if not isinstance(x, MultiDual):
        return math.log(x)
    return x.apply_series(_series(x, _log_ders))


def _atan_ders(v: float, m: int) -> list:
    d = 1.0 + v * v
    ders = [
        math.atan(v),
        1.0 / d,
        -2.0 * v / d**2,
        (6.0 * v * v - 2.0) / d**3,
        24.0 * v * (1.0 - v * v) / d**4,
        24.0 * (5.0 * v**4 - 10.0 * v**2 + 1.0) / d**5,
    ]
    if m + 1 > len(ders):
        raise ValueError("gatan supports at most 5 generators")
    return ders[: m + 1]


def gatan(x):
    if not isinstance(x, MultiDual):
        return math.atan(x)
    return x.apply_series(_series(x, _atan_ders))
