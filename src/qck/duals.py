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

Component axes.  A MultiDual may also hold a whole vector or matrix of
scalars: its payload is then ``(components..., points..., 2**m, P)``, the
component axes first, as ``_seeded_coordinates`` lays out its seeds.  A
scalar dual, a float, and an array over the points then broadcast onto
every component, and two arrays of duals broadcast their component axes as
numpy does, so a product of arrays is one dual product over all entries.
Indexing takes entries (``MultiDual.__getitem__``); ``stack`` builds one
array of a nested list of scalars, ``concat`` joins arrays along a
component axis, ``weigh`` scales entries by a float array over the
component axes, and ``contract`` sums a product over one component axis.
Each keeps the operations and summation order of the loop of scalar duals
it replaces, so it rounds as that loop does.  A field that returns one
array of duals feeds the jet kernels as a nested list of scalars does.

The library builds orders 1 and 2, each on a points axis, with one kernel
per order: ``eval_with_partials`` below takes the first jet of a field of
any output shape (a vector field, a complex structure), and
``qck.curvature`` the second jet of a metric; each seeds every direction
and every point it needs in one evaluation, through ``_seeded_coordinates``.
Higher orders appear only in the tests.  The implementation is generic in
``m``, P and the leading axes.

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
    any, run over points, after the component axes of an array of such
    scalars."""

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

    def __getitem__(self, key) -> "MultiDual":
        """The entries ``key`` of the component axes, which lead the
        payload, by numpy indexing: an entry of a vector, a row or block
        of a matrix, entries picked by index arrays, or a new component
        axis of length 1 with None."""
        return MultiDual(self.c[key], self.m)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiDual") -> None:
        if other.m != self.m:
            raise ValueError(f"generator count mismatch: {self.m} vs {other.m}")

    def _plus(self, x) -> "MultiDual":
        """This plus a float, or an array over the points, on the value row."""
        if isinstance(x, np.ndarray) and x.ndim:
            if x.shape == self.c.shape[:-2]:
                c = self.c.copy()
            else:
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
    """Payloads of a (nested) list or array of floats and MultiDuals, or of
    one MultiDual with component axes.

    Returns an array of shape ``lead + shape(ys) + (2**m, p)``, with lead the
    leading axes of the MultiDuals' payloads broadcast with ``lead`` (none
    when neither has any): MultiDuals with fewer generators are lifted, and
    one-column payloads and floats are broadcast to all p columns and to
    every point (a float only has a value part).  The seeds' points axes
    passed as ``lead`` keep them where ys holds no MultiDual, as for a
    constant field.  A MultiDual ys has its component axes, shape(ys),
    first and then one points axis per axis of ``lead``; they move behind
    the points axes.
    """
    if isinstance(ys, MultiDual):
        rank = ys.c.ndim - 2 - len(lead)
        c = np.moveaxis(ys.c, range(rank), range(-2 - rank, -2))
        lead = np.broadcast_shapes(lead, c.shape[:len(lead)])
        return np.broadcast_to(c, lead + c.shape[len(lead):-1] + (p,))
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


# -- component axes ------------------------------------------------------------


def stack(xs):
    """One array of the nested list ``xs`` of floats and scalar MultiDuals,
    whose axes become the component axes: a float array where every entry
    is a float, and otherwise one MultiDual whose payload has those axes
    first, then the entries' points axes and payload axes, broadcast.  A
    float enters as a constant.  A MultiDual or an array passes through."""
    if isinstance(xs, (MultiDual, np.ndarray)):
        return xs
    objs = np.asarray(xs, dtype=object)
    duals = [y for y in objs.flat if isinstance(y, MultiDual)]
    if not duals:
        return objs.astype(float)
    for y in duals:
        duals[0]._check(y)
    tail = np.broadcast_shapes(*(y.c.shape for y in duals))
    out = np.zeros(objs.shape + tail)
    flat = out.reshape((objs.size,) + tail)
    for k, y in enumerate(objs.flat):
        if isinstance(y, MultiDual):
            flat[k] = y.c
        else:
            flat[k, ..., 0, :] = y
    return MultiDual(out, duals[0].m)


def concat(parts, axis: int = 0):
    """``np.concatenate`` along the component axis ``axis`` of float arrays
    and MultiDuals with the same component, points and direction axes: a
    float array enters as a constant at every point and in every column."""
    duals = [x for x in parts if isinstance(x, MultiDual)]
    if not duals:
        return np.concatenate(parts, axis)
    ref = duals[0].c

    def payload(x):
        if isinstance(x, MultiDual):
            return x.c
        x = np.asarray(x, dtype=float)
        c = np.zeros(x.shape + ref.shape[x.ndim:])
        c[..., 0, :] = x.reshape(x.shape + (1,) * (ref.ndim - 1 - x.ndim))
        return c

    return MultiDual(np.concatenate([payload(x) for x in parts], axis),
                     duals[0].m)


def weigh(w, x):
    """x, a float array or a MultiDual, times the float array w, whose axes
    are the first (component) axes of x: w scales each entry of x, and its
    size-1 axes broadcast."""
    w = np.asarray(w, dtype=float)
    c = x.c if isinstance(x, MultiDual) else np.asarray(x)
    scaled = c * w.reshape(w.shape + (1,) * (c.ndim - w.ndim))
    return MultiDual(scaled, x.m) if isinstance(x, MultiDual) else scaled


def contract(a, b, axis: int = 0):
    """sum_i a_i b_i over the component axis ``axis`` of the broadcast
    product of a and b, float arrays or MultiDuals with the same component
    axes (a float array meets a MultiDual as in ``weigh``).  The slices of
    the product are added first to last, so the result is that of the loop
    acc = acc + a_i * b_i to the bit, at every entry and point."""
    if isinstance(a, np.ndarray) and isinstance(b, MultiDual):
        prod = weigh(a, b)
    elif isinstance(b, np.ndarray) and isinstance(a, MultiDual):
        prod = weigh(b, a)
    else:
        prod = a * b
    c = prod.c if isinstance(prod, MultiDual) else prod
    at = (slice(None),) * axis
    acc = c[at + (0,)]
    for i in range(1, c.shape[axis]):
        acc = acc + c[at + (i,)]
    return MultiDual(acc, prod.m) if isinstance(prod, MultiDual) else acc


def _seeded_coordinates(X, m: int, p: int) -> np.ndarray:
    """Payloads (d, ..., 2**m, p) holding the coordinates of the point x,
    (d,), or of each row of X, (..., d), in every column and no derivative
    part yet: the seeds of a jet, whose kernel sets the derivative parts."""
    X = np.asarray(X, dtype=float)
    seeds = np.zeros(X.shape[-1:] + X.shape[:-1] + (1 << m, p))
    seeds[..., 0, :] = np.moveaxis(X, -1, 0)[..., None]
    return seeds


def eval_with_partials(fn, xs):
    """Evaluate fn(list of scalars) -> scalars of any nesting (a vector, a
    matrix, ...), or one MultiDual with component axes, together with all
    partials at the float point ``xs``, (d,), or at every row of points
    xs, (..., d).

    One evaluation: coordinate j carries the generator in direction column
    j, so every partial at every point comes out of the same call.  Returns
    (values, partials), arrays with values[..., i] = fn_i and
    partials[..., j, i] = d fn_i / d x_j, the index i standing for all the
    output's axes: the partials axis follows the points axes.
    """
    X = np.asarray(xs, dtype=float)
    d = X.shape[-1]
    seeds = _seeded_coordinates(X, 1, d)
    seeds[np.arange(d), ..., 1, np.arange(d)] = 1.0
    out = coefficients(fn([MultiDual(s, 1) for s in seeds]), 1, d, X.shape[:-1])
    # contiguous, so that a point's rows lie alike in every batch
    return (np.ascontiguousarray(out[..., 0, 0]),
            np.ascontiguousarray(np.moveaxis(out[..., 1, :], -1, X.ndim - 1)))


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
