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

The payload is an array of shape ``(2**m, P)``: P direction columns that share
one value part (row 0 is the same in every column).  Each column is seeded
with its own choice of coordinates, so a single evaluation of a function
carries P directional derivatives at once (vector forward mode, after
Griewank & Walther, *Evaluating Derivatives*; with m = 2 a column is a
hyper-dual number of Fike & Alonso).  P = 1 is the plain scalar dual, and
operands with one column broadcast against operands with P.  The metric jets
of ``qck.curvature`` and ``eval_with_partials`` below seed every direction
they need in one evaluation this way.

The library itself builds orders 1 (first jets, vector fields) and 2 (metric
second jets) on float points; higher orders appear only in the tests.  The
implementation is generic in ``m`` and P.

The module also provides scalar-generic helpers (``gsqrt``, ``glog``, ...)
and a scalar-generic linear solver so that the same evaluator code runs on
floats and on dual numbers.
"""

from __future__ import annotations

import math

import numpy as np


class _MulTables(dict):
    """Multiplication tables by generator count m, built on first use.

    The entry for m is (ia, ib, summed) over the disjoint subset pairs
    (a, b) of {1..m}: the product of payloads A and B has the coefficient
    rows ``summed @ (A[ia] * B[ib])``, where the 0/1 matrix ``summed`` adds up
    the pairs whose union is each output mask.  This is ``np.bincount`` by
    output mask, on 2-D payloads.
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


class MultiDual:
    """Scalar with nilpotent generators: a value part plus P derivative
    columns, stored as a ``(2**m, P)`` payload."""

    __slots__ = ("c", "m")

    def __init__(self, coeffs, m: int):
        self.c = np.asarray(coeffs, dtype=float)  # shape (2**m, P)
        self.m = m

    # -- construction -----------------------------------------------------

    @staticmethod
    def constant(value: float, m: int) -> "MultiDual":
        c = np.zeros((1 << m, 1))
        c[0] = value
        return MultiDual(c, m)

    @property
    def value(self) -> float:
        return float(self.c[0, 0])

    def coeff(self, mask: int) -> float:
        """Coefficient of a subset mask in the first direction column."""
        return float(self.c[mask, 0])

    def __repr__(self):
        return f"MultiDual(m={self.m}, c={self.c!r})"

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "MultiDual") -> None:
        if other.m != self.m:
            raise ValueError(f"generator count mismatch: {self.m} vs {other.m}")

    def __add__(self, other):
        if isinstance(other, MultiDual):
            self._check(other)
            return MultiDual(self.c + other.c, self.m)
        c = self.c.copy()
        c[0] += float(other)
        return MultiDual(c, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, MultiDual):
            self._check(other)
            return MultiDual(self.c - other.c, self.m)
        c = self.c.copy()
        c[0] -= float(other)
        return MultiDual(c, self.m)

    def __rsub__(self, other):
        c = -self.c
        c[0] += float(other)
        return MultiDual(c, self.m)

    def __neg__(self):
        return MultiDual(-self.c, self.m)

    def __mul__(self, other):
        if not isinstance(other, MultiDual):
            return MultiDual(self.c * float(other), self.m)
        self._check(other)
        ia, ib, summed = _MUL_TABLES[self.m]
        prod = self.c.take(ia, 0) * other.c.take(ib, 0)
        return MultiDual(np.dot(summed, prod), self.m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, MultiDual):
            return MultiDual(self.c / float(other), self.m)
        return self * other._inverse()

    def __rtruediv__(self, other):
        return self._inverse() * float(other)

    def _inverse(self) -> "MultiDual":
        v = self.value
        if v == 0.0:
            raise ZeroDivisionError("division by dual with zero value part")
        ders = [(-1.0) ** k * math.factorial(k) / v ** (k + 1) for k in range(self.m + 1)]
        ders[0] = 1.0 / v
        return self.apply_series(ders)

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
        v = self.value
        ders = []
        fac = 1.0
        for k in range(self.m + 1):
            ders.append(fac * v ** (p - k))
            fac *= p - k
        return self.apply_series(ders)

    # -- analytic functions -------------------------------------------------

    def apply_series(self, ders) -> "MultiDual":
        """Compose with f given f, f', f'', ... evaluated at the value part.

        Horner in the nilpotent part n: f(v + n) = sum(ders[k] n^k / k!) for
        k <= m, since n^(m+1) = 0; m - 1 dual products in all.
        """
        nil = self.c.copy()
        nil[0] = 0.0
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


def value(x) -> float:
    """Value part of a float or MultiDual."""
    return x.value if isinstance(x, MultiDual) else float(x)


def coefficients(ys, m: int, p: int) -> np.ndarray:
    """Payloads of a (nested) list or array of floats and MultiDuals.

    Returns an array of shape ``shape(ys) + (2**m, p)``: MultiDuals with fewer
    generators are lifted, one-column payloads and floats are broadcast to
    all p columns (a float only has a value part).
    """
    objs = np.asarray(ys, dtype=object)
    out = np.zeros(objs.shape + (1 << m, p))
    flat = out.reshape(-1, 1 << m, p)
    for k, y in enumerate(objs.flat):
        if isinstance(y, MultiDual):
            flat[k, : y.c.shape[0]] = y.c
        else:
            flat[k, 0] = y
    return out


def eval_with_partials(fn, xs):
    """Evaluate fn(list of scalars) -> list of scalars together with all
    partials at the float point ``xs``.

    One evaluation: coordinate j carries the generator in direction column
    j, so every partial comes out of the same call.  Returns (values, cols)
    with cols[j][i] = d fn_i / d x_j, all floats.
    """
    d = len(xs)
    args = []
    for j, x in enumerate(xs):
        c = np.zeros((2, d))
        c[0] = float(x)
        c[1, j] = 1.0
        args.append(MultiDual(c, 1))
    out = coefficients(fn(args), 1, d)
    vals = [float(y[0, 0]) for y in out]
    cols = [[float(y[1, j]) for y in out] for j in range(d)]
    return vals, cols


# -- scalar-generic math -----------------------------------------------------


def gsqrt(x):
    if not isinstance(x, MultiDual):
        return math.sqrt(x)
    v = x.value
    if v <= 0.0:
        raise ValueError("gsqrt requires positive value part")
    ders = [math.sqrt(v)]
    fac = 0.5
    for k in range(1, x.m + 1):
        ders.append(fac * v ** (0.5 - k))
        fac *= 0.5 - k
    return x.apply_series(ders)


def glog(x):
    if not isinstance(x, MultiDual):
        return math.log(x)
    v = x.value
    if v <= 0.0:
        raise ValueError("glog requires positive value part")
    ders = [math.log(v)]
    for k in range(1, x.m + 1):
        ders.append((-1.0) ** (k - 1) * math.factorial(k - 1) / v ** k)
    return x.apply_series(ders)


def gatan(x):
    if not isinstance(x, MultiDual):
        return math.atan(x)
    v = x.value
    d = 1.0 + v * v
    ders = [
        math.atan(v),
        1.0 / d,
        -2.0 * v / d**2,
        (6.0 * v * v - 2.0) / d**3,
        24.0 * v * (1.0 - v * v) / d**4,
        24.0 * (5.0 * v**4 - 10.0 * v**2 + 1.0) / d**5,
    ]
    if x.m + 1 > len(ders):
        raise ValueError("gatan supports at most 5 generators")
    return x.apply_series(ders[: x.m + 1])


# -- scalar-generic linear algebra -------------------------------------------


def solve_generic(A, b):
    """Solve A x = b by Gaussian elimination, pivoting on value parts.

    A is a square list-of-lists of floats or MultiDuals; b is a list (single
    right-hand side) or list-of-lists (columns stacked as rows of the output).
    """
    n = len(A)
    single = not isinstance(b[0], (list, tuple))
    rhs = [[x] for x in b] if single else [list(row) for row in b]
    a = [list(row) for row in A]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(value(a[r][col])))
        if abs(value(a[piv][col])) < 1e-300:
            raise ZeroDivisionError("singular matrix in solve_generic")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1.0 / a[col][col] if isinstance(a[col][col], MultiDual) else 1.0 / a[col][col]
        for r in range(n):
            if r == col:
                continue
            f = a[r][col] * inv
            if isinstance(f, float) and f == 0.0:
                continue
            for cc in range(col, n):
                a[r][cc] = a[r][cc] - f * a[col][cc]
            for cc in range(len(rhs[0])):
                rhs[r][cc] = rhs[r][cc] - f * rhs[col][cc]
    out = [[rhs[r][cc] / a[r][r] for cc in range(len(rhs[0]))] for r in range(n)]
    if single:
        return [row[0] for row in out]
    return out
