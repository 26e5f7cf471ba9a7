import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck.duals import (
    MultiDual,
    coefficients,
    eval_with_partials,
    gatan,
    glog,
    gsqrt,
    value,
)
from oracles import gcos, generator, gexp, gsin

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
nonzero = st.floats(min_value=0.25, max_value=10.0).map(lambda v: v)


def d1(f, x):
    g = x + generator(0, 1)
    return f(g).coeff(1)


def fd(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestArithmetic:
    @given(finite, finite)
    def test_add_mul_match_floats(self, a, b):
        ga = MultiDual.constant(a, 2)
        gb = MultiDual.constant(b, 2)
        assert value(ga + gb) == pytest.approx(a + b)
        assert value(ga * gb) == pytest.approx(a * b)
        assert value(ga - gb) == pytest.approx(a - b)

    @given(finite)
    def test_product_rule(self, x):
        # d/dx [x * sin(x)] = sin(x) + x cos(x)
        got = d1(lambda t: t * gsin(t), x)
        assert got == pytest.approx(math.sin(x) + x * math.cos(x), abs=1e-12)

    @given(nonzero)
    def test_quotient_and_log(self, x):
        got = d1(lambda t: glog(t) / t, x)
        want = (1 - math.log(x)) / x**2
        assert got == pytest.approx(want, rel=1e-12)

    def test_division_by_dual(self):
        x = 3.0 + generator(0, 1)
        y = 1.0 / x
        assert value(y) == pytest.approx(1 / 3)
        assert y.coeff(1) == pytest.approx(-1 / 9)

    @given(st.floats(min_value=0.5, max_value=4.0), st.integers(min_value=2, max_value=5))
    def test_integer_powers(self, x, k):
        got = d1(lambda t: t**k, x)
        assert got == pytest.approx(k * x ** (k - 1), rel=1e-12)

    def test_fractional_power(self):
        x = 4.0 + generator(0, 1)
        y = x**0.5
        assert value(y) == pytest.approx(2.0)
        assert y.coeff(1) == pytest.approx(0.25)


class TestHigherOrder:
    def test_second_derivative_of_exp(self):
        # two distinct generators at the same slot value give the mixed
        # coefficient d^2/dxdy exp(x*y) at x=y: here a pure second partial
        x = 1.5 + generator(0, 2) + generator(1, 2)
        y = gexp(x)
        full = y.coeff(3)
        assert full == pytest.approx(math.exp(1.5), rel=1e-12)

    def test_mixed_partial(self):
        # f(a, b) = a^2 b^3, d2f/dadb = 6 a b^2
        a = 2.0 + generator(0, 2)
        b = 3.0 + generator(1, 2)
        f = a * a * b * b * b
        assert f.coeff(3) == pytest.approx(6 * 2.0 * 9.0)

    def test_third_mixed_partial(self):
        # f = sin(x+y+z), mixed third partial is -cos(x+y+z), here at 0.3
        s = 0.3 + generator(0, 3)
        s = s + generator(1, 3)
        s = s + generator(2, 3)
        f = gsin(s)
        assert f.coeff(7) == pytest.approx(-math.cos(0.3), abs=1e-12)

    @given(st.floats(min_value=-1.2, max_value=1.2))
    def test_atan_second(self, x):
        g = x + generator(0, 2) + generator(1, 2)
        got = gatan(g).coeff(3)
        want = -2 * x / (1 + x * x) ** 2
        assert got == pytest.approx(want, abs=1e-10)


class TestHelpers:
    def test_eval_with_partials_matches_jacobian(self):
        def fn(xs):
            x, y = xs
            return [x * x + y, gsin(x * y)]

        vals, cols = eval_with_partials(fn, [0.7, -0.4])
        J = np.column_stack(cols)
        assert vals[0] == pytest.approx(0.49 - 0.4)
        want = np.array([[1.4, 1.0],
                         [-0.4 * math.cos(-0.28), 0.7 * math.cos(-0.28)]])
        assert np.allclose(J, want, atol=1e-12)


class TestAgainstFiniteDifferences:
    @given(st.floats(min_value=-2.0, max_value=2.0))
    @settings(max_examples=25)
    def test_composite(self, x):
        def f(t):
            return gexp(gsin(t) * 0.5) + gcos(t * t)

        def ff(t):
            return math.exp(math.sin(t) * 0.5) + math.cos(t * t)

        assert d1(f, x) == pytest.approx(fd(ff, x), abs=1e-6)

    def test_sqrt_chain(self):
        def f(t):
            return gsqrt(1.0 + t * t)

        x = 0.8
        assert d1(f, x) == pytest.approx(x / math.sqrt(1 + x * x), rel=1e-12)


def _payload(rng, lead, m, p, lo=0.25, hi=4.0):
    """A payload (lead..., 2**m, p) whose value row is one value per point
    in [lo, hi], shared by its columns, over random derivative rows."""
    c = rng.normal(size=lead + (1 << m, p))
    c[..., 0, :] = rng.uniform(lo, hi, size=lead)[..., None]
    return c


class TestPointsAxis:
    """Every operation on a payload with a points axis is the same operation
    on each point's 2-D payload, to the bit."""

    @given(st.sampled_from([1, 2, 3]), st.integers(1, 5), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_rows_match_two_dimensional_payloads(self, m, count, p, seed):
        rng = np.random.default_rng(seed)
        A, B = (_payload(rng, (count,), m, p) for _ in range(2))
        w = rng.uniform(-3.0, 3.0, size=count)
        f = float(rng.uniform(0.5, 2.0))
        ops = {
            "add": lambda a, b, s: a + b,
            "sub": lambda a, b, s: a - b,
            "mul": lambda a, b, s: a * b,
            "div": lambda a, b, s: a / b,
            "add float": lambda a, b, s: a + f,
            "float sub": lambda a, b, s: f - a,
            "float div": lambda a, b, s: f / a,
            "add per point": lambda a, b, s: s + a,
            "sub per point": lambda a, b, s: a - s,
            "mul per point": lambda a, b, s: s * a,
            "div per point": lambda a, b, s: a / s,
            "int power": lambda a, b, s: a ** 3,
            "negative power": lambda a, b, s: a ** -2,
            "float power": lambda a, b, s: a ** 1.5,
            "gsqrt": lambda a, b, s: gsqrt(a),
            "glog": lambda a, b, s: glog(a),
            "gatan": lambda a, b, s: gatan(a - 2.0),
        }
        for name, op in ops.items():
            batch = op(MultiDual(A, m), MultiDual(B, m), w)
            assert batch.c.shape == (count, 1 << m, p), name
            for k in range(count):
                row = op(MultiDual(A[k], m), MultiDual(B[k], m), float(w[k]))
                assert np.array_equal(batch.c[k], row.c), (name, k)

    def test_constants_broadcast_over_points(self):
        rng = np.random.default_rng(3)
        x = MultiDual(_payload(rng, (4,), 2, 3), 2)
        one = MultiDual.constant(1.0, 2)
        for got, want in ((x * one, x.c), (one * x, x.c), (x + one - one, x.c)):
            assert np.array_equal(got.c, want)
        assert x.value.shape == (4,)
        assert np.array_equal(x.value, x.c[:, 0, 0])

    def test_domain_checks_name_the_failing_point(self):
        rng = np.random.default_rng(4)
        c = _payload(rng, (3,), 1, 2)
        c[1, 0] = -1.0
        with pytest.raises(ValueError, match="gsqrt"):
            gsqrt(MultiDual(c, 1))
        c[1, 0] = 0.0
        with pytest.raises(ZeroDivisionError):
            1.0 / MultiDual(c, 1)

    def test_coefficients_keep_the_leading_axes(self):
        rng = np.random.default_rng(5)
        x = MultiDual(_payload(rng, (3,), 1, 2), 1)
        out = coefficients([[x, 2.0], [x * x, MultiDual.constant(1.5, 1)]], 1, 2)
        assert out.shape == (3, 2, 2, 2, 2)
        assert np.array_equal(out[:, 0, 0], x.c)
        assert np.array_equal(out[:, 1, 0], (x * x).c)
        assert np.all(out[:, 0, 1, 0] == 2.0) and np.all(out[:, 0, 1, 1:] == 0.0)
        assert np.all(out[:, 1, 1, 0] == 1.5)

    def test_eval_with_partials_over_points(self):
        def fn(xs):
            x, y = xs
            return [x * x + y, gatan(x * y), 1.0]

        X = np.random.default_rng(6).normal(size=(4, 2))
        vals, cols = eval_with_partials(fn, X)
        assert vals.shape == (4, 3) and cols.shape == (4, 2, 3)
        for k, x in enumerate(X):
            v, c = eval_with_partials(fn, list(x))
            assert np.array_equal(vals[k], v) and np.array_equal(cols[k], c)
