import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck.charts import SphereGraphChart
from qck.duals import (
    MultiDual,
    eval_with_partials,
    gatan,
    gcos,
    generator,
    gexp,
    glog,
    gsin,
    gsqrt,
    solve_generic,
    value,
)

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

    @pytest.mark.parametrize("m0,p0", [(1, 1), (2, 3)])
    def test_eval_with_partials_on_dual_inputs(self, m0, p0):
        # inputs that already carry m0 generators in p0 columns, as chart
        # maps receive them inside a metric jet; each partial is checked
        # against a central difference in its own input slot, taken on the
        # dual payloads themselves
        rng = np.random.default_rng(10 * m0 + p0)

        def fn(xs):
            x, y, z = xs
            return [x * y + gsqrt(1.0 + z * z), glog(2.0 + x * x) / (1.5 + y * y),
                    gexp(0.5 * x) * gsin(z)]

        def payload(v):
            rest = rng.normal(size=((1 << m0) - 1, p0))
            return np.vstack([np.full((1, p0), v), rest])

        xs = [MultiDual(payload(v), m0) for v in (0.3, -0.7, 1.1)]
        vals, cols = eval_with_partials(fn, xs)
        for v, want in zip(vals, fn(xs)):
            assert v.m == m0
            assert np.allclose(v.c, want.c, rtol=0, atol=1e-14)
        h = 1e-5
        for j in range(3):
            up = [x + h if k == j else x for k, x in enumerate(xs)]
            down = [x - h if k == j else x for k, x in enumerate(xs)]
            for i, (a, b) in enumerate(zip(fn(up), fn(down))):
                want = (a.c - b.c) / (2 * h)
                assert cols[j][i].m == m0
                assert np.allclose(cols[j][i].c, want, rtol=0, atol=1e-8)

    def test_eval_with_partials_of_a_chart_on_dual_inputs(self):
        ch = SphereGraphChart(2.0, 5)
        u = [0.3, -0.4, 0.25, 0.1]
        us = [c + generator(0, 1) if k == 2 else c for k, c in enumerate(u)]
        _, cols = eval_with_partials(ch.fn, us)
        jc = ch.jac(u)
        h = 1e-6
        up = list(u)
        up[2] += h
        down = list(u)
        down[2] -= h
        jup, jdown = ch.jac(up), ch.jac(down)
        for j in range(4):
            for i in range(5):
                assert cols[j][i].value == pytest.approx(jc[i][j], abs=1e-13)
                slope = (jup[i][j] - jdown[i][j]) / (2 * h)
                assert cols[j][i].coeff(1) == pytest.approx(slope, abs=1e-8)

    def test_solve_generic_matches_numpy(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(4, 4))
        A = A + 4 * np.eye(4)
        b = rng.normal(size=4)
        got = solve_generic([[A[i, j] for j in range(4)] for i in range(4)], list(b))
        want = np.linalg.solve(A, b)
        assert np.allclose([value(g) for g in got], want, atol=1e-12)

    def test_solve_generic_propagates_duals(self):
        # solve (2 + eps) x = 4  =>  x = 2 - eps
        eps = generator(0, 1)
        x = solve_generic([[2.0 + eps]], [4.0])[0]
        assert value(x) == pytest.approx(2.0)
        assert x.coeff(1) == pytest.approx(-1.0)


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
