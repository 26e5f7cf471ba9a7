import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck.core import apply_j0
from qck.duals import (
    MultiDual,
    coefficients,
    concat,
    contract,
    eval_with_partials,
    gatan,
    glog,
    gsqrt,
    stack,
    value,
    weigh,
)
from oracles import (apply_j0_looped, dual_coeff, dual_constant, gcos,
                     generator, gexp, gsin)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
nonzero = st.floats(min_value=0.25, max_value=10.0).map(lambda v: v)


def d1(f, x):
    g = x + generator(0, 1)
    return dual_coeff(f(g), 1)


def fd(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


class TestArithmetic:
    @given(finite, finite)
    def test_add_mul_match_floats(self, a, b):
        ga = dual_constant(a, 2)
        gb = dual_constant(b, 2)
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
        assert dual_coeff(y, 1) == pytest.approx(-1 / 9)

    @given(st.floats(min_value=0.5, max_value=4.0), st.integers(min_value=2, max_value=5))
    def test_integer_powers(self, x, k):
        got = d1(lambda t: t**k, x)
        assert got == pytest.approx(k * x ** (k - 1), rel=1e-12)

    @pytest.mark.parametrize("p", [0, -2, 0.5, 2.0])
    def test_powers_other_than_positive_integers_fail(self, p):
        with pytest.raises(ValueError, match="positive integer"):
            (4.0 + generator(0, 1)) ** p


class TestHigherOrder:
    def test_second_derivative_of_exp(self):
        # two distinct generators at the same slot value give the mixed
        # coefficient d^2/dxdy exp(x*y) at x=y: here a pure second partial
        x = 1.5 + generator(0, 2) + generator(1, 2)
        y = gexp(x)
        full = dual_coeff(y, 3)
        assert full == pytest.approx(math.exp(1.5), rel=1e-12)

    def test_mixed_partial(self):
        # f(a, b) = a^2 b^3, d2f/dadb = 6 a b^2
        a = 2.0 + generator(0, 2)
        b = 3.0 + generator(1, 2)
        f = a * a * b * b * b
        assert dual_coeff(f, 3) == pytest.approx(6 * 2.0 * 9.0)

    def test_third_mixed_partial(self):
        # f = sin(x+y+z), mixed third partial is -cos(x+y+z), here at 0.3
        s = 0.3 + generator(0, 3)
        s = s + generator(1, 3)
        s = s + generator(2, 3)
        f = gsin(s)
        assert dual_coeff(f, 7) == pytest.approx(-math.cos(0.3), abs=1e-12)

    @given(st.floats(min_value=-1.2, max_value=1.2))
    def test_atan_second(self, x):
        g = x + generator(0, 2) + generator(1, 2)
        got = dual_coeff(gatan(g), 3)
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
        one = dual_constant(1.0, 2)
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
        out = coefficients([[x, 2.0], [x * x, dual_constant(1.5, 1)]], 1, 2)
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


def _scalar_loop_contract(a, b, axis):
    """The contraction as a loop of scalar duals, acc = acc + a_i * b_i, at
    every entry of the other component axes."""
    A, B = (np.moveaxis(np.broadcast_to(x, np.broadcast_shapes(a.shape, b.shape)),
                        axis, 0) for x in (a, b))
    out = np.empty(A.shape[1:], dtype=object)
    for idx in np.ndindex(out.shape):
        acc = 0.0
        for i in range(A.shape[0]):
            acc = acc + A[(i,) + idx] * B[(i,) + idx]
        out[idx] = acc
    return out


class TestComponentAxes:
    """Stacking, indexing, concatenation, weighting and contraction over
    the component axes that lead a payload, against the loops of scalar
    duals they replace."""

    @staticmethod
    def scalars(rng, shape, m, p, lead=(3,)):
        objs = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            objs[idx] = MultiDual(_payload(rng, lead, m, p, lo=-2.0, hi=2.0), m)
        return objs

    def test_stack_and_index_round_trip(self):
        rng = np.random.default_rng(10)
        objs = self.scalars(rng, (2, 3), 2, 4)
        objs[1, 2] = 1.5  # a float enters as a constant
        objs[0, 1] = MultiDual(_payload(rng, (), 2, 1), 2)  # broadcasts
        v = stack(objs.tolist())
        assert v.c.shape == (2, 3, 3, 4, 4)
        for idx in np.ndindex(2, 3):
            entry = objs[idx]
            want = (np.broadcast_to(entry.c, (3, 4, 4))
                    if isinstance(entry, MultiDual)
                    else coefficients(entry, 2, 4, (3,)))
            assert np.array_equal(v[idx].c, want)
        assert np.array_equal(v[1].c, v.c[1])
        assert np.array_equal(v[:, None].c, v.c[:, None])
        assert np.array_equal(v[[1, 0]][0].c, v.c[1])

    def test_stack_of_floats_and_pass_through(self):
        assert np.array_equal(stack([[1.0, 2.0], [3.0, 4.5]]),
                              np.array([[1.0, 2.0], [3.0, 4.5]]))
        x = MultiDual(np.ones((2, 3, 2, 1)), 1)
        assert stack(x) is x
        with pytest.raises(ValueError, match="generator count"):
            stack([x[0], dual_constant(1.0, 2)])

    def test_concat_equals_the_stacked_entries(self):
        rng = np.random.default_rng(11)
        v = stack(self.scalars(rng, (3, 2), 1, 3).tolist())
        row = stack([self.scalars(rng, (2,), 1, 3).tolist()])
        floats = np.array([[0.5, -1.0], [2.0, 0.0]])
        got = concat([v, row, floats], axis=0)
        entries = ([[v[i, j] for j in range(2)] for i in range(3)]
                   + [[row[0, j] for j in range(2)]] + floats.tolist())
        assert np.array_equal(got.c, stack(entries).c)
        col = concat([v, np.full((3, 1), 2.0)], axis=1)
        assert col.c.shape == (3, 3, 3, 2, 3)
        assert np.array_equal(col.c[:, :2], v.c)
        assert np.all(col.c[:, 2, :, 0] == 2.0) and not np.any(col.c[:, 2, :, 1])

    @pytest.mark.parametrize("m", [1, 2])
    def test_weigh_is_the_scalar_product(self, m):
        rng = np.random.default_rng(12 + m)
        objs = self.scalars(rng, (4, 2), m, 3)
        w = rng.normal(size=(4, 1))
        got = weigh(w, stack(objs.tolist()))
        for i, j in np.ndindex(4, 2):
            assert np.array_equal(got[i, j].c, (w[i, 0] * objs[i, j]).c)
        assert np.array_equal(weigh(w, np.ones((4, 2))),
                              np.broadcast_to(w, (4, 2)))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("m", [1, 2])
    def test_contract_is_the_scalar_loop(self, m, axis):
        rng = np.random.default_rng(20 + 3 * m + axis)
        a = self.scalars(rng, (3, 4, 1), m, 5)
        b = self.scalars(rng, (3, 1, 2), m, 5)
        a, b = np.moveaxis(a, 0, axis), np.moveaxis(b, 0, axis)
        got = contract(stack(a.tolist()), stack(b.tolist()), axis)
        want = _scalar_loop_contract(a, b, axis)
        assert got.c.shape == want.shape + (3, 1 << m, 5)
        for idx in np.ndindex(want.shape):
            assert np.array_equal(got[idx].c, want[idx].c), idx

    def test_contract_with_floats_is_the_scalar_loop(self):
        rng = np.random.default_rng(30)
        a = self.scalars(rng, (4, 3), 2, 3)
        w = rng.normal(size=(4, 1))
        got = contract(w, stack(a.tolist()))
        want = _scalar_loop_contract(np.broadcast_to(w, (4, 3)).astype(object),
                                     a, 0)
        for j in range(3):
            assert np.array_equal(got[j].c, want[j].c)
        x, y = rng.normal(size=(2, 5, 3))
        loop = np.zeros(3)
        for i in range(5):
            loop = loop + x[i] * y[i]
        assert np.array_equal(contract(x, y), loop)

    def test_component_arrays_feed_the_jet_kernels(self):
        # a field may return one MultiDual with component axes; its rows
        # are those of the same field returning the entries as lists
        def as_array(xs):
            v = stack(xs)
            return v[:, None] * v[None, :] + 1.0

        def as_lists(xs):
            return [[a * b + 1.0 for b in xs] for a in xs]

        X = np.random.default_rng(31).normal(size=(4, 3))
        for got, want in zip(eval_with_partials(as_array, X),
                             eval_with_partials(as_lists, X)):
            assert np.array_equal(got, want)

    def test_apply_j0_on_component_axes(self):
        rng = np.random.default_rng(32)
        objs = self.scalars(rng, (4, 2), 2, 3)
        got = apply_j0(stack(objs.tolist()))
        for j in range(2):
            want = apply_j0_looped([objs[i, j] for i in range(4)])
            for i in range(4):
                assert np.array_equal(got[i, j].c, want[i].c)
        x = rng.normal(size=(4, 2))
        assert np.array_equal(
            apply_j0(x), np.array([apply_j0_looped(col) for col in x.T]).T)


class TestPlusFastPath:
    """Adding an array over the points skips the broadcast when the array
    has the payload's points shape, with the same payload to the bit."""

    @pytest.mark.parametrize("m", [1, 2])
    def test_both_paths_agree(self, m):
        rng = np.random.default_rng(40 + m)
        c = _payload(rng, (5,), m, 3)
        before = c.copy()
        w = rng.normal(size=5)
        fast = MultiDual(c, m) + w
        # a leading axis of length 1 makes the shapes differ
        slow = MultiDual(c[None], m) + w
        assert slow.c.shape == (1,) + c.shape
        assert np.array_equal(fast.c, slow.c[0])
        assert np.array_equal((w - MultiDual(c, m)).c,
                              (w - MultiDual(c[None], m)).c[0])
        assert np.array_equal(c, before)
