import math

import numpy as np
import pytest

from qck.errors import NumericalBreakdown
from oracles import ScalarField, differentiate, differentiate_fd, gexp, gsin


def poly_field():
    # f(x, y, z) = x^2 y + z^3
    return ScalarField(lambda q: q[0] * q[0] * q[1] + q[2] * q[2] * q[2], 3)


def smooth_field():
    return ScalarField(lambda q: gexp(q[0] * 0.5) * gsin(q[1]) + q[0] * q[1] * q[1], 2)


class TestDualPath:
    def test_first_partials(self):
        f = poly_field()
        p = [1.5, -2.0, 0.5]
        assert differentiate(f, p, (0,)) == pytest.approx(2 * 1.5 * -2.0)
        assert differentiate(f, p, (1,)) == pytest.approx(1.5**2)
        assert differentiate(f, p, (2,)) == pytest.approx(3 * 0.25)

    def test_second_partials(self):
        f = poly_field()
        p = [1.5, -2.0, 0.5]
        assert differentiate(f, p, (0, 0)) == pytest.approx(-4.0)
        assert differentiate(f, p, (0, 1)) == pytest.approx(3.0)
        assert differentiate(f, p, (2, 2)) == pytest.approx(3.0)
        assert differentiate(f, p, (1, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_order_symmetry(self):
        f = smooth_field()
        p = [0.3, 0.9]
        a = differentiate(f, p, (0, 1))
        b = differentiate(f, p, (1, 0))
        assert a == pytest.approx(b, rel=1e-13)

    def test_third_and_fourth(self):
        # f = x^4: derivatives 4x^3, 12x^2, 24x, 24
        f = ScalarField(lambda q: q[0] ** 4, 1)
        assert differentiate(f, [2.0], (0, 0, 0)) == pytest.approx(48.0)
        assert differentiate(f, [2.0], (0, 0, 0, 0)) == pytest.approx(24.0)

    def test_breakdown_detection(self):
        f = ScalarField(lambda q: 1.0 / (q[0] - 1.0), 1)
        with pytest.raises((NumericalBreakdown, ZeroDivisionError)):
            differentiate(f, [1.0], (0,))


class TestFiniteDifferenceOracle:
    def test_fd_matches_dual_first(self):
        f = smooth_field()
        p = [0.4, -1.1]
        for idx in [(0,), (1,)]:
            a = differentiate(f, p, idx)
            b = differentiate_fd(f, p, idx)
            assert b == pytest.approx(a, rel=1e-8, abs=1e-10)

    def test_fd_matches_dual_second(self):
        f = smooth_field()
        p = [0.4, -1.1]
        for idx in [(0, 0), (0, 1), (1, 1)]:
            a = differentiate(f, p, idx)
            b = differentiate_fd(f, p, idx)
            assert b == pytest.approx(a, rel=1e-6, abs=1e-8)

    def test_fd_on_known_function(self):
        f = ScalarField(lambda q: math.exp(q[0]) if not hasattr(q[0], "coeff") else gexp(q[0]), 1)
        got = differentiate_fd(f, [0.7], (0, 0))
        assert got == pytest.approx(math.exp(0.7), rel=1e-6)


def test_scalar_field_is_callable():
    f = poly_field()
    assert f([1.0, 1.0, 1.0]) == pytest.approx(2.0)
    assert f.dim == 3


def test_numpy_points_accepted():
    f = poly_field()
    p = np.array([1.0, 2.0, 3.0])
    assert differentiate(f, p, (0,)) == pytest.approx(4.0)
