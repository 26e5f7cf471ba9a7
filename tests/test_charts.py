"""Graph charts: chart maps, Jacobians, and pulled-back metrics."""

import numpy as np
import pytest

from qck.ambient import (AmbientSpace, LogFamily, MetricField, UserSeries,
                         flat_metric, potential_metric)
from qck.charts import (LorentzGraphChart, SphereGraphChart, pullback_metric,
                        tangent_params)
from qck.curvature import curvature_bundle, point_jet, point_jets
from qck.duals import eval_with_partials
from qck.errors import AdmissibilityError, ChartError, DomainError

L2 = AmbientSpace(2, "lorentz")


def lorentz_form(d):
    H = np.eye(d)
    H[-1, -1] = -1.0
    H[-2, -2] = -1.0
    return H


class TestSphereChart:
    def test_image_lies_on_sphere(self):
        ch = SphereGraphChart(2.0, 5)
        u = [0.3, -0.4, 0.25, 0.1]
        x = np.array(ch.fn(u))
        assert abs(np.dot(x, x) - 4.0) < 1e-12

    def test_axis_insertion(self):
        ch = SphereGraphChart(1.0, 3, axis=0)
        x = ch.fn([0.1, 0.2])
        assert x[1] == 0.1 and x[2] == 0.2
        assert x[0] > 0.9

    def test_negative_sheet(self):
        ch = SphereGraphChart(1.0, 3, sign=-1.0)
        x = ch.fn([0.1, 0.2])
        assert x[-1] < 0

    def test_params_roundtrip(self):
        ch = SphereGraphChart(1.5, 4)
        u = np.array([0.2, -0.3, 0.5])
        x = np.array(ch.fn(list(u)))
        assert np.allclose(ch.params_of(x), u, atol=1e-12)

    def test_jacobian_matches_dual_partials(self):
        ch = SphereGraphChart(2.0, 5)
        u = [0.3, -0.4, 0.25, 0.1]
        vals, cols = eval_with_partials(ch.fn, u)
        jc = ch.jac(u)
        for j in range(4):
            for i in range(5):
                assert abs(cols[j][i] - jc[i][j]) < 1e-13

    def test_boundary_guard(self):
        ch = SphereGraphChart(1.0, 3)
        with pytest.raises(ChartError):
            ch.fn([0.99, 0.0])

    def test_params_of_rejects_off_sphere(self):
        ch = SphereGraphChart(1.0, 3)
        with pytest.raises(ChartError):
            ch.params_of(np.array([0.1, 0.1, 1.1]))
        with pytest.raises(ChartError):
            ch.params_of(np.array([0.1, 0.1, -np.sqrt(1 - 0.02)]))


class TestLorentzChart:
    def test_image_lies_on_hypersphere(self):
        ch = LorentzGraphChart(2.0, 6)
        u = [0.3, -0.2, 0.15, 0.25, 0.4]
        x = np.array(ch.fn(u))
        H = lorentz_form(6)
        assert abs(x @ H @ x + 4.0) < 1e-12

    def test_params_roundtrip(self):
        ch = LorentzGraphChart(1.0, 4)
        u = np.array([0.2, -0.1, 0.3])
        x = np.array(ch.fn(list(u)))
        assert np.allclose(ch.params_of(x), u, atol=1e-12)

    def test_jacobian_matches_dual_partials(self):
        ch = LorentzGraphChart(1.5, 6)
        u = [0.3, -0.2, 0.15, 0.25, 0.4]
        vals, cols = eval_with_partials(ch.fn, u)
        jc = ch.jac(u)
        for j in range(5):
            for i in range(6):
                assert abs(cols[j][i] - jc[i][j]) < 1e-13

    def test_odd_ambient_rejected(self):
        with pytest.raises(ChartError):
            LorentzGraphChart(1.0, 5)

    def test_boundary_guard(self):
        # push the time-like parameter until the solved coordinate collapses
        ch = LorentzGraphChart(1.0, 4)
        with pytest.raises(ChartError):
            ch.fn([0.0, 0.0, 0.995])


class TestPullback:
    def test_round_sphere_sectional(self):
        for r in (1.0, 2.0):
            ch = SphereGraphChart(r, 3)
            g = pullback_metric(ch, np.eye(3))
            u0 = np.array([0.25 * r, -0.3 * r])
            bundle = curvature_bundle(point_jet(g, u0))
            e1 = np.array([1.0, 0.0])
            e2 = np.array([0.0, 1.0])
            assert abs(bundle.sectional(e1, e2) - 1.0 / r**2) < 1e-9

    def test_lorentz_hypersphere_sectional(self):
        # the induced metric on {h(x,x) = -r^2} has constant curvature -1/r^2
        for r in (1.0, 2.0):
            ch = LorentzGraphChart(r, 4)
            g = pullback_metric(ch, lorentz_form(4))
            u0 = np.array([0.3 * r, -0.2 * r, 0.1 * r])
            bundle = curvature_bundle(point_jet(g, u0))
            rng = np.random.default_rng(7)
            checked = 0
            while checked < 6:
                X, Y = rng.normal(size=(2, 3))
                gm = bundle.jet.G
                den = (X @ gm @ X) * (Y @ gm @ Y) - (X @ gm @ Y) ** 2
                if abs(den) < 1e-3:
                    continue
                assert abs(bundle.sectional(X, Y) + 1.0 / r**2) < 1e-8
                checked += 1

    def test_constant_field_matches_array_input(self):
        ch = SphereGraphChart(1.0, 4)
        H = np.diag([1.0, 2.0, 3.0, 4.0])
        g1 = pullback_metric(ch, H)
        g2 = pullback_metric(ch, MetricField(lambda x: H, 4, name="const"))
        u = [0.2, 0.1, -0.3]
        assert np.allclose(g1.matrix(u), g2.matrix(u), atol=1e-14)

    def test_variable_ambient_against_numpy(self):
        ch = LorentzGraphChart(1.0, 4)

        def amb(x):
            s = x[0] * x[0] + x[1] * x[1]
            row0 = [1.0 + s, 0.0, 0.0, 0.0]
            row1 = [0.0, 1.0 + s, 0.0, 0.0]
            row2 = [0.0, 0.0, -1.0, 0.0]
            row3 = [0.0, 0.0, 0.0, -1.0 - s]
            return [row0, row1, row2, row3]

        gfield = MetricField(amb, 4, name="bump")
        g = pullback_metric(ch, gfield)
        u = [0.2, -0.1, 0.15]
        x = np.array(ch.fn(u))
        J = np.array([[float(c) for c in row] for row in ch.jac(u)])
        Ga = np.array(amb(list(x)))
        assert np.allclose(g.matrix(u), J.T @ Ga @ J, atol=1e-13)

    def test_pullback_dim_and_structure(self):
        ch = SphereGraphChart(1.0, 4)
        g = pullback_metric(ch, np.eye(4))
        assert g.dim == 3
        assert np.allclose(g.structure_matrix([0.1, 0.1, 0.1]), 0.0)

    def test_flat_ambient_field_pullback(self):
        # potential-module flat field composes with the chart machinery
        ch = LorentzGraphChart(2.0, 4)
        g = pullback_metric(ch, flat_metric(L2))
        u0 = np.array([0.1, 0.2, -0.1])
        bundle = curvature_bundle(point_jet(g, u0))
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        assert abs(bundle.sectional(e1, e2) + 0.25) < 1e-8


class TestTangentParams:
    def test_sphere_tangent_reconstruction(self):
        ch = SphereGraphChart(1.0, 4, axis=1)
        u = [0.2, 0.1, -0.3]
        x = np.array(ch.fn(u))
        rng = np.random.default_rng(3)
        v = rng.normal(size=4)
        v -= (v @ x) / (x @ x) * x
        w = tangent_params(ch, v)
        J = np.array([[float(c) for c in row] for row in ch.jac(u)])
        assert np.allclose(J @ w, v, atol=1e-12)

    def test_lorentz_tangent_reconstruction(self):
        ch = LorentzGraphChart(1.0, 4)
        u = [0.2, 0.1, -0.3]
        x = np.array(ch.fn(u))
        H = lorentz_form(4)
        rng = np.random.default_rng(5)
        v = rng.normal(size=4)
        v -= (v @ H @ x) / (x @ H @ x) * x
        w = tangent_params(ch, v)
        J = np.array([[float(c) for c in row] for row in ch.jac(u)])
        assert np.allclose(J @ w, v, atol=1e-12)


class TestPotentialPullbackOverPoints:
    """The potential metric's evaluator on duals with a points axis, pulled
    back to Lorentz charts of one radius or of one radius per row."""

    U = np.array([[0.1, 0.2, -0.3], [0.0, -0.1, 0.2], [0.3, 0.1, 0.1]])

    @staticmethod
    def same_jets(jets, metric_at, U):
        for k, u in enumerate(U):
            want = point_jet(metric_at(k), u)
            for name in ("G", "dG", "d2G", "gamma", "Ginv"):
                assert np.array_equal(getattr(jets.rows(k), name),
                                      getattr(want, name)), name

    def test_rows_equal_point_jets(self):
        metric = pullback_metric(LorentzGraphChart(2.0, 4),
                                 potential_metric(L2, LogFamily(-1.0, 1.0)))
        jets = point_jets(metric, self.U)
        assert jets.method == "dual"
        self.same_jets(jets, lambda k: metric, self.U)

    def test_radius_and_sheet_per_row(self):
        family = LogFamily(-1.0, 1.0)
        radii, sheets = np.array([1.5, 2.0, 3.0]), np.array([1.0, -1.0, 1.0])
        chart = LorentzGraphChart(radii, 4, sign=sheets)
        jets = point_jets(pullback_metric(chart, potential_metric(L2, family)),
                          self.U)
        self.same_jets(jets, lambda k: pullback_metric(
            LorentzGraphChart(radii[k], 4, sign=sheets[k]),
            potential_metric(L2, family)), self.U)

    @pytest.mark.parametrize("family,good,radius,error", [
        (LogFamily(-1.0, 1.0), 2.5, 0.8, DomainError),
        # f = w + w^2 / 10 is admissible for 1.58 < r < 2.24 only
        (UserSeries((0.0, 1.0, 0.1)), 2.0, 3.0, AdmissibilityError)])
    def test_failing_row_raises_the_one_point_error(self, family, good, radius,
                                                    error):
        # the middle row lies on a sphere where the metric is not defined
        radii = np.array([good, radius, good])
        metric = pullback_metric(LorentzGraphChart(radii, 4),
                                 potential_metric(L2, family))
        with pytest.raises(error) as batch:
            point_jets(metric, self.U)
        with pytest.raises(error) as one:
            point_jet(pullback_metric(LorentzGraphChart(radius, 4),
                                      potential_metric(L2, family)), self.U[1])
        assert str(batch.value) == str(one.value)

    def test_array_radius_must_be_positive(self):
        with pytest.raises(ChartError):
            LorentzGraphChart(np.array([1.0, 0.0]), 4)
