"""The dual fields as array expressions against their entry-by-entry forms.

The rotational metric and structure, the Sasakian family metric with its
Reeb and phi fields, and pullbacks through a graph chart are written with
the component-axis operations of ``qck.duals``.  Their operations and
summation orders are those of the loops in ``tests/oracles.py``, so every
jet and every float evaluation equals the oracle's to the bit.
"""

import numpy as np
import pytest

from qck.ambient import AmbientSpace, LogFamily, potential_metric
from qck.charts import GraphChart, pullback_metric
from qck.curvature import point_jets
from qck.duals import eval_with_partials
from qck.rotational import bochner_meridian, const_hsc_profile, rotation_metric
from qck.sasakian import family_h1_metric
from oracles import (family_h1_metric_looped, pullback_metric_looped,
                     rotation_metric_looped)

PROFILES = {
    "I": lambda: bochner_meridian(0.1, -0.3, 0.5, 1.2, "I"),
    "II": lambda: const_hsc_profile("II", -1.0, 0.7, 2.8),
    "III": lambda: const_hsc_profile("III", -1.0, 3.0, 5.0),
}
JET_FIELDS = ("G", "dG", "d2G", "J", "dJ")


def rotation_points(profile, n, seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(profile.t0 + 0.1, profile.t1 - 0.1, 4)
    return np.column_stack([t, 0.15 * rng.normal(size=(4, 2 * n - 1))])


def chart_points(n, seed, count=3):
    return 0.2 * np.random.default_rng(seed).normal(size=(count, 2 * n - 1))


def pullback_case(name, n):
    """(chart, ambient): the round sphere and the Lorentz hypersphere in
    constant forms, and a hypersphere in a potential metric."""
    space = AmbientSpace(n, "lorentz")
    return {
        "sphere": (GraphChart(1.5, 2 * n), np.eye(2 * n)),
        "lorentz": (GraphChart(2.0, 2 * n, lorentz=True), space.flat_real()),
        "potential": (GraphChart(2.0, 2 * n, lorentz=True, sign=-1.0),
                      potential_metric(space, LogFamily(-1.0, 1.0))),
    }[name]


def assert_same_jets(got, want, names=JET_FIELDS):
    for name in names:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tag", sorted(PROFILES))
class TestRotational:
    def test_jets_equal_the_looped_field(self, tag, n):
        profile = PROFILES[tag]()
        X = rotation_points(profile, n, seed=n)
        metric = rotation_metric(profile, n)[0]
        jets = point_jets(metric, X)
        assert jets.method == "dual"
        assert_same_jets(jets, point_jets(rotation_metric_looped(profile, n), X))

    def test_float_path(self, tag, n):
        profile = PROFILES[tag]()
        X = rotation_points(profile, n, seed=n + 10)
        metric = rotation_metric(profile, n)[0]
        looped = rotation_metric_looped(profile, n)
        jets = point_jets(metric, X)
        for k, x in enumerate(X):
            G, J = metric.matrix(x), metric.structure_matrix(x)
            assert np.array_equal(G, looped.matrix(x))
            assert np.array_equal(J, looped.structure_matrix(x))
            # a dual divides by multiplying with the reciprocal, so the
            # value rows agree with the float evaluation to rounding
            assert np.allclose(G, jets.G[k], rtol=1e-14, atol=1e-14)
            assert np.allclose(J, jets.J[k], rtol=1e-13, atol=1e-13)

    def test_batch_rows_equal_one_point_jets(self, tag, n):
        profile = PROFILES[tag]()
        X = rotation_points(profile, n, seed=n + 20)
        metric = rotation_metric(profile, n)[0]
        jets = point_jets(metric, X)
        for k, x in enumerate(X):
            assert_same_jets(jets.rows(k), point_jets(metric, x[None]).rows(0))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", [1.0, 2.0])
class TestSasakianFamily:
    def test_jets_equal_the_looped_fields(self, q, n):
        U = chart_points(n, seed=int(q) + n)
        metric, _, fields = family_h1_metric(n, q)
        looped, reeb, phi = family_h1_metric_looped(n, q)
        assert_same_jets(point_jets(metric, U), point_jets(looped, U),
                         ("G", "dG", "d2G"))
        for name, want in (("reeb", reeb), ("phi", phi)):
            for got, ref in zip(eval_with_partials(fields[name], U),
                                eval_with_partials(want, U)):
                assert np.array_equal(got, ref), name

    def test_float_path(self, q, n):
        U = chart_points(n, seed=int(q) + n + 10)
        metric, _, fields = family_h1_metric(n, q)
        looped, reeb, phi = family_h1_metric_looped(n, q)
        jets = point_jets(metric, U)
        for k, u in enumerate(U):
            G = metric.matrix(u)
            assert np.array_equal(G, looped.matrix(u))
            assert np.allclose(G, jets.G[k], rtol=1e-14, atol=1e-14)
            assert np.array_equal(fields["reeb"](list(u)), reeb(list(u)))
            assert np.array_equal(fields["phi"](list(u)), phi(list(u)))

    def test_batch_rows_equal_one_point_jets(self, q, n):
        U = chart_points(n, seed=int(q) + n + 20)
        metric, _, fields = family_h1_metric(n, q)
        jets = point_jets(metric, U)
        for k, u in enumerate(U):
            assert_same_jets(jets.rows(k), point_jets(metric, u[None]).rows(0),
                             ("G", "dG", "d2G"))
        for name in ("reeb", "phi"):
            batch = eval_with_partials(fields[name], U)
            for k, u in enumerate(U):
                for got, one in zip(batch, eval_with_partials(fields[name], u)):
                    assert np.array_equal(got[k], one), name


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("case", ["sphere", "lorentz", "potential"])
class TestPullback:
    def test_jets_equal_the_looped_pullback(self, case, n):
        chart, ambient = pullback_case(case, n)
        U = chart_points(n, seed=n)
        jets = point_jets(pullback_metric(chart, ambient), U)
        want = point_jets(pullback_metric_looped(chart, ambient), U)
        assert_same_jets(jets, want, ("G", "dG", "d2G"))
        for k in range(len(U)):
            assert_same_jets(jets.rows(k), point_jets(
                pullback_metric(chart, ambient), U[k:k + 1]).rows(0),
                ("G", "dG", "d2G"))

    def test_float_path(self, case, n):
        chart, ambient = pullback_case(case, n)
        metric = pullback_metric(chart, ambient)
        looped = pullback_metric_looped(chart, ambient)
        for u in chart_points(n, seed=n + 10):
            G = metric.matrix(u)
            assert np.array_equal(G, looped.matrix(u))
            assert np.array_equal(G, G.T)
