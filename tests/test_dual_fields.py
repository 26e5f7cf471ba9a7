"""The dual fields as array expressions against their entry-by-entry forms.

The rotational metric and structure, the Sasakian family metric with its
Reeb and phi fields, and pullbacks through a graph chart are written with
the component-axis operations of ``qck.duals``.  Their operations and
summation orders are those of the loops in ``tests/oracles.py``, so every
jet and every float evaluation equals the oracle's to the bit.  And
``MetricField.matrix`` of every kind of field, potential and flat ones
too, is the conversion of its float evaluation entry by entry.
"""

import numpy as np
import pytest

from qck.ambient import (AmbientSpace, DefiniteLogFamily, LogFamily,
                         flat_metric, potential_metric)
from qck.charts import GraphChart, pullback_metric
from qck.curvature import point_jets
from qck.duals import eval_with_partials
from qck.rotational import bochner_meridian, const_hsc_profile, rotation_metric
from qck.sampling import radial_points
from qck.sasakian import family_h1_metric
from oracles import (family_h1_metric_looped, matrix_per_entry,
                     pullback_metric_looped, rotation_metric_looped)

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
        metric, _, structure = family_h1_metric(n, q)
        looped, reeb, phi = family_h1_metric_looped(n, q)
        assert_same_jets(point_jets(metric, U), point_jets(looped, U),
                         ("G", "dG", "d2G"))
        m = U.shape[1]
        for got, ref_phi, ref_reeb in zip(eval_with_partials(structure, U),
                                          eval_with_partials(phi, U),
                                          eval_with_partials(reeb, U)):
            assert np.array_equal(got[..., :m], ref_phi)
            assert np.array_equal(got[..., m], ref_reeb)

    def test_float_path(self, q, n):
        U = chart_points(n, seed=int(q) + n + 10)
        metric, _, structure = family_h1_metric(n, q)
        looped, reeb, phi = family_h1_metric_looped(n, q)
        jets = point_jets(metric, U)
        m = U.shape[1]
        for k, u in enumerate(U):
            G = metric.matrix(u)
            assert np.array_equal(G, looped.matrix(u))
            assert np.allclose(G, jets.G[k], rtol=1e-14, atol=1e-14)
            both = structure(list(u))
            assert np.array_equal(both[:, m], reeb(list(u)))
            assert np.array_equal(both[:, :m], phi(list(u)))

    def test_batch_rows_equal_one_point_jets(self, q, n):
        U = chart_points(n, seed=int(q) + n + 20)
        metric, _, structure = family_h1_metric(n, q)
        jets = point_jets(metric, U)
        for k, u in enumerate(U):
            assert_same_jets(jets.rows(k), point_jets(metric, u[None]).rows(0),
                             ("G", "dG", "d2G"))
        batch = eval_with_partials(structure, U)
        for k, u in enumerate(U):
            for got, one in zip(batch, eval_with_partials(structure, u)):
                assert np.array_equal(got[k], one)


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


def field_cases():
    """(id, metric, points): every kind of metric field in ``qck``, with
    three points of its chart."""
    cases = []
    for signature, family, window in (
            ("lorentz", LogFamily(-1.0, 1.0), (1.1, 3.0)),
            ("definite", DefiniteLogFamily(2.0, 1.0), (0.4, 2.0))):
        for n in (2, 3):
            space = AmbientSpace(n, signature)
            X = np.array(radial_points(space, 3, *window, seed=n))
            cases += [(f"potential-{signature}-n{n}",
                       potential_metric(space, family), X),
                      (f"flat-{signature}-n{n}", flat_metric(space), X)]
    for tag in sorted(PROFILES):
        profile = PROFILES[tag]()
        cases.append((f"rotational-{tag}", rotation_metric(profile, 2)[0],
                      rotation_points(profile, 2, seed=1)[:3]))
    for q in (1.0, 2.0):
        cases.append((f"family-h1-q{q}", family_h1_metric(2, q)[0],
                      chart_points(2, seed=int(q))))
    for name in ("sphere", "lorentz", "potential"):
        chart, ambient = pullback_case(name, 2)
        cases.append((f"pullback-{name}", pullback_metric(chart, ambient),
                      chart_points(2, seed=3)))
    return cases


FIELD_CASES = field_cases()


@pytest.mark.parametrize("metric,X", [c[1:] for c in FIELD_CASES],
                         ids=[c[0] for c in FIELD_CASES])
def test_matrix_is_the_entry_by_entry_conversion(metric, X):
    # one conversion of the float evaluation gives the bits that a
    # conversion of each entry gave, in a new float array
    for x in X:
        G = metric.matrix(x)
        want = matrix_per_entry(metric, x)
        assert G.dtype == want.dtype == np.float64
        assert G.shape == want.shape == (metric.dim, metric.dim)
        assert G.tobytes() == want.tobytes()
        assert not np.shares_memory(G, metric.matrix(x))
