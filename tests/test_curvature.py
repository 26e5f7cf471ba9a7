import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qck import ambient, cli, curvature
from qck.ambient import (
    AmbientSpace,
    DefiniteLogFamily,
    InverseFamily,
    LogFamily,
    UserSeries,
    flat_metric,
    potential_metric,
    radial_frame,
)
from qck.charts import GraphChart, pullback_metric
from qck.curvature import (
    covariant_derivative,
    curvature_invariants,
    fd_jets,
    kahler_defect,
    metric_second_jet_fd,
    point_jets,
)
from qck.ambient import MetricField
from qck.duals import MultiDual, eval_with_partials, value
from qck.errors import (AdmissibilityError, DegenerateMetric, DomainError,
                        NumericalBreakdown, Sieve)
from qck.rotational import const_hsc_profile, rotation_metric
from qck.sampling import point_at_radius
from qck.sasakian import family_h1_metric
from qck.qch import adapted_frames, decompose_points, frame_fit
from qck.tensors import Tensor4
from oracles import (POTENTIAL_CASES, CurvatureBundle, complex_to_real,
                     curvature_bundle,
                     curvature_gate_three_identities,
                     curvature_tensors_second_kind, point_jet, sectional,
                     ConformalPair, conformal_pair_from_family, generator,
                     metric_from_conformal_pair, radial_unit_field,
                     structure_covariant_defect)

L2 = AmbientSpace(2, "lorentz")
L3 = AmbientSpace(3, "lorentz")
D2 = AmbientSpace(2, "definite")


def halfplane_metric():
    """Hyperbolic plane, curvature -1: g = (dx^2 + dy^2)/y^2 on y > 0."""

    def ev(x):
        s = 1.0 / (x[1] * x[1])
        return [[s, 0.0], [0.0, s]]

    return MetricField(ev, 2, name="halfplane")


def timelike_point(space, r, seed=0, theta=0.4):
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.3, size=space.n - 1) + 1j * rng.normal(scale=0.3, size=space.n - 1)
    zn = np.exp(1j * theta) * np.sqrt(r * r + float(np.sum(np.abs(w) ** 2)))
    return complex_to_real(np.append(w, zn))


def dual_field(metric):
    """The same evaluator without the closed-form rule: its jets are
    dual."""
    return MetricField(metric.fn, metric.dim,
                       complex_structure=metric.complex_structure)


def dual_jet(metric, x):
    """(G, dG, d2G) of the metric's evaluator by dual numbers at x."""
    jet = point_jet(dual_field(metric), x)
    assert jet.method == "dual"
    return jet.G, jet.dG, jet.d2G


def rand_nonnull(bundle, rng):
    while True:
        X = rng.normal(size=bundle.jet.G.shape[0])
        if abs(X @ bundle.jet.G @ X) > 1e-3:
            return X


class TestJets:
    def test_first_vs_second_jet(self):
        g = potential_metric(L2, LogFamily(-1.0, 1.0))
        x = timelike_point(L2, 2.0, seed=3)
        G1, dG1 = eval_with_partials(g, x)
        jet = point_jet(g, x)
        assert np.allclose(G1, jet.G, atol=1e-14)
        assert np.allclose(dG1, jet.dG, atol=1e-14)

    def test_dual_vs_fd_jet(self):
        g = potential_metric(L2, LogFamily(-1.0, 1.0))
        x = timelike_point(L2, 2.0, seed=4)
        G, dG, d2G = dual_jet(g, x)
        Gf, dGf, d2Gf = metric_second_jet_fd(g, x)
        assert np.allclose(G, Gf, atol=1e-12)
        assert np.allclose(dG, dGf, atol=1e-8)
        assert np.allclose(d2G, d2Gf, atol=1e-7)


def _part(e, mask):
    if isinstance(e, MultiDual):
        return e.coeff(mask)
    return value(e) if mask == 0 else 0.0


def per_direction_second_jet(metric, x):
    """Reference for the batched jet: one scalar 2-generator evaluation per
    index pair (k, l)."""
    d = metric.dim
    G = np.empty((d, d))
    dG = np.empty((d, d, d))
    d2G = np.empty((d, d, d, d))
    for k in range(d):
        for l in range(k, d):
            coords = [float(c) for c in x]
            coords[k] = coords[k] + generator(0, 2)
            coords[l] = coords[l] + generator(1, 2)
            out = metric(coords)
            for i in range(d):
                for j in range(d):
                    e = out[i][j]
                    d2G[k, l, i, j] = d2G[l, k, i, j] = _part(e, 3)
                    if k == l:
                        G[i, j] = _part(e, 0)
                        dG[k, i, j] = _part(e, 1)
    return G, dG, d2G


def jet_cases():
    """(id, metric, point) over n = 2..4, both signatures, every family,
    a conformal-pair metric and pulled-back chart metrics."""
    cases = []
    for n in (2, 3, 4):
        L, D = AmbientSpace(n, "lorentz"), AmbientSpace(n, "definite")
        for space, family, r in (
                (L, LogFamily(-1.0, 1.0), 2.0), (L, LogFamily(-2.0, 1.5), 2.2),
                (L, InverseFamily(), 0.9), (L, UserSeries((0.0, 1.0, 1.0)), 0.6),
                (D, DefiniteLogFamily(2.0, 1.0), 1.2),
                (D, DefiniteLogFamily(1.0, 1.5), 0.8),
                (D, UserSeries((0.0, 1.0, 0.1)), 1.1)):
            metric = potential_metric(space, family, checked=False)
            cases.append((f"{metric.name}-n{n}", metric,
                          point_at_radius(space, r, seed=n)))
        pair = metric_from_conformal_pair(
            L, conformal_pair_from_family(LogFamily(-1.0, 1.0)))
        cases.append((f"conformal-n{n}", pair, point_at_radius(L, 2.0, seed=n)))
        u = 0.2 * np.random.default_rng(n).normal(size=2 * n - 1)
        sphere = pullback_metric(GraphChart(2.0, 2 * n),
                                 potential_metric(D, DefiniteLogFamily(2.0, 1.0)))
        cases.append((f"sphere-chart-n{n}", sphere, u))
        hyper = pullback_metric(GraphChart(2.0, 2 * n, lorentz=True),
                                potential_metric(L, LogFamily(-1.0, 1.0)))
        cases.append((f"lorentz-chart-n{n}", hyper, u))
    return cases


JET_CASES = jet_cases()


class TestBatchedJets:
    @pytest.mark.parametrize("metric,x", [c[1:] for c in JET_CASES],
                             ids=[c[0] for c in JET_CASES])
    def test_second_jet_matches_oracles(self, metric, x):
        G, dG, d2G = dual_jet(metric, x)
        # one scalar dual evaluation per index pair is the reference
        Gr, dGr, d2Gr = per_direction_second_jet(metric, x)
        for got, ref in ((G, Gr), (dG, dGr), (d2G, d2Gr)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))
        # finite differences are independent of the dual arithmetic
        Gf, dGf, d2Gf = metric_second_jet_fd(metric, x)
        for got, ref, tol in ((G, Gf, 1e-12), (dG, dGf, 1e-8), (d2G, d2Gf, 1e-7)):
            assert np.max(np.abs(got - ref)) <= tol * max(1.0, np.max(np.abs(ref)))
        G1, dG1 = eval_with_partials(metric, x)
        assert np.max(np.abs(G1 - G)) <= 1e-14 * max(1.0, np.max(np.abs(G)))
        assert np.max(np.abs(dG1 - dG)) <= 1e-13 * max(1.0, np.max(np.abs(dG)))


def closed_form_cases():
    """(id, metric, point) over n = 2..4 for every family on each signature
    whose sample points it has in its domain, degree-1 series included."""
    cases = []
    for n in (2, 3, 4):
        L, D = AmbientSpace(n, "lorentz"), AmbientSpace(n, "definite")
        for space, family, r in (
                (L, LogFamily(-1.0, 1.0), 2.0), (L, LogFamily(-2.0, 1.5), 2.2),
                (L, InverseFamily(), 0.9), (L, DefiniteLogFamily(2.0, 1.0), 0.7),
                (L, UserSeries((0.0, 1.0, 1.0)), 0.6),
                (L, UserSeries((0.0, -0.5)), 1.3),
                (D, DefiniteLogFamily(2.0, 1.0), 1.2),
                (D, DefiniteLogFamily(1.0, 1.5), 0.8),
                (D, UserSeries((0.0, 1.0, 0.1)), 1.1),
                (D, UserSeries((0.0, 1.0)), 1.3),
                (D, UserSeries((0.3, 1.0, 0.2, 0.05, 0.01)), 1.3)):
            metric = potential_metric(space, family, checked=False)
            cases.append((f"{metric.name}-n{n}", metric,
                          point_at_radius(space, r, seed=n)))
    return cases


CLOSED_FORM_CASES = closed_form_cases()


class TestClosedFormJets:
    """The closed-form jet of a potential metric against both oracles: the
    dual jet to rounding and the finite-difference jet to its step error."""

    @pytest.mark.parametrize("metric,x", [c[1:] for c in CLOSED_FORM_CASES],
                             ids=[c[0] for c in CLOSED_FORM_CASES])
    def test_matches_oracles(self, metric, x):
        jet = point_jet(metric, x)
        assert jet.method == "closed-form"
        G, dG, d2G = jet.G, jet.dG, jet.d2G
        # the batched rule repeats the field's own operations for G
        assert np.array_equal(G, metric.matrix(x))
        # and keeps the symmetries of d2G exactly
        assert np.array_equal(d2G, d2G.swapaxes(0, 1))
        assert np.array_equal(d2G, d2G.swapaxes(2, 3))
        for got, ref in zip((G, dG, d2G), dual_jet(metric, x)):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        Gf, dGf, d2Gf = metric_second_jet_fd(metric, x)
        for got, ref, tol in ((G, Gf, 1e-12), (dG, dGf, 1e-8), (d2G, d2Gf, 1e-7)):
            assert np.max(np.abs(got - ref)) <= tol * max(1.0, np.max(np.abs(ref)))

    def test_point_jet_takes_the_rule_where_there_is_one(self):
        x = point_at_radius(L2, 2.0, seed=1)
        jet = point_jet(potential_metric(L2, LogFamily(-1.0, 1.0)), x)
        assert jet.method == "closed-form"
        assert point_jet(flat_metric(L2), x).method == "dual"
        assert point_jet(halfplane_metric(), [0.3, 2.0]).method == "dual"
        chart = pullback_metric(GraphChart(2.0, 4),
                                potential_metric(D2, DefiniteLogFamily(2.0, 1.0)))
        assert point_jet(chart, [0.1, -0.2, 0.3]).method == "dual"
        fd = point_jet(potential_metric(L2, LogFamily(-1.0, 1.0)), x, method="fd")
        assert fd.method == "fd"

    def test_domain_errors_come_from_the_field(self):
        # outside the family domain, then inadmissible: the field's own texts
        g = potential_metric(L2, LogFamily(-1.0, 1.0))
        with pytest.raises(DomainError, match="outside the family domain"):
            point_jet(g, point_at_radius(L2, 0.9, seed=1))
        g = potential_metric(L2, UserSeries((0.0, 1.0, 1.0)))
        with pytest.raises(AdmissibilityError, match="inadmissible at w=-0.81"):
            point_jet(g, point_at_radius(L2, 0.9, seed=1))

    def test_non_finite_rule_is_a_breakdown(self):
        g = potential_metric(L2, LogFamily(-1.0, 1.0))
        rule = g.jets
        g.jets = lambda X: (*rule(X)[:3], np.full((len(X), 4, 4, 4, 4), np.nan))
        with pytest.raises(NumericalBreakdown):
            point_jet(g, point_at_radius(L2, 2.0, seed=1))


class TestChristoffel:
    """The Christoffel symbols and inverse metric that a jet carries."""

    def test_flat_is_zero(self):
        g = flat_metric(L3)
        jet = point_jet(g, np.zeros(6))
        assert np.max(np.abs(jet.gamma)) == 0.0

    def test_lower_symmetry_and_compatibility(self):
        g = potential_metric(L3, LogFamily(-1.0, 1.0))
        x = complex_to_real([0, 0, 2j])
        jet = point_jet(g, x)
        G, dG, gamma = jet.G, jet.dG, jet.gamma
        assert np.allclose(jet.Ginv @ G, np.eye(6), atol=1e-12)
        assert np.allclose(gamma, np.transpose(gamma, (0, 2, 1)), atol=1e-12)
        # nabla_k g_ij = d_k g_ij - gamma^a_{ki} g_aj - gamma^a_{kj} g_ia = 0
        nabla = dG - np.einsum("aki,aj->kij", gamma, G) - np.einsum("akj,ia->kij", gamma, G)
        assert np.max(np.abs(nabla)) < 1e-12
        # the symbols of the first kind are those of the second lowered by G
        assert np.allclose(jet.gamma1, np.einsum("la,ajk->ljk", G, gamma),
                           atol=1e-12)

    def test_scale_invariance(self):
        g = potential_metric(L2, InverseFamily())
        scaled = MetricField(
            lambda x: [[7.0 * e for e in row] for row in g(x)], g.dim)
        X = np.array([timelike_point(L2, 0.9, seed=s) for s in (5, 6)])
        jets, jets7 = point_jets(g, X), point_jets(scaled, X)
        assert (jets.method, jets7.method) == ("closed-form", "dual")
        assert np.allclose(jets.gamma, jets7.gamma, atol=1e-12)
        assert np.allclose(jets.Ginv, 7.0 * jets7.Ginv, atol=1e-12)

    def test_degenerate_metric(self):
        # past COND_LIMIT at x[1] = 1e-15; well conditioned at 0.5
        g = MetricField(lambda x: [[1.0, 0.0], [0.0, x[1] * x[1]]], 2)
        with pytest.raises(DegenerateMetric):
            point_jet(g, [0.0, 1e-15])
        sieve = Sieve(2)
        jets = point_jets(g, np.array([[0.0, 1e-15], [0.0, 0.5]]), sieve)
        assert isinstance(sieve.errors[0], DegenerateMetric)
        assert sieve.errors[1] is None and len(jets.point) == 1


class TestConditionGate:
    """The condition gate reads the eigenvalues of G, which for a symmetric
    G give the 2-norm condition number of ``np.linalg.cond``."""

    @staticmethod
    def spectrum_matrix(rng, d, cond, definite):
        """A symmetric G of condition number ``cond`` in a random basis:
        |eigenvalues| from 1 down to 1 / cond, of one sign or of both."""
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        lam = np.geomspace(1.0, 1.0 / cond, d)
        if not definite:
            lam *= rng.choice([-1.0, 1.0], size=d)
            lam[0], lam[-1] = abs(lam[0]), -abs(lam[-1])
        rng.shuffle(lam)
        G = (Q * lam) @ Q.T
        return (G + G.T) / 2.0

    @pytest.mark.parametrize("d", range(4, 9))
    def test_ratio_matches_cond(self, d):
        rng = np.random.default_rng(d)
        for _ in range(40):
            A = rng.normal(size=(d, d))
            for G in (A + A.T, A @ A.T + 0.1 * np.eye(d)):
                bad, _ = curvature._cond_gate(np.linalg.eigvalsh(G)[None])
                size = np.abs(np.linalg.eigvalsh(G))
                ratio = size.max() / size.min()
                assert abs(ratio / np.linalg.cond(G) - 1.0) < 1e-12
                assert not bad[0]

    def test_singular_zero_and_nan_metrics_fail(self):
        G = np.array([np.diag([1.0, 1.0, 1.0, 0.0]), np.zeros((4, 4)),
                      np.eye(4), np.diag([1.0, 1.0, 1.0, np.nan])])
        bad, error = curvature._cond_gate(np.linalg.eigvalsh(G))
        assert bad.tolist() == [True, True, False, True]
        assert np.isinf(np.linalg.cond(G[:2])).all()
        assert isinstance(error(3), DegenerateMetric)

    def test_fd_jet_of_a_nan_metric_is_degenerate(self):
        # the finite-difference jet has no finiteness gate of its own; a
        # nan G stops at the condition gate with a report, where the SVD
        # of np.linalg.cond raised LinAlgError
        metric = MetricField(lambda x: np.diag([1.0, np.nan]), 2)
        with pytest.raises(DegenerateMetric):
            fd_jets(metric, np.zeros((1, 2)))

    @pytest.mark.parametrize("d", range(4, 9))
    @pytest.mark.parametrize("definite", [True, False])
    def test_gate_sides_at_the_limit(self, d, definite):
        # cond = COND_LIMIT (1 -+ 1e-3): rounding moves the computed ratio
        # by about 3e-4 at most, so each side is decided
        rng = np.random.default_rng(10 * d + definite)
        metric = MetricField(lambda x: np.eye(d), d)
        for factor, over in ((1.0 - 1e-3, False), (1.0 + 1e-3, True)):
            G = np.stack([self.spectrum_matrix(
                rng, d, curvature.COND_LIMIT * factor, definite)
                for _ in range(4)])
            assert ((np.linalg.cond(G) > curvature.COND_LIMIT) == over).all()
            sieve = Sieve(len(G))
            X = rng.normal(size=(len(G), d))
            jets = curvature.gated_jets(
                metric, X, [], G, np.zeros((4,) + (d,) * 3),
                np.zeros((4,) + (d,) * 4), "closed-form", sieve)
            assert [isinstance(e, DegenerateMetric)
                    for e in sieve.errors] == [over] * len(G)
            assert len(jets.point) == (0 if over else len(G))
            for g in G:
                constant = MetricField(lambda x, g=g: g, d)
                if over:
                    with pytest.raises(DegenerateMetric):
                        fd_jets(constant, X[:1])
                else:
                    jet = fd_jets(constant, X[:1])
                    assert jet.G[0].tobytes() == g.tobytes()

    def test_jet_keeps_the_eigenvalues_of_its_rows(self):
        g = potential_metric(L3, LogFamily(-1.0, 1.0))
        X = np.array([timelike_point(L3, r, seed=3) for r in (1.5, 2.0, 2.5)])
        jets = point_jets(g, X)
        assert (jets.eigenvalues.tobytes()
                == np.linalg.eigvalsh(jets.G).tobytes())
        assert jets.rows(np.array([2, 0])).eigenvalues.tobytes() == \
            jets.eigenvalues[[2, 0]].tobytes()


class TestHalfPlaneOracle:
    """Hand-checked curvature of the hyperbolic plane pins the conventions."""

    def test_riemann_component(self):
        b = curvature_bundle(point_jet(halfplane_metric(), [0.3, 2.0]))
        # R(e_x, e_y, e_y, e_x) = -1/y^4
        assert b.R.a[0, 1, 1, 0] == pytest.approx(-1.0 / 16.0, rel=1e-10)

    def test_sectional(self):
        b = curvature_bundle(point_jet(halfplane_metric(), [-1.2, 0.7]))
        assert sectional(b, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(-1.0, rel=1e-10)
        # sectional curvature is basis-independent
        assert sectional(b, [1.0, 2.0], [-1.0, 1.0]) == pytest.approx(-1.0, rel=1e-9)

    def test_ricci_and_scalar(self):
        b = curvature_bundle(point_jet(halfplane_metric(), [0.0, 0.5]))
        assert np.allclose(b.ricci(), -b.jet.G, atol=1e-10)
        assert b.scalar_curvature() == pytest.approx(-2.0, rel=1e-10)


class TestFlatBaselines:
    @pytest.mark.parametrize("space", [L3, D2])
    def test_zero_curvature(self, space):
        g = flat_metric(space)
        p = np.ones(space.dim)
        b = curvature_bundle(point_jet(g, p))
        assert np.linalg.norm(b.R.a) < 1e-12
        assert abs(b.scalar_curvature()) < 1e-12

    def test_radial_scalars_vanish(self):
        g = flat_metric(L3)
        x = complex_to_real([0.1, 0.2, 2j])
        b = curvature_bundle(point_jet(g, x))
        fr = radial_frame(L3, x)
        assert abs(b.sigma_radial(fr.xi)) < 1e-12
        assert abs(b.kappa_radial(fr.xi)) < 1e-12


def golden_point_sets():
    """(space, family, X) of each ``curvature`` case of the golden reports."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "regen_golden", root / "scripts" / "regen_golden.py")
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    out = []
    for argv in regen.CASES["curvature"]:
        cfg = cli._config_from_args(cli.build_parser().parse_args(argv))
        out.append((cfg.ambient(), cfg.family(), cli._points(cfg)))
    return out


def same_bits(got, want):
    assert np.array(got).tobytes() == np.array(want).tobytes()


class TestInvariants:
    """``curvature_invariants`` over a points axis against the invariants
    of ``oracles.CurvatureBundle``, one point at a time, to the bit."""

    @pytest.mark.parametrize("space,family,X", golden_point_sets())
    def test_golden_point_sets(self, space, family, X):
        rec = decompose_points(space, family, X, fit=False)
        metric = potential_metric(space, family)
        assert rec.unit.size
        for i in rec.unit.tolist():
            bundle = curvature_bundle(point_jet(metric, X[i]))
            same_bits(rec.invariants[i], bundle.invariants(rec.xi[i]))

    @pytest.mark.parametrize("space", [L3, D2, AmbientSpace(3, "definite")])
    def test_flat_points(self, space):
        # the two points of each space of the flat-baselines criterion
        X = np.array([point_at_radius(space, 1.7, seed=seed)
                      for seed in (0, 1)])
        U = np.array([x / abs(float(space.square_norm(x))) ** 0.5 for x in X])
        jet = point_jets(flat_metric(space), X)
        R = curvature.curvature_tensors(jet)
        got = curvature_invariants(jet, R, U)
        for p in range(len(X)):
            bundle = CurvatureBundle(jet.rows(p), Tensor4(R[p]))
            same_bits(got[p], bundle.invariants(U[p]))

    def test_null_direction(self):
        jet = point_jets(flat_metric(L2), np.ones((1, 4)))
        with pytest.raises(DomainError, match="null direction"):
            curvature_invariants(jet, curvature.curvature_tensors(jet),
                                 np.array([[1.0, 0.0, 1.0, 0.0]]))


class TestDiscModel:
    """The log family with a=-1, r0=1 has constant holomorphic curvature -1."""

    @pytest.mark.parametrize("seed,r", [(0, 1.3), (1, 2.0), (2, 2.8)])
    def test_hsc_minus_one(self, seed, r):
        g = potential_metric(L2, LogFamily(-1.0, 1.0))
        x = timelike_point(L2, r, seed=seed)
        b = curvature_bundle(point_jet(g, x))
        rng = np.random.default_rng(seed + 1000)
        for _ in range(20):
            X = rand_nonnull(b, rng)
            assert b.hsc(X) == pytest.approx(-1.0, abs=1e-7)

    def test_hsc_scales_with_a(self):
        g = potential_metric(L2, LogFamily(-2.0, 1.0))
        x = timelike_point(L2, 1.8, seed=7)
        b = curvature_bundle(point_jet(g, x))
        rng = np.random.default_rng(11)
        for _ in range(5):
            X = rand_nonnull(b, rng)
            assert b.hsc(X) == pytest.approx(-2.0, abs=1e-7)

    def test_einstein_property(self):
        # constant holomorphic curvature a makes Ricci = (n+1)a/2 * g
        g = potential_metric(L2, LogFamily(-1.0, 1.0))
        x = timelike_point(L2, 2.2, seed=8)
        b = curvature_bundle(point_jet(g, x))
        assert np.allclose(b.ricci(), -1.5 * b.jet.G, atol=1e-9)
        assert b.scalar_curvature() == pytest.approx(-6.0, rel=1e-9)

    def test_j_invariance(self):
        g = potential_metric(L2, LogFamily(-1.0, 1.0))
        x = timelike_point(L2, 1.6, seed=9)
        b = curvature_bundle(point_jet(g, x))
        J = b.jet.J
        RJ = np.einsum("abkl,ai,bj->ijkl", b.R.a, J, J)
        assert np.allclose(RJ, b.R.a, atol=1e-9)

    def test_first_bianchi_and_symmetries(self):
        g = potential_metric(L3, InverseFamily())
        x = timelike_point(L3, 0.8, seed=10)
        b = curvature_bundle(point_jet(g, x))
        scale = max(1.0, b.R.scale())
        assert b.R.curvature_symmetry_defect() < 1e-9 * scale
        assert b.R.first_bianchi_defect() < 1e-9 * scale

    def test_null_direction_rejected(self):
        x = complex_to_real([0, 1j])
        b = curvature_bundle(point_jet(flat_metric(L2), x))
        with pytest.raises(DomainError):
            b.hsc([1.0, 0.0, 1.0, 0.0])  # null for the flat Lorentz form


class TestDualVsFd:
    @pytest.mark.parametrize("seed,r", [(0, 1.5), (1, 2.0), (2, 2.5)])
    def test_bundles_agree(self, seed, r):
        g = potential_metric(L2, LogFamily(-1.0, 1.0))
        x = timelike_point(L2, r, seed=seed)
        bd = curvature_bundle(point_jet(g, x))
        bf = curvature_bundle(point_jet(g, x, method="fd"))
        scale = max(1.0, bd.R.scale())
        assert np.max(np.abs(bd.R.a - bf.R.a)) < 1e-6 * scale

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            point_jet(flat_metric(L2), np.zeros(4), method="magic")


class TestKahlerDefect:
    def test_potential_metrics_closed(self):
        for fam in (LogFamily(-1.0, 1.0), InverseFamily()):
            g = potential_metric(L2, fam)
            x = timelike_point(L2, 1.4 if fam.kind == "log" else 0.7, seed=12)
            assert kahler_defect(point_jet(g, x)) < 1e-9

    def test_flat_closed(self):
        assert kahler_defect(point_jet(flat_metric(L3), np.ones(6))) < 1e-14

    def test_plain_conformal_pair_not_kahler(self):
        # u = v = 0 violates the closedness condition away from r where
        # the radial balance happens to hold
        pair = ConformalPair(u=lambda r: 0.0 * r, v=lambda r: 0.0 * r, source="unit")
        g = metric_from_conformal_pair(L2, pair)
        x = complex_to_real([0, 2j])
        assert kahler_defect(point_jet(g, x)) > 1e-3

    @pytest.mark.parametrize("signature,family,r", POTENTIAL_CASES)
    def test_constant_structure_skips_no_term(self, signature, family, r):
        # with dJ zero the dJ G term adds only zeros: the defect is the full
        # expression's to the bit, at every n
        for n in (2, 3, 4):
            space = AmbientSpace(n, signature)
            jets = point_jets(potential_metric(space, family), np.array(
                [point_at_radius(space, r, seed=s) for s in range(4)]))
            assert jets.dJ.strides[0] == 0 and not jets.dJ.any()
            dOm = (np.einsum("...kai,...aj->...kij", jets.dJ, jets.G)
                   + np.einsum("...ai,...kaj->...kij", jets.J, jets.dG))
            ext = (dOm - np.einsum("...ikj->...kij", dOm)
                   + np.einsum("...jki->...kij", dOm))
            full = np.max(np.abs(ext), axis=(-3, -2, -1))
            assert kahler_defect(jets).tobytes() == full.tobytes()

    def test_structure_covariant_defect_agrees(self):
        g = potential_metric(L2, LogFamily(-1.0, 1.0))
        x = timelike_point(L2, 2.0, seed=13)
        assert structure_covariant_defect(point_jet(g, x)) < 1e-9


class TestVectorDerivatives:
    def test_flat_radial_field(self):
        # nabla of xi' = Z/r on the flat Lorentz background at (0,0,2i):
        # diagonal (1/2, ..., 1/2, 0) in the interleaved coordinates
        g = flat_metric(L3)
        fld = radial_unit_field(L3)
        x = complex_to_real([0, 0, 2j])
        V, dV = eval_with_partials(fld, x)
        D = covariant_derivative(point_jet(g, x), V, dV)
        assert np.allclose(V, x / 2.0)
        want = np.diag([0.5, 0.5, 0.5, 0.5, 0.5, 0.0])
        assert np.allclose(D, want, atol=1e-12)

    def test_flat_shape_scalar(self):
        # h(nabla_{x0} xi', x0)/h(x0,x0) = 1/r on D-directions, giving the
        # radial shape value -2/r under the Lorentz sign convention
        g = flat_metric(L3)
        fld = radial_unit_field(L3)
        x = complex_to_real([0, 0, 2j])
        D = covariant_derivative(point_jet(g, x), *eval_with_partials(fld, x))
        H = L3.flat_real()
        x0 = np.zeros(6)
        x0[0] = 1.0
        k = -2.0 * (D[0] @ H @ x0) / (x0 @ H @ x0)
        assert k == pytest.approx(-1.0, rel=1e-12)


def test_symmetry_gate_wiring(monkeypatch):
    # a zero gate trips on any honest rounding noise
    g = potential_metric(L2, LogFamily(-1.0, 1.0))
    x = timelike_point(L2, 2.0, seed=14)
    monkeypatch.setattr(curvature, "SYMMETRY_GATE", 0.0)
    with pytest.raises(NumericalBreakdown):
        curvature_bundle(point_jet(g, x))


def dual_batch_cases():
    """(id, metric, points): the rotational chart metrics of types II and
    III, whose structure varies, and the Sasakian family metric."""
    rng = np.random.default_rng(8)
    cases = []
    for tag, window in (("II", (0.7, 2.8)), ("III", (3.0, 5.0))):
        metric, _, _ = rotation_metric(const_hsc_profile(tag, -1.0, *window))
        t = np.linspace(window[0] + 0.2, window[1] - 0.2, 5)
        y = 0.2 * rng.normal(size=(5, 3))
        cases.append((f"rotational-{tag}", metric, np.column_stack([t, y])))
    metric, _, _ = family_h1_metric(2, 2.0)
    cases.append(("sasakian-family", metric, 0.25 * rng.normal(size=(5, 3))))
    return cases


class TestDualBatches:
    """A batched dual jet is, row by row, the one-point jet to the bit."""

    @pytest.mark.parametrize("metric,X", [c[1:] for c in dual_batch_cases()],
                             ids=[c[0] for c in dual_batch_cases()])
    def test_rows_equal_point_jets(self, metric, X):
        sieve = Sieve(len(X))
        jets = point_jets(metric, X, sieve)
        assert sieve.errors == [None] * len(X)
        assert jets.method == "dual"
        for k, x in enumerate(X):
            want = point_jet(metric, x)
            got = jets.rows(k)
            for name in ("point", "G", "dG", "d2G", "J", "dJ", "gamma1",
                         "gamma", "Ginv"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_matrix_field_first_jet_rows(self):
        # a varying complex structure is a matrix field: each row of its
        # batched first jet is its first jet at that one point to the bit
        metric, X = dual_batch_cases()[0][1:]
        J, dJ = eval_with_partials(metric.complex_structure, X)
        assert J.shape == (len(X), 4, 4) and dJ.shape == (len(X), 4, 4, 4)
        for k, x in enumerate(X):
            for one in (eval_with_partials(metric.complex_structure, x),
                        eval_with_partials(metric.complex_structure,
                                           X[k:k + 1])):
                assert np.array_equal(J[k], one[0].reshape(4, 4))
                assert np.array_equal(dJ[k], one[1].reshape(4, 4, 4))

    def test_fd_stencil_is_one_batched_read_of_g(self, monkeypatch):
        metric = potential_metric(L2, LogFamily(-1.0, 1.0))
        x = timelike_point(L2, 2.0, seed=5)
        # the same evaluator without the closed-form rule loops over points
        looped = MetricField(metric.fn, metric.dim)
        want = metric_second_jet_fd(looped, x)
        calls = {"matrices": 0, "matrix": 0}
        for name in calls:
            def counted(self, *args, name=name, method=getattr(MetricField, name)):
                calls[name] += 1
                return method(self, *args)
            monkeypatch.setattr(MetricField, name, counted)

        def no_derivatives(*args):
            raise AssertionError("the oracle reads G alone")

        monkeypatch.setattr(ambient, "_closed_form_jets", no_derivatives)
        got = metric_second_jet_fd(metric, x)
        assert calls == {"matrices": 1, "matrix": 0}
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_fd_stencil_raises_the_field_gate(self):
        metric = potential_metric(L2, LogFamily(-1.0, 1.0))
        # the stencil of a point just inside the domain leaves it
        x = timelike_point(L2, 1.0 + 1e-4, seed=5)
        with pytest.raises(DomainError):
            metric_second_jet_fd(metric, x)

    def test_empty_batch(self):
        metric, _, _ = rotation_metric(const_hsc_profile("II", -1.0, 0.7, 2.8))
        jets = point_jets(metric, np.zeros((0, 4)), Sieve(0))
        assert jets.G.shape == (0, 4, 4) and jets.d2G.shape == (0, 4, 4, 4, 4)
        assert jets.J.shape == (0, 4, 4) and jets.dJ.shape == (0, 4, 4, 4)


class TestFDBatches:
    """The finite-difference oracle over a points axis is, row by row, the
    one-point oracle to the bit."""

    @pytest.mark.parametrize("metric,X", [
        (potential_metric(L2, LogFamily(-1.0, 1.0)),
         np.array([timelike_point(L2, r, seed=s)
                   for s, r in enumerate((1.3, 1.9, 2.8))])),
        (rotation_metric(const_hsc_profile("II", -1.0, 0.7, 2.8))[0],
         np.array([[1.0, 0.1, -0.2, 0.05], [2.0, -0.1, 0.0, 0.2]]))],
        ids=["potential", "rotational"])
    def test_rows_equal_one_point_jets(self, metric, X):
        batch = metric_second_jet_fd(metric, X)
        jets = fd_jets(metric, X)
        assert jets.method == "fd"
        for k, x in enumerate(X):
            for got, want in zip(batch, metric_second_jet_fd(metric, x)):
                assert np.array_equal(got[k], want)
            one = point_jet(metric, x, method="fd")
            for name in ("G", "dG", "d2G", "J", "dJ", "gamma1", "gamma",
                         "Ginv"):
                assert np.array_equal(getattr(jets.rows(k), name),
                                      getattr(one, name)), name

    def test_one_read_of_g_for_every_stencil(self, monkeypatch):
        metric = potential_metric(L2, LogFamily(-1.0, 1.0))
        X = np.array([timelike_point(L2, 2.0, seed=s) for s in range(5)])
        seen = []
        matrices = MetricField.matrices

        def counted(self, Y):
            seen.append(len(Y))
            return matrices(self, Y)

        monkeypatch.setattr(MetricField, "matrices", counted)
        fd_jets(metric, X)
        d = L2.dim
        assert seen == [5 * (1 + 4 * d + 4 * d * (d - 1))]


def assembly_cases():
    """(id, jet): closed-form, dual and finite-difference jets of every
    potential family at four points, at n = 2..4 on its signature."""
    cases = []
    for signature, family, r in POTENTIAL_CASES:
        for n in (2, 3, 4):
            space = AmbientSpace(n, signature)
            X = np.array([point_at_radius(space, r, seed=s) for s in range(4)])
            metric = potential_metric(space, family)
            name = f"{signature}-{family.describe()}-n{n}"
            cases += [(f"{name}-closed-form", point_jets(metric, X)),
                      (f"{name}-dual", point_jets(dual_field(metric), X)),
                      (f"{name}-fd", fd_jets(metric, X))]
    return cases


ASSEMBLY_CASES = assembly_cases()


class TestFirstKindAssembly:
    """R from the second partials of g and the Christoffel symbols of both
    kinds, against the assembly from the derivatives of the symbols of the
    second kind that it replaced."""

    @pytest.mark.parametrize("jet", [c[1] for c in ASSEMBLY_CASES],
                             ids=[c[0] for c in ASSEMBLY_CASES])
    def test_matches_the_second_kind_assembly(self, jet):
        want = curvature_tensors_second_kind(jet)
        got = curvature.curvature_tensors(jet)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_gate_fires_on_a_second_jet_off_symmetry(self):
        # d2G[k, l, i, j] is symmetric in (k, l) and in (i, j); one entry
        # pushed 1e-4 off breaks the symmetries of R, and the gate sees it
        metric = potential_metric(L2, LogFamily(-1.0, 1.0))
        X = np.array([point_at_radius(L2, 2.0, seed=s) for s in range(2)])
        jet = point_jets(metric, X)
        d2G = jet.d2G.copy()
        d2G[1, 0, 1, 2, 3] += 1e-4
        bad, error = curvature.curvature_gate(curvature.curvature_tensors(
            replace(jet, d2G=d2G)))
        assert bad.tolist() == [False, True]
        assert "symmetry defect" in str(error(1))
        assert not curvature.curvature_gate(
            curvature.curvature_tensors(jet))[0].any()

    @pytest.mark.parametrize("jet", [c[1] for c in ASSEMBLY_CASES],
                             ids=[c[0] for c in ASSEMBLY_CASES])
    def test_ij_antisymmetry_is_exact(self, jet):
        # R is X less its (i, j) transpose, so the gate need not check the
        # (i, j) antisymmetry, and it decides as the three-identity gate did
        R = curvature.curvature_tensors(jet)
        assert not np.any(R + R.swapaxes(1, 2))
        assert np.array_equal(curvature.curvature_gate(R)[0],
                              curvature_gate_three_identities(R))

    def test_gate_decides_off_symmetry_as_with_three_identities(self):
        # one entry of d2G pushed off its symmetries by 1e-12 to 1 of |d2G|
        metric = potential_metric(L2, LogFamily(-1.0, 1.0))
        X = np.array([point_at_radius(L2, 2.0, seed=s) for s in range(9)])
        jet = point_jets(metric, X)
        d2G = jet.d2G.copy()
        d2G[:, 0, 1, 2, 3] += np.max(np.abs(d2G)) * np.logspace(-12, 0, 9)
        R = curvature.curvature_tensors(replace(jet, d2G=d2G))
        bad = curvature.curvature_gate(R)[0]
        assert np.array_equal(bad, curvature_gate_three_identities(R))
        assert 0 < bad.sum() < 9

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_gate_fails_a_tensor_that_is_not_finite(self, entry):
        # a nan defect is not below the gate, and neither is anything
        # against the infinite scale of an infinite entry
        metric = potential_metric(L2, LogFamily(-1.0, 1.0))
        X = np.array([point_at_radius(L2, 2.0, seed=s) for s in range(3)])
        R = curvature.curvature_tensors(point_jets(metric, X))
        R[1, 0, 1, 2, 3] = entry
        R[1, 1, 0, 2, 3] = -entry
        bad, error = curvature.curvature_gate(R)
        assert bad.tolist() == [False, True, False]
        with np.errstate(invalid="ignore"):
            assert not curvature_gate_three_identities(R)[1]
        assert "symmetry defect" in str(error(1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_large_radius_fit(self, n):
        # dlog(2, 1) has a = 2 and b = c = 0 at every radius; at r = 50 the
        # second-kind assembly loses b to 1e-7 and the frame residual to
        # 5e-8 in cancellation, which the first-kind one keeps near 2e-9
        space = AmbientSpace(n, "definite")
        X = np.array([point_at_radius(space, 50.0, seed=s) for s in range(4)])
        jet = point_jets(potential_metric(space, DefiniteLogFamily(2.0, 1.0)),
                         X)
        xi, _, gates = ambient.radial_unit_jets(space, jet)
        F, signs, frame_gates = adapted_frames(jet.G, jet.J, xi)
        assert not any(bad.any() for bad, _ in gates + frame_gates)
        bound = 1e-8
        old = frame_fit(curvature_tensors_second_kind(jet), F, signs)
        new = frame_fit(curvature.curvature_tensors(jet), F, signs)
        for coeffs, residual in (old, new):
            assert np.max(np.abs(coeffs[:, 0] - 2.0)) < 1e-12
        assert max(np.max(np.abs(old[0][:, 1])), np.max(old[1])) > bound
        assert np.max(np.abs(new[0][:, 1])) < bound
        assert np.max(new[1]) < bound
