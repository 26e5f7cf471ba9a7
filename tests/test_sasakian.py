"""Induced contact structures on hyperspheres and the intrinsic family."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck import ambient, curvature, sasakian
from qck.ambient import (AmbientSpace, DefiniteLogFamily, LogFamily,
                         UserSeries, flat_metric, potential_metric)
from qck.charts import GraphChart, pullback_metric
from qck.core import j0_matrix
from qck.curvature import covariant_derivative, curvature_tensors
from qck.duals import eval_with_partials
from qck.errors import DomainError, NotSasakian, NotSpaceForm
from qck.sasakian import (alpha_sasakian_check, family_h1_metric,
                          family_h1_report, gauss_curvature_fn, phi_sectional,
                          space_form_model, space_form_model_defect,
                          sphere_phi_law, sphere_reports)
from qck.sampling import point_at_radius
from oracles import (POTENTIAL_CASES, alpha_check_looped, gauss_consistency,
                     gauss_curvature_closure, gauss_delta_looped,
                     induced_contact,
                     phi_sectional_values, space_form_samples,
                     sphere_phi_fields, tensor_closure)

L2 = AmbientSpace(2, "lorentz")
L3 = AmbientSpace(3, "lorentz")
D2 = AmbientSpace(2, "definite")
DISC = LogFamily(-1.0, 1.0)


def disc_structure(r=2.0, seed=3, orientation="auto"):
    """The metric, and the structure and hypersphere data at one point of
    the disc's hypersphere of radius r."""
    metric = potential_metric(L2, DISC)
    Z = point_at_radius(L2, r, seed=seed)
    return (metric,) + induced_contact(L2, metric, Z, orientation=orientation)


def gauss_K(structure, spheres):
    """The hypersphere curvature tensors, as ``sphere_reports`` builds
    them."""
    jet = structure.jet
    h = -covariant_derivative(jet, spheres.xi, spheres.dxi) @ jet.G
    return gauss_curvature_fn(curvature_tensors(jet), h)


def sphere_report(space, family, r, **kwargs):
    """The report of the one radius r."""
    return sphere_reports(space, family, [r], **kwargs)[0]


# f = w / 2 on the definite space: the flat metric G = H
FLAT = UserSeries((0.0, 0.5))


class TestInducedContact:
    def test_disc_sphere_alpha_and_orientation(self):
        metric, st_, sp = disc_structure(2.0)
        assert sp.orientation == ["inward"]
        assert abs(sp.k[0] - 0.5) < 1e-12
        assert abs(alpha_sasakian_check(L2, st_, sp).alpha[0] - 0.25) < 1e-12
        assert sp.identity_defect[0] < 1e-10

    def test_definite_sphere_is_outward(self):
        metric = flat_metric(D2)
        rng = np.random.default_rng(0)
        Z = 2.0 * rng.normal(size=4)
        Z /= np.linalg.norm(Z) / 2.0
        st_, sp = induced_contact(D2, metric, Z)
        assert sp.orientation == ["outward"]
        assert abs(sp.k[0] - 1.0) < 1e-12
        assert abs(alpha_sasakian_check(D2, st_, sp).alpha[0] - 0.5) < 1e-12

    def test_explicit_orientation_flips_alpha(self):
        metric, st_, sp = disc_structure(2.0, orientation="outward")
        assert sp.orientation == ["outward"]
        assert abs(sp.k[0] + 0.5) < 1e-12
        assert abs(alpha_sasakian_check(L2, st_, sp).alpha[0] + 0.25) < 1e-12

    def test_tangent_basis_orthonormal(self):
        metric, st_, sp = disc_structure(2.0)
        G = st_.jet.G[0]
        B = st_.tangent_basis[0]
        assert B.shape == (3, 4)
        gram = B @ G @ B.T
        assert np.allclose(gram, np.eye(3), atol=1e-10)
        assert np.allclose(B @ G @ sp.xi[0], 0.0, atol=1e-10)

    def test_phi_kills_reeb(self):
        metric, st_, sp = disc_structure(2.0)
        assert np.allclose(st_.phi[0] @ st_.xi_tilde[0], 0.0, atol=1e-12)

    def test_tangential_projector(self):
        # it kills the normal and keeps every tangent vector
        metric, st_, sp = disc_structure(2.0)
        T = st_.tangential[0]
        assert np.allclose(T @ sp.xi[0], 0.0, atol=1e-12)
        assert np.allclose(st_.tangent_basis[0] @ T.T, st_.tangent_basis[0],
                           atol=1e-12)


class TestAlphaCheck:
    def test_disc_sphere_law(self):
        metric, st_, sp = disc_structure(2.0)
        chk = alpha_sasakian_check(L2, st_, sp)
        assert abs(chk.alpha[0] - 0.25) < 1e-12
        assert chk.alpha_defect[0] < 1e-12
        assert chk.phi_defect[0] < 1e-12

    def test_outward_orientation_fits_negative_alpha(self):
        metric, st_, sp = disc_structure(2.0, orientation="outward")
        chk = alpha_sasakian_check(L2, st_, sp)
        assert abs(chk.alpha[0] + 0.25) < 1e-12
        assert chk.alpha_defect[0] < 1e-12

    def test_perturbed_structure_raises(self):
        metric, st_, sp = disc_structure(2.0)
        bad = dataclasses.replace(st_, phi=st_.phi + 0.01 * np.eye(4))
        with pytest.raises(NotSasakian):
            alpha_sasakian_check(L2, bad, sp)

    @pytest.mark.parametrize("n", [2, 3])
    def test_batched_laws_match_the_loop(self, monkeypatch, n):
        # on structures with a perturbed phi, where both defects are large
        space = AmbientSpace(n, "lorentz")
        jet = curvature.point_jets(potential_metric(space, DISC), np.array(
            [point_at_radius(space, r, seed=n) for r in (1.5, 2.0, 3.0)]))
        st_, sp, _, _ = sasakian._induced_contacts(space, jet, "auto")
        bad = dataclasses.replace(st_, phi=st_.phi + 0.01 * np.eye(2 * n))
        monkeypatch.setattr(sasakian, "ALPHA_GATE", 1.0)
        J0 = j0_matrix(n)
        dreeb, law = sp.dxi @ J0.T, sphere_phi_law(bad, sp, J0)
        chk = sasakian._alpha_check(bad, dreeb, law)
        for p in range(3):
            want = alpha_check_looped(bad, dreeb, law, p)
            got = (chk.alpha[p], chk.alpha_defect[p], chk.phi_defect[p])
            assert chk.phi_defect[p] > 1e-3
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_gate_override_reports_instead(self, monkeypatch):
        metric, st_, sp = disc_structure(2.0)
        bad = dataclasses.replace(st_, phi=st_.phi + 0.01 * np.eye(4))
        monkeypatch.setattr(sasakian, "ALPHA_GATE", 1.0)
        chk = alpha_sasakian_check(L2, bad, sp)
        assert chk.alpha_defect[0] > 1e-4


def _rel(got, want) -> float:
    """Largest entry difference over the largest entry of the reference."""
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


class TestSpherePhiLaw:
    """The closed-form jets of the phi-law fields against the dual
    reference, whose fields evaluate the metric and differentiate it by
    duals, on every potential family."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("signature,family,r", POTENTIAL_CASES)
    @pytest.mark.parametrize("orientation", ["outward", "inward"])
    def test_matches_dual_reference(self, n, signature, family, r,
                                    orientation):
        space = AmbientSpace(n, signature)
        metric = potential_metric(space, family)
        x = point_at_radius(space, r, seed=n)
        structure, spheres = induced_contact(space, metric, x,
                                             orientation=orientation)
        (PY, dPY), (Y, dY) = sphere_phi_law(structure, spheres, j0_matrix(n))
        fields = sphere_phi_fields(space, metric, orientation)
        want = [[eval_with_partials(f, x) for f in fields(list(y))]
                for y in structure.tangent_basis[0]]
        for got, b in ((PY, 0), (Y, 1)):
            assert _rel(got[0], np.array([w[b][0] for w in want])) <= 1e-13
        for got, b in ((dPY, 0), (dY, 1)):
            assert _rel(got[0], np.array([w[b][1] for w in want])) <= 1e-13


class TestPhiSectional:
    def test_disc_sphere_value(self):
        metric, st_, sp = disc_structure(2.0)
        ps = phi_sectional(st_, gauss_K(st_, sp), seed=4)
        assert abs(ps.c[0] + 15.0 / 16.0) < 1e-12
        assert ps.spread[0] < 1e-12
        assert np.count_nonzero(~np.isnan(ps.values[0])) > 5

    def test_orientation_independent(self):
        metric, st_in, sp_in = disc_structure(2.0)
        _, st_out, sp_out = disc_structure(2.0, orientation="outward")
        c_in = phi_sectional(st_in, gauss_K(st_in, sp_in), seed=1).c
        c_out = phi_sectional(st_out, gauss_K(st_out, sp_out), seed=1).c
        assert abs(c_in[0] - c_out[0]) < 1e-12

    def test_mixed_directions_fail_space_form(self):
        metric, st_, sp = disc_structure(2.0)
        B = st_.tangent_basis.copy()
        # contaminate the distribution rows with the Reeb direction
        B[0, 1] = 0.8 * B[0, 1] + 0.6 * B[0, 0]
        bad = dataclasses.replace(st_, tangent_basis=B)
        with pytest.raises(NotSpaceForm):
            phi_sectional(bad, gauss_K(bad, sp), seed=2)


class TestSpaceFormModel:
    def test_disc_sphere_model_holds(self):
        metric, st_, sp = disc_structure(2.0)
        K = gauss_K(st_, sp)
        d = space_form_model_defect(st_, K, [-15.0 / 16.0], [0.25])
        assert d[0] < 1e-12

    def test_wrong_coefficients_fail(self):
        metric, st_, sp = disc_structure(2.0)
        K = gauss_K(st_, sp)
        d = space_form_model_defect(st_, K, [-15.0 / 16.0 + 0.1], [0.25])
        assert d[0] > 1e-3


class TestGaussConsistency:
    MIN_DEN = 10.0

    def test_disc_sphere_intrinsic_matches(self):
        metric, st_, sp = disc_structure(2.0)
        assert gauss_consistency(L2, metric, st_, sp, gauss_K(st_, sp))[0] < 1e-10

    def test_batched_planes_match_the_loop(self, monkeypatch):
        # every row keeps the planes, in draw order, that the loop accepts:
        # with a threshold that rejects some of them, and a K scaled off
        # the intrinsic curvature so that each plane's gap is its own
        monkeypatch.setattr(sasakian, "GAUSS_MIN_DEN", self.MIN_DEN)
        metric = potential_metric(L3, DISC)
        Z = np.array([sasakian._chartable_timelike_point(L3, r, 6)
                      for r in (1.5, 2.0, 3.0)])
        st_, sp = sasakian._induced_contacts(
            L3, curvature.point_jets(metric, Z), "auto")[:2]
        K = 1.5 * gauss_K(st_, sp)
        chart, U = sasakian._sphere_chart(L3, Z, sp.radius)
        cjet = curvature.point_jets(pullback_metric(chart, metric), U)
        Rc = curvature_tensors(cjet)
        got = gauss_consistency(L3, metric, st_, sp, K, seed=6)
        for p in range(3):
            want, drawn = gauss_delta_looped(st_, K, cjet, Rc, 6, p,
                                              self.MIN_DEN)
            assert drawn > 6
            assert abs(got[p] - want) <= 1e-12 * want

    def test_definite_signature_unsupported(self):
        metric = flat_metric(D2)
        Z = np.array([0.3, 0.1, 0.2, 2.0])
        Z *= 2.0 / np.linalg.norm(Z)
        st_, sp = induced_contact(D2, metric, Z)
        with pytest.raises(DomainError):
            gauss_consistency(D2, metric, st_, sp, gauss_K(st_, sp))


class TestSphereReport:
    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_radius_sweep(self, r):
        rep = sphere_report(L2, DISC, r, seed=5)
        assert abs(rep.alpha - 1.0 / (2.0 * r)) < 1e-12
        assert abs(rep.c_plus_3a2 + (r * r - 1.0) / (r * r)) < 1e-12
        assert rep.type_tag == "III"
        assert rep.alpha_defect < 1e-10
        assert rep.c_spread < 1e-10
        assert rep.model_defect < 1e-10
        assert rep.decompose_delta < 1e-10
        assert rep.gauss_delta < 1e-8

    def test_classical_round_sphere(self):
        rep = sphere_report(D2, FLAT, 1.0, seed=1)
        assert abs(rep.alpha - 1.0) < 1e-12
        assert abs(rep.c - 1.0) < 1e-12
        assert rep.type_tag == "I"

    def test_round_sphere_radius_two(self):
        rep = sphere_report(D2, FLAT, 2.0, seed=1)
        assert abs(rep.alpha - 0.5) < 1e-12
        assert abs(rep.c - 0.25) < 1e-12
        assert abs(rep.c_plus_3a2 - rep.decomposition.a_plus_k2) < 1e-12

    def test_json_keys(self):
        rep = sphere_report(L2, DISC, 2.0, seed=3)
        out = rep.to_json()
        for key in ("alpha", "alpha_defect", "c", "c_plus_3a2", "type",
                    "ambient", "gauss_delta"):
            assert key in out
        assert out["type"] == "III"

    def test_larger_n(self):
        rep = sphere_report(L3, DISC, 2.0, seed=7)
        assert abs(rep.alpha - 0.25) < 1e-12
        assert abs(rep.c_plus_3a2 + 0.75) < 1e-12


class TestFamily:
    @pytest.mark.parametrize("q,c", [(1.0, -7.0), (2.0, -4.0)])
    def test_prescribed_curvature(self, q, c):
        rep = family_h1_report(2, q, seed=0)
        assert abs(rep.alpha - 1.0) < 1e-12
        assert abs(rep.c - c) < 1e-12
        assert rep.type_tag == "III"
        assert rep.alpha_defect < 1e-12
        assert rep.phi_defect < 1e-12
        assert rep.model_defect < 1e-12

    def test_larger_n(self):
        rep = family_h1_report(3, 2.0, seed=1)
        assert abs(rep.alpha - 1.0) < 1e-12
        assert abs(rep.c + 4.0) < 1e-12

    def test_bad_parameter(self):
        with pytest.raises(DomainError):
            family_h1_metric(2, -1.0)

    @settings(max_examples=8, deadline=None)
    @given(q=st.floats(0.5, 3.0))
    def test_curvature_law_property(self, q):
        rep = family_h1_report(2, q, seed=2)
        assert abs(rep.c + 3.0 + 4.0 / (q * q)) < 1e-10
        assert abs(rep.alpha - 1.0) < 1e-10


def reported(monkeypatch, run):
    """The structure, hypersphere data and curvature tensors a report
    checks, with its checked derivative laws, captured as ``run`` passes
    them to ``_reports``."""
    seen = {}
    inner, contacts = sasakian._reports, sasakian._induced_contacts

    def capture(structure, check, K, seed, **fields):
        seen.update(structure=structure, check=check, K=K, seed=seed)
        return inner(structure, check, K, seed, **fields)

    def capture_spheres(*args):
        out = contacts(*args)
        seen.update(spheres=out[1])
        return out

    monkeypatch.setattr(sasakian, "_reports", capture)
    monkeypatch.setattr(sasakian, "_induced_contacts", capture_spheres)
    return run(), seen


class TestTensorAgainstClosure:
    """The curvature tensor, the space form model tensor and their batched
    contractions against the closure references that evaluate one quadruple
    at a time, within 1e-13 of max(1, |value|)."""

    BOUND = 1e-13

    def assert_close(self, got, want):
        got, want = np.asarray(got, float), np.asarray(want, float)
        bound = self.BOUND * np.maximum(1.0, np.abs(want))
        assert np.all(np.abs(got - want) <= bound)

    def compare(self, rep, seen, K_ref):
        structure, K = seen["structure"], seen["K"]
        assert K.shape == (1,) + (structure.jet.G.shape[-1],) * 4
        vals = phi_sectional_values(structure, K_ref, seed=seen["seed"])
        got = phi_sectional(structure, K, seed=seen["seed"]).values[0]
        self.assert_close(got[~np.isnan(got)], vals)
        self.assert_close(rep.c, np.mean(vals))
        quads, kvals, mvals = space_form_samples(structure, K_ref, rep.c,
                                                 rep.alpha)
        x, y, z, u = (np.array(v)[None] for v in zip(*quads))
        self.assert_close(sasakian._quadruple(K, x, y, z, u)[0], kvals)
        model = space_form_model(structure, [rep.c], [rep.alpha])
        self.assert_close(sasakian._quadruple(model, x, y, z, u)[0], mvals)
        worst = max(abs(k - m) for k, m in zip(kvals, mvals))
        assert abs(rep.model_defect - worst) <= self.BOUND * max(
            1.0, max(abs(k) for k in kvals))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("space_of,family,r", [
        (lambda n: AmbientSpace(n, "lorentz"), DISC, 2.0),
        (lambda n: AmbientSpace(n, "definite"), DefiniteLogFamily(2.0, 1.0), 0.7),
    ], ids=["lorentz", "definite"])
    @pytest.mark.parametrize("orientation", ["outward", "inward"])
    def test_sphere(self, monkeypatch, n, space_of, family, r, orientation):
        rep, seen = reported(monkeypatch, lambda: sphere_report(
            space_of(n), family, r, seed=n, orientation=orientation))
        structure = seen["structure"]
        R = curvature_tensors(structure.jet)
        self.compare(rep, seen,
                     gauss_curvature_closure(structure, seen["spheres"], R))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("q", [0.7, 1.0, 2.0])
    def test_family(self, monkeypatch, n, q):
        rep, seen = reported(monkeypatch, lambda: family_h1_report(n, q))
        R = curvature_tensors(seen["structure"].jet)
        self.compare(rep, seen, tensor_closure(R[0]))


class TestJetCounts:
    """A report takes one jet per point it works at and reuses it, with its
    connection; the only field it differentiates by duals, besides the
    metrics without a closed-form rule, is the family's chart structure,
    phi and the Reeb field in one evaluation.  "second" counts the metric jets, "dual" those of them taken by
    the one second-order dual kernel, and "partials" the calls of the one
    first-order kernel."""

    @pytest.fixture
    def jets(self, monkeypatch):
        counts = {"second": 0, "dual": 0, "christoffel": 0, "partials": 0}

        def counted(kind, build):
            def wrapper(*args, **kwargs):
                counts[kind] += 1
                return build(*args, **kwargs)
            return wrapper

        for name in ("point_jets", "fd_jets"):
            monkeypatch.setattr(curvature, name,
                                counted("second", getattr(curvature, name)))
        monkeypatch.setattr(sasakian, "point_jets", curvature.point_jets)
        monkeypatch.setattr(curvature, "_second_jets",
                            counted("dual", curvature._second_jets))
        monkeypatch.setattr(curvature, "_connection",
                            counted("christoffel", curvature._connection))
        partials = counted("partials", curvature.eval_with_partials)
        monkeypatch.setattr(curvature, "eval_with_partials", partials)
        monkeypatch.setattr(sasakian, "eval_with_partials", partials)
        return counts

    def test_sphere_report(self, jets):
        # one closed-form jet at Z and one dual jet of the pulled-back chart
        # metric that the intrinsic cross-check differentiates
        sphere_report(L2, DISC, 2.0)
        assert jets == {"second": 2, "dual": 1, "christoffel": 2,
                        "partials": 0}

    def test_family_report(self, jets):
        # the metric's dual jet, and one first jet of the chart phi and
        # Reeb fields
        family_h1_report(2, 2.0)
        assert jets == {"second": 1, "dual": 1, "christoffel": 1,
                        "partials": 1}

    @pytest.mark.parametrize("n", [2, 3])
    def test_family_report_solves_the_chart_twice(self, monkeypatch, n):
        # once for the metric's jet and once for phi and the Reeb field
        calls = {"fn_jac": 0, "solved": 0}
        for name, key in (("fn_jac", "fn_jac"), ("_solved", "solved")):
            method = getattr(GraphChart, name)

            def counted(chart, u, method=method, key=key):
                calls[key] += 1
                return method(chart, u)

            monkeypatch.setattr(GraphChart, name, counted)
        family_h1_report(n, 2.0)
        assert calls == {"fn_jac": 2, "solved": 2}


class TestEvaluationCounts:
    """A report assembles the curvature tensors of each jet it takes once,
    and each field evaluation runs the metric once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"curvature": 0, "evaluations": 0}

        def tensors(jet):
            counts["curvature"] += 1
            return curvature.curvature_tensors(jet)

        init = ambient.MetricField.__init__

        def counted_init(field, *args, **kwargs):
            init(field, *args, **kwargs)
            evaluate = field.fn

            def fn(x):
                counts["evaluations"] += 1
                return evaluate(x)

            field.fn = fn

        monkeypatch.setattr(sasakian, "curvature_tensors", tensors)
        monkeypatch.setattr(ambient.MetricField, "__init__", counted_init)
        return counts

    def test_sphere_report(self, counts):
        # curvature at Z and on the pulled-back chart metric; evaluations:
        # the chart metric's jet (2 with the ambient metric it pulls back).
        # The jet at Z, which the unit normal, the Reeb field, the phi law
        # and the Gauss equation read, is closed form and evaluates nothing.
        sphere_report(L2, DISC, 2.0)
        assert counts == {"curvature": 2, "evaluations": 2}

    def test_family_report(self, counts):
        # the family metric pulls the flat form back with its own chart
        # Jacobian, so its jet is one evaluation
        family_h1_report(2, 2.0)
        assert counts == {"curvature": 1, "evaluations": 1}
