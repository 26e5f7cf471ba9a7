"""The batched criteria of the acceptance suite: one pass per stage.

Criteria 1, 2, 6, 7 and 11 make one batched call per stage over their points,
trials or radii; they build no jet, curvature tensor or Bochner tensor per
point.  Criteria 2 to 5 make one decomposition pass per space, over the
points of all its potentials.  The counts here pin that, in the pattern of the jet counts of the
sasaki reports.
"""

import numpy as np
import pytest

from qck import ambient, curvature, qch, rotational, sasakian, verify
from qck.errors import NumericalBreakdown

MODULES = (ambient, curvature, qch, rotational, sasakian, verify)


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls by name, through every module that holds the name;
    a gated_jets call, which every jet but the finite-difference one goes
    through, counts as "closed-form" or "dual" by its method."""
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            key = name
            if name == "gated_jets":
                key = args[6]
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("gated_jets", "bochner_of_tensor", "bochner_arrays",
                 "fd_jets", "curvature_tensors"):
        wrapper = counted(name, getattr(
            curvature if hasattr(curvature, name) else qch, name))
        for module in MODULES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    monkeypatch.setattr(ambient.MetricField, "matrices",
                        counted("matrices", ambient.MetricField.matrices))
    return counts


def run(number):
    details, failures = verify.CRITERIA[number][2]()
    assert not failures
    return details


def test_flat_baselines(calls):
    run(1)
    # one dual jet per space at its two points, and their curvature
    assert calls == {"dual": 3, "curvature_tensors": 3}


def test_disc_model(calls):
    run(2)
    # the ten points decompose in one pass, and one more jet of them gives
    # the R, G and J that the record does not keep; their Bochner tensors
    # are one call
    assert calls == {"closed-form": 2, "curvature_tensors": 2,
                     "bochner_arrays": 1}


def test_bochner_equivalence(calls):
    run(6)
    assert calls == {"bochner_arrays": 1}


def test_hypersphere_structures(calls):
    run(7)
    # one closed-form jet at the three points Z, one dual jet of the
    # pulled-back metric at the three chart points, and their curvature
    assert calls == {"closed-form": 1, "dual": 1, "curvature_tensors": 2}


def test_numerical_hygiene(calls):
    run(11)
    # the exact jets of the five points, and the finite-difference stencils
    # of all five in one read of G
    assert calls == {"closed-form": 1, "fd_jets": 1, "matrices": 1,
                     "curvature_tensors": 2}


def test_numerical_hygiene_details_keep_their_values():
    # the batched jets are the one-point jets to the bit
    assert run(11) == {"max_bianchi_defect": 1.1929754110788605e-16,
                       "max_path_drift": 7.401515809708051e-10,
                       "max_symmetry_defect": 1.9098984405129389e-16}


class TestSphereReports:
    """A report over many radii is, radius by radius, the one-radius
    report, and its checks are one batched call each, whatever the number
    of radii."""

    @pytest.mark.parametrize("n,orientation", [(2, "auto"), (3, "auto"),
                                               (2, "outward")])
    def test_rows_equal_sphere_report(self, n, orientation):
        space = ambient.AmbientSpace(n, "lorentz")
        family = ambient.LogFamily(-1.0, 1.0)
        radii = (1.5, 2.0, 3.0)
        reports = sasakian.sphere_reports(space, family, radii, seed=4,
                                          orientation=orientation)
        for r, rep in zip(radii, reports):
            one = sasakian.sphere_reports(space, family, [r], seed=4,
                                          orientation=orientation)[0]
            assert rep.to_json() == one.to_json()

    def test_definite_radii(self):
        space = ambient.AmbientSpace(2, "definite")
        metric = ambient.flat_metric(space)
        reports = sasakian.sphere_reports(space, None, (1.0, 2.0), seed=1,
                                          metric=metric)
        for r, rep in zip((1.0, 2.0), reports):
            assert rep.gauss_delta is None
            assert abs(rep.alpha - 1.0 / r) < 1e-12
            assert rep.to_json() == sasakian.sphere_reports(
                space, None, [r], seed=1, metric=metric)[0].to_json()

    def test_tangent_basis_is_the_adapted_frame(self):
        # rows 2.. of the J-adapted frame span the complement of (xi, J xi)
        space = ambient.AmbientSpace(3, "lorentz")
        metric = ambient.potential_metric(space, ambient.LogFamily(-1.0, 1.0))
        Z = np.array([sasakian._chartable_timelike_point(space, r, 2)
                      for r in (1.5, 2.5)])
        jet = curvature.point_jets(metric, Z)
        structure, spheres, F, _ = sasakian._induced_contacts(space, jet,
                                                              "auto")
        B, G = structure.tangent_basis, jet.G
        assert np.array_equal(B[:, 1:], F[:, 2:])
        eye = np.broadcast_to(np.eye(B.shape[1]), (2,) + (B.shape[1],) * 2)
        assert np.allclose(B @ G @ B.swapaxes(1, 2), eye, atol=1e-12)
        assert np.allclose(np.einsum("pbi,pij,pj->pb", B, G, spheres.xi),
                           0.0, atol=1e-12)

    KERNELS = ("covariant_derivative", "_quadruple", "tangent_params",
               "_alpha_check", "sphere_phi_law", "gauss_curvature_fn",
               "phi_sectional", "space_form_model", "space_form_model_defect",
               "_gauss_delta")

    def kernel_calls(self, monkeypatch, radii):
        counts = dict.fromkeys(self.KERNELS, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with monkeypatch.context() as patch:
            for name in self.KERNELS:
                patch.setattr(sasakian, name,
                              counted(name, getattr(sasakian, name)))
            sasakian.sphere_reports(ambient.AmbientSpace(2, "lorentz"),
                                    ambient.LogFamily(-1.0, 1.0), radii,
                                    seed=2)
        return counts

    def test_checks_do_not_loop_over_radii(self, monkeypatch):
        one = self.kernel_calls(monkeypatch, [2.0])
        assert all(one.values())
        assert self.kernel_calls(monkeypatch, [1.5, 2.0, 3.0]) == one

    def test_gauss_planes_that_never_clear_the_determinant(self,
                                                           monkeypatch):
        monkeypatch.setattr(sasakian, "GAUSS_MIN_DEN", 1e9)
        with pytest.raises(NumericalBreakdown, match="seeded planes"):
            sasakian.sphere_reports(ambient.AmbientSpace(2, "lorentz"),
                                    ambient.LogFamily(-1.0, 1.0), [2.0],
                                    seed=2)


@pytest.mark.parametrize("number,passes,defects", [
    (2, 2, 1), (3, 2, 2), (4, 1, 1), (5, 1, 1)])
def test_potential_criteria_make_one_pass_per_space(monkeypatch, number,
                                                   passes, defects):
    # criterion 3 decomposes its five n = 2 potentials in one pass and its
    # n = 3 one in another, and criteria 4 and 5 put both of their
    # potentials in one pass; each pass takes one Kahler defect call over
    # its jets.  Criterion 2 takes one more jet, of its ten points.
    counts = {"_closed_form_jets": 0, "kahler_defect": 0}

    def counted(name, module):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted("_closed_form_jets", ambient)
    counted("kahler_defect", qch)
    run(number)
    assert counts == {"_closed_form_jets": passes, "kahler_defect": defects}


def test_potential_criteria_details_keep_their_values():
    # rows of several potentials in one pass give the values of one pass
    # per potential to the bit
    assert run(3) == {"max_a_plus_k2": -0.12282996967259274,
                      "max_kahler_defect": 5.684341886080802e-14,
                      "max_residual": 5.738974460780458e-15}
    assert run(4) == {"max_residual": 2.212933205909797e-15,
                      "min_a_plus_k2": 1.5978245547610312}
    assert run(5) == {"max_relative_error": 1.2940508021230037e-13}
