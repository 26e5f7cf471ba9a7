"""The batched criteria of the acceptance suite: one pass per stage.

Criteria 1, 2, 6, 7 and 11 make one batched call per stage over their points,
trials or radii; they build no jet, curvature tensor or Bochner tensor per
point.  The counts here pin that, in the pattern of the jet counts of the
sasaki reports.
"""

import numpy as np
import pytest

from qck import ambient, curvature, qch, rotational, sasakian, verify

MODULES = (ambient, curvature, qch, rotational, sasakian, verify)


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls by name, through every module that holds the name;
    a point_jets call counts as "closed-form" or "dual" by its field."""
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            key = name
            if name == "point_jets":
                key = "closed-form" if args[0].jets is not None else "dual"
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("point_jets", "point_jet", "curvature_bundle",
                 "bochner_of_tensor", "bochner_arrays", "fd_jets",
                 "curvature_tensors"):
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
    # the ten points decompose in one chunk; their Bochner tensors are one call
    assert calls == {"closed-form": 1, "curvature_tensors": 1,
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
    assert run(11) == {"max_bianchi_defect": 7.89509399795106e-17,
                       "max_path_drift": 7.401516748608966e-10,
                       "max_symmetry_defect": 6.56762471931897e-16}


class TestSphereReports:
    """A report over many radii is, radius by radius, the one-radius
    report."""

    @pytest.mark.parametrize("n,orientation", [(2, "auto"), (3, "auto"),
                                               (2, "outward")])
    def test_rows_equal_sphere_report(self, n, orientation):
        space = ambient.AmbientSpace(n, "lorentz")
        family = ambient.LogFamily(-1.0, 1.0)
        radii = (1.5, 2.0, 3.0)
        reports = sasakian.sphere_reports(space, family, radii, seed=4,
                                          orientation=orientation)
        for r, rep in zip(radii, reports):
            one = sasakian.sphere_report(space, family, r, seed=4,
                                         orientation=orientation)
            assert rep.to_json() == one.to_json()

    def test_definite_radii(self):
        space = ambient.AmbientSpace(2, "definite")
        metric = ambient.flat_metric(space)
        reports = sasakian.sphere_reports(space, None, (1.0, 2.0), seed=1,
                                          metric=metric)
        for r, rep in zip((1.0, 2.0), reports):
            assert rep.gauss_delta is None
            assert abs(rep.alpha - 1.0 / r) < 1e-12
            assert rep.to_json() == sasakian.sphere_report(
                space, None, r, seed=1, metric=metric).to_json()

    def test_tangent_basis_is_the_adapted_frame(self):
        # rows 2.. of the J-adapted frame span the complement of (xi, J xi)
        space = ambient.AmbientSpace(3, "lorentz")
        metric = ambient.potential_metric(space, ambient.LogFamily(-1.0, 1.0))
        Z = np.array([sasakian._chartable_timelike_point(space, r, 2)
                      for r in (1.5, 2.5)])
        jet = curvature.point_jets(metric, Z)
        structures, F, _ = sasakian._induced_contacts(space, jet, "auto")
        for p, st_ in enumerate(structures):
            B, G = st_.tangent_basis, st_.jet.G
            assert np.array_equal(B[1:], F[p, 2:])
            assert np.allclose(B @ G @ B.T, np.eye(len(B)), atol=1e-12)
            assert np.allclose(B @ G @ st_.xi, 0.0, atol=1e-12)
