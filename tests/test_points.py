"""The points axis: ``qch.decompose_points`` in a batch against the same
points one at a time, and the block sampler of ``sampling.radial_points``
against the point-by-point loop.

A batch runs every stage once over its points and narrows it past each
gate; a point alone runs the same kernels with a points axis of length 1,
which is also what the one-point library functions run.  Every entry of a
batch must equal its one-point result, error text included, and a report
must not depend on where the chunks fall.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck import cli, qch, sampling
from qck.ambient import (AmbientSpace, DefiniteLogFamily, InverseFamily,
                         LogFamily, UserSeries, admissibility,
                         potential_metric)
from qck.errors import DomainError, QckError, Sieve
from qck.qch import decompose_points
from qck.sampling import point_at_radius, radial_points
from oracles import (curvature_bundle, decompose, extract_shape_data,
                     point_jet, radial_unit_jet)

L2 = AmbientSpace(2, "lorentz")
D2 = AmbientSpace(2, "definite")
SERIES = UserSeries((0.0, 1.0, 0.1))

# Lorentz series points: admissible, the origin (outside the family domain),
# space-like (no radius), time-like but inadmissible (f'+wf'' > 0), and
# time-like near the admissibility edge
LORENTZ_MIX = np.array([[0.3, 0.1, 1.2, 1.55], [0.0, 0.0, 0.0, 0.0],
                        [2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
                        [0.2, -0.4, 1.6, 0.9]])
# a definite point on a coordinate axis skips the first two coordinate
# directions of its complement basis, next to a generic one
DEFINITE_MIX = np.array([[1.3, 0.0, 0.0, 0.0], [0.4, -0.7, 0.2, 0.5]])
SHAPE_FIELDS = ("k", "p_star", "variant", "spread", "model_defect")


def describe(exc):
    return None if exc is None else f"{type(exc).__name__}: {exc}"


def same(a, b):
    """Exact equality of two results, field by field."""
    assert np.array_equal(a.point, b.point)
    assert vars(a.admissibility).keys() == vars(b.admissibility).keys()
    for key, v in vars(a.admissibility).items():
        assert np.array_equal(v, vars(b.admissibility)[key], equal_nan=True)
    for name in ("error", "shape_error", "fit_error"):
        assert describe(getattr(a, name)) == describe(getattr(b, name))
    assert a.fit == b.fit
    assert (a.bundle is None) == (b.bundle is None)
    if a.bundle is not None:
        assert np.array_equal(a.bundle.R.a, b.bundle.R.a)
        for key in ("G", "dG", "d2G", "gamma"):
            assert np.array_equal(getattr(a.bundle.jet, key),
                                  getattr(b.bundle.jet, key))
    assert (a.xi is None) == (b.xi is None)
    if a.xi is not None:
        assert np.array_equal(a.xi, b.xi)
    assert (a.shape is None) == (b.shape is None)
    if a.shape is not None:
        assert np.array_equal(a.shape.xi, b.shape.xi)
        assert [getattr(a.shape, f) for f in SHAPE_FIELDS] == \
            [getattr(b.shape, f) for f in SHAPE_FIELDS]


def one_at_a_time(space, family, X, **kwargs):
    return [next(decompose_points(space, family, x[None], **kwargs)) for x in X]


class TestParity:
    @pytest.mark.parametrize("checked", [False, True])
    def test_mixed_lorentz_batch(self, checked):
        batch = list(decompose_points(L2, SERIES, LORENTZ_MIX, checked=checked))
        for got, want in zip(batch, one_at_a_time(L2, SERIES, LORENTZ_MIX,
                                                   checked=checked)):
            same(got, want)
        errors = [describe(r.first_error) for r in batch]
        assert errors[0] is None
        assert errors[1] == ("DomainError: square norm 0 outside the family "
                             "domain")
        if checked:
            assert errors[2].startswith("AdmissibilityError: inadmissible at w=4")
            assert errors[3].startswith("AdmissibilityError: inadmissible at w=-1")
        else:
            assert errors[2] == ("DomainError: square norm 4 has no radius on "
                                 "the lorentz background")
            # past the curvature gate: the entry keeps its bundle, then
            # fails on its unit field
            assert errors[3] == ("FrameError: radial direction has "
                                 "non-positive square norm -1.200e+00")
            assert not batch[3].admissibility.ok
            assert batch[3].bundle is not None and batch[3].xi is None
            assert np.linalg.eigvalsh(batch[3].bundle.jet.G)[0] < 0

    def test_shape_error_keeps_its_fit(self):
        # inadmissible series points: one has no space-like complement
        # basis, and the fit on its unit field still stands
        # (check-potential's fallback)
        family = UserSeries((0.0, 1.0, 1.0))
        X = np.array(radial_points(L2, 5, 0.3, 0.9, seed=3))
        batch = list(decompose_points(L2, family, X, checked=False))
        for got, want in zip(batch, one_at_a_time(L2, family, X,
                                                   checked=False)):
            same(got, want)
        fallback = [r for r in batch if r.shape_error is not None]
        assert fallback and all(r.fit is not None for r in fallback)
        assert describe(fallback[0].shape_error) == (
            "FrameError: could not complete a basis of the complement "
            "distribution")

    def test_definite_axis_point(self):
        batch = list(decompose_points(D2, DefiniteLogFamily(2.0, 1.0),
                                      DEFINITE_MIX))
        for got, want in zip(batch, one_at_a_time(
                D2, DefiniteLogFamily(2.0, 1.0), DEFINITE_MIX)):
            same(got, want)
        assert all(r.first_error is None for r in batch)
        assert batch[0].decomposition.klass == "positive"

    @pytest.mark.parametrize("space,family,X", [
        (L2, SERIES, LORENTZ_MIX),
        (D2, DefiniteLogFamily(2.0, 1.0), DEFINITE_MIX)])
    def test_one_point_functions_agree(self, space, family, X):
        # the library's one-point chain raises where the batch records
        metric = potential_metric(space, family)
        for res in decompose_points(space, family, X):
            try:
                jet = point_jet(metric, res.point)
                bundle = curvature_bundle(jet)
                shape = extract_shape_data(jet, *radial_unit_jet(space, jet))
                dec = decompose(bundle, shape)
            except QckError as exc:
                assert describe(exc) == describe(res.first_error)
                continue
            assert res.first_error is None
            assert dec == res.decomposition
            assert np.array_equal(bundle.R.a, res.bundle.R.a)


def test_sieve_records_the_first_failure_and_narrows_only_past_one():
    sieve = Sieve(3)
    never = (np.zeros(3, dtype=bool), lambda j: DomainError("never"))
    assert sieve.drop([never]) == slice(None)
    keep = sieve.drop([
        (np.array([False, True, False]), lambda j: DomainError(f"first {j}")),
        (np.array([False, True, True]), lambda j: DomainError(f"second {j}"))])
    assert keep.tolist() == [True, False, False]
    assert sieve.running.tolist() == [0]
    assert [describe(e) for e in sieve.errors] == [
        None, "DomainError: first 1", "DomainError: second 2"]


def test_points_must_match_the_chart():
    with pytest.raises(ValueError, match="4-dimensional chart"):
        next(decompose_points(L2, SERIES, np.zeros((2, 6))))


class TestChunks:
    @pytest.mark.parametrize("command", ["check-potential", "decompose"])
    def test_report_does_not_depend_on_chunks(self, capsys, monkeypatch,
                                              command):
        count = qch.CHUNK + 1
        argv = [command, "--n", "3", "--count", str(count), "--seed", "2"]

        def report():
            assert cli.main(argv) == 0
            return capsys.readouterr().out

        chunked = report()
        monkeypatch.setattr(qch, "CHUNK", count)
        assert report() == chunked
        assert len(json.loads(chunked)["points"]) == count


CASES = [("lorentz", LogFamily(-1.0, 1.0)), ("lorentz", LogFamily(-2.0, 1.5)),
         ("lorentz", InverseFamily()), ("lorentz", SERIES),
         ("definite", DefiniteLogFamily(2.0, 1.0)),
         ("definite", DefiniteLogFamily(1.0, 1.5)), ("definite", SERIES)]


def close(a, b):
    """Equal within 1e-13 of max(1, |b|) entry by entry; None only to None."""
    if a is None or b is None:
        return a is b
    return all(abs(x - y) <= 1e-13 * max(1.0, abs(y))
               for x, y in zip(np.atleast_1d(a), np.atleast_1d(b)))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([2, 3, 4]), case=st.sampled_from(CASES),
       radii=st.lists(st.floats(0.3, 4.0), min_size=2, max_size=5),
       seed=st.integers(0, 2**16))
def test_batch_matches_one_point(n, case, radii, seed):
    signature, family = case
    space = AmbientSpace(n, signature)
    rng = np.random.default_rng(seed)
    X = np.array([point_at_radius(space, r, rng=rng) for r in radii])
    batch = list(decompose_points(space, family, X, checked=False))
    for got, want in zip(batch, one_at_a_time(space, family, X,
                                              checked=False)):
        for name in ("error", "shape_error", "fit_error"):
            assert describe(getattr(got, name)) == describe(getattr(want, name))
        assert close(got.fit, want.fit)
        assert (got.bundle is None) == (want.bundle is None)
        if want.bundle is not None:
            assert close(got.bundle.R.a.ravel(), want.bundle.R.a.ravel())
        if want.shape is not None:
            assert close((got.shape.k, got.shape.p_star),
                         (want.shape.k, want.shape.p_star))


class TestRadialPoints:
    """The block sampler draws the sample of the point-by-point loop."""

    # SHA-256 of the float64 bytes of the samples of seeds 0..9, by count,
    # drawn by the point-by-point sampler that preceded the block one
    DIGESTS = {
        1: "2109e5bd1f61e8c97a995dd89f98b9548b885095f5127f0f6bbc1aa298dd944a",
        5: "9b8c669a18d211aeb5163f746bd1aa10799914b33b7fbacb519519d0a7a56fec",
        10: "e93947b153021728d7a53c19d9b0fead1eafbf8e66a1479f369b699bea06eb9b",
    }
    # rejects the fifth of the radii in [1, 3.5] that lie inside r0 = 1.5
    FAMILY = LogFamily(-2.0, 1.5)

    @staticmethod
    def looped(space, count, rmin, rmax, seed, family):
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < count:
            x = point_at_radius(space, rng.uniform(rmin, rmax), rng=rng)
            w = float(space.square_norm(x))
            if family.in_domain(w) and admissibility(space, family, w).ok:
                pts.append(x)
        return pts

    @pytest.mark.parametrize("count", [1, 5, 10])
    def test_bit_for_bit_with_the_loop(self, count):
        digest = hashlib.sha256()
        for seed in range(10):
            got = radial_points(L2, count, 1.0, 3.5, seed=seed,
                                family=self.FAMILY)
            want = self.looped(L2, count, 1.0, 3.5, seed, self.FAMILY)
            assert np.array_equal(np.array(got), np.array(want))
            digest.update(np.array(got).tobytes())
        assert digest.hexdigest() == self.DIGESTS[count]

    def test_no_draw_after_the_last_point_kept(self, monkeypatch):
        draws = []
        point_at = sampling.point_at_radius

        def counted(*args, **kwargs):
            x = point_at(*args, **kwargs)
            draws.append(x)
            return x

        monkeypatch.setattr(sampling, "point_at_radius", counted)
        pts = radial_points(L2, 10, 1.0, 3.5, seed=3, family=self.FAMILY)
        assert np.array_equal(draws[-1], pts[-1])
        assert len(draws) > len(pts)

    def test_budget_error_text(self):
        with pytest.raises(DomainError, match=r"could not draw 2 admissible "
                           r"points in \[1.0, 1.4\] after 400 tries"):
            radial_points(L2, 2, 1.0, 1.4, seed=0, family=self.FAMILY)
