"""The points axis: ``qch.decompose_points`` in a batch against the same
points one at a time, and the block sampler of ``sampling.radial_points``
against the point-by-point loop.

A batch runs every stage once over its points and narrows it past each
gate; a point alone runs the same kernels with a points axis of length 1,
which is also what the one-point library functions run.  Every entry of a
batch must equal its one-point result, error text included, a report must
not depend on where the passes fall, and rows of several potentials in one
call must equal each potential's rows alone.  The tests read the record
row by row through ``oracles.point_rows``.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck import ambient, cli, qch, sampling
from qck.ambient import (AmbientSpace, DefiniteLogFamily, InverseFamily,
                         LogFamily, UserSeries, potential_metric)
from qck.curvature import kahler_defect, point_jets
from qck.errors import DomainError, QckError, Sieve
from qck.qch import decompose_points
from qck.sampling import point_at_radius, radial_points
from oracles import (curvature_bundle, decompose, extract_shape_data,
                     point_at_radius_looped, point_jet, point_rows,
                     radial_points_looped, radial_unit_jet)

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
SHAPE_FIELDS = ("k", "spread")


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
    assert (a.curved, a.min_eigenvalue, a.kahler_defect, a.invariants) == \
        (b.curved, b.min_eigenvalue, b.kahler_defect, b.invariants)
    assert (a.xi is None) == (b.xi is None)
    if a.xi is not None:
        assert np.array_equal(a.xi, b.xi)
    assert (a.shape is None) == (b.shape is None)
    if a.shape is not None:
        assert np.array_equal(a.shape.xi, b.shape.xi)
        assert [getattr(a.shape, f) for f in SHAPE_FIELDS] == \
            [getattr(b.shape, f) for f in SHAPE_FIELDS]


def rows_of(space, family, X, **kwargs):
    return point_rows(decompose_points(space, family, X, **kwargs))


def one_at_a_time(space, family, X, **kwargs):
    return [rows_of(space, family, x[None], **kwargs)[0] for x in X]


class TestParity:
    @pytest.mark.parametrize("checked", [False, True])
    def test_mixed_lorentz_batch(self, checked):
        batch = rows_of(L2, SERIES, LORENTZ_MIX, checked=checked)
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
            # past the curvature gate: the entry keeps the values taken
            # there, then fails on its unit field
            assert errors[3] == ("FrameError: radial direction has "
                                 "non-positive square norm -1.200e+00")
            assert not batch[3].admissibility.ok
            assert batch[3].curved and batch[3].xi is None
            jet = point_jet(potential_metric(L2, SERIES, checked=False),
                            batch[3].point)
            assert batch[3].min_eigenvalue == np.linalg.eigvalsh(jet.G)[0] < 0
            assert batch[3].kahler_defect == kahler_defect(jet)

    def test_shape_error_keeps_its_fit(self):
        # inadmissible series points: one has no space-like complement
        # basis, and the fit on its unit field still stands
        # (check-potential's fallback)
        family = UserSeries((0.0, 1.0, 1.0))
        X = np.array(radial_points(L2, 5, 0.3, 0.9, seed=3))
        batch = rows_of(L2, family, X, checked=False)
        for got, want in zip(batch, one_at_a_time(L2, family, X,
                                                   checked=False)):
            same(got, want)
        fallback = [r for r in batch if r.shape_error is not None]
        assert fallback and all(r.fit is not None for r in fallback)
        assert describe(fallback[0].shape_error) == (
            "FrameError: could not complete a basis of the complement "
            "distribution")

    def test_definite_axis_point(self):
        batch = rows_of(D2, DefiniteLogFamily(2.0, 1.0), DEFINITE_MIX)
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
        for res, bare in zip(rows_of(space, family, X),
                             rows_of(space, family, X, fit=False)):
            try:
                jet = point_jet(metric, res.point)
                bundle = curvature_bundle(jet)
                xi, dxi = radial_unit_jet(space, jet)
                shape = extract_shape_data(jet, xi, dxi)
                dec = decompose(bundle, shape)
            except QckError as exc:
                assert describe(exc) == describe(res.first_error)
                continue
            assert res.first_error is None
            assert (shape.k, shape.spread) == (res.shape.k, res.shape.spread)
            assert dec == res.decomposition
            assert res.min_eigenvalue == jet.eigenvalues[0]
            assert res.kahler_defect == kahler_defect(jet)
            assert bare.invariants == bundle.invariants(xi)


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
        decompose_points(L2, SERIES, np.zeros((2, 6)))


class TestPasses:
    @pytest.mark.parametrize("command", ["check-potential", "decompose"])
    def test_report_does_not_depend_on_passes(self, capsys, monkeypatch,
                                              command):
        # 17 points at n = 3: one pass of up to 50 rows, then passes of 4
        # rows and of 1 row
        argv = [command, "--n", "3", "--count", "17", "--seed", "2"]

        def report():
            assert cli.main(argv) == 0
            return capsys.readouterr().out

        whole = report()
        assert len(json.loads(whole)["points"]) == 17
        for components in (4 * 6 ** 4, 1):
            monkeypatch.setattr(qch, "PASS_COMPONENTS", components)
            assert report() == whole

    def test_rows_per_pass_bound_the_components(self):
        assert [qch.pass_rows(2 * n) for n in (2, 3, 4, 5)] == [256, 50, 16, 6]
        for d in (4, 6, 8, 10):
            assert qch.pass_rows(d) * d ** 4 <= qch.PASS_COMPONENTS
            assert (qch.pass_rows(d) + 1) * d ** 4 > qch.PASS_COMPONENTS

    @pytest.mark.parametrize("n,passes", [(2, [17]), (4, [16, 1])])
    def test_seventeen_rows(self, monkeypatch, n, passes):
        calls = []
        jets = ambient._closed_form_jets

        def counted(space, X, *values):
            calls.append(len(X))
            return jets(space, X, *values)

        monkeypatch.setattr(ambient, "_closed_form_jets", counted)
        space = AmbientSpace(n, "lorentz")
        X = np.array(radial_points(space, 17, 1.1, 3.0, seed=n))
        rec = decompose_points(space, LogFamily(-1.0, 1.0), X)
        assert calls == passes
        assert rec.curved.tolist() == rec.unit.tolist() == list(range(17))
        # the record keeps what its readers take of a row, and no tensor:
        # every array has a row per point and at most a d or 3 axis more
        arrays = [a for a in vars(rec).values() if isinstance(a, np.ndarray)]
        arrays += list(vars(rec.admissibility).values())
        for a in arrays:
            assert len(a) == 17 and a.shape[1:] in ((), (3,), (2 * n,))

    @pytest.mark.parametrize("checked", [False, True])
    def test_one_evaluation_of_the_family_per_pass(self, monkeypatch,
                                                   checked):
        # the square norms and f', ..., f'''' of a pass are taken once, for
        # the record's admissibility, the gates, the jets and the unit field
        counts = {}

        def count(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        count(AmbientSpace, "square_norm")
        for name in ("d1", "d2", "_d3_d4"):
            count(LogFamily, name)
        count(ambient, "_reciprocal_d3_d4")
        X = np.array(radial_points(L2, 5, 1.1, 3.0, seed=2))
        counts.clear()
        rec = decompose_points(L2, LogFamily(-1.0, 1.0), X, checked=checked)
        assert rec.residual.shape == (5,)
        assert counts == {"square_norm": 1, "d1": 1, "d2": 1, "_d3_d4": 1,
                          "_reciprocal_d3_d4": 1}

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("fit", [True, False])
    def test_a_pass_makes_no_einsum_call(self, monkeypatch, n, fit):
        # every contraction of the pass is a matrix or broadcast product; a
        # first pass builds the constants of the space and the frame bases
        space = AmbientSpace(n, "lorentz")
        X = np.array(radial_points(space, 8, 1.1, 3.0, seed=n))
        rec = decompose_points(space, LogFamily(-1.0, 1.0), X, fit=fit)
        calls = []
        einsum = np.einsum

        def counted(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counted)
        again = decompose_points(space, LogFamily(-1.0, 1.0), X, fit=fit)
        assert calls == []
        assert np.array_equal(again.xi, rec.xi)

    def test_rows_of_the_whole_slice_is_the_jet(self):
        # what ``Sieve.drop`` gives when no row dropped out: no new jet
        X = np.array(radial_points(L2, 3, 1.1, 3.0, seed=1))
        jet = point_jets(potential_metric(L2, LogFamily(-1.0, 1.0)), X)
        assert jet.rows(slice(None)) is jet
        assert jet.rows(np.ones(3, dtype=bool)) is not jet

    @pytest.mark.parametrize("family", [SERIES, []])
    def test_no_rows(self, family):
        rec = decompose_points(L2, family, np.zeros((0, 4)))
        assert rec.error == rec.shape_error == rec.fit_error == ()
        assert rec.curved.size == rec.unit.size == 0
        assert rec.kahler_defect.shape == rec.min_eigenvalue.shape == (0,)
        assert rec.coeffs.shape == (0, 3) and rec.xi.shape == (0, 4)


def mixed_rows(space, rng):
    """(families, X): rows of several families in a shuffled order, with
    rows that fail a family's domain, admissibility or radius gate among
    rows of other families that pass."""
    n, d = space.n, space.dim
    origin = np.zeros(d)
    if space.lorentz:
        spacelike = np.zeros(d)
        spacelike[0] = 2.0
        rows = [(LogFamily(-1.0, 1.0), r) for r in (1.3, 2.2, 0.5)]
        rows += [(InverseFamily(), r) for r in (1.6, 2.5)]
        rows += [(InverseFamily(), spacelike), (SERIES, origin),
                 (SERIES, spacelike), (SERIES, 1.0), (SERIES, 1.9),
                 (LogFamily(-2.0, 1.5), 2.3)]
    else:
        rows = [(DefiniteLogFamily(2.0, 1.0), r) for r in (0.4, 1.3)]
        rows += [(DefiniteLogFamily(2.0, 1.0), origin), (SERIES, origin),
                 (SERIES, 0.8), (UserSeries((0.0, 1.0, -1.0)), 0.3),
                 (UserSeries((0.0, 1.0, -1.0)), 1.0),
                 (DefiniteLogFamily(1.0, 1.5), 1.7)]
    rows = [rows[i] for i in rng.permutation(len(rows))]
    X = np.array([x if isinstance(x, np.ndarray)
                  else point_at_radius(space, x, rng=rng) for _, x in rows])
    return [f for f, _ in rows], X


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("signature", ["lorentz", "definite"])
@pytest.mark.parametrize("checked", [False, True])
@pytest.mark.parametrize("rows_per_pass", [None, 3])
def test_rows_of_several_families_equal_each_family_alone(
        monkeypatch, n, signature, checked, rows_per_pass):
    space = AmbientSpace(n, signature)
    families, X = mixed_rows(space, np.random.default_rng(n))
    if rows_per_pass is not None:
        # passes of 3 rows, joined into one record
        monkeypatch.setattr(qch, "PASS_COMPONENTS",
                            rows_per_pass * space.dim ** 4)
    batch = rows_of(space, families, X, checked=checked)
    monkeypatch.undo()
    for family in set(families):
        rows = [i for i, f in enumerate(families) if f == family]
        for i, want in zip(rows, rows_of(space, family, X[rows],
                                         checked=checked)):
            same(batch[i], want)
    errors = [describe(r.first_error) or "" for r in batch]
    assert any(e == "" for e in errors)
    assert any("outside the family domain" in e for e in errors)
    if checked:
        assert any(e.startswith("AdmissibilityError") for e in errors)
    else:
        assert any("has no radius" in e for e in errors)


def test_one_family_per_row_is_checked():
    with pytest.raises(ValueError, match="3 families for 2 points"):
        decompose_points(L2, [SERIES] * 3, LORENTZ_MIX[:2])


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
    batch = rows_of(space, family, X, checked=False)
    for got, want in zip(batch, one_at_a_time(space, family, X,
                                              checked=False)):
        for name in ("error", "shape_error", "fit_error"):
            assert describe(getattr(got, name)) == describe(getattr(want, name))
        assert close(got.fit, want.fit)
        assert got.curved == want.curved
        assert close(got.min_eigenvalue, want.min_eigenvalue)
        assert close(got.kahler_defect, want.kahler_defect)
        if want.shape is not None:
            assert close((got.shape.k, got.shape.spread),
                         (want.shape.k, want.shape.spread))


class TestRadialPoints:
    """The block sampler draws the sample of the point-by-point loop
    (``oracles.radial_points_looped``), and ``point_at_radius`` the point
    of the one-point reference, to the bit."""

    # SHA-256 of the float64 bytes of the samples of seeds 0..9, by count,
    # drawn by the point-by-point sampler that preceded the block one
    DIGESTS = {
        1: "2109e5bd1f61e8c97a995dd89f98b9548b885095f5127f0f6bbc1aa298dd944a",
        5: "9b8c669a18d211aeb5163f746bd1aa10799914b33b7fbacb519519d0a7a56fec",
        10: "e93947b153021728d7a53c19d9b0fead1eafbf8e66a1479f369b699bea06eb9b",
    }
    # rejects the fifth of the radii in [1, 3.5] that lie inside r0 = 1.5
    FAMILY = LogFamily(-2.0, 1.5)

    @pytest.mark.parametrize("count", [1, 5, 10])
    def test_bit_for_bit_with_the_loop(self, count):
        digest = hashlib.sha256()
        for seed in range(10):
            got = radial_points(L2, count, 1.0, 3.5, seed=seed,
                                family=self.FAMILY)
            want, _ = radial_points_looped(L2, count, 1.0, 3.5,
                                           np.random.default_rng(seed),
                                           self.FAMILY)
            assert np.array_equal(np.array(got), np.array(want))
            digest.update(np.array(got).tobytes())
        assert digest.hexdigest() == self.DIGESTS[count]

    @pytest.mark.parametrize("signature", ["lorentz", "definite"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equal_draws_over_seeds(self, n, signature):
        space = AmbientSpace(n, signature)
        for seed in range(40):
            want, _ = radial_points_looped(space, 6, 0.5, 4.0,
                                           np.random.default_rng(seed))
            assert np.array_equal(
                np.array(radial_points(space, 6, 0.5, 4.0, seed=seed)),
                np.array(want))
            rng, loop = (np.random.default_rng(seed) for _ in range(2))
            assert np.array_equal(point_at_radius(space, 1.7, rng=rng),
                                  point_at_radius_looped(space, 1.7, loop))
            assert rng.bit_generator.state == loop.bit_generator.state

    def test_no_draw_after_the_last_point_kept(self, monkeypatch):
        # the generator ends where the loop's ends, after the last point
        # kept, and some points were drawn and rejected before it
        generators = []
        make = np.random.default_rng

        def kept(seed):
            generators.append(make(seed))
            return generators[-1]

        monkeypatch.setattr(sampling.np.random, "default_rng", kept)
        pts = radial_points(L2, 10, 1.0, 3.5, seed=3, family=self.FAMILY)
        monkeypatch.undo()
        loop = np.random.default_rng(3)
        want, drawn = radial_points_looped(L2, 10, 1.0, 3.5, loop,
                                           self.FAMILY)
        assert np.array_equal(np.array(pts), np.array(want))
        assert drawn > len(pts)
        assert (generators[0].bit_generator.state
                == loop.bit_generator.state)

    def test_budget_error_text(self):
        with pytest.raises(DomainError, match=r"could not draw 2 admissible "
                           r"points in \[1.0, 1.4\] after 400 tries"):
            radial_points(L2, 2, 1.0, 1.4, seed=0, family=self.FAMILY)
