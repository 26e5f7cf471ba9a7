import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck import curvature, rotational
from qck.ambient import MetricField
from qck.duals import MultiDual, eval_with_partials
from qck.errors import (ChartError, DomainError, NumericalBreakdown,
                        TypeConstraintError)
from qck.rotational import (BochnerFamily, ConstHSC, MeridianProfile,
                            bochner_meridian, check_rotation_type,
                            const_hsc_profile, embed_and_verify,
                            qc_coefficients, rotation_metric)

Q2_ORACLE = 1.3905620875658997  # type II, a = -1, t = 1
Q3_ORACLE = 0.07270478199838769  # type III, a = -1, t = 3


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestTypeConstraint:
    def test_type_one_band(self):
        check_rotation_type("I", 0.5, 0.7)
        check_rotation_type("I", 0.5, 1.0)
        for bad in (1.2, -0.1) + NON_FINITE:
            with pytest.raises(TypeConstraintError):
                check_rotation_type("I", 0.5, bad)

    def test_type_two_band(self):
        check_rotation_type("II", 1.0, 1.0)
        check_rotation_type("II", 1.0, 3.7)
        for bad in (0.99,) + NON_FINITE:
            with pytest.raises(TypeConstraintError):
                check_rotation_type("II", 1.0, bad)

    def test_type_three_band(self):
        check_rotation_type("III", 3.0, -1.25)
        for bad in (-0.5, 1.25) + NON_FINITE:
            with pytest.raises(TypeConstraintError):
                check_rotation_type("III", 3.0, bad)

    def test_nan_radius(self):
        with pytest.raises(TypeConstraintError):
            check_rotation_type("II", math.nan, 1.5)

    def test_radius_must_be_positive(self):
        with pytest.raises(TypeConstraintError):
            check_rotation_type("II", -1.0, 2.0)

    def test_unknown_tag(self):
        with pytest.raises(TypeConstraintError):
            check_rotation_type("IV", 1.0, 1.0)


class TestCoefficients:
    def test_const_hsc_two_kills_b_and_c(self):
        src = ConstHSC(-1.0, "II")
        for t in np.linspace(0.5, 3.0, 11):
            co = qc_coefficients("II", float(t), *src.jets(float(t)))
            assert abs(co.a + 1.0) < 1e-12
            assert abs(co.b) < 1e-11
            assert abs(co.c) < 1e-11
            assert abs(co.a_plus_k2 - 4.0 / t ** 2) < 1e-12

    def test_const_hsc_three_kills_b_and_c(self):
        src = ConstHSC(-1.0, "III")
        for t in np.linspace(3.0, 5.0, 11):
            co = qc_coefficients("III", float(t), *src.jets(float(t)))
            assert abs(co.a + 1.0) < 1e-12
            assert abs(co.b) < 1e-11
            assert abs(co.c) < 1e-11
            assert abs(co.a_plus_k2 + 4.0 / t ** 2) < 1e-12
            assert co.k < 0

    def test_bochner_kills_c(self):
        for c1, c2 in [(1.0, 0.0), (0.5, 1.0), (0.0, 0.0)]:
            src = BochnerFamily(c1, c2)
            for t in np.linspace(0.4, 1.4, 7):
                co = qc_coefficients("II", float(t), *src.jets(float(t)))
                assert abs(co.c) < 1e-10

    def test_bochner_type_one_kills_c(self):
        src = BochnerFamily(1.0, -2.0)
        for t in np.linspace(0.35, 0.75, 7):
            co = qc_coefficients("I", float(t), *src.jets(float(t)))
            assert abs(co.c) < 1e-12
            assert abs(co.a_plus_k2 - 4.0 / t ** 2) < 1e-12

    def test_radial_trace_identity(self):
        # t''/(t t') + 4 (1 - t')/t^2 is constant along a Bochner meridian
        for c1, c2 in [(1.0, 0.0), (0.5, 1.0), (0.0, 0.0)]:
            src = BochnerFamily(c1, c2)
            for t in np.linspace(0.4, 1.4, 9):
                tp, tpp, _ = src.jets(float(t))
                lhs = tpp / (t * tp) + 4.0 * (1.0 - tp) / t ** 2
                assert abs(lhs + 2.0 * c2) < 1e-10

    def test_flat_profile_coefficients(self):
        co = qc_coefficients("II", 2.0, 1.0, 0.0, 0.0)
        assert co.a == 0.0 and co.b == 0.0 and co.c == 0.0
        assert abs(co.k - 1.0) < 1e-15

    def test_json_round_trip(self):
        co = qc_coefficients("III", 3.0, -1.25, 1.875, -3.59375)
        d = co.to_json()
        assert d["rotation_type"] == "III"
        assert d["a_plus_k2"] == co.a + co.k ** 2

    @settings(max_examples=25, deadline=None)
    @given(c1=st.floats(0.0, 1.0), c2=st.floats(0.0, 1.0),
           t=st.floats(0.3, 1.2))
    def test_bochner_c_vanishes_generic(self, c1, c2, t):
        src = BochnerFamily(c1, c2)
        co = qc_coefficients("II", t, *src.jets(t))
        assert abs(co.c) < 1e-9


class TestConstHSCClosedForm:
    def test_frozen_oracle_type_two(self):
        assert ConstHSC(-1.0, "II").q_closed(1.0) == pytest.approx(
            Q2_ORACLE, abs=1e-15)

    def test_frozen_oracle_type_three(self):
        assert ConstHSC(-1.0, "III").q_closed(3.0) == pytest.approx(
            Q3_ORACLE, abs=1e-15)

    def test_meridian_slope_type_two(self):
        src = ConstHSC(-1.0, "II")
        _, cols = eval_with_partials(lambda a: [src.q_closed(a[0])], [1.0])
        assert cols[0][0] == pytest.approx(0.6, abs=1e-12)

    def test_meridian_slope_type_three(self):
        src = ConstHSC(-1.0, "III")
        _, cols = eval_with_partials(lambda a: [src.q_closed(a[0])], [3.0])
        assert cols[0][0] == pytest.approx(0.6, abs=1e-12)

    def test_slope_matches_constraint(self):
        # |dq/dt| = sqrt(t'^2 - 1)/|t'| for both closed forms
        for tag, t in [("II", 1.7), ("III", 4.2)]:
            src = ConstHSC(-1.0, tag)
            tp = src.jets(t)[0]
            _, cols = eval_with_partials(lambda a: [src.q_closed(a[0])], [t])
            want = math.sqrt(tp * tp - 1.0) / abs(tp)
            assert abs(abs(cols[0][0]) - want) < 1e-12

    def test_three_below_domain(self):
        with pytest.raises(DomainError):
            ConstHSC(-1.0, "III").q_closed(2.0)

    def test_type_one_has_no_profile(self):
        with pytest.raises(TypeConstraintError):
            ConstHSC(-1.0, "I").q_closed(1.0)

    def test_positive_a_rejected(self):
        with pytest.raises(DomainError):
            ConstHSC(1.0, "II")


WINDOW = np.linspace(0.5, 1.5, 33)


class TestBochnerMeridian:
    def test_natural_parameter(self):
        prof = bochner_meridian(1.0, 0.0, 0.5, 1.5)
        assert prof.natural_defect() < 1e-9
        assert np.all(np.diff([prof.s_of_t(t) for t in WINDOW]) > 0)

    def test_arc_length_slope(self):
        prof = bochner_meridian(0.5, 1.0, 0.5, 1.5)
        t_mid = 1.0
        h = 1e-5
        ds_dt = (prof.s_of_t(t_mid + h) - prof.s_of_t(t_mid - h)) / (2 * h)
        assert ds_dt == pytest.approx(1.0 / prof.source.tp(t_mid), rel=1e-8)

    def test_type_window_enforced(self):
        with pytest.raises(TypeConstraintError):
            bochner_meridian(-1.0, 0.0, 0.5, 1.5, rotation_type="II")

    def test_type_one_window(self):
        prof = bochner_meridian(1.0, -2.0, 0.35, 0.75, rotation_type="I")
        assert prof.rotation_type == "I"
        assert prof.natural_defect() < 1e-9
        # q' = + sqrt(1 - t'^2) > 0 by default orientation
        ts = np.linspace(0.35, 0.75, 33)
        assert np.all(np.diff([prof.q_of_t(t) for t in ts]) > 0)

    def test_type_one_rejects_steep_family(self):
        with pytest.raises(TypeConstraintError):
            bochner_meridian(1.0, 0.0, 0.5, 0.9, rotation_type="I")

    def test_flip_q_reflects_profile(self):
        base = bochner_meridian(1.0, 0.0, 0.5, 1.5)
        flip = bochner_meridian(1.0, 0.0, 0.5, 1.5, flip_q=True)
        for t in WINDOW[1:]:
            assert flip.q_of_t(t) == pytest.approx(-base.q_of_t(t), rel=1e-12)
            assert flip.s_of_t(t) == base.s_of_t(t)
        ca = base.coefficients_at(1.0)
        cb = flip.coefficients_at(1.0)
        assert ca.a == cb.a and ca.b == cb.b and ca.c == cb.c

    def test_rows_table(self):
        prof = bochner_meridian(0.5, 1.0, 0.5, 1.5)
        rows = prof.rows(9)
        assert len(rows) == 9 and all(len(r) == 10 for r in rows)
        ts = [r[1] for r in rows]
        assert ts == sorted(ts)
        for r in rows:
            assert r[9] == pytest.approx(4.0 / r[1] ** 2, rel=1e-12)

    def test_bad_window(self):
        with pytest.raises(DomainError):
            bochner_meridian(1.0, 0.0, 1.5, 0.5)

    def test_window_band_at_turning_point(self):
        # t' = t^4 - 3 t^2 + 1 is 0.3125 at t0 and 0.68 at t1, inside the
        # type I band, but -1.25 at the turning point t^2 = 1.5 between
        assert 0.5 < BochnerFamily(1.0, -3.0).turning_points()[0] < 1.7
        with pytest.raises(TypeConstraintError):
            bochner_meridian(1.0, -3.0, 0.5, 1.7, rotation_type="I")

    def test_turning_points(self):
        assert BochnerFamily(1.0, -2.0).turning_points() == (1.0,)
        assert BochnerFamily(1.0, 2.0).turning_points() == ()
        assert BochnerFamily(0.0, 2.0).turning_points() == ()
        assert BochnerFamily(1.0, 0.0).turning_points() == ()
        assert ConstHSC(-1.0, "II").turning_points() == ()


class TestMeridianIntegrals:
    """s(t) and q(t) against closed forms and mpmath, 1e-14 absolute."""

    @pytest.mark.parametrize("rotation_type,t0,t1,antiderivative", [
        # t' = 1 + t^2 / 4
        ("II", 0.5, 3.0, lambda t: 2.0 * math.atan(t / 2.0)),
        ("II", 0.7, 2.8, lambda t: 2.0 * math.atan(t / 2.0)),
        # t' = 1 - t^2 / 4
        ("III", 3.0, 5.0, lambda t: math.log((t + 2.0) / (t - 2.0))),
    ])
    def test_const_hsc_s_closed_form(self, rotation_type, t0, t1,
                                     antiderivative):
        prof = const_hsc_profile(rotation_type, -1.0, t0, t1)
        for t in np.linspace(t0, t1, 17):
            want = antiderivative(t) - antiderivative(t0)
            assert abs(prof.s_of_t(t) - want) < 1e-14

    # (c1, c2, type, t0, t1, flip_q, t, s, q) with s and q from mpmath at 40
    # digits; for the first row, with tp = lambda x: x**4 + 1,
    #   mp.quad(lambda x: 1 / tp(x), [0.4, 0.8])
    #   mp.quad(lambda x: mp.sqrt(tp(x)**2 - 1) / tp(x), [0.4, 0.8])
    # (type I integrates mp.sqrt(1 - tp(x)**2); flip_q negates q)
    BOCHNER_REFS = [
        (1.0, 0.0, "II", 0.4, 1.2, False, 0.8,
         0.34816478551628086, 0.18580556179338157),
        (1.0, 0.0, "II", 0.4, 1.2, False, 1.2,
         0.55061817010965926, 0.52668956854566578),
        (1.0, -2.0, "I", 0.35, 0.75, False, 0.6,
         0.43317151371407511, 0.34915003234442662),
        (0.5, 1.0, "II", 0.3, 1.2, True, 1.2,
         0.53060849867917341, -0.69156279089416903),
    ]

    @pytest.mark.parametrize("c1,c2,rotation_type,t0,t1,flip_q,t,s,q",
                             BOCHNER_REFS)
    def test_bochner_against_mpmath(self, c1, c2, rotation_type, t0, t1,
                                    flip_q, t, s, q):
        prof = bochner_meridian(c1, c2, t0, t1, rotation_type=rotation_type,
                                flip_q=flip_q)
        assert abs(prof.s_of_t(t) - s) < 1e-14
        assert abs(prof.q_of_t(t) - q) < 1e-14

    # (c2, t1, s, q) of type I meridians t' = t^4 + c2 t^2 + 1 on [0.5, t1],
    # at t1, that a fixed rule of 8 panels missed by 2e-2 and 3e-6: with
    # c2 = -1.999, t' falls to 1e-3 at the turning point 0.99975, and with
    # c2 = -1, q' has a square-root branch at t1 = 1 where t' = 1.  With
    # mp.dps = 40 and tc = mp.sqrt(-c2 / 2),
    #   mp.quad(lambda x: 1 / tp(x), [0.5, tc, t1])     (just [0.5, t1] if tc > t1)
    #   mp.quad(lambda x: mp.sqrt(1 - tp(x)**2) / tp(x), [0.5, tc, t1])
    EDGE_REFS = [
        (-1.999, 1.2, 48.303375781334099419, 48.239376380717867778),
        (-1.0, 1.0, 0.62522627731303851706, 0.36726371553553653010),
    ]

    @pytest.mark.parametrize("c2,t1,s,q", EDGE_REFS)
    def test_band_edge_and_branch_point(self, c2, t1, s, q):
        prof = bochner_meridian(1.0, c2, 0.5, t1, rotation_type="I")
        assert abs(prof.s_of_t(t1) - s) < 1e-14 * s
        assert abs(prof.q_of_t(t1) - q) < 1e-14 * s
        rows = prof.rows(33)
        assert abs(rows[-1][0] - s) < 1e-14 * s
        assert abs(rows[-1][2] - q) < 1e-14 * s

    @pytest.mark.parametrize("tp", [
        # oscillates far below the spacing of any panel's nodes: too many
        # pieces stay open
        lambda t: 2.0 + np.sin(1e9 * t),
        # jumps at t = 0.77: one piece stays open through every halving
        lambda t: np.where(t < 0.77, 1.5, 2.5),
    ])
    def test_unresolved_integral_raises(self, tp):
        class Source:
            kind = "bochner"

            def tp(self, t):
                return tp(t)

            def turning_points(self):
                return ()

        with pytest.raises(NumericalBreakdown, match="unresolved"):
            MeridianProfile("II", Source(), 0.4, 1.2).s_of_t(1.2)

    def test_non_finite_integrand_raises(self):
        nan_source = MeridianProfile("II", BochnerFamily(math.nan, 0.0),
                                     0.4, 1.2)
        with pytest.raises(NumericalBreakdown, match="not finite"):
            nan_source.s_of_t(1.2)


class TestConstHSCProfile:
    def test_grid_matches_closed_form(self):
        prof = const_hsc_profile("II", -1.0, 0.5, 3.0)
        assert prof.q_of_t(1.0) == pytest.approx(Q2_ORACLE, abs=1e-8)
        assert prof.coefficients_at(2.0).a == pytest.approx(-1.0, abs=1e-12)

    def test_natural_parameter_honest(self):
        # t' from the profile formula, q' from differentiating the closed q
        prof2 = const_hsc_profile("II", -1.0, 0.5, 3.0)
        prof3 = const_hsc_profile("III", -1.0, 3.0, 5.0)
        assert prof2.natural_defect() < 1e-9
        assert prof3.natural_defect() < 1e-9

    def test_three_orientation(self):
        prof = const_hsc_profile("III", -1.0, 3.0, 5.0)
        # t decreases along s while the closed-form q grows with t
        assert prof.s_of_t(5.0) < prof.s_of_t(3.2)
        assert prof.q_of_t(5.0) > prof.q_of_t(3.2)
        assert prof.q_of_t(3.0) == pytest.approx(Q3_ORACLE, abs=1e-8)

    def test_three_window_below_domain(self):
        with pytest.raises(DomainError):
            const_hsc_profile("III", -1.0, 2.0, 5.0)

    def test_flip_three(self):
        base = const_hsc_profile("III", -1.0, 3.0, 5.0)
        flip = const_hsc_profile("III", -1.0, 3.0, 5.0, flip_q=True)
        assert flip.q_of_t(4.0) == pytest.approx(-base.q_of_t(4.0), rel=1e-12)
        assert flip.natural_defect() < 1e-9

    def test_out_of_window_queries(self):
        prof = const_hsc_profile("II", -1.0, 0.5, 3.0)
        with pytest.raises(DomainError):
            prof.coefficients_at(4.0)


class TestRotationMetric:
    def _structure_checks(self, profile, u0, n=2):
        metric, xi_field, _ = rotation_metric(profile, n)
        G = metric.matrix(u0)
        J = metric.structure_matrix(u0)
        assert np.max(np.abs(J @ J + np.eye(2 * n))) < 1e-10
        assert np.max(np.abs(J.T @ G @ J - G)) < 1e-10
        xi = np.array([float(c) for c in xi_field(list(u0))])
        assert xi @ G @ xi == pytest.approx(1.0, abs=1e-12)
        return xi

    def test_type_two_structure(self):
        prof = const_hsc_profile("II", -1.0, 0.5, 3.0)
        self._structure_checks(prof, [1.3, 0.11, -0.07, 0.05])

    def test_type_three_structure(self):
        prof = const_hsc_profile("III", -1.0, 3.0, 5.0)
        xi = self._structure_checks(prof, [4.0, 0.12, -0.05, 0.04])
        assert xi[0] < 0

    def test_type_one_structure(self):
        prof = bochner_meridian(1.0, -2.0, 0.35, 0.75, rotation_type="I")
        self._structure_checks(prof, [0.5, 0.08, -0.1, 0.06])

    def test_small_n_rejected(self):
        prof = const_hsc_profile("II", -1.0, 0.5, 3.0)
        with pytest.raises(DomainError):
            rotation_metric(prof, n=1)


class TestEmbedding:
    def test_type_two_const_hsc(self):
        prof = const_hsc_profile("II", -1.0, 0.7, 2.8)
        rep = embed_and_verify(prof, n=2, count=4, seed=3)
        assert rep.max_coefficient_delta < 1e-6
        assert rep.max_k_delta < 1e-8
        assert rep.min_eigenvalue > 0
        assert rep.max_kahler_defect < 1e-8
        assert all(p.fitted.klass == "positive" for p in rep.points)

    def test_type_three_const_hsc(self):
        prof = const_hsc_profile("III", -1.0, 3.0, 5.0)
        rep = embed_and_verify(prof, n=2, count=4, seed=5)
        assert rep.max_coefficient_delta < 1e-6
        assert rep.max_k_delta < 1e-8
        assert rep.min_eigenvalue > 0
        assert rep.max_kahler_defect < 1e-8
        assert all(p.fitted.klass == "negative" for p in rep.points)
        assert all(p.fitted.k < 0 for p in rep.points)

    def test_type_one_bochner(self):
        prof = bochner_meridian(1.0, -2.0, 0.4, 0.7, rotation_type="I")
        rep = embed_and_verify(prof, n=2, count=3, seed=7)
        assert rep.max_coefficient_delta < 1e-6
        assert rep.min_eigenvalue > 0
        assert rep.max_kahler_defect < 1e-8
        assert all(abs(p.closed.c) < 1e-12 for p in rep.points)

    def test_reflection_invariance(self):
        prof = const_hsc_profile("II", -1.0, 0.7, 2.8, flip_q=True)
        rep = embed_and_verify(prof, n=2, count=2, seed=3)
        assert rep.max_coefficient_delta < 1e-6

    def test_report_json(self):
        prof = const_hsc_profile("II", -1.0, 0.7, 2.8)
        rep = embed_and_verify(prof, n=2, count=2, seed=1)
        d = rep.to_json()
        assert d["rotation_type"] == "II"
        assert len(d["points"]) == 2
        assert d["points"][0]["fitted"]["class"] == "positive"


# Chart points of ``embed_and_verify(profile, n=2, count=6, seed)`` with
# ``Y_SCALE`` widened until draws fail the chart margin, as the one-point
# loop that drew and verified each point in turn chose them.
WIDE_DRAWS = {
    ("II", 0.7, 11): (
        (0.8679999999999999, -0.35721495375136725, -0.20857865777451295, -0.3691689351233976),
        (1.2207999999999999, 0.39880845030037204, -0.039245107331932316, 0.5228199313795807),
        (1.5735999999999999, 0.4762649172919023, -0.09559643378377941, -0.2653689969523973),
        (1.9263999999999997, 0.3241771110183107, 0.5771594692710791, -0.14177090948541604),
        (2.2791999999999994, -0.10695032499913795, 0.47998902756648054, -0.6092384493630199),
        (2.6319999999999997, 0.6280744797094233, -0.1631924545723198, -0.5205172206561913),
    ),
    ("III", 3.0, 13): (
        (3.16, 5.480269679872269, -9.2349957305941, 1.4370959629632702),
        (3.496, 0.20891168298283447, 3.954750072543205, 0.5784438749975835),
        (3.832, 5.481775882758526, 0.0952312774552992, -0.7743441667387212),
        (4.168, 1.7414547640191536, 1.2963205840132166, -0.5352590361050265),
        (4.504, -0.7419114659645536, 2.158322034555983, 1.0564739907929903),
        (4.84, 5.037622402465411, -0.6728726351786307, 2.0059161457431163),
    ),
}

PROFILES = {"II": ("II", -1.0, 0.7, 2.8), "III": ("III", -1.0, 3.0, 5.0)}


class TestBatchedEmbedding:
    """``embed_and_verify`` draws its points as the one-point loop did and
    then differentiates the chart metric and its structure once each."""

    @pytest.mark.parametrize("key", sorted(WIDE_DRAWS))
    def test_draws_follow_the_one_point_loop(self, key, monkeypatch):
        tag, scale, seed = key
        monkeypatch.setattr(rotational, "Y_SCALE", scale)
        rep = embed_and_verify(const_hsc_profile(*PROFILES[tag]), n=2, count=6,
                               seed=seed)
        assert [tuple(p.u0.tolist()) for p in rep.points] == list(WIDE_DRAWS[key])

    def test_no_admissible_draw(self, monkeypatch):
        monkeypatch.setattr(rotational, "Y_SCALE", 100.0)
        with pytest.raises(ChartError,
                           match="no admissible sphere point after 40 draws"):
            embed_and_verify(const_hsc_profile(*PROFILES["II"]), n=2, count=2)

    @pytest.mark.parametrize("tag", sorted(PROFILES))
    def test_one_metric_and_one_structure_evaluation(self, tag, monkeypatch):
        orders = {"metric": [], "structure": []}
        build = rotational.rotation_metric

        def counted(kind, fn):
            def wrapper(u):
                orders[kind].append(u[0].m if isinstance(u[0], MultiDual) else 0)
                return fn(u)
            return wrapper

        def rotation_metric(profile, n=2):
            metric, xi_field, sphere = build(profile, n)
            metric.fn = counted("metric", metric.fn)
            metric.complex_structure = counted("structure",
                                               metric.complex_structure)
            return metric, xi_field, sphere

        monkeypatch.setattr(rotational, "rotation_metric", rotation_metric)
        jets = {"second": 0, "first": 0}
        for kind, name in (("second", "_second_jets"),
                           ("first", "eval_with_partials")):
            def wrapped(*args, kind=kind, fn=getattr(curvature, name)):
                jets[kind] += 1
                return fn(*args)
            monkeypatch.setattr(curvature, name, wrapped)
        rep = embed_and_verify(const_hsc_profile(*PROFILES[tag]), n=2, count=6)
        assert len(rep.points) == 6
        assert orders == {"metric": [2], "structure": [1]}
        assert jets == {"second": 1, "first": 1}

    @pytest.mark.parametrize("tag", sorted(PROFILES))
    def test_structure_solve(self, tag):
        lo, hi = PROFILES[tag][2:]
        metric, _, _ = rotation_metric(const_hsc_profile(*PROFILES[tag]))
        rng = np.random.default_rng(21)
        X = np.column_stack([np.linspace(lo + 0.2, hi - 0.2, 5),
                             0.2 * rng.normal(size=(5, 3))])
        J, dJ = curvature.structure_jet(metric, X)
        h = 1e-5
        for x, Jx, dJx in zip(X, J, dJ):
            assert np.max(np.abs(Jx @ Jx + np.eye(4))) < 1e-12
            for k in range(4):
                e = np.zeros(4)
                e[k] = h
                central = (metric.structure_matrix(x + e)
                           - metric.structure_matrix(x - e)) / (2 * h)
                assert np.max(np.abs(dJx[k] - central)) < 1e-7

    def test_structure_solve_takes_first_jets_only(self):
        metric, _, _ = rotation_metric(const_hsc_profile(*PROFILES["II"]))
        with pytest.raises(ValueError, match="first jets"):
            curvature.point_jet(
                MetricField(metric.complex_structure, 4), [1.5, 0.1, 0.0, 0.1])


class TestNaturalDefect:
    """The natural-parameter check differentiates the closed-form q at all
    its radii in one evaluation, and reads as the radius-by-radius loop."""

    @staticmethod
    def looped(prof):
        out = 0.0
        for t in np.linspace(prof.t0, prof.t1, rotational.NATURAL_SAMPLES):
            tp = prof.source.tp(t)
            if prof.source.kind == "const-hsc":
                _, cols = eval_with_partials(
                    lambda args: [prof._closed_q(args[0])], [float(t)])
                qp = cols[0][0] * tp
            else:
                qp = float(prof.dqdt(t)) * tp
            qp2 = qp * qp if prof.rotation_type == "I" else -qp * qp
            out = max(out, abs(tp * tp + qp2 - 1.0))
        return out

    @pytest.mark.parametrize("prof", [
        const_hsc_profile("II", -1.0, 0.5, 3.0),
        const_hsc_profile("III", -1.0, 3.0, 5.0),
        const_hsc_profile("III", -1.0, 3.0, 5.0, flip_q=True),
        bochner_meridian(1.0, 0.0, 0.5, 1.2)], ids=["II", "III", "III-flip",
                                                   "bochner"])
    def test_matches_the_loop(self, prof):
        assert prof.natural_defect() == self.looped(prof)

    def test_one_evaluation(self, monkeypatch):
        prof = const_hsc_profile("II", -1.0, 0.5, 3.0)
        calls = []

        def counted(fn, xs):
            calls.append(np.shape(xs))
            return eval_with_partials(fn, xs)

        monkeypatch.setattr(rotational, "eval_with_partials", counted)
        prof.natural_defect()
        assert calls == [(rotational.NATURAL_SAMPLES, 1)]

    def test_radius_below_the_type_three_domain_raises(self):
        with pytest.raises(DomainError, match="got t = 2"):
            eval_with_partials(
                lambda args: [ConstHSC(-1.0, "III").q_closed(args[0])],
                np.array([[3.0], [2.0], [1.0]]))
