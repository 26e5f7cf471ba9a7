import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck.duals import eval_with_partials
from qck.errors import ChartError, DomainError, TypeConstraintError
from qck.rotational import (BochnerFamily, ConstHSC, bochner_meridian,
                            check_rotation_type, const_hsc_meridian,
                            const_hsc_profile, embed_and_verify,
                            qc_coefficients, rotation_metric,
                            tabulated_meridian)

Q2_ORACLE = 1.3905620875658997  # type II, a = -1, t = 1
Q3_ORACLE = 0.07270478199838769  # type III, a = -1, t = 3


class TestTypeConstraint:
    def test_type_one_band(self):
        check_rotation_type("I", 0.5, 0.7)
        check_rotation_type("I", 0.5, 1.0)
        with pytest.raises(TypeConstraintError):
            check_rotation_type("I", 0.5, 1.2)
        with pytest.raises(TypeConstraintError):
            check_rotation_type("I", 0.5, -0.1)

    def test_type_two_band(self):
        check_rotation_type("II", 1.0, 1.0)
        check_rotation_type("II", 1.0, 3.7)
        with pytest.raises(TypeConstraintError):
            check_rotation_type("II", 1.0, 0.99)

    def test_type_three_band(self):
        check_rotation_type("III", 3.0, -1.25)
        with pytest.raises(TypeConstraintError):
            check_rotation_type("III", 3.0, -0.5)
        with pytest.raises(TypeConstraintError):
            check_rotation_type("III", 3.0, 1.25)

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
        assert const_hsc_meridian("II", -1.0, 1.0) == pytest.approx(
            Q2_ORACLE, abs=1e-15)

    def test_frozen_oracle_type_three(self):
        assert const_hsc_meridian("III", -1.0, 3.0) == pytest.approx(
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
            const_hsc_meridian("III", -1.0, 2.0)

    def test_type_one_has_no_profile(self):
        with pytest.raises(TypeConstraintError):
            const_hsc_meridian("I", -1.0, 1.0)

    def test_positive_a_rejected(self):
        with pytest.raises(DomainError):
            ConstHSC(1.0, "II")


class TestBochnerMeridian:
    def test_natural_parameter(self):
        prof = bochner_meridian(1.0, 0.0, 0.5, 1.5)
        assert prof.natural_defect() < 1e-9
        assert np.all(np.diff(prof.s_grid) > 0)

    def test_arc_length_slope(self):
        prof = bochner_meridian(0.5, 1.0, 0.5, 1.5)
        t_mid = 1.0
        s_mid = prof.s_of_t(t_mid)
        h = 1e-5
        ds_dt = (prof.s_of_t(t_mid + h) - prof.s_of_t(t_mid - h)) / (2 * h)
        assert ds_dt == pytest.approx(1.0 / prof.source.tp(t_mid), rel=1e-8)
        assert prof.t_of_s(s_mid) == pytest.approx(t_mid, abs=1e-12)

    def test_type_window_enforced(self):
        with pytest.raises(TypeConstraintError):
            bochner_meridian(-1.0, 0.0, 0.5, 1.5, rotation_type="II")

    def test_type_one_window(self):
        prof = bochner_meridian(1.0, -2.0, 0.35, 0.75, rotation_type="I")
        assert prof.rotation_type == "I"
        assert prof.natural_defect() < 1e-9
        # q' = + sqrt(1 - t'^2) > 0 by default orientation
        assert np.all(np.diff(prof.q_grid) > 0)

    def test_type_one_rejects_steep_family(self):
        with pytest.raises(TypeConstraintError):
            bochner_meridian(1.0, 0.0, 0.5, 0.9, rotation_type="I")

    def test_flip_q_reflects_profile(self):
        base = bochner_meridian(1.0, 0.0, 0.5, 1.5)
        flip = bochner_meridian(1.0, 0.0, 0.5, 1.5, flip_q=True)
        assert flip.q_grid[-1] == pytest.approx(-base.q_grid[-1], rel=1e-12)
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
        with pytest.raises(DomainError):
            prof.t_of_s(prof.s_range[1] + 1.0)


class TestTabulated:
    def _samples(self, steps=513):
        prof = const_hsc_profile("II", -1.0, 0.5, 1.5, steps=steps)
        return prof.s_grid, prof.t_grid, prof.q_grid

    def test_spline_recovers_coefficients(self):
        s, t, q = self._samples()
        tab = tabulated_meridian(s, t, q, "II")
        co = tab.coefficients_at(1.0)
        assert abs(co.a + 1.0) < 1e-6
        assert abs(co.b) < 5e-4
        assert abs(co.c) < 2e-2

    def test_clean_samples_have_small_defect(self):
        s, t, q = self._samples()
        tab = tabulated_meridian(s, t, q, "II")
        assert tab.natural_defect() < 1e-6

    def test_noise_calibration(self):
        # a smooth 1e-3 ripple in q must surface at the matching scale
        s, t, q = self._samples()
        tab = tabulated_meridian(s, t, q + 1e-3 * np.sin(s), "II")
        defect = tab.natural_defect()
        assert 3e-4 < defect < 3e-3

    def test_three_sign_detected(self):
        prof = const_hsc_profile("III", -1.0, 3.0, 5.0)
        tab = tabulated_meridian(prof.s_grid[::-1], prof.t_grid[::-1],
                                 prof.q_grid[::-1], "III")
        assert tab.sign == -1.0
        co = tab.coefficients_at(4.0)
        assert abs(co.a + 1.0) < 1e-6

    def test_rejects_bad_samples(self):
        s, t, q = self._samples()
        with pytest.raises(DomainError):
            tabulated_meridian(s[:-1], t, q, "II")
        with pytest.raises(DomainError):
            tabulated_meridian(s[::-1], t, q, "II")
        with pytest.raises(DomainError):
            tabulated_meridian(s[:6], t[:6], q[:6], "II")
        bumpy = t.copy()
        bumpy[len(t) // 2] = bumpy[0]
        with pytest.raises(DomainError):
            tabulated_meridian(s, bumpy, q, "II")

    def test_type_mismatch_raises(self):
        s, t, q = self._samples()
        with pytest.raises(TypeConstraintError):
            tabulated_meridian(s, t, q, "III")


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
