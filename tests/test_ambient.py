import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qck import ambient
from qck.ambient import (
    AmbientSpace,
    DefiniteLogFamily,
    InverseFamily,
    LogFamily,
    UserSeries,
    _passes_gates,
    admissibility,
    family_from_json,
    flat_metric,
    potential_gates,
    potential_metric,
    radial_frame,
)
from qck.core import hermitian_to_real, j0_matrix
from qck.curvature import covariant_derivative
from qck.duals import MultiDual, coefficients, eval_with_partials, value
from qck.errors import AdmissibilityError, DomainError, FrameError
from qck.sampling import point_at_radius
from qck.sasakian import sphere_reports
from oracles import (POTENTIAL_CASES, radial_unit_jet, ConformalDomainError, ScalarField,
                     complex_to_real,
                     conformal_factors, conformal_pair_from_family,
                     differentiate, generator, metric_from_conformal_pair,
                     point_jet, radial_unit_field)

L3 = AmbientSpace(3, "lorentz")
L2 = AmbientSpace(2, "lorentz")
D2 = AmbientSpace(2, "definite")


def timelike_point(space, r, seed=0, theta=0.7):
    """Point at exact distance r in the time-like region."""
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.4, size=space.n - 1) + 1j * rng.normal(scale=0.4, size=space.n - 1)
    zn = np.exp(1j * theta) * math.sqrt(r * r + float(np.sum(np.abs(w) ** 2)))
    return complex_to_real(np.append(w, zn))


class TestSpace:
    def test_flat_real_lorentz(self):
        assert np.allclose(L3.flat_real(), np.diag([1, 1, 1, 1, -1, -1]))
        assert np.allclose(D2.flat_real(), np.eye(4))

    def test_flat_real_is_built_once_per_space_and_read_only(self):
        # equal spaces share one array; the jet constants are read-only too
        assert AmbientSpace(3, "lorentz").flat_real() is L3.flat_real()
        for a in (L3.flat_real(), *ambient._jet_constants(L3)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_square_norm_examples(self):
        assert L3.square_norm(complex_to_real([0, 0, 1j])) == pytest.approx(-1.0)
        assert L3.square_norm(complex_to_real([1, 0, 2])) == pytest.approx(-3.0)
        assert D2.square_norm(complex_to_real([3j, 4])) == pytest.approx(25.0)

    def test_radius(self):
        assert L3.radius(complex_to_real([0, 0, 2j])) == pytest.approx(2.0)
        assert D2.radius(complex_to_real([3j, 4])) == pytest.approx(5.0)

    def test_radius_domain_errors(self):
        with pytest.raises(DomainError):
            L3.radius(complex_to_real([1, 0, 0]))  # space-like
        with pytest.raises(DomainError):
            D2.radius([0.0, 0.0, 0.0, 0.0])

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            AmbientSpace(1, "lorentz")
        with pytest.raises(ValueError):
            AmbientSpace(2, "euclid")


class TestFamilies:
    def test_log_family_frozen_values(self):
        f = LogFamily(a=-1.0, r0=1.0)
        w = -4.0
        assert f(w) == pytest.approx(-2.0 * math.log(3.0))
        assert f.d1(w) == pytest.approx(2.0 / 3.0)
        assert f.d2(w) == pytest.approx(2.0 / 9.0)
        assert f.in_domain(-1.5) and not f.in_domain(-1.0)

    def test_log_family_guards(self):
        with pytest.raises(ValueError):
            LogFamily(a=1.0, r0=1.0)
        with pytest.raises(ValueError):
            LogFamily(a=-1.0, r0=0.0)

    @pytest.mark.parametrize("make", [
        lambda: LogFamily(a=-math.inf, r0=1.0),
        lambda: LogFamily(a=-1.0, r0=math.inf),
        lambda: DefiniteLogFamily(a=math.inf, r0=1.0),
        lambda: DefiniteLogFamily(a=2.0, r0=math.inf)])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()

    def test_dlog_family(self):
        # a=2, r0=1 is the classical log(1 + r^2) potential
        f = DefiniteLogFamily(a=2.0, r0=1.0)
        assert f(3.0) == pytest.approx(math.log(4.0))
        assert f.d1(3.0) == pytest.approx(0.25)
        assert f.d2(3.0) == pytest.approx(-1.0 / 16.0)

    def test_inverse_family_frozen_values(self):
        f = InverseFamily()
        assert f(-1.0) == pytest.approx(1.0)
        assert f.d1(-1.0) == pytest.approx(1.0)
        assert f.d1(-1.0) + (-1.0) * f.d2(-1.0) == pytest.approx(-1.0)

    def test_user_series(self):
        f = UserSeries((0.0, -0.5))
        assert f(-4.0) == pytest.approx(2.0)
        assert f.d1(-4.0) == pytest.approx(-0.5)
        assert f.d2(-4.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("fam", [
        LogFamily(-1.0, 1.0),
        DefiniteLogFamily(2.0, 1.0),
        InverseFamily(),
        UserSeries((0.1, 0.3, -0.2, 0.05)),
    ])
    def test_derivatives_by_duals(self, fam):
        # d1 and d2 must be the actual derivatives of __call__
        w0 = -2.5 if fam.kind in ("log", "inverse") else 2.5
        g = w0 + generator(0, 2) + generator(1, 2)
        y = fam(g)
        assert y.coeff(1) == pytest.approx(fam.d1(w0), rel=1e-12)
        assert y.coeff(3) == pytest.approx(fam.d2(w0), rel=1e-12)

    @pytest.mark.parametrize("fam,w", [
        (LogFamily(-1.0, 1.0), np.linspace(-9.0, -1.2, 7)),
        (LogFamily(-2.0, 1.5), np.linspace(-9.0, -2.4, 7)),
        (InverseFamily(), np.linspace(-9.0, -0.2, 7)),
        (UserSeries((0.1, 0.3, -0.2, 0.05, 0.01, -0.002)),
         np.linspace(-9.0, -0.2, 7)),
        (DefiniteLogFamily(2.0, 1.0), np.linspace(0.1, 9.0, 7)),
        (DefiniteLogFamily(1.0, 1.5), np.linspace(0.1, 9.0, 7)),
        (UserSeries((0.1, 0.3, -0.2, 0.05, 0.01, -0.002)),
         np.linspace(0.1, 9.0, 7)),
    ])
    def test_closed_form_d3_d4_match_duals_of_d2(self, fam, w):
        # over an array of square norms at once; the reference is the
        # order-2 dual of f'' at each w alone
        got = np.stack(fam.derivatives(w)[1:])
        assert got.shape == (3, len(w))
        for j, wj in enumerate(w):
            f2, f3, _, f4 = coefficients(
                fam.d2(MultiDual([[wj], [1.0], [1.0], [0.0]], 2)), 2, 1)[:, 0]
            for g, ref in zip(got[:, j], (f2, f3, f4)):
                assert abs(g - ref) <= 1e-13 * abs(ref)

    def test_series_d3_d4_of_a_quadratic_vanish(self):
        f = UserSeries((0.0, 1.0, 0.1))
        assert f.derivatives(np.array([-2.0, 3.0]))[2:] == (0.0, 0.0)
        assert f.derivatives(-2.0)[2:] == (0.0, 0.0)

    def test_json_roundtrip(self):
        for fam in (LogFamily(-2.0, 1.5), DefiniteLogFamily(2.0, 1.0),
                    InverseFamily(), UserSeries((1.0, 2.0))):
            back = family_from_json(fam.to_json())
            assert back == fam

    def test_json_unknown_kind(self):
        with pytest.raises(ValueError):
            family_from_json({"kind": "mystery"})


class TestAdmissibility:
    def test_log_family_admissible(self):
        rep = admissibility(L3, LogFamily(-1.0, 1.0), -4.0)
        assert rep.ok and rep.in_domain
        assert rep.f_prime == pytest.approx(2.0 / 3.0)
        assert rep.f_prime_plus_wf2 == pytest.approx(2.0 / 3.0 - 8.0 / 9.0)

    def test_dlog_admissible_on_definite(self):
        rep = admissibility(D2, DefiniteLogFamily(2.0, 1.0), 4.0)
        assert rep.ok
        assert rep.f_prime == pytest.approx(0.2)
        assert rep.f_prime_plus_wf2 == pytest.approx(0.2 - 4.0 / 25.0)

    def test_negative_slope_rejected(self):
        rep = admissibility(L3, UserSeries((0.0, -0.5)), -4.0)
        assert rep.in_domain and not rep.ok
        assert rep.f_prime == pytest.approx(-0.5)

    def test_out_of_domain(self):
        rep = admissibility(L3, LogFamily(-1.0, 1.0), 2.0)
        assert not rep.in_domain and not rep.ok

    @pytest.mark.parametrize("space,family,window", [
        (L2, LogFamily(-1.0, 1.0), (-12.0, 0.5)),
        (L2, LogFamily(-2.0, 1.5), (-12.0, 0.5)),
        (L2, InverseFamily(), (-12.0, 0.5)),
        (D2, DefiniteLogFamily(2.0, 1.0), (-1.5, 12.0))])
    def test_array_report_is_the_scalar_one(self, space, family, window):
        # radial_points tests a block of draws in one call: each row must
        # read as the one-point report of its square norm
        w = np.random.default_rng(9).uniform(*window, size=2850)
        batch = admissibility(space, family, w)
        for i, wi in enumerate(w.tolist()):
            one = admissibility(space, family, wi)
            assert bool(batch.ok[i]) == bool(one.ok)
            assert np.array_equal(batch.f_prime[i], one.f_prime, equal_nan=True)


# square norms on both sides of every domain, light-cone and admissibility
# edge of the families below
EDGES = [0.0, -1.0, -2.25, -0.25, -0.5, 1.0, -1.0 / 3.0, 4.0, -4.0]
GATE_NORMS = sorted({v for e in EDGES for v in (
    e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf))}
    | set(np.linspace(-6.0, 6.0, 49).tolist()) | {math.nan})


@pytest.mark.parametrize("family", [
    LogFamily(-1.0, 1.0), LogFamily(-2.0, 1.5), DefiniteLogFamily(2.0, 1.0),
    InverseFamily(), UserSeries((0.0, 1.0, 1.0)), UserSeries((0.0, -0.5)),
    UserSeries((0.0, 1.0, 0.1))])
@pytest.mark.parametrize("space", [L2, D2])
@pytest.mark.parametrize("checked", [False, True])
def test_float_gate_test_agrees_with_the_gates(family, space, checked):
    # a metric evaluation tells a good point apart in float arithmetic and
    # builds the gates only to name a failure
    for w in GATE_NORMS:
        with np.errstate(all="ignore"):
            gates = potential_gates(space, family, np.array([w]), checked)
        fails = any(bool(bad[0]) for bad, _ in gates)
        assert _passes_gates(space, family, float(w), checked) is not fails, w


def hessian_metric_oracle(space, family, x):
    """Metric by the complex Hessian of f(<Z,Z>), via dual second partials."""
    F = ScalarField(lambda q: family(space.square_norm(q)), space.dim)
    d = space.dim
    n = space.n
    D = np.empty((d, d))
    for i in range(d):
        for j in range(i, d):
            D[i, j] = D[j, i] = differentiate(F, x, (i, j))
    H = np.empty((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            H[a, b] = 0.25 * (D[2 * a, 2 * b] + D[2 * a + 1, 2 * b + 1]) \
                + 0.25j * (D[2 * a, 2 * b + 1] - D[2 * a + 1, 2 * b])
    return hermitian_to_real(H)


class TestPotentialMetric:
    def test_radial_square_norm_frozen(self):
        # log family, a=-1, r0=1, at distance 2: g(xi', xi') = 4/9
        g = potential_metric(L3, LogFamily(-1.0, 1.0))
        x = complex_to_real([0, 0, 2j])
        G = g.matrix(x)
        xi = x / 2.0
        assert xi @ G @ xi == pytest.approx(4.0 / 9.0, rel=1e-12)

    @pytest.mark.parametrize("space,family,r,seed", [
        (L3, LogFamily(-1.0, 1.0), 2.0, 1),
        (L3, InverseFamily(), 0.8, 2),
        (L2, LogFamily(-2.0, 0.5), 1.5, 3),
        (D2, DefiniteLogFamily(2.0, 1.0), 1.3, 4),
    ])
    def test_matches_complex_hessian(self, space, family, r, seed):
        g = potential_metric(space, family)
        if space.lorentz:
            x = timelike_point(space, r, seed=seed)
        else:
            rng = np.random.default_rng(seed)
            v = rng.normal(size=space.dim)
            x = r * v / np.linalg.norm(v)
        G = g.matrix(x)
        want = hessian_metric_oracle(space, family, x)
        assert np.allclose(G, want, atol=1e-10)
        assert np.allclose(G, G.T, atol=1e-12)

    @given(st.floats(min_value=1.2, max_value=4.0), st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_positive_definite_and_hermitian(self, r, seed):
        g = potential_metric(L3, LogFamily(-1.0, 1.0))
        x = timelike_point(L3, r, seed=seed)
        G = g.matrix(x)
        assert np.linalg.eigvalsh(G).min() > 0
        J = g.structure_matrix(x)
        assert np.allclose(J.T @ G @ J, G, atol=1e-10)

    def test_admissibility_enforced(self):
        g = potential_metric(L3, UserSeries((0.0, -0.5)))
        with pytest.raises(AdmissibilityError):
            g.matrix(complex_to_real([0, 0, 2j]))
        g2 = potential_metric(L3, UserSeries((0.0, -0.5)), checked=False)
        G = g2.matrix(complex_to_real([0, 0, 2j]))
        assert np.allclose(G, -L3.flat_real())

    def test_domain_enforced(self):
        g = potential_metric(L3, LogFamily(-1.0, 1.0))
        with pytest.raises(DomainError):
            g.matrix(complex_to_real([0, 0, 1j]))  # w = -1 needs w < -1

    def test_flat_metric(self):
        g = flat_metric(L3)
        assert np.allclose(g.matrix(np.zeros(6)), np.diag([1, 1, 1, 1, -1, -1]))


class TestRadialFrame:
    def test_ambient_normalization(self):
        x = complex_to_real([0, 0, 2j])
        fr = radial_frame(L3, x)
        H = L3.flat_real()
        assert np.allclose(fr.xi, x / 2.0)
        # g(xi, xi) = -1 for the Lorentz flat form
        assert fr.xi @ H @ fr.xi == pytest.approx(-1.0)
        assert fr.jxi @ H @ fr.xi == pytest.approx(0.0, abs=1e-15)
        assert fr.jxi @ H @ fr.jxi == pytest.approx(-1.0)

    def test_metric_normalization_frozen(self):
        # g-unit radial field for the log family at distance 2 is (3/2) x/r
        g = potential_metric(L3, LogFamily(-1.0, 1.0))
        x = complex_to_real([0, 0, 2j])
        fr = radial_frame(L3, x, metric=g)
        assert np.allclose(fr.xi, 1.5 * x / 2.0)
        G = g.matrix(x)
        assert fr.xi @ G @ fr.xi == pytest.approx(1.0, rel=1e-12)

    def test_inward_orientation(self):
        x = complex_to_real([0, 0, 2j])
        out = radial_frame(L3, x, orientation="outward")
        inw = radial_frame(L3, x, orientation="inward")
        assert np.allclose(inw.xi, -out.xi)
        with pytest.raises(ValueError):
            radial_frame(L3, x, orientation="sideways")

    def test_frame_error_on_bad_normalizer(self):
        # the flat Lorentz form gives the radial direction negative square
        x = complex_to_real([0, 0, 2j])
        with pytest.raises(FrameError):
            radial_frame(L3, x, metric=flat_metric(L3))

    def test_unit_field_frame_error_on_bad_normalizer(self):
        # the unit field fails as the frame does where the radial direction
        # is not space-like in the metric, so per-point handling catches it
        with pytest.raises(FrameError, match="non-positive square norm"):
            sphere_reports(L2, None, [2.0], metric=flat_metric(L2))
        g = potential_metric(L2, UserSeries((0, 1)), checked=False)
        x = timelike_point(L2, 1.5, seed=2)
        jet = point_jet(g, x)
        with pytest.raises(FrameError, match="non-positive square norm") as err:
            radial_unit_jet(L2, jet)
        with pytest.raises(FrameError) as ref:
            radial_unit_field(L2, metric=g)(list(x))
        assert str(err.value) == str(ref.value)

    def test_field_matches_frame(self):
        g = potential_metric(L3, LogFamily(-1.0, 1.0))
        x = timelike_point(L3, 1.7, seed=9)
        fr = radial_frame(L3, x, metric=g)
        fld = radial_unit_field(L3, metric=g)
        got = [value(c) for c in fld(list(x))]
        assert np.allclose(got, fr.xi, atol=1e-12)
        xi, _ = radial_unit_jet(L3, point_jet(g, x))
        assert np.array_equal(xi, fr.xi)
        with pytest.raises(ValueError):
            radial_unit_jet(L3, point_jet(g, x), orientation="sideways")


# finite-difference jets give the partials to about 4e-11 here
FD_BOUND = 1e-9


def _rel(got, want) -> float:
    """Largest entry difference over the largest entry of the reference."""
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


class TestRadialUnitJet:
    """The closed-form unit field jet against the dual reference, which
    evaluates the metric inside the field and differentiates it by duals.
    On a finite-difference jet xi is still exact, and its partials carry the
    jet's own difference error."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("signature,family,r", POTENTIAL_CASES)
    @pytest.mark.parametrize("orientation", ["outward", "inward"])
    @pytest.mark.parametrize("method,bound", [("exact", 1e-13), ("fd", FD_BOUND)])
    def test_matches_dual_reference(self, n, signature, family, r, orientation,
                                    method, bound):
        space = AmbientSpace(n, signature)
        g = potential_metric(space, family)
        x = point_at_radius(space, r, seed=n)
        jet = point_jet(g, x, method=method)
        ref = radial_unit_field(space, metric=g, orientation=orientation)
        want_xi, want_dxi = eval_with_partials(ref, x)
        xi, dxi = radial_unit_jet(space, jet, orientation)
        assert _rel(xi, want_xi) <= 1e-13
        assert _rel(dxi, want_dxi) <= bound
        assert _rel(covariant_derivative(jet, xi, dxi),
                    covariant_derivative(jet, want_xi, want_dxi)) <= bound
        # the Reeb field J0 xi, whose partials are dxi J0^T
        J0 = j0_matrix(n)
        want_r, want_dr = eval_with_partials(
            lambda q: list(J0 @ np.array(ref(q), dtype=object)), x)
        assert _rel(J0 @ xi, want_r) <= 1e-13
        assert _rel(covariant_derivative(jet, J0 @ xi, dxi @ J0.T),
                    covariant_derivative(jet, want_r, want_dr)) <= bound


class TestConformalPairs:
    def test_log_family_frozen(self):
        u, v = conformal_factors(LogFamily(-1.0, 1.0), 2.0)
        assert u == pytest.approx(-0.5 * math.log(4.0 / 3.0))
        assert math.exp(-2.0 * v) == pytest.approx(1.0 / 3.0)

    def test_inverse_family_frozen(self):
        u, v = conformal_factors(InverseFamily(), 1.0)
        assert math.exp(-2.0 * v) == pytest.approx(1.0)
        assert u == pytest.approx(-0.5 * math.log(2.0))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            conformal_factors(LogFamily(-1.0, 1.0), 0.5)
        with pytest.raises(ConformalDomainError):
            conformal_factors(UserSeries((0.0, -0.5)), 1.0)
        with pytest.raises(ConformalDomainError):
            conformal_factors(UserSeries((0.0, 1.0, 0.01)), 1.0)

    def test_metric_roundtrip(self):
        fam = LogFamily(-1.0, 1.0)
        direct = potential_metric(L3, fam)
        via_pair = metric_from_conformal_pair(L3, conformal_pair_from_family(fam))
        for seed, r in [(0, 1.5), (1, 2.5), (2, 4.0)]:
            x = timelike_point(L3, r, seed=seed)
            assert np.allclose(direct.matrix(x), via_pair.matrix(x), atol=1e-12)

    def test_lorentz_only(self):
        with pytest.raises(DomainError):
            metric_from_conformal_pair(D2, conformal_pair_from_family(InverseFamily()))
