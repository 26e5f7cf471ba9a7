from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qck import qch, tensors
from qck.ambient import (
    AmbientSpace,
    DefiniteLogFamily,
    InverseFamily,
    LogFamily,
    RadialFrame,
    UserSeries,
    flat_metric,
    potential_metric,
    radial_frame,
    radial_unit_jets,
)
from qck.config import DEFAULT_TOLERANCES
from qck.core import hermitian_to_real, j0_matrix
from qck.curvature import CurvatureBundle, point_jets
from qck.duals import eval_with_partials
from qck.errors import FrameError, ShapeUniformityError
from qck.qch import (
    QCDecomposition,
    adapted_frames,
    bochner_arrays,
    bochner_flat,
    bochner_of_tensor,
    build_basis_tensors,
    classify,
    decompose_points,
)
from qck.sampling import point_at_radius, radial_points
from qck.tensors import Tensor4, tensor4_fit
from oracles import (POTENTIAL_CASES, adapted_frames_every_direction,
                     complex_to_real, curvature_bundle, point_jet,
                     ConformalPair, NotKahler, adapted_complex_frame,
                     bochner_tensor, complex_bochner, decompose,
                     extract_shape_data, point_rows, radial_unit_jet,
                     holomorphic_components,
                     hsc_angle_profile, metric_from_conformal_pair,
                     radial_unit_field, real_from_holomorphic, section_angle)

L2 = AmbientSpace(2, "lorentz")
L3 = AmbientSpace(3, "lorentz")
D2 = AmbientSpace(2, "definite")
D3 = AmbientSpace(3, "definite")

DISC = LogFamily(-1.0, 1.0)


def timelike_point(space, r, seed=0, theta=0.4):
    rng = np.random.default_rng(seed)
    w = rng.normal(scale=0.3, size=space.n - 1) + 1j * rng.normal(scale=0.3, size=space.n - 1)
    zn = np.exp(1j * theta) * np.sqrt(r * r + float(np.sum(np.abs(w) ** 2)))
    return complex_to_real(np.append(w, zn))


def definite_point(space, r, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=space.dim)
    return r * v / np.linalg.norm(v)


def standard_basis(space, x):
    """Flat-space basis tensors at x plus the frame used to build them."""
    G = space.flat_real()
    J = j0_matrix(space.n)
    fr = radial_frame(space, x)
    return build_basis_tensors(G, J, fr), fr, G, J


def radial_shape(space, jet, orientation="outward"):
    """Shape data of the metric's radial unit field, from the jet alone."""
    return extract_shape_data(jet, *radial_unit_jet(space, jet, orientation))


def field_shape(jet, field):
    """Shape data of a generic-scalar vector field, differentiated by duals."""
    return extract_shape_data(jet, *eval_with_partials(field, jet.point))


def complement_rows(jet, frame):
    """The rows of the J-adapted frame on frame.xi past (xi, J xi): a
    G-orthonormal basis of the complement distribution."""
    F, signs, _ = adapted_frames(jet.G[None], jet.J[None], frame.xi[None])
    assert np.all(signs[0, 2:] == 1.0)
    return F[0, 2:]


def disc_pipeline(x, orientation="outward"):
    g = potential_metric(L3, DISC)
    jet = point_jet(g, x)
    bundle = curvature_bundle(jet)
    frame = radial_frame(L3, x, metric=g, orientation=orientation)
    shape = radial_shape(L3, jet, orientation)
    return g, bundle, frame, shape


# -- reference implementations (per-quadruple transcription) -------------------


def _eta_pair(frame, G, v):
    return float(frame.xi @ G @ v), float(frame.jxi @ G @ v)


def pi_ref(G, J, X, Y, Z, U):
    def g(u, v):
        return float(u @ G @ v)

    return (g(Y, Z) * g(X, U) - g(X, Z) * g(Y, U) - 2.0 * g(J @ X, Y) * g(J @ Z, U)
            + g(J @ Y, Z) * g(J @ X, U) - g(J @ X, Z) * g(J @ Y, U)) / 4.0


def phi1_ref(G, J, frame, X, Y, Z, U):
    def g(u, v):
        return float(u @ G @ v)

    eX, tX = _eta_pair(frame, G, X)
    eY, tY = _eta_pair(frame, G, Y)
    eZ, tZ = _eta_pair(frame, G, Z)
    eU, tU = _eta_pair(frame, G, U)
    return (g(Y, Z) * (eX * eU + tX * tU) - g(X, Z) * (eY * eU + tY * tU)
            + g(J @ Y, Z) * (eX * tU - tX * eU) - g(J @ X, Z) * (eY * tU - tY * eU)
            - 2.0 * g(J @ X, Y) * (eZ * tU - tZ * eU)) / 8.0


def phi2_ref(G, J, frame, X, Y, Z, U):
    def g(u, v):
        return float(u @ G @ v)

    eX, tX = _eta_pair(frame, G, X)
    eY, tY = _eta_pair(frame, G, Y)
    eZ, tZ = _eta_pair(frame, G, Z)
    return ((eY * eZ + tY * tZ) * g(X, U) - (eX * eZ + tX * tZ) * g(Y, U)
            + (eY * tZ - tY * eZ) * g(J @ X, U) - (eX * tZ - tX * eZ) * g(J @ Y, U)
            - 2.0 * (eX * tY - tX * eY) * g(J @ Z, U)) / 8.0


def psi_ref(G, frame, X, Y, Z, U):
    eX, tX = _eta_pair(frame, G, X)
    eY, tY = _eta_pair(frame, G, Y)
    eZ, tZ = _eta_pair(frame, G, Z)
    eU, tU = _eta_pair(frame, G, U)
    return (eY * eZ * tX * tU - eX * eZ * tY * tU
            + eX * tY * tZ * eU - eY * tX * tZ * eU)


class TestBasisTensors:
    def test_components_match_reference(self):
        basis, fr, G, J = standard_basis(D2, [2.0, 0.0, 0.0, 0.0])
        d = 4
        E = np.eye(d)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        args = (E[i], E[j], E[k], E[l])
                        assert basis.pi.a[i, j, k, l] == pytest.approx(
                            pi_ref(G, J, *args), abs=1e-14)
                        assert basis.phi.a[i, j, k, l] == pytest.approx(
                            phi1_ref(G, J, fr, *args)
                            + phi2_ref(G, J, fr, *args), abs=1e-14)
                        assert basis.psi.a[i, j, k, l] == pytest.approx(
                            psi_ref(G, fr, *args), abs=1e-14)

    def test_reference_at_generic_frame(self):
        # the same transcription check at a non-axis point so the frame has
        # components along every coordinate
        x = definite_point(D2, 1.7, seed=5)
        basis, fr, G, J = standard_basis(D2, x)
        d = 4
        E = np.eye(d)
        rng = np.random.default_rng(2)
        for _ in range(40):
            i, j, k, l = rng.integers(0, d, size=4)
            args = (E[i], E[j], E[k], E[l])
            assert basis.phi.a[i, j, k, l] == pytest.approx(
                phi1_ref(G, J, fr, *args) + phi2_ref(G, J, fr, *args),
                abs=1e-14)
            assert basis.psi.a[i, j, k, l] == pytest.approx(
                psi_ref(G, fr, *args), abs=1e-14)

    def test_curvature_symmetries_exact(self):
        basis, *_ = standard_basis(D3, definite_point(D3, 2.0, seed=1))
        for t in (basis.pi, basis.phi, basis.psi):
            assert t.curvature_symmetry_defect() < 1e-13
            assert t.first_bianchi_defect() < 1e-13

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_contraction_identities(self, seed):
        rng = np.random.default_rng(seed)
        basis, fr, G, J = standard_basis(D2, [2.0, 0.0, 0.0, 0.0])
        v = rng.normal(size=4)
        X = v / np.linalg.norm(v)  # G is the identity here
        JX = J @ X
        cos2 = float(fr.xi @ G @ X) ** 2 + float(fr.jxi @ G @ X) ** 2

        def contract(t):
            return float(np.einsum("ijkl,i,j,k,l->", t.a, X, JX, JX, X))

        assert contract(basis.pi) == pytest.approx(1.0, abs=1e-12)
        assert contract(basis.phi) == pytest.approx(cos2, abs=1e-12)
        assert contract(basis.psi) == pytest.approx(cos2 * cos2, abs=1e-12)

    def test_psi_vanishes_inside_complement(self):
        basis, fr, G, _ = standard_basis(D3, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        # directions orthogonal to both xi and J xi
        for v in np.eye(6)[2:]:
            w = np.eye(6)[3]
            val = np.einsum("ijkl,i,j,k,l->", basis.psi.a, v, w, w, v)
            assert abs(val) < 1e-15

    def test_non_unit_frame_rejected(self):
        G = D2.flat_real()
        J = j0_matrix(2)
        fr = radial_frame(D2, [2.0, 0.0, 0.0, 0.0])
        bad = type(fr)(2.0 * fr.xi, fr.jxi)
        with pytest.raises(FrameError):
            build_basis_tensors(G, J, bad)

    def test_lorentz_flat_frame_accepted(self):
        # time-like unit frame: square norms are -1, still unit in modulus
        x = timelike_point(L2, 2.0, seed=7)
        G = L2.flat_real()
        J = j0_matrix(2)
        fr = radial_frame(L2, x)
        basis = build_basis_tensors(G, J, fr)
        assert basis.pi.curvature_symmetry_defect() < 1e-12


class TestShapeData:
    def test_flat_lorentz_radial(self):
        g = flat_metric(L3)
        field = radial_unit_field(L3)
        x = timelike_point(L3, 2.0, seed=11)
        sd = field_shape(point_jet(g, x), field)
        assert sd.variant == "lorentz"
        assert sd.k == pytest.approx(-1.0, abs=1e-10)
        assert sd.p_star == pytest.approx(0.5, abs=1e-10)
        assert sd.spread < 1e-10
        assert sd.model_defect < 1e-10

    def test_flat_definite_radial(self):
        g = flat_metric(D2)
        field = radial_unit_field(D2)
        x = definite_point(D2, 2.0, seed=3)
        sd = field_shape(point_jet(g, x), field)
        assert sd.variant == "riemannian"
        assert sd.k == pytest.approx(1.0, abs=1e-10)
        assert sd.p_star == pytest.approx(-0.5, abs=1e-10)
        assert sd.model_defect < 1e-10

    def test_disc_metric_shape(self):
        x = timelike_point(L3, 2.0, seed=4)
        _, _, _, sd = disc_pipeline(x)
        assert sd.variant == "riemannian"
        assert sd.k == pytest.approx(-0.5, abs=1e-9)
        assert sd.p_star == pytest.approx(1.25, abs=1e-8)
        assert sd.spread < 1e-9

    def test_derivative_relation_on_disc(self):
        # p* = -(xi(k) + k^2)/k with xi(k) finite-differenced along the ray
        g = potential_metric(L3, DISC)
        x = np.asarray(timelike_point(L3, 2.0, seed=9))
        h = 1e-5

        def k_at(scale):
            return radial_shape(L3, point_jet(g, x * scale)).k

        sd = radial_shape(L3, point_jet(g, x))
        dk_dsigma = (k_at(1.0 + h) - k_at(1.0 - h)) / (2.0 * h * 1.0)
        # unit of arc length along xi: xi = xhat / sqrt(g(xhat, xhat))
        xhat = x / L3.radius(x)
        gxx = float(xhat @ g.matrix(x) @ xhat)
        xi_k = dk_dsigma / (L3.radius(x) * np.sqrt(gxx))
        assert sd.p_star == pytest.approx(-(xi_k + sd.k ** 2) / sd.k, rel=1e-5)

    def test_shape_derivative_relation_flat_lorentz(self):
        # p*' = (xi'(k') - k'^2)/k' for the flat radial field
        g = flat_metric(L3)
        field = radial_unit_field(L3)
        x = np.asarray(timelike_point(L3, 2.0, seed=13))
        h = 1e-5

        def k_at(scale):
            return field_shape(point_jet(g, x * scale), field).k

        sd = field_shape(point_jet(g, x), field)
        r = L3.radius(x)
        dk_dr = (k_at(1.0 + h) - k_at(1.0 - h)) / (2.0 * h * r)
        xi_k = dk_dr  # xi'(r) = 1 for the outward unit field
        assert sd.p_star == pytest.approx((xi_k - sd.k ** 2) / sd.k, rel=1e-6)

    def test_non_unit_field_rejected(self):
        g = potential_metric(L3, DISC)
        # ambient-normalized field is not unit for the potential metric
        field = radial_unit_field(L3)
        jet = point_jet(g, timelike_point(L3, 2.0, seed=1))
        with pytest.raises(FrameError):
            field_shape(jet, field)

    def test_uniformity_gate(self):
        g = flat_metric(D2)
        weights = np.array([1.0, 2.0, 1.0, 1.0])

        def skewed(x):
            v = [w * c for w, c in zip(weights, x)]
            nrm2 = sum(c * c for c in v)
            from qck.duals import gsqrt

            s = gsqrt(nrm2)
            return [c / s for c in v]

        with pytest.raises(ShapeUniformityError):
            field_shape(point_jet(g, [1.3, 0.4, -0.8, 0.6]), skewed)

    def test_inward_orientation_flips_k(self):
        x = timelike_point(L3, 2.0, seed=21)
        _, _, _, sd_out = disc_pipeline(x)
        _, _, _, sd_in = disc_pipeline(x, orientation="inward")
        assert sd_in.k == pytest.approx(-sd_out.k, abs=1e-9)


class TestDecompose:
    def test_disc_is_space_form(self):
        for seed in (0, 1, 2):
            rng = np.random.default_rng(100 + seed)
            r = float(rng.uniform(1.2, 2.8))
            x = timelike_point(L3, r, seed=seed, theta=float(rng.uniform(0, 2 * np.pi)))
            _, bundle, _, shape = disc_pipeline(x)
            dec = decompose(bundle, shape)
            assert dec.a == pytest.approx(-1.0, abs=1e-8)
            assert abs(dec.b) < 1e-8
            assert abs(dec.c) < 1e-8
            assert dec.residual < 1e-9
            assert dec.klass == "negative"
            assert dec.a_plus_k2 == pytest.approx(-(r * r - 1.0) / (r * r), abs=1e-7)

    def test_flat_decomposes_to_zero(self):
        g = flat_metric(D2)
        x = definite_point(D2, 2.0, seed=8)
        jet = point_jet(g, x)
        bundle = curvature_bundle(jet)
        field = radial_unit_field(D2)
        shape = field_shape(jet, field)
        dec = decompose(bundle, shape)
        assert abs(dec.a) < 1e-12 and abs(dec.b) < 1e-12 and abs(dec.c) < 1e-12
        assert dec.klass == "positive"  # a + k^2 = 1 at r = 2
        assert dec.a_plus_k2 == pytest.approx(1.0, abs=1e-9)

    def test_inverse_family_negative_class(self):
        fam = InverseFamily()
        g = potential_metric(L2, fam)
        for seed in (3, 4):
            x = timelike_point(L2, 1.4 + 0.3 * seed, seed=seed)
            jet = point_jet(g, x)
            bundle = curvature_bundle(jet)
            shape = radial_shape(L2, jet)
            dec = decompose(bundle, shape)
            assert dec.residual < 1e-6
            assert dec.a_plus_k2 < -1e-3
            assert dec.klass == "negative"

    def test_definite_log_positive_class(self):
        fam = DefiniteLogFamily(1.0, 1.0)
        g = potential_metric(D2, fam)
        x = definite_point(D2, 1.5, seed=6)
        jet = point_jet(g, x)
        bundle = curvature_bundle(jet)
        shape = radial_shape(D2, jet)
        dec = decompose(bundle, shape)
        assert dec.residual < 1e-6
        assert dec.a_plus_k2 > 1e-3
        assert dec.klass == "positive"

    def test_json_shape(self):
        dec = QCDecomposition(a=-1.0, b=0.0, c=0.0, residual=1e-12, k=-0.5,
                              a_plus_k2=-0.75, klass="negative")
        out = dec.to_json()
        assert sorted(out) == ["a", "a_plus_k2", "b", "c", "class", "k", "residual"]
        assert out["class"] == "negative"

    def test_classify_band(self):
        assert classify(1e-7) == "positive"
        assert classify(-1e-7) == "negative"
        assert classify(5e-9) == "zero"
        assert classify(-5e-9) == "zero"

    def test_synthetic_fit_recovers_coefficients(self):
        basis, fr, G, J = standard_basis(D3, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(42)
        for _ in range(5):
            a, b, c = rng.normal(size=3)
            target = a * basis.pi + b * basis.phi + c * basis.psi
            from qck.tensors import tensor4_fit

            coeffs, residual = tensor4_fit(target, basis.fit_basis())
            assert np.allclose(coeffs, [a, b, c], atol=1e-10)
            assert residual < 1e-12


FRAME_CASES = [("lorentz", DISC), ("lorentz", InverseFamily()),
               ("definite", DefiniteLogFamily(2.0, 1.0)),
               ("definite", UserSeries((0.0, 1.0, 0.1)))]
RESIDUAL_GATE = DEFAULT_TOLERANCES["residual"]


def frame_components(R, F):
    """R (d, d, d, d) in the frame whose rows are F."""
    return np.einsum("ijkl,ai,bj,ck,el->abce", R, F, F, F, F)


def in_span_residual_bound(T, F):
    """Frame residual that rounding allows a tensor T (d, d, d, d) in the
    span of pi, phi and psi: 1e-13, or more where T's coordinate components
    are large against its frame components.  The rounding of T reaches the
    frame F through four of its rows, and the residual is relative to
    max(1, |T_F|).  The factor 1000 covers the largest ratio of residual to
    eps max|T| max|F|^4 / max(1, |T_F|), about 830, over the four frame
    cases, n = 2..4, r = 1.1..10 and 60 seeds each."""
    scale = (np.finfo(float).eps * np.max(np.abs(T)) * np.max(np.abs(F)) ** 4
             / max(1.0, float(np.linalg.norm(frame_components(T, F)))))
    return max(1e-13, 1000.0 * scale)


def one_point(space, family, x):
    res = point_rows(decompose_points(space, family, np.asarray(x)[None],
                                      checked=False))[0]
    assert res.first_error is None
    return res


def same_frames(got, want):
    """Two ``adapted_frames`` results to the bit: F and signs byte for
    byte, -0.0 apart from 0.0, and the same gate masks."""
    (F, signs, gates), (F0, signs0, gates0) = got, want
    assert F.tobytes() == F0.tobytes() and F.shape == F0.shape
    assert signs.tobytes() == signs0.tobytes()
    assert [bad.tolist() for bad, _ in gates] == \
        [bad.tolist() for bad, _ in gates0]


class TestFrameLoop:
    """``adapted_frames`` steps only over the directions some point takes,
    and reorders pairs only where points took different directions; the
    loop over every direction stays in ``oracles`` as its reference."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("signature,family,r", POTENTIAL_CASES)
    def test_matches_every_direction_loop(self, signature, family, r, n):
        space = AmbientSpace(n, signature)
        metric = potential_metric(space, family)
        for seed in range(3):
            X = np.array(radial_points(space, 8, 0.95 * r, 1.05 * r,
                                       seed=seed))
            jet = point_jets(metric, X)
            xi, _, gates = radial_unit_jets(space, jet)
            assert not any(np.any(bad) for bad, _ in gates)
            same_frames(adapted_frames(jet.G, jet.J, xi),
                        adapted_frames_every_direction(jet.G, jet.J, xi))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_points_taking_other_directions_reorder(self, n):
        # a point on the x_1 axis has xi and J xi along e_1 and e_2, so it
        # takes none of the first two directions that the others take
        space = AmbientSpace(n, "definite")
        X = np.array(radial_points(space, 5, 1.2, 1.6, seed=n))
        X[2] = 0.0
        X[2, 0] = 1.4
        jet = point_jets(potential_metric(space, DefiniteLogFamily(2.0, 1.0)),
                         X)
        xi, _, _ = radial_unit_jets(space, jet)
        got = adapted_frames(jet.G, jet.J, xi)
        same_frames(got, adapted_frames_every_direction(jet.G, jet.J, xi))
        F, signs, _ = got
        assert np.all(signs == 1.0)
        assert F[2, 2, :2].tolist() == [0.0, 0.0] and F[0, 2, 0] != 0.0

    def test_incomplete_frames_match_in_value(self):
        # where no frame completes, the loops leave the empty rows zero, of
        # either sign; every other bit and the gates agree
        G = np.diag([1.0, 1.0, 0.0, 0.0])[None]
        xi = np.array([[1.0, 0.0, 0.0, 0.0]])
        F, signs, gates = adapted_frames(G, j0_matrix(2)[None], xi)
        F0, signs0, gates0 = adapted_frames_every_direction(
            G, j0_matrix(2)[None], xi)
        assert np.array_equal(F, F0) and signs.tobytes() == signs0.tobytes()
        assert gates[1][0].tolist() == gates0[1][0].tolist() == [True]

    def test_rotational_and_sasakian_frames_match(self, monkeypatch):
        # every frame that the embedded rotational metrics, whose J varies
        # from point to point, and the hypersphere reports ask for
        from qck import rotational, sasakian
        calls = []

        def spy(G, J, xi):
            calls.append(tuple(np.array(a) for a in (G, J, xi)))
            return adapted_frames(G, J, xi)

        monkeypatch.setattr(rotational, "adapted_frames", spy)
        monkeypatch.setattr(sasakian, "adapted_frames", spy)
        for n, profile in ((2, rotational.const_hsc_profile(
                "III", -1.0, 3.0, 5.0)), (3, rotational.const_hsc_profile(
                    "II", -1.0, 0.7, 2.8))):
            rotational.embed_and_verify(profile, n=n, count=4, seed=3)
        sasakian.sphere_reports(L3, DISC, [1.5, 2.5], seed=2)
        sasakian.sphere_reports(D3, DefiniteLogFamily(2.0, 1.0), [0.7, 1.5],
                                seed=2)
        assert len(calls) == 4
        assert any(len(J) > 1 and np.ptp(J, axis=0).max() > 1e-3
                   for _, J, _ in calls)
        for G, J, xi in calls:
            same_frames(adapted_frames(G, J, xi),
                        adapted_frames_every_direction(G, J, xi))


class TestRecordMemory:
    """A constant structure's J and dJ stay one row, broadcast, in a record:
    through ``PointJet.rows`` and through the join of passes."""

    @pytest.mark.parametrize("count", [5, 17])
    def test_structure_stays_broadcast(self, count):
        space = AmbientSpace(4, "lorentz")
        assert qch.pass_rows(space.dim) == 16
        X = np.array(radial_points(space, count, 1.2, 3.0, seed=count))
        rec = decompose_points(space, DISC, X)
        jet = rec.jet
        assert len(jet.point) == count
        assert jet.J.strides == (0, 64, 8)
        assert jet.dJ.strides == (0, 0, 0, 0)
        assert np.array_equal(jet.J, np.broadcast_to(j0_matrix(4), jet.J.shape))
        assert not jet.dJ.any()
        # the other fields keep a row each
        assert jet.G.strides[0] == 512
        for index in (np.array([3, 1]), np.arange(count) % 2 == 0):
            rows = jet.rows(index)
            assert rows.J.strides[0] == 0 and rows.dJ.strides[0] == 0
            assert len(rows.J) == len(rows.point) == len(jet.point[index])

    def test_join_copies_a_structure_that_differs(self):
        # passes whose repeated rows differ are joined into one array
        space = AmbientSpace(4, "lorentz")
        X = np.array(radial_points(space, 17, 1.2, 3.0, seed=4))
        first, last = (qch._decompose_pass(space, DISC, X[rows], True, True)
                       for rows in (slice(0, 16), slice(16, 17)))
        J = -last.jet.J
        flipped = replace(last, jet=replace(last.jet, J=J))
        joined = qch._join(iter([first, flipped]), 17)
        assert joined.jet.J.strides[0] != 0
        assert np.array_equal(joined.jet.J[:16], first.jet.J)
        assert np.array_equal(joined.jet.J[16:], J)
        assert joined.jet.dJ.strides[0] == 0


class TestFrameFit:
    """The fit in the J-adapted frame against the coordinate least-squares
    fit, which stays as its oracle."""

    def test_frame_is_adapted_and_orthonormal(self):
        for space, family in ((L3, DISC), (D3, DefiniteLogFamily(2.0, 1.0))):
            x = point_at_radius(space, 2.5, seed=4)
            res = one_point(space, family, x)
            G, J = res.bundle.jet.G, res.bundle.jet.J
            F, signs, gates = adapted_frames(G[None], J[None], res.xi[None])
            F = F[0]
            assert not any(np.any(bad) for bad, _ in gates)
            assert np.array_equal(F[0], res.xi)
            assert np.allclose(F @ G @ F.T, np.diag(signs[0]), atol=1e-12)
            assert np.all(signs[0, 2:] == 1.0)
            # J has the standard components in the frame
            assert np.allclose(np.linalg.solve(F.T, J @ F.T), j0_matrix(3),
                               atol=1e-12)

    def test_indefinite_complement_keeps_a_complete_frame(self):
        # the flat form of signature (2, 2) with a unit space-like xi: the
        # complement is indefinite, and the signed normalisers finish it
        G = np.diag([1.0, 1.0, -1.0, -1.0])
        J = j0_matrix(2)
        F, signs, gates = adapted_frames(G[None], J[None],
                                         np.array([[1.0, 0.0, 0.0, 0.0]]))
        assert not any(np.any(bad) for bad, _ in gates)
        assert signs[0].tolist() == [1.0, 1.0, -1.0, -1.0]
        assert np.allclose(F[0] @ G @ F[0].T, np.diag(signs[0]))

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([2, 3, 4]), case=st.sampled_from(FRAME_CASES),
           r=st.floats(1.1, 10.0), seed=st.integers(0, 2**16))
    # the disc's coordinate components reach 1.4e5 here, its frame ones 2
    @example(n=2, case=FRAME_CASES[0], r=1.1, seed=13)
    def test_matches_coordinate_fit(self, n, case, r, seed):
        signature, family = case
        space = AmbientSpace(n, signature)
        res = one_point(space, family,
                        point_at_radius(space, r,
                                        rng=np.random.default_rng(seed)))
        jet, R = res.bundle.jet, res.bundle.R
        basis = build_basis_tensors(jet.G, jet.J, res.shape)
        ref, _ = tensor4_fit(R, basis.fit_basis())
        # the two fits weigh the part of R off the span differently, so
        # they may differ by as much as that part, the frame misfit
        F, _, _ = adapted_frames(jet.G[None], jet.J[None], res.xi[None])
        misfit = res.fit[3] * max(1.0, np.linalg.norm(
            frame_components(R.a, F[0])))
        for got, want in zip(res.fit[:3], ref):
            bound = 1e-12 * max(1.0, abs(want)) + 4.0 * misfit
            assert abs(got - want) <= bound
        # a tensor in the span has no misfit: the fits agree with each
        # other and with its coefficients
        abc = np.random.default_rng(seed).uniform(-2.0, 2.0, size=3)
        T = abc[0] * basis.pi + abc[1] * basis.phi + abc[2] * basis.psi
        ref, _ = tensor4_fit(T, basis.fit_basis())
        dec = decompose(CurvatureBundle(jet, T), res.shape)
        assert dec.residual <= in_span_residual_bound(T.a, F[0])
        for got, want, exact in zip((dec.a, dec.b, dec.c), ref, abc):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_in_span_bound_fails_off_the_span(self):
        # at the point whose coordinate components are largest against its
        # frame ones, a tensor pushed off the span by 1e-10 of its frame
        # norm is past the rounding bound
        space = AmbientSpace(2, "lorentz")
        res = one_point(space, DISC, point_at_radius(
            space, 1.1, rng=np.random.default_rng(13)))
        jet = res.bundle.jet
        basis = build_basis_tensors(jet.G, jet.J, res.shape)
        abc = np.random.default_rng(13).uniform(-2.0, 2.0, size=3)
        T = abc[0] * basis.pi + abc[1] * basis.phi + abc[2] * basis.psi
        F, _, _ = adapted_frames(jet.G[None], jet.J[None], res.xi[None])
        h = np.random.default_rng(0).normal(size=(4, 4))
        h = h + h.T
        # the Kulkarni-Nomizu square of h, in the frame
        E = np.einsum("il,jk->ijkl", h, h) - np.einsum("ik,jl->ijkl", h, h)
        size = np.linalg.norm(frame_components(T.a, F[0]))
        E = frame_components(E * (1e-10 * size / np.linalg.norm(E)),
                             np.linalg.inv(F[0]))
        dec = decompose(CurvatureBundle(jet, T + Tensor4(E)), res.shape)
        assert dec.residual > in_span_residual_bound(T.a, F[0])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_residual_gate_fires_off_the_span(self, n):
        # a curvature-symmetric tensor off the span, of 1e-5 |R| in the
        # frame, ten times the residual gate.  In coordinates the disc's R
        # shrinks with r: there the same tensor reads as a residual of
        # 3e-9 to 5e-8 at r = 10, and at r = 50 the basis is degenerate.
        space = AmbientSpace(n, "lorentz")
        rng = np.random.default_rng(n)
        d = space.dim
        for r in (1.5, 3.0, 10.0, 50.0):
            res = one_point(space, DISC, point_at_radius(space, r, rng=rng))
            jet, R = res.bundle.jet, res.bundle.R
            assert res.fit[3] < RESIDUAL_GATE
            F, signs, _ = adapted_frames(jet.G[None], jet.J[None],
                                         res.xi[None])
            F = F[0]
            h = rng.normal(size=(d, d))
            h = h + h.T
            # the Kulkarni-Nomizu square of h has every curvature symmetry
            E = np.einsum("il,jk->ijkl", h, h) - np.einsum("ik,jl->ijkl", h, h)
            basis = build_basis_tensors(np.diag(signs[0]), j0_matrix(n),
                                        RadialFrame(np.eye(d)[0],
                                                    np.eye(d)[1]))
            B = np.stack([b.a.ravel() for b in basis.fit_basis()])
            E = E.ravel() - np.linalg.lstsq(B.T, E.ravel(), rcond=None)[0] @ B
            size = np.linalg.norm(frame_components(R.a, F))
            E *= 1e-5 * size / np.linalg.norm(E)
            E = Tensor4(frame_components(E.reshape((d,) * 4),
                                         np.linalg.inv(F).T))
            assert E.curvature_symmetry_defect() < 1e-12 * E.scale()
            dec = decompose(CurvatureBundle(jet, R + E), res.shape)
            assert dec.residual > RESIDUAL_GATE
            assert abs(dec.a + 1.0) < 1e-4

    def test_no_basis_build_or_solve_per_point(self, monkeypatch):
        X = np.array(radial_points(L3, 3, 1.2, 3.0, seed=5))
        first = [res.fit for res in point_rows(decompose_points(L3, DISC, X))]

        def banned(*args, **kwargs):
            raise AssertionError("called per point")

        # the frame basis is built once, on first use; after that a batch
        # and a point build no basis tensors and solve nothing
        monkeypatch.setattr(qch, "basis_arrays", banned)
        monkeypatch.setattr(tensors, "fit_tensors", banned)
        monkeypatch.setattr(np.linalg, "lstsq", banned)
        assert [res.fit for res in
                point_rows(decompose_points(L3, DISC, X))] == first
        res = one_point(L3, DISC, X[0])
        assert decompose(res.bundle, res.shape).a == first[0][0]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_disc_far_out(self, n):
        # at r = 50..100 the coordinate basis Gram matrix passes COND_LIMIT
        # (DegenerateBasis); in the frame the disc is still a = -1
        space = AmbientSpace(n, "lorentz")
        X = np.array(radial_points(space, 4, 50.0, 100.0, seed=n))
        for res in point_rows(decompose_points(space, DISC, X)):
            assert res.first_error is None
            dec = res.decomposition
            assert abs(dec.a + 1.0) < 1e-6
            assert abs(dec.b) < 1e-6 and abs(dec.c) < 1e-6
            assert dec.residual < RESIDUAL_GATE


class TestAngleProfile:
    def test_disc_profile_constant(self):
        x = timelike_point(L3, 1.8, seed=14)
        _, bundle, frame, _ = disc_pipeline(x)
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(12, 6))
        prof = hsc_angle_profile(bundle, frame, samples)
        for theta, H in prof:
            assert H == pytest.approx(-1.0, abs=1e-8)

    def test_profile_polynomial_model(self):
        fam = LogFamily(-2.0, 1.5)
        g = potential_metric(L3, fam)
        x = timelike_point(L3, 2.4, seed=15)
        jet = point_jet(g, x)
        bundle = curvature_bundle(jet)
        frame = radial_frame(L3, x, metric=g)
        shape = radial_shape(L3, jet)
        dec = decompose(bundle, shape)

        rng = np.random.default_rng(1)
        samples = rng.normal(size=(20, 6))
        prof = hsc_angle_profile(bundle, frame, samples)
        for theta, H in prof:
            cos2 = np.cos(theta) ** 2
            model = dec.a + dec.b * cos2 + dec.c * cos2 * cos2
            assert H == pytest.approx(model, abs=1e-7)

    def test_profile_extremes(self):
        fam = LogFamily(-2.0, 1.5)
        g = potential_metric(L3, fam)
        x = timelike_point(L3, 2.4, seed=16)
        jet = point_jet(g, x)
        bundle = curvature_bundle(jet)
        frame = radial_frame(L3, x, metric=g)
        shape = radial_shape(L3, jet)
        dec = decompose(bundle, shape)

        # X = xi: cos theta = 1, H = a + b + c
        prof = hsc_angle_profile(bundle, frame, [frame.xi])
        assert prof[0][0] == pytest.approx(0.0, abs=1e-7)
        assert prof[0][1] == pytest.approx(dec.a + dec.b + dec.c, abs=1e-7)

        # X in the complement: cos theta = 0, H = a
        comp = complement_rows(bundle.jet, frame)
        prof = hsc_angle_profile(bundle, frame, [comp[0]])
        assert prof[0][0] == pytest.approx(np.pi / 2, abs=1e-7)
        assert prof[0][1] == pytest.approx(dec.a, abs=1e-7)

    def test_equal_angles_equal_curvatures(self):
        x = timelike_point(L3, 2.0, seed=17)
        fam = LogFamily(-1.0, 1.5)
        g = potential_metric(L3, fam)
        bundle = curvature_bundle(point_jet(g, x))
        frame = radial_frame(L3, x, metric=g)
        comp = complement_rows(bundle.jet, frame)
        theta = 0.7
        X1 = np.cos(theta) * frame.xi + np.sin(theta) * comp[0]
        X2 = np.cos(theta) * frame.xi + np.sin(theta) * comp[1]
        mix = (frame.xi * np.cos(0.3) + frame.jxi * np.sin(0.3))
        X3 = np.cos(theta) * mix + np.sin(theta) * comp[2]
        prof = hsc_angle_profile(bundle, frame, [X1, X2, X3])
        thetas = [p[0] for p in prof]
        values = [p[1] for p in prof]
        assert max(thetas) - min(thetas) < 1e-10
        assert max(values) - min(values) < 1e-9

    def test_section_angle_clamps(self):
        fr = radial_frame(D2, [2.0, 0.0, 0.0, 0.0])
        G = D2.flat_real()
        ang = section_angle(fr, fr.xi * (1.0 + 1e-12), G)
        assert ang.cos2 <= 1.0
        assert ang.theta >= 0.0


def kahler_curvature(n, signature, seed):
    """A random Kahler curvature tensor T on a random Hermitian metric G of
    the standard structure J: (T, G, J).  T's holomorphic components are
    symmetric in a <-> c and b <-> d and Hermitian, and the complex-frame
    oracle turns them into real components."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    lam = rng.uniform(0.5, 2.0, size=n)
    if signature == "lorentz":
        lam[-1] = -lam[-1]
    G = hermitian_to_real((Q * lam) @ Q.conj().T)
    J = j0_matrix(n)
    C = rng.normal(size=(n,) * 4) + 1j * rng.normal(size=(n,) * 4)
    C = C + C.transpose(2, 1, 0, 3)
    C = C + C.transpose(0, 3, 2, 1)
    C = C + C.conj().transpose(1, 0, 3, 2)
    T = Tensor4(real_from_holomorphic(C, adapted_complex_frame(J)[1]))
    return T, G, J


class TestBochner:
    def setup_method(self):
        self.basis, self.frame, self.G, self.J = standard_basis(
            D3, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        self.n = 3

    def image_tensor(self):
        n = self.n
        return ((2.0 / ((n + 1) * (n + 2))) * self.basis.pi
                + (-4.0 / (n + 2)) * self.basis.phi + self.basis.psi)

    def test_pi_and_phi_in_kernel(self):
        for t in (self.basis.pi, self.basis.phi):
            B = bochner_of_tensor(t, self.G, self.J)
            assert B.scale() < 1e-12

    def test_psi_image(self):
        B = bochner_of_tensor(self.basis.psi, self.G, self.J)
        assert np.max(np.abs(B.a - self.image_tensor().a)) < 1e-12

    def test_synthetic_combination(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a, b, c = rng.normal(size=3)
            T = a * self.basis.pi + b * self.basis.phi + c * self.basis.psi
            B = bochner_of_tensor(T, self.G, self.J)
            expected = c * self.image_tensor()
            assert np.max(np.abs(B.a - expected.a)) < 1e-11

    def test_result_is_trace_free(self):
        T = 1.3 * self.basis.pi - 0.4 * self.basis.phi + 2.2 * self.basis.psi
        B = bochner_of_tensor(T, self.G, self.J)
        Ginv = np.linalg.inv(self.G)
        ricci = np.einsum("il,ijkl->jk", Ginv, B.a)
        assert np.max(np.abs(ricci)) < 1e-10
        assert B.curvature_symmetry_defect() < 1e-11

    def test_holomorphic_roundtrip(self):
        for t in (self.basis.pi, self.basis.phi, self.basis.psi):
            C, _, A = holomorphic_components(t, self.J)
            recon = real_from_holomorphic(C, A)
            assert np.allclose(recon, t.a, atol=1e-12)

    @given(st.sampled_from([2, 3, 4]), st.sampled_from(["definite", "lorentz"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_real_form_matches_complex_frame(self, n, signature, seed):
        T, G, J = kahler_curvature(n, signature, seed)
        Jt = np.einsum("ai,bj,ck,dl,abcd->ijkl", J, J, J, J, T.a)
        assert T.curvature_symmetry_defect() < 1e-12 * T.scale()
        assert np.max(np.abs(Jt - T.a)) < 1e-12 * T.scale()
        B = bochner_of_tensor(T, G, J)
        scale = max(1.0, B.scale())
        assert np.max(np.abs(B.a - complex_bochner(T, G, J).a)) < 1e-12 * scale
        ricci = np.einsum("il,ijkl->jk", np.linalg.inv(G), B.a)
        assert np.max(np.abs(ricci)) < 1e-12 * scale
        assert np.max(np.abs(bochner_of_tensor(B, G, J).a - B.a)) < 1e-12 * scale

    def test_structure_must_square_to_minus_identity(self):
        with pytest.raises(ValueError, match="J does not square to -identity"):
            bochner_of_tensor(self.basis.pi, self.G, 2.0 * self.J)

    def test_part_without_kahler_symmetries_is_kept(self):
        # the space form tensor g_jk g_il - g_ik g_jl has the curvature
        # symmetries but is not J-invariant: the complex frame sees only its
        # (1,1) part, the real form the whole tensor
        G = self.G
        T = Tensor4(np.einsum("jk,il->ijkl", G, G) - np.einsum("ik,jl->ijkl", G, G))
        gap = bochner_of_tensor(T, G, self.J) - complex_bochner(T, G, self.J)
        assert gap.scale() > 0.1

    def test_dimension_two(self):
        basis, fr, G, J = standard_basis(D2, [2.0, 0.0, 0.0, 0.0])
        B = bochner_of_tensor(basis.pi, G, J)
        assert B.scale() < 1e-12
        B = bochner_of_tensor(basis.psi, G, J)
        n = 2
        img = ((2.0 / ((n + 1) * (n + 2))) * basis.pi
               + (-4.0 / (n + 2)) * basis.phi + basis.psi)
        assert np.max(np.abs(B.a - img.a)) < 1e-12

    def test_disc_metric_bochner_flat(self):
        x = timelike_point(L3, 2.0, seed=19)
        g = potential_metric(L3, DISC)
        B = bochner_tensor(point_jet(g, x))
        assert B.scale() < 1e-8

    def test_qch_metric_bochner_matches_c(self):
        fam = LogFamily(-2.0, 1.5)
        g = potential_metric(L3, fam)
        x = timelike_point(L3, 2.2, seed=20)
        jet = point_jet(g, x)
        bundle = curvature_bundle(jet)
        frame = radial_frame(L3, x, metric=g)
        shape = radial_shape(L3, jet)
        basis = build_basis_tensors(jet.G, jet.J, frame)
        dec = decompose(bundle, shape)
        B = bochner_tensor(jet, bundle=bundle)
        n = 3
        image = ((2.0 / ((n + 1) * (n + 2))) * basis.pi
                 + (-4.0 / (n + 2)) * basis.phi + basis.psi)
        assert np.max(np.abs(B.a - dec.c * image.a)) < 1e-8 * max(1.0, abs(dec.c))

    def test_not_kahler_gate(self):
        pair = ConformalPair(u=lambda r: 0.0 * r, v=lambda r: 0.0 * r)
        g = metric_from_conformal_pair(L2, pair)
        with pytest.raises(NotKahler):
            bochner_tensor(point_jet(g, timelike_point(L2, 2.0, seed=2)))

    def test_bochner_flat_predicate(self):
        Bz = bochner_of_tensor(self.basis.pi, self.G, self.J)
        Bnz = bochner_of_tensor(self.basis.psi, self.G, self.J)
        assert bochner_flat(Bz)
        assert not bochner_flat(Bnz)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_equivalence_property(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=2)
        c = 0.0 if rng.random() < 0.5 else float(rng.normal()) + np.sign(rng.normal()) * 0.01
        T = a * self.basis.pi + b * self.basis.phi + c * self.basis.psi
        B = bochner_of_tensor(T, self.G, self.J)
        assert bochner_flat(B) == (abs(c) < 1e-6)


class TestBochnerArrays:
    """The batched Bochner operator: each row is the one-point operator on
    that row to the bit, whatever the batch around it."""

    def test_rows_equal_one_point_operator(self):
        rng = np.random.default_rng(16)
        for n in (2, 3, 4):
            for signature in ("definite", "lorentz"):
                cases = [kahler_curvature(n, signature, seed)
                         for seed in range(50)]
                T, G, J = (np.stack([c[k].a if k == 0 else c[k] for c in cases])
                           for k in range(3))
                ones = [bochner_of_tensor(*c).a for c in cases]
                for P in (1, 7, 50):
                    rows = rng.permutation(50)[:P]
                    B = bochner_arrays(T[rows], G[rows], J[rows])
                    for b, i in zip(B, rows):
                        assert np.array_equal(b, ones[i])

    def test_rows_match_the_complex_frame(self):
        cases = [kahler_curvature(3, "lorentz", seed) for seed in range(7)]
        B = bochner_arrays(*(np.stack([c[k].a if k == 0 else c[k]
                                       for c in cases]) for k in range(3)))
        for b, (T, G, J) in zip(B, cases):
            scale = max(1.0, float(np.max(np.abs(b))))
            assert np.max(np.abs(b - complex_bochner(T, G, J).a)) < 1e-12 * scale

    def test_any_bad_structure_raises(self):
        T, G, J = kahler_curvature(2, "definite", 0)
        J2 = np.stack([J, 2.0 * J])
        with pytest.raises(ValueError, match="J does not square to -identity"):
            bochner_arrays(np.stack([T.a, T.a]), np.stack([G, G]), J2)
