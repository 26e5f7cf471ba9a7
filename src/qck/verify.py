"""Acceptance suite: the library's closed-form claims checked end to end.

Each criterion is a standalone function returning a CriterionResult; the
registry drives both ``qck verify`` and the acceptance test gate, so the
command line and the test suite can never drift apart.  Criteria carry a
wall-clock budget and fail when they blow it.

The criteria on sample points make one batched call per stage over their
points, trials or radii rather than one per point: ``qch.decompose_points``
for the potential criteria, one call per space over the points of all its
potentials (with ``curvature.kahler_defect`` over the jets of that call),
``qch.bochner_arrays`` for the Bochner tensors
of the disc model and of the operator identity,
``sasakian.sphere_reports`` for the hypersphere radii,
``curvature.point_jets`` with ``curvature.curvature_tensors`` for the two
points of each flat baseline, and ``curvature.point_jets`` with
``curvature.fd_jets`` for the exact and finite-difference jets of the
hygiene check.  Seeded draws stay in the order of the one-point code, so
each detail keeps its meaning.  The intrinsic Sasakian family makes one
report per q, each through the checks of ``sasakian.sphere_reports`` at a
batch of one point.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .ambient import (AmbientSpace, DefiniteLogFamily, InverseFamily,
                      LogFamily, flat_metric, potential_metric)
from .core import j0_matrix
from .curvature import (CurvatureBundle, curvature_gate, curvature_tensors,
                        fd_jets, holomorphic_curvatures, kahler_defect,
                        point_jets)
from .errors import raise_first
from .qch import (BOCHNER_FLAT_TOL, _frame_basis, bochner_arrays,
                  decompose_points)
from .rotational import (BochnerFamily, ConstHSC, const_hsc_profile,
                         embed_and_verify, qc_coefficients)
from .sampling import point_at_radius, radial_points
from .sasakian import family_h1_report, sphere_reports
from .tensors import (Tensor4, curvature_symmetry_defect, first_bianchi_defect,
                      tensor_scale)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: dict
    failures: tuple

    def to_json(self) -> dict:
        return {"number": self.number, "name": self.name,
                "passed": self.passed, "elapsed": self.elapsed,
                "budget": self.budget, "details": dict(self.details),
                "failures": list(self.failures)}


def _decompose_points(space, family, X):
    """``qch.decompose_points`` for sample points that must all decompose:
    the first row that fails raises its error, so the record's jets and
    tensors are those of its rows, in order."""
    record = decompose_points(space, family, X)
    for row in range(len(X)):
        if record.first_error(row) is not None:
            raise record.first_error(row)
    return record


# -- criterion bodies ----------------------------------------------------------


def _crit_flat_baselines():
    failures = []
    worst = 0.0
    spaces = [AmbientSpace(3, "lorentz"), AmbientSpace(2, "definite"),
              AmbientSpace(3, "definite")]
    for space in spaces:
        X = np.array([point_at_radius(space, 1.7, seed=seed)
                      for seed in (0, 1)])
        jet = point_jets(flat_metric(space), X)
        R = curvature_tensors(jet)
        raise_first([curvature_gate(R)])
        for p, x in enumerate(X):
            bundle = CurvatureBundle(jet.rows(p), Tensor4(R[p]))
            r = abs(float(space.square_norm(x))) ** 0.5
            u = x / r
            vals = {"curvature": bundle.R.scale(),
                    "tau": abs(bundle.scalar_curvature()),
                    "sigma": abs(bundle.sigma_radial(u)),
                    "kappa": abs(bundle.kappa_radial(u))}
            for name, v in vals.items():
                worst = max(worst, v)
                if v >= 1e-10:
                    failures.append(
                        f"{space.signature} n={space.n}: {name} = {v:.3e}")
    return {"worst_component": worst}, failures


def _crit_disc_model():
    space = AmbientSpace(2, "lorentz")
    family = LogFamily(-1.0, 1.0)
    pts = radial_points(space, 10, 1.1, 3.0, seed=5, family=family)
    rec = _decompose_points(space, family, pts)
    R, G, J = rec.R, rec.jet.G, rec.jet.J
    # 20 seeded directions per point, unit in g
    X = np.stack([np.random.default_rng(1000 + i).normal(size=(20, 4))
                  for i in range(len(pts))])
    X = X / np.sqrt(np.einsum("psi,pij,psj->ps", X, G, X))[:, :, None]
    hsc_err = np.max(np.abs(holomorphic_curvatures(R, G, J, X) + 1.0), axis=1)
    bnorm = tensor_scale(bochner_arrays(R, G, J))
    failures = []
    details = {"max_coefficient_delta": 0.0, "max_residual": 0.0,
               "max_hsc_delta": 0.0, "max_bochner_norm": 0.0}
    for i in range(len(pts)):
        dec = rec.decomposition(i)
        coeff = max(abs(dec.a + 1.0), abs(dec.b), abs(dec.c))
        if coeff > 1e-6 or dec.residual > 1e-6:
            failures.append(f"point {i}: decomposition off by {coeff:.3e}, "
                            f"residual {dec.residual:.3e}")
        if hsc_err[i] > 1e-7:
            failures.append(f"point {i}: holomorphic curvature off by "
                            f"{hsc_err[i]:.3e}")
        if bnorm[i] > 1e-6:
            failures.append(f"point {i}: Bochner norm {bnorm[i]:.3e}")
        for key, v in (("max_coefficient_delta", coeff),
                       ("max_residual", dec.residual),
                       ("max_hsc_delta", float(hsc_err[i])),
                       ("max_bochner_norm", float(bnorm[i]))):
            details[key] = max(details[key], v)
    return details, failures


def _crit_negative_class():
    cases = [(2, LogFamily(-1.0, 1.0)), (2, LogFamily(-1.0, 1.5)),
             (2, LogFamily(-2.0, 1.0)), (2, LogFamily(-2.0, 1.5)),
             (2, InverseFamily()), (3, LogFamily(-1.0, 1.0))]
    failures = []
    worst = {"kahler": 0.0, "residual": 0.0, "margin": -math.inf}
    # one call per space over the points of all its families
    for n in (2, 3):
        space = AmbientSpace(n, "lorentz")
        count = 10 if n == 2 else 3
        families, pts = [], []
        for family in (f for m, f in cases if m == n):
            families += [family] * count
            pts += radial_points(space, count, 1.2, 3.0, seed=11 + n,
                                 family=family)
        rec = _decompose_points(space, families, np.array(pts))
        for i, (family, kd) in enumerate(zip(families,
                                             kahler_defect(rec.jet).tolist())):
            dec = rec.decomposition(i)
            worst["kahler"] = max(worst["kahler"], kd)
            worst["residual"] = max(worst["residual"], dec.residual)
            worst["margin"] = max(worst["margin"], dec.a_plus_k2)
            if kd > 1e-9 or dec.residual > 1e-6:
                failures.append(f"{family.describe()} n={n}: defects "
                                f"{kd:.2e}, {dec.residual:.2e}")
            if not (dec.a_plus_k2 < -1e-3 and dec.klass == "negative"):
                failures.append(f"{family.describe()} n={n}: class "
                                f"{dec.klass} with a+k^2 = "
                                f"{dec.a_plus_k2:.3e}")
    details = {"max_kahler_defect": worst["kahler"],
               "max_residual": worst["residual"],
               "max_a_plus_k2": worst["margin"]}
    return details, failures


def _crit_definite_class():
    failures = []
    details = {"max_residual": 0.0, "min_a_plus_k2": math.inf}
    space = AmbientSpace(2, "definite")
    families, pts = [], []
    for family in (DefiniteLogFamily(2.0, 1.0), DefiniteLogFamily(1.0, 1.5)):
        families += [family] * 10
        pts += radial_points(space, 10, 0.4, 2.0, seed=4, family=family)
    rec = _decompose_points(space, families, np.array(pts))
    for i, family in enumerate(families):
        dec = rec.decomposition(i)
        details["max_residual"] = max(details["max_residual"], dec.residual)
        details["min_a_plus_k2"] = min(details["min_a_plus_k2"],
                                       dec.a_plus_k2)
        if dec.residual > 1e-6:
            failures.append(f"{family.describe()}: residual "
                            f"{dec.residual:.3e}")
        if not (dec.a_plus_k2 > 1e-3 and dec.klass == "positive"):
            failures.append(f"{family.describe()}: class {dec.klass} with "
                            f"a+k^2 = {dec.a_plus_k2:.3e}")
    return details, failures


def _crit_radial_law():
    space = AmbientSpace(2, "lorentz")
    u = np.zeros(4)
    u[3] = 1.0
    radii = np.array([1.4, 1.7, 2.0, 2.4, 2.8])
    h = 1e-3 * radii
    families = (LogFamily(-1.0, 1.0), InverseFamily())
    # for each family, each radius, then the radii a step out, then a step
    # in, all in one call
    X = np.concatenate([radii, radii + h, radii - h])[:, None] * u
    rec = _decompose_points(space, [f for f in families for _ in X],
                            np.concatenate([X] * len(families)))
    rows = np.arange(len(families) * len(X)).reshape(len(families), 3, -1)
    failures = []
    worst = 0.0
    for family, (at, out, inside) in zip(families, rows.tolist()):
        for r, step, mid, hi, lo in zip(radii, h, at, out, inside):
            da_dr = ((rec.decomposition(hi).a - rec.decomposition(lo).a)
                     / (2.0 * step))
            dec = rec.decomposition(mid)
            eta_dr = float(rec.xi[mid] @ rec.jet.G[mid] @ u)
            rhs = 0.5 * dec.k * dec.b * eta_dr
            err = abs(da_dr - rhs) / max(1.0, abs(da_dr), abs(rhs))
            worst = max(worst, err)
            if err > 1e-4:
                failures.append(f"{family.describe()} r={r}: da/dr "
                                f"{da_dr:.6e} vs {rhs:.6e}")
    return {"max_relative_error": worst}, failures


def _crit_bochner_equivalence():
    # pi, phi and psi of the flat definite metric in a J-adapted frame,
    # where G is the identity and J is j0
    n = 3
    d = 2 * n
    pi, phi, psi = (b[None] for b in
                    _frame_basis((1.0,) * d)[0].reshape(3, d, d, d, d))
    model = (2.0 / ((n + 1) * (n + 2)) * pi - 4.0 / (n + 2) * phi + psi)
    rng = np.random.default_rng(101)
    coeffs = []
    for trial in range(50):
        a, b = rng.uniform(-2.0, 2.0, size=2)
        if trial % 2 == 0:
            c = 0.0
        else:
            c = float(rng.uniform(0.01, 2.0) * rng.choice([-1.0, 1.0]))
        coeffs.append((a, b, c))
    a, b, c = np.array(coeffs).T[:, :, None, None, None, None]
    P = len(coeffs)
    B = bochner_arrays(a * pi + b * phi + c * psi,
                       np.broadcast_to(np.eye(d), (P, d, d)),
                       np.broadcast_to(j0_matrix(n), (P, d, d)))
    flat = tensor_scale(B) < BOCHNER_FLAT_TOL
    B -= c * model  # less the image the identity predicts
    defect = tensor_scale(B)
    failures = []
    for trial, (is_flat, (_, _, ct), dt) in enumerate(zip(flat, coeffs, defect)):
        if is_flat != (abs(ct) < 1e-6):
            failures.append(f"trial {trial}: flat={is_flat} but c={ct:.3e}")
        if dt > 1e-9:
            failures.append(f"trial {trial}: operator identity off by "
                            f"{dt:.3e}")
    return {"max_identity_defect": float(np.max(defect))}, failures


def _crit_hypersphere():
    space = AmbientSpace(2, "lorentz")
    family = LogFamily(-1.0, 1.0)
    failures = []
    details = {}
    radii = (1.5, 2.0, 3.0)
    for r, rep in zip(radii, sphere_reports(space, family, radii, seed=2)):
        want_c3 = -(r * r - 1.0) / (r * r)
        checks = [
            (abs(rep.alpha - 1.0 / (2.0 * r)) < 1e-6,
             f"alpha {rep.alpha:.8f} vs {1.0 / (2.0 * r):.8f}"),
            (rep.alpha_defect < 1e-5, f"alpha defect {rep.alpha_defect:.2e}"),
            (rep.c_spread < 1e-6, f"curvature spread {rep.c_spread:.2e}"),
            (abs(rep.c_plus_3a2 - want_c3) < 1e-5,
             f"c+3a^2 {rep.c_plus_3a2:.8f} vs {want_c3:.8f}"),
            (rep.type_tag == "III", f"type {rep.type_tag}"),
            (rep.decompose_delta is not None and rep.decompose_delta < 1e-5,
             f"ambient relation delta {rep.decompose_delta}"),
        ]
        for ok, msg in checks:
            if not ok:
                failures.append(f"r={r}: {msg}")
        details[f"alpha_r{r:g}"] = rep.alpha
        details[f"c_plus_3a2_r{r:g}"] = rep.c_plus_3a2
    return details, failures


def _crit_deformed_family():
    failures = []
    details = {}
    for q in (1.0, 2.0):
        rep = family_h1_report(2, q, seed=1)
        want_c = -4.0 / (q * q) - 3.0
        if abs(rep.alpha - 1.0) > 1e-6:
            failures.append(f"q={q:g}: alpha {rep.alpha:.8f}")
        if abs(rep.c - want_c) > 1e-5:
            failures.append(f"q={q:g}: c {rep.c:.8f} vs {want_c:.8f}")
        details[f"alpha_q{q:g}"] = rep.alpha
        details[f"c_q{q:g}"] = rep.c
    return details, failures


def _crit_meridian_identities():
    failures = []
    worst_const = 0.0
    for c1, c2 in ((1.0, 0.0), (0.5, 1.0), (0.0, 0.0)):
        src = BochnerFamily(c1, c2)
        for t in np.linspace(0.4, 1.4, 21):
            tp, tpp, _ = src.jets(float(t))
            lhs = tpp / (t * tp) + 4.0 * (1.0 - tp) / t ** 2
            worst_const = max(worst_const, abs(lhs + 2.0 * c2))
            co = qc_coefficients("II", float(t), *src.jets(float(t)))
            if abs(co.a_plus_k2 - 4.0 / t ** 2) > 1e-10:
                failures.append(f"bochner({c1:g},{c2:g}) t={t:.3f}: a+k^2 off")
    if worst_const > 1e-10:
        failures.append(f"radial trace expression drifts by {worst_const:.3e}")

    worst_abc = 0.0
    for tag, window in (("II", (0.5, 3.0)), ("III", (3.0, 5.0))):
        src = ConstHSC(-1.0, tag)
        sign = 1.0 if tag == "II" else -1.0
        for t in np.linspace(*window, 21):
            co = qc_coefficients(tag, float(t), *src.jets(float(t)))
            err = max(abs(co.a + 1.0), abs(co.b), abs(co.c))
            worst_abc = max(worst_abc, err)
            if err > 1e-6:
                failures.append(f"const-hsc {tag} t={t:.3f}: coefficients "
                                f"off by {err:.3e}")
            if abs(co.a_plus_k2 - sign * 4.0 / t ** 2) > 1e-10:
                failures.append(f"const-hsc {tag} t={t:.3f}: a+k^2 off")
    return {"max_trace_drift": worst_const,
            "max_coefficient_error": worst_abc}, failures


def _crit_embedded_rotational():
    failures = []
    details = {}
    cases = [("II", const_hsc_profile("II", -1.0, 0.7, 2.8), 11),
             ("III", const_hsc_profile("III", -1.0, 3.0, 5.0), 13)]
    for tag, profile, seed in cases:
        rep = embed_and_verify(profile, n=2, count=6, seed=seed)
        details[f"coefficient_delta_{tag}"] = rep.max_coefficient_delta
        details[f"k_delta_{tag}"] = rep.max_k_delta
        details[f"min_eigenvalue_{tag}"] = rep.min_eigenvalue
        details[f"kahler_defect_{tag}"] = rep.max_kahler_defect
        if rep.max_coefficient_delta > 1e-4 or rep.max_k_delta > 1e-4:
            failures.append(f"type {tag}: fitted vs closed delta "
                            f"{rep.max_coefficient_delta:.3e}")
        if rep.min_eigenvalue <= 0:
            failures.append(f"type {tag}: metric not positive definite "
                            f"({rep.min_eigenvalue:.3e})")
        if rep.max_kahler_defect > 1e-6:
            failures.append(f"type {tag}: closedness defect "
                            f"{rep.max_kahler_defect:.3e}")
    return details, failures


def _crit_numerical_hygiene():
    space = AmbientSpace(2, "lorentz")
    family = LogFamily(-1.0, 1.0)
    metric = potential_metric(space, family)
    X = np.array(radial_points(space, 5, 1.3, 2.8, seed=21, family=family))
    jet = point_jets(metric, X)
    R = curvature_tensors(jet)
    Rf = curvature_tensors(fd_jets(metric, X))
    raise_first([curvature_gate(R), curvature_gate(Rf)])
    scale = np.maximum(1.0, tensor_scale(R))
    rel = tensor_scale(R - Rf) / scale
    sym = curvature_symmetry_defect(R) / scale
    bia = first_bianchi_defect(R) / scale
    failures = []
    for r, s, b in zip(rel, sym, bia):
        if r > 1e-6:
            failures.append(f"{jet.method} vs finite-difference drift "
                            f"{r:.3e}")
        if s > 1e-9 or b > 1e-9:
            failures.append(f"algebraic identity defect {max(s, b):.3e}")
    return {"max_path_drift": float(np.max(rel)),
            "max_symmetry_defect": float(np.max(sym)),
            "max_bianchi_defect": float(np.max(bia))}, failures


CRITERIA = {
    1: ("flat-baselines", 1.0, _crit_flat_baselines),
    2: ("disc-model", 10.0, _crit_disc_model),
    3: ("negative-class-potentials", 30.0, _crit_negative_class),
    4: ("definite-potentials", 10.0, _crit_definite_class),
    5: ("radial-derivative-law", 5.0, _crit_radial_law),
    6: ("bochner-equivalence", 5.0, _crit_bochner_equivalence),
    7: ("hypersphere-structures", 20.0, _crit_hypersphere),
    8: ("deformed-sphere-family", 10.0, _crit_deformed_family),
    9: ("meridian-identities", 5.0, _crit_meridian_identities),
    10: ("embedded-rotational", 60.0, _crit_embedded_rotational),
    11: ("numerical-hygiene", 10.0, _crit_numerical_hygiene),
}

SUITES = {
    "all": tuple(sorted(CRITERIA)),
    "bochner": (6, 9),
}


def run_criterion(number: int) -> CriterionResult:
    name, budget, fn = CRITERIA[number]
    start = time.perf_counter()
    details, failures = fn()
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        failures = list(failures) + [
            f"runtime {elapsed:.2f}s exceeded the {budget:.0f}s budget"]
    return CriterionResult(number=number, name=name,
                           passed=not failures, elapsed=elapsed,
                           budget=budget,
                           details={k: details[k] for k in sorted(details)},
                           failures=tuple(failures))


def run_suite(suite: str = "all") -> list[CriterionResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{sorted(SUITES)}")
    return [run_criterion(k) for k in SUITES[suite]]
