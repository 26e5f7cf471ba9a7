"""Workloads of the qck benchmark.

Each workload is a list of rounds built from the workload seed; a round is a
fixed mix of operations, and a run always executes whole rounds so that every
run measures the same mix.  An operation has a timed ``call`` into the
program and an untimed ``check`` of its output against values the benchmark
knows independently of the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

# Calls go through the module objects so that the traced run, which wraps
# module attributes, sees the benchmark's own calls into each layer.
from qck import ambient, cli, qch, tensors  # noqa: E402

# Distinct rounds built per run; longer runs cycle through them again.
ROUNDS = 8

RESIDUAL_GATE = 1e-6
KAHLER_GATE = 1e-9
COEFF_GATE = 1e-6
FIT_GATE = 1e-9
BOCHNER_GATE = 1e-9


@dataclass(frozen=True)
class Checked:
    """Output check of one operation: what was wrong (empty when correct),
    the points it checked, and per-criterion wall seconds for verify runs."""

    problems: tuple
    points: int
    criteria: dict


def run_cli(argv):
    """In-process ``qck`` invocation: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


# -- potential-sweep ---------------------------------------------------------


@dataclass(frozen=True)
class SweepFamily:
    space: str
    flags: tuple
    window: tuple
    klass: str
    coeffs: tuple | None  # expected (a, b, c) where the family fixes them


SWEEP_FAMILIES = (
    SweepFamily("lorentz", ("--family", "log", "--a", "-1", "--r0", "1"),
                (1.1, 3.0), "negative", (-1.0, 0.0, 0.0)),
    SweepFamily("lorentz", ("--family", "inverse"),
                (1.2, 3.0), "negative", None),
    SweepFamily("definite", ("--family", "dlog", "--a", "2", "--r0", "1"),
                (0.4, 2.0), "positive", None),
)
SWEEP_POINTS = 8


@dataclass(frozen=True)
class SweepOp:
    """One ``check-potential`` or ``decompose`` run over seeded points."""

    argv: tuple
    klass: str
    coeffs: tuple | None

    def call(self):
        return run_cli(self.argv)

    def check(self, result) -> Checked:
        code, text = result
        if code != 0:
            return Checked((f"exit code {code}",), 0, {})
        report = json.loads(text)
        problems = []
        if report.get("pass") is not True:
            problems.append("report does not pass")
        points = report.get("points", [])
        if len(points) != SWEEP_POINTS:
            problems.append(f"{len(points)} points, expected {SWEEP_POINTS}")
        for p in points:
            where = f"point {p.get('index')}"
            dec = p.get("decomposition")
            if dec is None:
                problems.append(f"{where}: no decomposition")
                continue
            if not dec["residual"] < RESIDUAL_GATE:
                problems.append(f"{where}: residual {dec['residual']:.3e}")
            if "kahler_defect" in p and not p["kahler_defect"] < KAHLER_GATE:
                problems.append(f"{where}: Kahler defect {p['kahler_defect']:.3e}")
            if dec.get("class") != self.klass:
                problems.append(f"{where}: class {dec.get('class')!r}, "
                                f"expected {self.klass!r}")
            if self.coeffs is not None:
                for name, want in zip("abc", self.coeffs):
                    if not abs(dec[name] - want) < COEFF_GATE:
                        problems.append(f"{where}: {name} = {dec[name]!r}, "
                                        f"expected {want!r}")
        return Checked(tuple(problems), len(points), {})


def sweep_round(rng):
    ops = []
    for n in (2, 3, 4):
        for fam in SWEEP_FAMILIES:
            for command in ("check-potential", "decompose"):
                argv = (command, "--n", str(n), "--space", fam.space,
                        *fam.flags, "--count", str(SWEEP_POINTS),
                        "--seed", str(int(rng.integers(2**31))),
                        "--rmin", str(fam.window[0]),
                        "--rmax", str(fam.window[1]))
                ops.append(SweepOp(argv, fam.klass, fam.coeffs))
    return ops


# -- bochner-algebra ---------------------------------------------------------

BOCHNER_FAMILIES = {
    "lorentz": (ambient.LogFamily(-1.0, 1.0), (1.1, 3.0)),
    "definite": (ambient.DefiniteLogFamily(2.0, 1.0), (0.4, 2.0)),
}


def sample_point(n: int, space: str, r: float, rng) -> tuple:
    """Point at radius r in interleaved real coordinates (x1, y1, ...).

    Lorentz points spread the space-like block and put the rest of the
    time-like square norm on the last complex coordinate.
    """
    if space == "lorentz":
        w = rng.normal(scale=0.3, size=n - 1) + 1j * rng.normal(scale=0.3, size=n - 1)
        zn = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)) * np.sqrt(
            r * r + float(np.sum(np.abs(w) ** 2)))
        z = np.append(w, zn)
    else:
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        z = r * v / float(np.linalg.norm(v))
    return tuple(float(c) for pair in zip(z.real, z.imag) for c in pair)


@dataclass(frozen=True)
class BochnerOp:
    """Basis, fit and Bochner operator on T = a*pi + b*phi + c*psi."""

    n: int
    space: str
    x: tuple
    coeffs: tuple

    def call(self):
        space = ambient.AmbientSpace(self.n, self.space)
        metric = ambient.potential_metric(space, BOCHNER_FAMILIES[self.space][0])
        x = np.asarray(self.x)
        G = metric.matrix(x)
        J = metric.structure_matrix(x)
        frame = ambient.radial_frame(space, x, metric)
        basis = qch.build_basis_tensors(G, J, frame)
        a, b, c = self.coeffs
        T = a * basis.pi + b * basis.phi + c * basis.psi
        fitted, _ = tensors.tensor4_fit(T, basis.fit_basis())
        B = qch.bochner_of_tensor(T, G, J)
        return basis, fitted, B, qch.bochner_flat(B)

    def check(self, result) -> Checked:
        basis, fitted, B, flat = result
        n, c = self.n, self.coeffs[2]
        problems = []
        err = max(abs(float(f) - w) for f, w in zip(fitted, self.coeffs))
        if not err < FIT_GATE:
            problems.append(f"fit misses (a, b, c) by {err:.3e}")
        # The Bochner operator kills pi and phi and maps psi to its
        # trace-free part, so B is fixed by c alone.
        want = c * ((2.0 / ((n + 1) * (n + 2))) * basis.pi
                    - (4.0 / (n + 2)) * basis.phi + basis.psi)
        dev = float(np.max(np.abs(B.a - want.a)))
        if not dev <= BOCHNER_GATE * max(1.0, want.scale()):
            problems.append(f"Bochner tensor off by {dev:.3e}")
        if flat != (c == 0.0):
            problems.append(f"bochner_flat is {flat} with c = {c!r}")
        return Checked(tuple(problems), 1, {})


# Ops per signature at each n.  Three n=3 ops to each n=4 op put the median
# inside the n=3 latency cluster and the 90th percentile inside the n=4 one,
# rather than on the gap between them.
BOCHNER_MIX = ((3, 6), (4, 2))


def bochner_round(rng):
    ops = []
    for n, per_space in BOCHNER_MIX:
        for space, (_, window) in BOCHNER_FAMILIES.items():
            for i in range(per_space):
                with_c = i % 2 == 1
                a, b = (float(v) for v in rng.uniform(-2.0, 2.0, size=2))
                c = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0)) if with_c else 0.0
                x = sample_point(n, space, float(rng.uniform(*window)), rng)
                ops.append(BochnerOp(n, space, x, (a, b, c)))
    return ops


# -- verify-suite ------------------------------------------------------------

VERIFY_CRITERIA = 11


@dataclass(frozen=True)
class VerifyOp:
    """One ``qck verify --json`` run of the whole acceptance registry."""

    argv: tuple = ("verify", "--json")

    def call(self):
        return run_cli(self.argv)

    def check(self, result) -> Checked:
        code, text = result
        if code != 0:
            return Checked((f"exit code {code}",), 0, {})
        report = json.loads(text)
        results = report.get("results", [])
        problems = []
        if report.get("pass") is not True:
            problems.append("report does not pass")
        if len(results) != VERIFY_CRITERIA:
            problems.append(f"{len(results)} criteria, expected {VERIFY_CRITERIA}")
        problems += [f"criterion {r['name']} failed" for r in results
                     if r.get("passed") is not True]
        return Checked(tuple(problems), len(results),
                       {r["name"]: float(r["elapsed"]) for r in results})


def verify_round(rng):
    return [VerifyOp()]


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    build_round: object
    # what a "point" is for points_per_s, and what per-layer figures are per
    point: str
    layer_unit: str


WORKLOADS = {
    "potential-sweep": Workload(sweep_round, "sample point", "point"),
    "bochner-algebra": Workload(bochner_round, "sample point", "point"),
    "verify-suite": Workload(verify_round, "acceptance criterion", "op"),
}


def build(workload: str, seed: int):
    """The workload's inputs: ``ROUNDS`` lists of operations from ``seed``."""
    rng = np.random.default_rng(seed)
    build_round = WORKLOADS[workload].build_round
    return [build_round(rng) for _ in range(ROUNDS)]
