#!/usr/bin/env python3
"""Per-stage cost of one sweep op and one Bochner op, in microseconds.

Times each stage of a ``qck decompose`` or ``check-potential`` run over
``ROWS`` points of the Lorentz disc model log(-1, 1), radii in [1.1, 3]
drawn with seed ``SEED``, at each n, as the minimum over repeats.  Each
stage runs on the inputs the stage before it made: the sampler, the
potential rule, ``gated_jets`` (the gates, the eigenvalues of G and the
connection), ``curvature_tensors``, ``curvature_gate``, the radial unit
field, ``adapted_frames``, ``shape_arrays`` (k, its spread and the gates),
``frame_fit``, ``kahler_defect``, the argument parser and the report writer.
Three totals follow: one ``decompose_points`` pass, and the whole
``decompose`` and ``check-potential`` commands in process.  Then the
float-path Bochner op at the first of those points, T = a pi + b phi +
c psi fitted and mapped by the Bochner operator in coordinates with the
coefficients ``COEFFS``: G, the radial frame, the basis, the combination,
the fit, the Bochner tensor, and the whole op.  Last, the dual jet of the
pulled-back metric that ``qck verify`` criterion 7 takes: the same metric on
the graph charts of the hyperspheres of radii ``SPHERE_RADII`` through its
seeded points, where the field's own evaluation runs on order-2 duals.  The
benchmark under ``perfbench/`` times whole commands; this is where an op's
time goes.

    PYTHONPATH=src python3 scripts/stage_costs.py [--n 2,3,4] [--repeats 200]
"""

import argparse
import contextlib
import io
import json
import math
import time

import numpy as np

from qck import cli
from qck.ambient import (AmbientSpace, LogFamily, _potential_rule,
                         _radial_unit_jets, potential_metric, radial_frame)
from qck.charts import pullback_metric
from qck.curvature import (curvature_gate, curvature_tensors, gated_jets,
                           kahler_defect, point_jets)
from qck.qch import (adapted_frames, bochner_flat, bochner_of_tensor,
                     build_basis_tensors, decompose_points, frame_fit,
                     shape_arrays)
from qck.sampling import radial_points
from qck.sasakian import _chartable_timelike_point, _sphere_chart
from qck.tensors import tensor4_fit

FAMILY = LogFamily(-1.0, 1.0)
FAMILY_FLAGS = ["--family", "log", "--a=-1", "--r0", "1"]
WINDOW = (1.1, 3.0)
ROWS = 8
SEED = 9973
COEFFS = (0.7, -1.3, 0.9)
# the hypersphere radii and sample seed of ``qck verify`` criterion 7
SPHERE_RADII = (1.5, 2.0, 3.0)
SPHERE_SEED = 2


def best_us(call, repeats: int) -> float:
    """The least wall time of ``repeats`` calls, in microseconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def combination(basis):
    """T = a pi + b phi + c psi for the coefficients ``COEFFS``."""
    a, b, c = COEFFS
    return a * basis.pi + b * basis.phi + c * basis.psi


def bochner_op(space, metric, x):
    """The Bochner op at x: G and J, the radial frame, the basis, T, its
    fit and its Bochner tensor, and whether that vanishes."""
    G, J = metric.matrix(x), metric.structure_matrix(x)
    basis = build_basis_tensors(G, J, radial_frame(space, x, metric))
    T = combination(basis)
    B = bochner_of_tensor(T, G, J)
    return tensor4_fit(T, basis.fit_basis()), B, bochner_flat(B)


def stage_costs(n: int, repeats: int) -> dict:
    """{stage: microseconds} of one op over ``ROWS`` points at n."""
    space = AmbientSpace(n, "lorentz")
    metric = potential_metric(space, FAMILY, checked=False)
    X = np.array(radial_points(space, ROWS, *WINDOW, seed=SEED))
    adm, *rule = _potential_rule(space, FAMILY, X, False)
    jet = gated_jets(metric, X, *rule, "closed-form")
    R = curvature_tensors(jet)
    xi, dxi, _ = _radial_unit_jets(space, jet, adm.w)
    F, signs, _ = adapted_frames(jet.G, jet.J, xi)
    argv = ["decompose", "--n", str(n), *FAMILY_FLAGS, "--count", str(ROWS),
            "--seed", str(SEED), "--rmin", str(WINDOW[0]),
            "--rmax", str(WINDOW[1])]
    check_argv = ["check-potential", *argv[1:]]
    sink = io.StringIO()

    def run(call):
        with contextlib.redirect_stdout(sink):
            call()
        sink.seek(0)
        sink.truncate()

    with contextlib.redirect_stdout(sink):
        cli.main(argv)
    report = json.loads(sink.getvalue())
    x = X[0]
    G, J = metric.matrix(x), metric.structure_matrix(x)
    frame = radial_frame(space, x, metric)
    basis = build_basis_tensors(G, J, frame)
    T = combination(basis)
    Z = np.array([_chartable_timelike_point(space, r, SPHERE_SEED)
                  for r in SPHERE_RADII])
    chart, U = _sphere_chart(space, Z, np.array(SPHERE_RADII))
    pulled = pullback_metric(chart, potential_metric(space, FAMILY))
    stages = {
        "sampler": lambda: radial_points(space, ROWS, *WINDOW, seed=SEED),
        "rule": lambda: _potential_rule(space, FAMILY, X, False),
        "gated_jets": lambda: gated_jets(metric, X, *rule, "closed-form"),
        "curvature_tensors": lambda: curvature_tensors(jet),
        "curvature_gate": lambda: curvature_gate(R),
        "unit field": lambda: _radial_unit_jets(space, jet, adm.w),
        "adapted_frames": lambda: adapted_frames(jet.G, jet.J, xi),
        "shape_arrays": lambda: shape_arrays(jet, F, signs, dxi),
        "frame_fit": lambda: frame_fit(R, F, signs),
        "kahler_defect": lambda: kahler_defect(jet),
        "argparse": lambda: cli.build_parser().parse_args(argv),
        "report writer": lambda: run(lambda: cli._emit(report)),
        "decompose_points (one pass)": lambda: decompose_points(
            space, FAMILY, X, checked=False),
        "decompose command": lambda: run(lambda: cli.main(argv)),
        "check-potential command": lambda: run(
            lambda: cli.main(check_argv)),
        "bochner op: G": lambda: metric.matrix(x),
        "bochner op: radial frame": lambda: radial_frame(space, x, metric),
        "bochner op: basis": lambda: build_basis_tensors(G, J, frame),
        "bochner op: combination": lambda: combination(basis),
        "bochner op: fit": lambda: tensor4_fit(T, basis.fit_basis()),
        "bochner op: Bochner": lambda: bochner_of_tensor(T, G, J),
        "bochner op (whole)": lambda: bochner_op(space, metric, x),
        "pullback jet": lambda: point_jets(pulled, U),
    }
    return {name: best_us(call, repeats) for name, call in stages.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", default="2,3,4",
                        help="complex dimensions, comma separated")
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args(argv)
    ns = [int(v) for v in args.n.split(",")]
    if args.repeats < 1 or any(n < 2 for n in ns):
        parser.error("--repeats must be positive and each n at least 2")
    costs = [stage_costs(n, args.repeats) for n in ns]
    print(f"{'stage (us, min of ' + str(args.repeats) + ')':<30s}"
          + "".join(f"{'n=' + str(n):>10s}" for n in ns))
    for name in costs[0]:
        print(f"{name:<30s}" + "".join(f"{c[name]:10.1f}" for c in costs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
