#!/usr/bin/env python3
"""Parameter sweeps of the radial potential families.

Prints the decomposition coefficients along a radius grid for each requested
parameter value, the quickest way to watch (a, b, c, k) move as the family
deforms.  Rejected radii are listed with the reason instead of numbers.

    python3 scripts/sweep_potentials.py --family log --params=-0.5,-1,-2
    python3 scripts/sweep_potentials.py --family dlog --space definite \
        --params 1,2 --radii 0.5,0.8,1.2,1.6
"""

import argparse

from qck.ambient import (AmbientSpace, admissibility, family_from_json,
                         potential_metric, radial_unit_jet)
from qck.curvature import curvature_bundle, point_jet
from qck.errors import QckError
from qck.qch import decompose, extract_shape_data
from qck.sampling import timelike_point


def decomposition_at(space, family, r, seed=0):
    metric = potential_metric(space, family, checked=False)
    x = timelike_point(space, r, seed=seed)
    w = float(space.square_norm(x))
    report = admissibility(space, family, w)
    if not report.ok:
        reason = "outside domain" if not report.in_domain else "inadmissible"
        raise QckError(f"{reason} (f'={report.f_prime:.3g}, "
                       f"f'+wf''={report.f_prime_plus_wf2:.3g})")
    jet = point_jet(metric, x)
    bundle = curvature_bundle(jet)
    return decompose(bundle, extract_shape_data(jet, *radial_unit_jet(space, jet)))


def sweep(space, kind, params, radii, seed, r0=1.0):
    header = f"{'r':>6s} {'a':>13s} {'b':>13s} {'c':>13s} {'k':>13s} " \
             f"{'a+k^2':>13s}  class"
    if kind == "inverse":
        params = params[:1]  # no family parameter to vary
    for value in params:
        if kind in ("log", "dlog"):
            obj = {"kind": kind, "a": value, "r0": r0}
        elif kind == "series":
            obj = {"kind": "series", "coeffs": [0.0, value]}
        else:
            obj = {"kind": "inverse"}
        family = family_from_json(obj)
        print(f"\n== {family.describe()} "
              f"({space.signature} signature, n={space.n}) ==")
        print(header)
        for r in radii:
            try:
                dec = decomposition_at(space, family, r, seed=seed)
            except QckError as exc:
                print(f"{r:6.3f}  -- {exc}")
                continue
            print(f"{r:6.3f} {dec.a:13.6e} {dec.b:13.6e} {dec.c:13.6e} "
                  f"{dec.k:13.6e} {dec.a_plus_k2:13.6e}  {dec.klass}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", default="log",
                        choices=("log", "dlog", "inverse", "series"))
    parser.add_argument("--space", default=None,
                        choices=("definite", "lorentz"),
                        help="default: definite for dlog, lorentz otherwise")
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--params", default="-0.5,-1,-2",
                        help="comma separated family parameters")
    parser.add_argument("--radii", default="1.2,1.5,2.0,2.5,3.0",
                        help="comma separated sample radii")
    parser.add_argument("--r0", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    signature = args.space or ("definite" if args.family == "dlog"
                               else "lorentz")
    space = AmbientSpace(args.n, signature)
    params = [float(p) for p in args.params.split(",")]
    radii = [float(r) for r in args.radii.split(",")]
    sweep(space, args.family, params, radii, args.seed, r0=args.r0)


if __name__ == "__main__":
    main()
