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

import numpy as np

from qck.ambient import AmbientSpace, family_from_json
from qck.qch import decompose_points
from qck.sampling import point_at_radius


def sweep_rows(space, families, radii, seed=0):
    """One table per family, of one row per radius: the decomposition
    there, or the reason it was rejected.  The radii of every family go
    through one batched call, a family per row."""
    X = np.array([point_at_radius(space, r, seed=seed) for r in radii])
    rec = decompose_points(space, [f for f in families for _ in radii],
                           np.tile(X, (len(families), 1)), checked=False)
    adm = rec.admissibility
    rows = []
    for i, r in enumerate(list(radii) * len(families)):
        if not adm.ok[i]:
            reason = "outside domain" if not adm.in_domain[i] else "inadmissible"
            rows.append(f"{r:6.3f}  -- {reason} (f'={adm.f_prime[i]:.3g}, "
                        f"f'+wf''={adm.f_prime_plus_wf2[i]:.3g})")
        elif rec.first_error(i) is not None:
            rows.append(f"{r:6.3f}  -- {rec.first_error(i)}")
        else:
            dec = rec.decomposition(i)
            rows.append(f"{r:6.3f} {dec.a:13.6e} {dec.b:13.6e} {dec.c:13.6e} "
                        f"{dec.k:13.6e} {dec.a_plus_k2:13.6e}  {dec.klass}")
    return [rows[k:k + len(radii)] for k in range(0, len(rows), len(radii))]


def sweep(space, kind, params, radii, seed, r0=1.0):
    header = f"{'r':>6s} {'a':>13s} {'b':>13s} {'c':>13s} {'k':>13s} " \
             f"{'a+k^2':>13s}  class"
    if kind == "inverse":
        params = params[:1]  # no family parameter to vary
    families = []
    for value in params:
        if kind in ("log", "dlog"):
            obj = {"kind": kind, "a": value, "r0": r0}
        elif kind == "series":
            obj = {"kind": "series", "coeffs": [0.0, value]}
        else:
            obj = {"kind": "inverse"}
        families.append(family_from_json(obj))
    for family, rows in zip(families, sweep_rows(space, families, radii,
                                                 seed=seed)):
        print(f"\n== {family.describe()} "
              f"({space.signature} signature, n={space.n}) ==")
        print(header)
        for row in rows:
            print(row)


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
