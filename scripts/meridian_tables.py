#!/usr/bin/env python3
"""Write meridian profile tables and spot-check them against embeddings.

Generates the standard 10-column CSV (same contract as ``qck meridian``) for
a small set of profiles covering all three rotation types, then re-derives
the coefficients of a few profiles from actual embedded metrics and reports
the largest disagreement.

    python3 scripts/meridian_tables.py --out-dir build/meridians
"""

import argparse
import pathlib

from qck.rotational import (bochner_meridian, const_hsc_profile,
                            embed_and_verify)

CSV_HEADER = "s,t,q,tp,tpp,a,b,c,k,a_plus_k2"

PROFILES = [
    ("bochner_I_c1_1_c2_-2", lambda: bochner_meridian(
        1.0, -2.0, 0.4, 0.7, rotation_type="I")),
    ("bochner_II_c1_1_c2_0", lambda: bochner_meridian(
        1.0, 0.0, 0.4, 1.4, rotation_type="II")),
    ("bochner_II_c1_0.5_c2_1", lambda: bochner_meridian(
        0.5, 1.0, 0.3, 1.2, rotation_type="II")),
    ("const_hsc_II_a_-1", lambda: const_hsc_profile("II", -1.0, 0.5, 3.0)),
    ("const_hsc_III_a_-1", lambda: const_hsc_profile("III", -1.0, 3.0, 5.0)),
]

EMBED_CHECKS = [
    ("II", lambda: const_hsc_profile("II", -1.0, 0.7, 2.8)),
    ("III", lambda: const_hsc_profile("III", -1.0, 3.0, 5.0)),
]


def write_tables(out_dir, steps):
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, build in PROFILES:
        profile = build()
        path = out_dir / f"{name}.csv"
        with path.open("w") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in profile.rows(steps):
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        defect = profile.natural_defect()
        print(f"{path}  ({steps} rows, natural-parameter defect {defect:.2e})")


def embed_checks(count, seed):
    for tag, build in EMBED_CHECKS:
        report = embed_and_verify(build(), n=2, count=count, seed=seed)
        print(f"type {tag:>3s} embedding: coefficient delta "
              f"{report.max_coefficient_delta:.2e}, k delta "
              f"{report.max_k_delta:.2e}, min eigenvalue "
              f"{report.min_eigenvalue:.3f}, kahler defect "
              f"{report.max_kahler_defect:.2e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="build/meridians")
    parser.add_argument("--steps", type=int, default=129)
    parser.add_argument("--embed-count", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-embed", action="store_true")
    args = parser.parse_args()
    if args.steps < 2:
        parser.error("--steps must be at least 2")

    write_tables(pathlib.Path(args.out_dir), args.steps)
    if not args.skip_embed:
        embed_checks(args.embed_count, args.seed)


if __name__ == "__main__":
    main()
