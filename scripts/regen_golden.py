#!/usr/bin/env python3
"""Rewrite the golden reports under ``tests/golden/``.

Runs a fixed grid of ``qck`` invocations in process through ``cli.main`` and
stores, per invocation, the argv, the exit code, stdout (a parsed JSON
report, or a CSV table as its header and rows of floats) and the stderr
text.  ``tests/test_golden.py`` reruns the same grid and
compares against these files, so a change that moves a reported value shows
as a failing test.

Regenerating a file changes test data: say which values moved and why, and
never regenerate to make a regression pass.

    PYTHONPATH=src python3 scripts/regen_golden.py [--out-dir tests/golden]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
from pathlib import Path

from qck import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# Sample points per potential set: three seeded radii in [rmin, rmax].
POINT_SETS = {
    "log": ["--family", "log", "--a=-1", "--r0", "1"],
    "inverse": ["--family", "inverse"],
    "dlog": ["--space", "definite", "--family", "dlog", "--a", "2",
             "--r0", "1"],
    # r0 = 1 inside the window: some points fall outside the log domain
    "log-boundary": ["--family", "log", "--a=-1", "--r0", "1",
                     "--rmin", "0.8", "--rmax", "1.3"],
}

# Sets pinned for check-potential and decompose only.  The log window starts
# past r0 = 1.5 and the definite series is admissible at every radius, so no
# point sits near an admissibility edge, where equivalent derivative paths
# differ by more than the comparison allows.
FIT_SETS = {
    "log-2": ["--family", "log", "--a=-2", "--r0", "1.5", "--rmin", "1.7",
              "--rmax", "3"],
    "definite-series": ["--space", "definite", "--family", "series",
                        "--coeffs", "0,1,0.1"],
}

# Explicit points (relative to the repository root) on the Lorentz series
# f = w + w^2 / 10: one admissible point, one at the origin outside the
# family domain, and one space-like point with no radius.
MIXED_POINTS = ["--config", "tests/golden/mixed-points.config.json"]


def _potential_cases(command, sets=POINT_SETS):
    return [[command, "--n", str(n), *flags, "--count", "3", "--seed", "7"]
            for n in (2, 3, 4) for flags in sets.values()]


def _fit_cases(command):
    return (_potential_cases(command)
            + _potential_cases(command, FIT_SETS) + [[command, *MIXED_POINTS]])


CASES = {
    "curvature": _potential_cases("curvature"),
    "decompose": _fit_cases("decompose"),
    "check-potential": _fit_cases("check-potential"),
    "sasaki": [["sasaki", "--n", str(n), "--r", r, "--orientation", o]
               for n in (2, 3) for r in ("1.5", "2", "3")
               for o in ("auto", "outward")]
    + [["sasaki", "--n", "4", "--r", r] for r in ("1.5", "2", "3")]
    + [["sasaki", "--n", str(n), *POINT_SETS["dlog"], "--r", r,
        "--orientation", o]
       for n in (2, 3) for r in ("0.7", "1.5") for o in ("auto", "outward")]
    + [["sasaki", "--family-h1", "--n", str(n), "--q", q]
       for n in (2, 3) for q in ("0.7", "1", "2")]
    # n = 4, q = 0.7 is left out: its model_defect is rounding noise on
    # terms near 1e2, beyond the bound of the comparison
    + [["sasaki", "--family-h1", "--n", "4", "--q", q] for q in ("1", "2")],
    "verify": [["verify", "--json"]],
    "meridian": [
        ["meridian", "bochner", "--type", "II", "--c1", "1", "--c2", "0",
         "--t0", "0.4", "--t1", "1.2", "--steps", "129"],
        ["meridian", "bochner", "--type", "I", "--c1", "1", "--c2", "-2",
         "--t0", "0.35", "--t1", "0.75", "--steps", "33"],
        ["meridian", "bochner", "--c1", "0.5", "--c2", "1", "--t0", "0.3",
         "--t1", "1.2", "--steps", "33", "--flip-q"],
        ["meridian", "const-hsc", "--type", "II", "--a", "-1", "--t0", "0.5",
         "--t1", "3", "--steps", "33"],
        ["meridian", "const-hsc", "--type", "III", "--a", "-1", "--t0", "3",
         "--t1", "5", "--steps", "129"],
        ["meridian", "const-hsc", "--type", "III", "--a", "-1", "--t0", "3",
         "--t1", "5", "--steps", "33", "--flip-q"],
    ],
}


def _drop_timings(obj):
    """The report without its wall-clock fields, which no two runs share."""
    if isinstance(obj, dict):
        return {k: _drop_timings(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_drop_timings(v) for v in obj]
    return obj


def _parse_stdout(text):
    """A JSON report without its timings, or a CSV table as its header and
    rows of floats, so that table cells compare as numbers."""
    if not text:
        return None
    if text.startswith("{"):
        return _drop_timings(json.loads(text))
    header, *rows = text.splitlines()
    return {"header": header,
            "rows": [[float(v) for v in row.split(",")] for row in rows]}


def run_case(argv) -> dict:
    """One invocation as stored in a golden file, run from the repository
    root so that config paths resolve."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    return {"argv": list(argv), "exit": code,
            "stdout": _parse_stdout(out.getvalue()), "stderr": err.getvalue()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=GOLDEN)
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name, cases in CASES.items():
        path = args.out_dir / f"{name}.json"
        path.write_text(json.dumps([run_case(c) for c in cases], indent=1,
                                   sort_keys=True) + "\n")
        print(f"wrote {path} ({len(cases)} cases)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
