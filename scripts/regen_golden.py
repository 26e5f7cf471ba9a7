#!/usr/bin/env python3
"""Rewrite the golden reports under ``tests/golden/``.

Runs a fixed grid of ``qck`` invocations in process through ``cli.main`` and
stores, per invocation, the argv, the exit code, the parsed JSON of stdout
and the stderr text.  ``tests/test_golden.py`` reruns the same grid and
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
from pathlib import Path

from qck import cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"

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


def _potential_cases(command):
    return [[command, "--n", str(n), *flags, "--count", "3", "--seed", "7"]
            for n in (2, 3, 4) for flags in POINT_SETS.values()]


CASES = {
    "curvature": _potential_cases("curvature"),
    "decompose": _potential_cases("decompose"),
    "check-potential": _potential_cases("check-potential"),
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
}


def _drop_timings(obj):
    """The report without its wall-clock fields, which no two runs share."""
    if isinstance(obj, dict):
        return {k: _drop_timings(v) for k, v in obj.items() if k != "elapsed"}
    if isinstance(obj, list):
        return [_drop_timings(v) for v in obj]
    return obj


def run_case(argv) -> dict:
    """One invocation as stored in a golden file."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = out.getvalue()
    return {"argv": list(argv), "exit": code,
            "stdout": _drop_timings(json.loads(text)) if text else None,
            "stderr": err.getvalue()}


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
