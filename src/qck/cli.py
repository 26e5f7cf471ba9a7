"""Command-line front end.

Subcommands: check-potential, curvature, decompose, meridian {bochner,
const-hsc}, sasaki, verify.  JSON reports carry "schema_version": 1; the
meridian commands emit the 10-column CSV.  Exit codes: 0 all checks passed,
1 a check or domain/type constraint failed, 2 usage or config error.

A report is written as ``json.dumps(report, sort_keys=True, indent=2)``
writes it, byte for byte, by ``_write``: with an indent the stdlib falls
back to its pure-Python encoder, which makes several generator steps of
every value.  The commands build their rows from the arrays of a
``qch.DecompositionRecord``, one ``tolist`` per array.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .config import RunConfig, apply_overrides, check_seed, load_config
from .curvature import INVARIANTS
from .errors import QckError
from .qch import decompose_points
from .rotational import bochner_meridian, const_hsc_profile
from .sampling import radial_points
from .sasakian import family_h1_report, sphere_reports
from .verify import SUITES, run_suite

SCHEMA_VERSION = 1

CSV_HEADER = "s,t,q,tp,tpp,a,b,c,k,a_plus_k2"

# sasaki flags that only the potential-metric sphere reads
SPHERE_FLAGS = ("config", "space", "family", "a", "r0", "coeffs", "r",
                "orientation")


# float reprs that JSON spells otherwise, as the stdlib encoder writes them
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write(obj, out: list, nl: str) -> None:
    """Append to ``out`` the text that ``json.dumps(obj, sort_keys=True,
    indent=2)`` gives ``obj`` at the line start ``nl`` (a newline and the
    indent of obj's level), without the pure-Python encoder that the stdlib
    runs for an indent: strings go through its C ``encode_basestring_ascii``,
    and ints and floats through ``int.__repr__`` and ``float.__repr__``.
    Types are tested in the stdlib's order and by ``isinstance``, so a
    subclass such as ``np.float64`` is written as its base; a list of plain
    floats is one ``join``.  What the stdlib cannot write raises TypeError,
    and so does a key that is not a str, which the stdlib would coerce."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        text = float.__repr__(obj)
        out.append(_FLOAT_WORDS.get(text, text))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        if set(map(type, obj)) == {float}:
            text = sep.join(map(float.__repr__, obj))
            # no finite float's repr holds an "n"
            if "n" not in text:
                out += ("[", inner, text, nl, "]")
                return
        out += ("[", inner)
        _write(obj[0], out, inner)
        for value in obj[1:]:
            out.append(sep)
            _write(value, out, inner)
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        head = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not "
                                f"{key.__class__.__name__}")
            out += (head, _quote(key), ": ")
            head = "," + inner
            _write(obj[key], out, inner)
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} "
                        f"is not JSON serializable")


def _report_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, for a
    report of dicts with str keys, lists, tuples, strings, numbers, bools
    and None (see ``_write``)."""
    out = []
    _write(obj, out, "\n")
    return "".join(out)


def _emit(obj) -> None:
    print(_report_text(obj))


def _config_from_args(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    potential = {}
    if getattr(args, "family", None):
        potential["kind"] = args.family
    if getattr(args, "a", None) is not None:
        potential["a"] = args.a
    if getattr(args, "r0", None) is not None:
        potential["r0"] = args.r0
    if getattr(args, "coeffs", None) is not None:
        potential["coeffs"] = [float(c) for c in args.coeffs.split(",")]
    points = {key: getattr(args, key, None)
              for key in ("count", "seed", "rmin", "rmax")}
    points = {k: v for k, v in points.items() if v is not None}
    return apply_overrides(cfg, n=getattr(args, "n", None),
                           space=getattr(args, "space", None),
                           potential=potential or None,
                           points=points or None)


def _points(cfg: RunConfig) -> np.ndarray:
    space = cfg.ambient()
    if cfg.points.explicit is not None:
        pts = [np.asarray(p, float) for p in cfg.points.explicit]
        for p in pts:
            if p.shape != (space.dim,):
                raise ValueError(f"explicit point of length {len(p)} in a "
                                 f"{space.dim}-dimensional chart")
        return np.array(pts)
    return np.array(radial_points(space, cfg.points.count, cfg.points.rmin,
                                  cfg.points.rmax, seed=cfg.points.seed))


def _record(cfg: RunConfig, checked: bool = True, fit: bool = True):
    """The decomposition record of the sample points of the config, and
    one entry per point tagged with its index and coordinates."""
    record = decompose_points(cfg.ambient(), cfg.family(), _points(cfg),
                              checked=checked, fit=fit)
    return record, [{"index": i, "point": x}
                    for i, x in enumerate(record.point.tolist())]


def _error_text(exc: QckError) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- subcommand bodies -----------------------------------------------------------


def cmd_check_potential(args) -> int:
    cfg = _config_from_args(args)
    rec, entries = _record(cfg, checked=False)
    adm = rec.admissibility
    curved = set(rec.curved.tolist())
    fits = rec.fit_entries()
    for entry, w, in_domain, ok, eigenvalue, defect in zip(
            entries, adm.w.tolist(), adm.in_domain.tolist(), adm.ok.tolist(),
            rec.min_eigenvalue.tolist(), rec.kahler_defect.tolist()):
        i = entry["index"]
        entry.update(w=w, in_domain=in_domain, admissible=ok)
        if i in curved:
            # the least eigenvalue of G and the Kahler defect of every row
            # past the curvature gate
            entry["min_eigenvalue"], entry["kahler_defect"] = (eigenvalue,
                                                               defect)
        if rec.error[i] is not None:
            entry["error"] = _error_text(rec.error[i])
            continue
        checks = {"admissible": ok,
                  "positive": entry["min_eigenvalue"] > 0,
                  "kahler": entry["kahler_defect"] < cfg.tolerance("kahler")}
        failed = rec.shape_error[i] or rec.fit_error[i]
        if failed is not None:
            # The shape frame need not exist (the sign-flipped flat form
            # has an indefinite complement, say) but the curvature fit
            # against the three structural tensors is still well posed.
            entry["shape_error"] = _error_text(failed)
            if rec.fit_error[i] is not None:
                entry["error"] = _error_text(rec.fit_error[i])
                continue
        entry["decomposition"] = fits[i]
        checks["residual"] = fits[i]["residual"] < cfg.tolerance("residual")
        entry["checks"] = checks
    all_ok = all("error" not in e and all(e["checks"].values())
                 for e in entries)
    _emit({"schema_version": SCHEMA_VERSION, "command": "check-potential",
           "config": cfg.to_json(), "points": entries, "pass": all_ok})
    return 0 if all_ok else 1


def cmd_curvature(args) -> int:
    cfg = _config_from_args(args)
    rec, entries = _record(cfg, fit=False)
    for entry, error, values in zip(entries, rec.error,
                                    rec.invariants.tolist()):
        if error is not None:
            entry["error"] = _error_text(error)
        else:
            entry.update(zip(INVARIANTS, values))
    report = {"schema_version": SCHEMA_VERSION, "command": "curvature",
              "config": cfg.to_json(), "points": entries}
    all_ok = all("error" not in e for e in entries)
    if not all_ok:
        report["pass"] = False
    _emit(report)
    return 0 if all_ok else 1


def cmd_decompose(args) -> int:
    cfg = _config_from_args(args)
    rec, entries = _record(cfg)
    for i, (entry, fit) in enumerate(zip(entries, rec.fit_entries())):
        error = rec.first_error(i)
        if error is not None:
            entry["error"] = _error_text(error)
        else:
            entry["decomposition"] = fit
    all_ok = all("error" not in e and e["decomposition"]["residual"]
                 < cfg.tolerance("residual") for e in entries)
    _emit({"schema_version": SCHEMA_VERSION, "command": "decompose",
           "config": cfg.to_json(), "points": entries, "pass": all_ok})
    return 0 if all_ok else 1


def cmd_meridian(args) -> int:
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    if args.profile == "bochner":
        profile = bochner_meridian(args.c1, args.c2, args.t0, args.t1,
                                   rotation_type=args.type,
                                   flip_q=args.flip_q)
    else:
        profile = const_hsc_profile(args.type, args.a, args.t0, args.t1,
                                    flip_q=args.flip_q)
    print(CSV_HEADER)
    for row in profile.rows(args.steps):
        print(",".join(f"{v:.17g}" for v in row))
    return 0


def cmd_sasaki(args) -> int:
    if args.family_h1:
        unread = [f"--{name}" for name in SPHERE_FLAGS
                  if getattr(args, name) is not None]
        if unread:
            raise ValueError(f"--family-h1 does not read {', '.join(unread)}")
        q = 1.0 if args.q is None else args.q
        if not math.isfinite(q):
            raise ValueError(f"--q must be finite, got {q}")
        report = family_h1_report(2 if args.n is None else args.n, q,
                                  seed=check_seed(args.seed or 0))
    else:
        if args.q is not None:
            raise ValueError("--q is read only with --family-h1")
        if args.r is None:
            raise ValueError("sasaki needs --r RADIUS (or --family-h1 --q Q)")
        if not (0 < args.r < math.inf):
            raise ValueError(f"--r must be a positive finite radius, "
                             f"got {args.r}")
        cfg = _config_from_args(args)
        report = sphere_reports(cfg.ambient(), cfg.family(), [args.r],
                                seed=cfg.points.seed,
                                orientation=args.orientation or "auto")[0]
    out = {"schema_version": SCHEMA_VERSION, "command": "sasaki"}
    out.update(report.to_json())
    _emit(out)
    return 0


def cmd_verify(args) -> int:
    results = run_suite(args.suite)
    all_ok = all(r.passed for r in results)
    if args.json:
        _emit({"schema_version": SCHEMA_VERSION, "command": "verify",
               "suite": args.suite, "pass": all_ok,
               "results": [r.to_json() for r in results]})
    else:
        for r in results:
            mark = "PASS" if r.passed else "FAIL"
            print(f"criterion {r.number:2d}  {r.name:<28s} {mark} "
                  f"({r.elapsed:6.2f}s / {r.budget:.0f}s budget)")
            for msg in r.failures:
                print(f"    - {msg}")
        total = sum(r.elapsed for r in results)
        passed = sum(1 for r in results if r.passed)
        print(f"{passed}/{len(results)} criteria passed in {total:.1f}s")
    return 0 if all_ok else 1


# -- parser ----------------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--n", type=int, help="complex dimension (default 2)")
    sub.add_argument("--space", choices=("definite", "lorentz"))
    sub.add_argument("--family", choices=("log", "dlog", "inverse", "series"))
    sub.add_argument("--a", type=float, help="family parameter a")
    sub.add_argument("--r0", type=float, help="family parameter r0")
    sub.add_argument("--coeffs", help="series coefficients, comma separated")
    sub.add_argument("--seed", type=int, help="sampling seed")


def _add_sampler(sub) -> None:
    sub.add_argument("--count", type=int, help="sample point count")
    sub.add_argument("--rmin", type=float, help="smallest sample radius")
    sub.add_argument("--rmax", type=float, help="largest sample radius")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qck`` parser, built once per process: parsing leaves it as it
    was, and building it costs more than a small command's work."""
    parser = argparse.ArgumentParser(
        prog="qck",
        description="Curvature models generated by radial potentials: "
                    "decompositions, hypersphere structures, and rotational "
                    "meridians.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-potential",
                       help="admissibility, positivity and decomposition "
                            "checks at sample points")
    _add_common(p)
    _add_sampler(p)
    p.set_defaults(func=cmd_check_potential)

    p = sub.add_parser("curvature", help="curvature invariants at sample points")
    _add_common(p)
    _add_sampler(p)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("decompose",
                       help="coefficients of the curvature tensor against "
                            "the structural basis")
    _add_common(p)
    _add_sampler(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("meridian", help="meridian profile tables (CSV)")
    msub = p.add_subparsers(dest="profile", required=True)
    b = msub.add_parser("bochner", help="profiles with t' = c1 t^4 + c2 t^2 + 1")
    b.add_argument("--type", choices=("I", "II", "III"), default="II")
    b.add_argument("--c1", type=float, required=True)
    b.add_argument("--c2", type=float, required=True)
    b.add_argument("--t0", type=float, required=True)
    b.add_argument("--t1", type=float, required=True)
    b.add_argument("--steps", type=int, default=129)
    b.add_argument("--flip-q", action="store_true", dest="flip_q")
    b.set_defaults(func=cmd_meridian)
    c = msub.add_parser("const-hsc",
                        help="profiles of constant holomorphic curvature a < 0")
    c.add_argument("--type", choices=("I", "II", "III"), default="II")
    c.add_argument("--a", type=float, required=True)
    c.add_argument("--t0", type=float, required=True)
    c.add_argument("--t1", type=float, required=True)
    c.add_argument("--steps", type=int, default=129)
    c.add_argument("--flip-q", action="store_true", dest="flip_q")
    c.set_defaults(func=cmd_meridian)

    p = sub.add_parser("sasaki",
                       help="induced contact structure reports on hyperspheres")
    _add_common(p)
    p.add_argument("--r", type=float, help="hypersphere radius")
    p.add_argument("--orientation", choices=("auto", "outward", "inward"),
                   help="hypersphere normal (default auto)")
    p.add_argument("--family-h1", action="store_true", dest="family_h1",
                   help="deformed unit-sphere family instead of a potential "
                        "metric sphere")
    p.add_argument("--q", type=float,
                   help="deformation parameter for --family-h1 (default 1)")
    p.set_defaults(func=cmd_sasaki)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=tuple(sorted(SUITES)), default="all")
    p.add_argument("--json", action="store_true",
                   help="machine-readable results")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except QckError as exc:
        _emit({"schema_version": SCHEMA_VERSION,
               "error": type(exc).__name__, "message": str(exc)})
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
