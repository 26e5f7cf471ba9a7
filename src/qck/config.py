"""Run configuration shared by the command-line tools.

A config file is a JSON object with the fields n, space, potential, points
and tolerances, any of them left out for its default; any other field is a
config error.  The first four can also be set by flags, and flags win over
the file so a stored experiment record can be re-run with point tweaks.
Identical config plus seed gives identical output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .ambient import AmbientSpace, PotentialFamily, family_from_json

DEFAULT_TOLERANCES = {
    "residual": 1e-6,
    "kahler": 1e-9,
}

DEFAULT_POTENTIAL = {"kind": "log", "a": -1.0, "r0": 1.0}


def worker_count() -> int:
    """The QCK_THREADS setting: 1 unless it asks for more (capped at 32).
    No command reads it: ``qch.decompose_points`` runs the points of one
    potential or of several in passes over a points axis, in one thread,
    each pass sized by memory.  The benchmark's run metadata still reports
    it."""
    raw = os.environ.get("QCK_THREADS", "").strip()
    if not raw:
        return 1
    try:
        requested = int(raw)
    except ValueError:
        raise ValueError(f"QCK_THREADS must be an integer, got {raw!r}")
    return max(1, min(requested, 32))


def _integer(name: str, value) -> int:
    """An int or integral float of a config field; else a config error."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_seed(seed: int) -> int:
    """A sampling seed: numpy's generators take none below 0."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


@dataclass(frozen=True)
class PointSpec:
    """Either an explicit list of points or a seeded radial sample."""

    count: int = 10
    seed: int = 0
    rmin: float = 1.1
    rmax: float = 3.0
    explicit: tuple | None = None

    def __post_init__(self):
        check_seed(self.seed)

    @classmethod
    def from_json(cls, obj) -> "PointSpec":
        if obj is None:
            return cls()
        if isinstance(obj, (list, tuple)):
            pts = tuple(tuple(float(c) for c in p) for p in obj)
            if not pts:
                raise ValueError("explicit point list is empty")
            return cls(explicit=pts)
        if not isinstance(obj, dict):
            raise ValueError("points must be a list of points or a sampler object")
        unknown = set(obj) - {"count", "seed", "rmin", "rmax"}
        if unknown:
            raise ValueError(f"unknown point sampler fields {sorted(unknown)}")
        return cls(count=_integer("count", obj.get("count", 10)),
                   seed=_integer("seed", obj.get("seed", 0)),
                   rmin=float(obj.get("rmin", 1.1)),
                   rmax=float(obj.get("rmax", 3.0)))

    def merged(self, overrides: dict) -> "PointSpec":
        if not overrides:
            return self
        unknown = set(overrides) - {"count", "seed", "rmin", "rmax"}
        if unknown:
            raise ValueError(f"unknown point overrides {sorted(unknown)}")
        base = {"count": self.count, "seed": self.seed,
                "rmin": self.rmin, "rmax": self.rmax}
        base.update({k: v for k, v in overrides.items() if v is not None})
        # any sampler flag replaces an explicit list from the file
        return PointSpec(count=_integer("count", base["count"]),
                         seed=_integer("seed", base["seed"]),
                         rmin=float(base["rmin"]), rmax=float(base["rmax"]))

    def to_json(self):
        if self.explicit is not None:
            return [list(p) for p in self.explicit]
        return {"count": self.count, "seed": self.seed,
                "rmin": self.rmin, "rmax": self.rmax}


@dataclass(frozen=True)
class RunConfig:
    n: int = 2
    space: str = "lorentz"
    potential: dict = field(default_factory=lambda: dict(DEFAULT_POTENTIAL))
    points: PointSpec = field(default_factory=PointSpec)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.space not in ("definite", "lorentz"):
            raise ValueError(f"space must be definite or lorentz, got {self.space!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance names {sorted(unknown)}")

    def ambient(self) -> AmbientSpace:
        return AmbientSpace(self.n, self.space)

    def family(self) -> PotentialFamily:
        return family_from_json(self.potential)

    def tolerance(self, name: str) -> float:
        if name in self.tolerances:
            return float(self.tolerances[name])
        return DEFAULT_TOLERANCES[name]

    def to_json(self) -> dict:
        return {"n": self.n, "space": self.space,
                "potential": dict(self.potential),
                "points": self.points.to_json(),
                "tolerances": dict(self.tolerances)}


def load_config(path: str | None = None) -> RunConfig:
    """Read a RunConfig from a JSON file; defaults when path is None."""
    if path is None:
        return RunConfig()
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config root must be a JSON object")
    unknown = set(data) - {"n", "space", "potential", "points", "tolerances"}
    if unknown:
        raise ValueError(f"unknown config fields {sorted(unknown)}")
    return RunConfig(
        n=_integer("n", data.get("n", 2)),
        space=str(data.get("space", "lorentz")),
        potential=dict(data.get("potential", DEFAULT_POTENTIAL)),
        points=PointSpec.from_json(data.get("points")),
        tolerances=dict(data.get("tolerances", {})))


def apply_overrides(cfg: RunConfig, n: int | None = None,
                    space: str | None = None, potential: dict | None = None,
                    points: dict | None = None) -> RunConfig:
    """Overlay command-line values on a loaded config; set values win."""
    pot = dict(cfg.potential)
    if potential:
        pot.update({k: v for k, v in potential.items() if v is not None})
    return RunConfig(
        n=cfg.n if n is None else int(n),
        space=cfg.space if space is None else str(space),
        potential=pot,
        points=cfg.points.merged(points or {}),
        tolerances=dict(cfg.tolerances))
