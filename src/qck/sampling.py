"""Seeded point samplers on the flat backgrounds.

Report builders and the command line driver share these so that a given seed
always lands on the same evaluation points.
"""

from __future__ import annotations

import math

import numpy as np

from .ambient import AmbientSpace, PotentialFamily, admissibility
from .core import complex_to_real
from .errors import DomainError

# scale of the Gaussian space-like block of a time-like sample point
SPREAD = 0.3
# draws allowed per requested point before ``radial_points`` gives up
MAX_TRIES = 200


def timelike_point(space: AmbientSpace, r: float, rng=None,
                   seed: int = 0) -> np.ndarray:
    """Point at time-like radius ``r``: Gaussian spread ``SPREAD`` in the
    space-like block, the last complex coordinate adjusted to hit the radius
    exactly."""
    if rng is None:
        rng = np.random.default_rng(seed)
    w = (rng.normal(scale=SPREAD, size=space.n - 1)
         + 1j * rng.normal(scale=SPREAD, size=space.n - 1))
    theta = rng.uniform(0.0, 2.0 * np.pi)
    zn = np.exp(1j * theta) * np.sqrt(r * r + float(np.sum(np.abs(w) ** 2)))
    return complex_to_real(np.append(w, zn))


def definite_point(space: AmbientSpace, r: float, rng=None,
                   seed: int = 0) -> np.ndarray:
    """Uniformly random direction scaled to radius ``r``."""
    if rng is None:
        rng = np.random.default_rng(seed)
    v = rng.normal(size=space.dim)
    return r * v / float(np.linalg.norm(v))


def point_at_radius(space: AmbientSpace, r: float, rng=None,
                    seed: int = 0) -> np.ndarray:
    if space.lorentz:
        return timelike_point(space, r, rng=rng, seed=seed)
    return definite_point(space, r, rng=rng, seed=seed)


def radial_points(space: AmbientSpace, count: int, rmin: float, rmax: float,
                  seed: int = 0,
                  family: PotentialFamily | None = None) -> list[np.ndarray]:
    """Seeded sample of ``count`` points with radii uniform in [rmin, rmax],
    a finite window of positive radii.

    Points whose square norm falls outside the family domain, or where the
    admissibility inequalities fail, are rejected and redrawn.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not (0 < rmin <= rmax < math.inf):
        raise ValueError(f"bad radial window [{rmin}, {rmax}]")
    rng = np.random.default_rng(seed)
    pts: list[np.ndarray] = []
    tries = 0
    budget = MAX_TRIES * count
    while len(pts) < count:
        if tries >= budget:
            raise DomainError(
                f"could not draw {count} admissible points in [{rmin}, {rmax}] "
                f"after {budget} tries")
        tries += 1
        r = rng.uniform(rmin, rmax)
        x = point_at_radius(space, r, rng=rng)
        if family is not None:
            w = float(space.square_norm(x))
            if not family.in_domain(w):
                continue
            if not admissibility(space, family, w).ok:
                continue
        pts.append(x)
    return pts
