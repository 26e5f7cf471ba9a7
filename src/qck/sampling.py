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
    admissibility inequalities fail, are rejected and redrawn.  Draws come
    in blocks of the points still needed, in the order of one draw at a
    time, and each block is tested in one ``admissibility`` call; so the
    sample is the one a point-by-point loop draws, and no point is drawn
    after the last one kept.
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
        block = [point_at_radius(space, rng.uniform(rmin, rmax), rng=rng)
                 for _ in range(min(count - len(pts), budget - tries))]
        tries += len(block)
        if family is not None:
            w = space.square_norm(np.array(block).T)
            block = [x for x, ok in zip(block, admissibility(space, family, w).ok)
                     if ok]
        pts.extend(block)
    return pts
