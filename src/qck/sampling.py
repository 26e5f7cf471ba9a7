"""Seeded point samplers on the flat backgrounds.

Report builders and the command line driver share these so that a given seed
always lands on the same evaluation points.  A point takes its draws from
the generator in a fixed order: its radius (when the sampler draws it), the
Gaussian block, then the phase of a time-like point; the coordinates of a
block of points are then one array expression, so a point drawn in a block
is the point drawn alone.
"""

from __future__ import annotations

import math

import numpy as np

from .ambient import AmbientSpace, PotentialFamily, admissibility
from .errors import DomainError

# scale of the Gaussian space-like block of a time-like sample point
SPREAD = 0.3
# draws allowed per requested point before ``radial_points`` gives up
MAX_TRIES = 200


def _coordinates(space: AmbientSpace, r, g, theta) -> np.ndarray:
    """Points at radii r, (P,), from their Gaussian blocks g and the phases
    theta of time-like points, in interleaved real coordinates (P, d).

    A time-like point has the complex coordinates w = g[:m] + i g[m:],
    m = n - 1, and z_n = e^(i theta) sqrt(r^2 + |w|^2), which hits the radius
    exactly; a definite point is the direction g scaled to radius r."""
    if not space.lorentz:
        # the length of each row as a dot product, as np.linalg.norm takes it
        length = np.sqrt(g[:, None, :] @ g[:, :, None])[:, 0, 0]
        return r[:, None] * g / length[:, None]
    m = space.n - 1
    w = g[:, :m] + 1j * g[:, m:]
    zn = np.exp(1j * theta) * np.sqrt(r * r + np.sum(np.abs(w) ** 2, axis=1))
    X = np.empty((len(r), space.dim))
    X[:, 0:-2:2], X[:, 1:-2:2] = w.real, w.imag
    X[:, -2], X[:, -1] = zn.real, zn.imag
    return X


def _draw(space: AmbientSpace, rng, radii) -> np.ndarray:
    """Points at ``radii``, an iterable that may draw each radius from rng
    as its point's first draw; each point then draws its Gaussian block and,
    on the Lorentz background, its phase."""
    size = 2 * (space.n - 1) if space.lorentz else space.dim
    r, g, theta = [], [], []
    for radius in radii:
        r.append(radius)
        if space.lorentz:
            g.append(rng.normal(scale=SPREAD, size=size))
            theta.append(rng.uniform(0.0, 2.0 * np.pi))
        else:
            g.append(rng.normal(size=size))
    return _coordinates(space, np.array(r), np.array(g), np.array(theta))


def point_at_radius(space: AmbientSpace, r: float, rng=None,
                    seed: int = 0) -> np.ndarray:
    """Point at radius ``r`` from ``rng``, or from a generator seeded with
    ``seed``: on the Lorentz background a Gaussian space-like block of
    spread ``SPREAD`` and the last complex coordinate adjusted to hit the
    time-like radius exactly, on the definite one a uniformly random
    direction."""
    if rng is None:
        rng = np.random.default_rng(seed)
    return _draw(space, rng, [float(r)])[0]


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
        size = min(count - len(pts), budget - tries)
        block = _draw(space, rng, (rng.uniform(rmin, rmax)
                                   for _ in range(size)))
        tries += size
        if family is not None:
            block = block[admissibility(space, family,
                                        space.square_norm(block.T)).ok]
        pts.extend(block)
    return pts
