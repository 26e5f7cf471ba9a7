"""Exception taxonomy shared across the package, and the per-point error
record of a batched pipeline.

A batched stage works on arrays with a leading points axis.  Its checks come
as gates: pairs (bad, error) of a per-point failure mask and a function that
builds the exception of point j.  ``Sieve.drop`` records the first gate each
point fails and narrows the batch to the points that pass; ``raise_first`` is
the same check for a single point, which raises instead.  The two share the
gates, so a point fails with the same error text alone and in a batch.
"""

import numpy as np


class QckError(Exception):
    """Base class for all structured failures raised by this package."""


class DomainError(QckError):
    """A point or parameter lies outside the mathematical domain of an operation."""


class AdmissibilityError(QckError):
    """A radial potential fails the positivity inequalities needed for a metric."""


class DegenerateMetric(QckError):
    """Metric matrix numerically singular where an inverse is required."""


class DegenerateBasis(QckError):
    """Least-squares tensor basis is numerically rank deficient."""


class NumericalBreakdown(QckError):
    """Derivative or curvature output failed finiteness or symmetry sanity checks."""


class FrameError(QckError):
    """Supplied frame vectors are not unit / orthogonal as required."""


class ShapeUniformityError(QckError):
    """Directional shape coefficients on the radial distribution fail to agree."""


class NotSasakian(QckError):
    """Induced contact structure fails the defining derivative law."""


class NotSpaceForm(QckError):
    """Sectional curvature spread too large where a constant value is required."""


class TypeConstraintError(QckError):
    """Meridian data violates the defining constraint of its rotation type."""


class ChartError(QckError):
    """Evaluation point too close to a chart boundary or chart map singular."""


class Sieve:
    """The points of a batch still running, and the error that stopped each
    of the others, by position in the batch."""

    def __init__(self, count: int):
        self.errors: list[QckError | None] = [None] * count
        self.running = np.arange(count)

    def drop(self, gates) -> np.ndarray | slice:
        """Record for each running point the error of the first of ``gates``
        it fails and return the index of the running points that pass them
        all; the caller narrows its arrays with it.  The index is a mask, or
        the whole slice when every point passes, so that arrays are narrowed
        without a copy when no point dropped out."""
        keep = np.ones(len(self.running), dtype=bool)
        for bad, error in gates:
            for j in np.flatnonzero(keep & bad):
                self.errors[self.running[j]] = error(j)
            keep &= ~bad
        if keep.all():
            return slice(None)
        self.running = self.running[keep]
        return keep


def raise_first(gates) -> None:
    """Raise the error of the first failing point of the first gate that
    fails: ``Sieve.drop`` for a single point, whose gate may also hold one
    plain bool."""
    for bad, error in gates:
        if bad is not False and np.any(bad):
            raise error(int(np.argmax(bad)))
