"""Exception taxonomy shared across the package."""


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
