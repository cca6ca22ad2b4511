"""Exception taxonomy shared by all qcharm modules."""


class QcharmError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QcharmError, ValueError):
    """An argument lies outside the documented validity range."""


class RegularityError(QcharmError):
    """Curve derivative vanishes somewhere: the parametrization is degenerate."""


class InjectivityError(QcharmError):
    """Sampled curve points collide: the curve self-intersects on the nodes."""


class RefinementError(QcharmError):
    """A quadrature or scan failed to converge at the allowed resolution."""


class DegenerateSurfaceError(QcharmError):
    """Image surface has no area/length to compare (e.g. constant boundary data)."""


class ConsistencyError(QcharmError):
    """A quantity violated an identity or bound that holds analytically."""
