"""Exception types shared across the package."""


class RgwError(Exception):
    """Base class for all package-specific errors."""


class DegenerateLaw(RgwError):
    """Law concentrates all mass on a single offspring count."""


class NotNormalized(RgwError):
    """Probabilities do not sum to 1 within the acceptance window."""


class NegativeMass(RgwError):
    """A probability entry is negative."""


class ParseError(RgwError):
    """Malformed law text or law file."""


class DomainError(RgwError):
    """Argument outside the mathematical domain of an operation."""


class StateExplosion(RgwError):
    """Dynamic program would require too many states."""


class SeriesDiverges(RgwError):
    """Generating series evaluated at or beyond its radius of convergence."""


class QuadratureInconsistent(RgwError):
    """A quadrature result violates a bound it must satisfy."""


class UnsupportedTie(RgwError):
    """Maximal weight attained at two or more support points where a unique
    argmax is required."""


class BlowUpDetected(RgwError):
    """ODE state exceeded the blow-up threshold before the requested horizon."""

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"state blew up at t={time:.6g}")


class PopulationCapExceeded(RgwError):
    """Every replica hit the population cap; no usable estimate remains."""


class NotConverged(RgwError):
    """An iterative numerical kernel stopped before meeting its tolerance."""
