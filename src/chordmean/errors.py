"""Exception types raised by the solvers and geometry kernels."""


class ChordMeanError(Exception):
    """Base class for all library errors."""


class PointNotInterior(ChordMeanError, ValueError):
    """Evaluation point is outside the domain or too close to its boundary."""


class PointNotOnBoundary(ChordMeanError, ValueError):
    """A point claimed to lie on the domain boundary does not."""


class DegenerateDirection(ChordMeanError, ValueError):
    """Direction vector is not unit length."""


class NotStarShapedFromP(ChordMeanError, ValueError):
    """Not star-shaped from P: some ray from P meets the boundary more than once."""


class BadResolution(ChordMeanError, ValueError):
    """Quadrature resolution below the supported minimum, or not an integer."""


class MissingSeed(ChordMeanError, ValueError):
    """A Monte Carlo scheme was requested without a seed."""


class UnsupportedDegree(ChordMeanError, ValueError):
    """Polynomial degree above the tabulated range."""


class BadIndex(ChordMeanError, ValueError):
    """Basis index invalid for the given dimension and degree."""


class DimMismatch(ChordMeanError, ValueError):
    """Operands have different ambient dimensions."""


class BadDegree(ChordMeanError, ValueError):
    """Monomial degree outside the supported range."""


class BadBracket(ChordMeanError, ValueError):
    """Bracket does not satisfy a < 0 < b."""


class GradientRequired(ChordMeanError, ValueError):
    """Boundary data lacks the gradient needed by the solver."""


class EmptyCap(ChordMeanError, ValueError):
    """Cap carries no quadrature mass; ratio undefined."""


class BadParameter(ChordMeanError, ValueError):
    """Parameter outside its admissible range."""


class ConfigError(ChordMeanError, ValueError):
    """Invalid command-line or config-file input."""


class NumericalError(ChordMeanError, RuntimeError):
    """A numerical routine failed: non-finite integrand values, an argument
    increment too large to unwrap, or a Hermite value beyond the float range."""

