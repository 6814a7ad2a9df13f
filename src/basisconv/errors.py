"""Exception types shared by all modules."""


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class DivisionByZero(AlgebraError):
    """Inversion of the zero field element."""


class CapacityExceeded(AlgebraError):
    """A product too long for the multiplication kernel: no limb layout is
    exact at its transform size, past 2^33 to 2^39 depending on p."""


class PrecisionExceedsModulus(AlgebraError):
    """Working precision n is not smaller than the modulus p."""


class DomainViolation(AlgebraError):
    """A series lies outside the domain of the operator applied to it."""


class InvalidOperatorParam(AlgebraError):
    """Operator parameter outside its allowed range (e.g. scaling by zero)."""


class DimensionMismatch(AlgebraError):
    """Polynomial dimensions inconsistent with the requested operation."""


class AmbiguousValuation(AlgebraError):
    """A truncation is identically zero, so its valuation cannot be certified."""


class NotTangentToIdentity(AlgebraError):
    """Sequence reversal requires an output series equal to x mod x^2."""


class NotInvertible(AlgebraError):
    """The evaluation map has no inverse (g'(0) = 0)."""


class SpecViolation(AlgebraError):
    """A bivariate spec or family descriptor fails one of its hypotheses."""


class SingularDiagonal(AlgebraError):
    """A diagonal factor contains a zero entry, blocking inversion."""


class ZeroCoefficient(AlgebraError):
    """A required coefficient (prefactor or f_k) vanishes at some index."""
