"""Exception hierarchy for the mrey package.

Every failure mode raised by the library derives from MreyError so callers
(and the CLI exit-code mapping) can distinguish domain problems from
numerical ones with a single isinstance check.
"""


class MreyError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(MreyError, ValueError):
    """Inputs outside the mathematical domain of an operation."""


class NoRealDeltaError(DomainError):
    """The delta radicand 1 + 4 l(l+1) - 4 x1 - 4 x2 is negative."""

    def __init__(self, radicand, message=None):
        self.radicand = radicand
        super().__init__(message or f"no real delta: radicand = {radicand!r} < 0")


class ComplexBranchError(DomainError):
    """c8 or c9 is negative, so c10..c13 would be complex."""

    def __init__(self, c8, c9, message=None):
        self.c8 = c8
        self.c9 = c9
        super().__init__(message or f"complex branch: c8 = {c8!r}, c9 = {c9!r}")


class NoRootError(MreyError):
    """A bracketing root search found no sign change."""


class NumericalError(MreyError):
    """Quadrature non-convergence or other numerical breakdown."""


class RangeError(NumericalError, OverflowError):
    """A result overflows the floating-point range even after shifting."""


class ResolutionError(NumericalError):
    """A sampling grid is too coarse for the requested operation."""


class ConfigError(MreyError, ValueError):
    """Invalid run configuration (bad key, bad value, unparseable file)."""
