"""Exception and warning types shared across the package."""


class HydroBracketsError(Exception):
    """Base class for all package-specific errors."""


class ExprSyntaxError(HydroBracketsError):
    """Raised when a source string does not match the expression grammar.

    Carries the character offset of the failure in ``position``.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(HydroBracketsError):
    """Raised when a name is neither a declared symbol nor a known function."""

    def __init__(self, name, position=None):
        where = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown symbol '{name}'{where}")
        self.name = name
        self.position = position


class DomainError(HydroBracketsError):
    """Raised when evaluation leaves the domain of definition.

    ``expr`` holds the offending subexpression.
    """

    def __init__(self, message, expr=None):
        if expr is not None:
            message = f"{message} in '{expr}'"
        super().__init__(message)
        self.expr = expr


class SingularMetricError(HydroBracketsError):
    """Metric not invertible (or numerically unusable) at some point."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class ShapeMismatchError(HydroBracketsError):
    """Array arguments have incompatible shapes."""


class MissingAffinorsError(HydroBracketsError):
    """A check requiring declared affinors was called without any."""


class MissingGammaError(HydroBracketsError):
    """A physical-form check was called on a system without gamma."""


class NotFlatError(HydroBracketsError):
    """Flat-coordinate development found path-dependent results."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class HyperbolicityViolationError(HydroBracketsError):
    """Characteristic velocities collide somewhere in the declared box."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class NonConvergenceError(HydroBracketsError):
    """A marching step produced a singular or unsolvable local system."""


class SeedOutOfBoxError(HydroBracketsError):
    """Hodograph seed lies outside the declared coordinate box."""


class RegionTooSmallError(HydroBracketsError):
    """Too few converged points to form the requested difference stencils."""


class ConfigError(HydroBracketsError):
    """Configuration file failed validation; message carries the JSON path."""


class StepTooSmallWarning(UserWarning):
    """Finite-difference step so small that roundoff dominates the result.

    Nothing in the package emits it since `fieldbracket.jacobi_residual`
    became exact; the Jacobi hook of `perfbench/tracing.py` still imports it.
    """


class DegenerateHyperbolicityWarning(UserWarning):
    """Coinciding eigenvalues of the coefficient operator at a sample point."""
