"""Exception types shared across the package."""


class SenseboundError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SenseboundError):
    pass


class UnstableSystemRequired(SenseboundError):
    """Raised when a plant has no eigenvalue of magnitude >= 1 and the
    allow_stable escape hatch was not set."""


class NonConvergentEigensolve(SenseboundError):
    pass


class IllConditionedTransform(SenseboundError):
    """cond(T) of the mode-separating transform exceeds the configured cap."""


class NotStabilizable(SenseboundError):
    pass


class RiccatiDivergence(SenseboundError):
    pass


class UnsupportedDerivative(SenseboundError):
    """Derivatives requested on a channel whose log-likelihood is not C^2."""


class GridOverflow(SenseboundError):
    """Re-gridding would exceed the configured cell budget."""


class DegenerateLikelihood(SenseboundError):
    """All grid mass / particle weights underflowed in a Bayes update."""


class SingularCovariance(SenseboundError):
    pass


class OutOfOrderStep(SenseboundError):
    pass


class UnknownPriorFamily(SenseboundError):
    pass


class PreconditionViolated(SenseboundError):
    pass


class IncompatibleChannel(SenseboundError):
    """A filter representation was asked to update against a channel kind it
    cannot handle exactly (e.g. Kalman on a nonlinear channel)."""


class ParseError(SenseboundError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(SenseboundError):
    def __init__(self, message, field=None):
        self.field = field
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)


class EmptySeries(SenseboundError):
    pass
