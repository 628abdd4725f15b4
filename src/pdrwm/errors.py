"""Exception types shared across the package."""


class PDRWMError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(PDRWMError, ValueError):
    """A constructor or function argument is outside its documented domain."""


class SupportError(PDRWMError):
    """A point lies outside the support required by the operation."""


class EvaluationError(PDRWMError):
    """A field or density cannot be evaluated at the queried point."""


class NumericError(PDRWMError):
    """A numerical routine lost the precision it needs to give an answer."""


class DiscretizationError(PDRWMError):
    """The requested grid is too coarse for the proposal scale.

    The message states the finest proposal standard deviation found and the
    maximum spacing that would be accepted, so the caller knows how much to
    refine.
    """


class ConfigError(PDRWMError):
    """An experiment configuration file, or a command's arguments, are
    missing or malformed.

    Carries the offending key in ``key`` when one can be identified.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
