"""Exception types shared across the package."""


class HartogsError(Exception):
    """Base class for all package-specific errors."""


class BoundaryViolationError(HartogsError):
    """A point left the domain."""

    def __init__(self, message, margin=None):
        super().__init__(message)
        self.margin = margin


class CapabilityError(HartogsError):
    """The request is outside what the implementation supports."""


class ConfigError(HartogsError):
    """A domain configuration file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

