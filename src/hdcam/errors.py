"""Exception types shared across the package."""


class HdcError(Exception):
    """Base class for all package-specific errors."""


class AlignmentError(HdcError, ValueError):
    """Vector width is not a positive multiple of 128 columns, or exceeds 16 banks."""


class DimensionError(HdcError, ValueError):
    """Operands have mismatched widths."""


class SaturationError(HdcError, OverflowError):
    """A bundling update would leave the signed 16-bit counter range."""


class EmptyBundleError(HdcError, ValueError):
    """Operation requires at least one bundled vector."""


class CapacityError(HdcError, ValueError):
    """More rows requested than the 128 rows a bank provides."""


class TooManyLevelsError(HdcError, ValueError):
    """Level count too large for the vector width."""


class GenerationError(HdcError, RuntimeError):
    """Random memory generation failed a build-time invariant twice."""


class ParseError(HdcError, ValueError):
    """Input file could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class EmptyDatasetError(HdcError, ValueError):
    """Parsed dataset contains no samples."""


class ConfigError(HdcError, ValueError):
    """Invalid or inconsistent configuration value."""


class CalibrationWarning(UserWarning):
    """Voltage calibration could not improve on the uniform profile."""
