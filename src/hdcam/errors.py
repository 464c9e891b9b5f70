"""Exception types shared across the package, and the check of config choices."""

from dataclasses import fields
from typing import Literal, get_args, get_origin


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


def check_choices(obj):
    """Raise ConfigError unless each Literal field of dataclass obj holds one of its values."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if get_origin(f.type) is Literal and value not in get_args(f.type):
            raise ConfigError(f"{f.name} must be one of {get_args(f.type)}, got {value!r}")


class CalibrationWarning(UserWarning):
    """Voltage calibration could not improve on the uniform profile."""
