"""Exception types shared across the package.

The CLI maps these onto process exit codes: ConfigError and
TrainingError -> 2, DataError -> 3, FormatError -> 4.
"""


class GhaarError(Exception):
    """Base class for all package errors."""


class ConfigError(GhaarError):
    """Invalid configuration value or unusable parameter combination."""


class DataError(GhaarError):
    """Dataset, image, or annotation input that cannot be used."""


class FormatError(GhaarError):
    """Malformed model file. Carries the byte offset of the defect."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DimensionError(GhaarError, ValueError):
    """Array shapes that do not satisfy an operation's contract."""


class TrainingError(GhaarError):
    """Training diverged and could not recover."""
