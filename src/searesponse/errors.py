"""Exception hierarchy.

The CLI maps these onto exit codes: ConfigurationError -> 2,
DataError -> 3, NumericError -> 4.
"""


class SeaResponseError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SeaResponseError):
    """Invalid configuration or usage: bad bounds, bad flags, grid mismatch."""


class DataError(SeaResponseError):
    """Input data is unusable as given."""


class SchemaError(DataError):
    """A structured file does not have the expected columns/fields."""


class ParseError(DataError):
    """A row or value failed to parse; carries the 1-based file line and
    names the file and line in its message."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class DomainError(DataError):
    """Values outside the mathematical domain of an operation."""


class InsufficientDataError(DataError):
    """Not enough observations to carry out the requested computation."""


class NumericError(SeaResponseError):
    """A numerical procedure failed (non-convergence, factorization failure)."""


class DegenerateFitError(DataError):
    """Data admits no proper fit (constant sample, zero variance)."""
