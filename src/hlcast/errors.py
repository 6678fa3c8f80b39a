"""Exception hierarchy shared across the package.

The CLI maps each branch of the hierarchy to a distinct exit code so batch
callers can tell configuration mistakes from bad data from numerical
failures.
"""

import reprlib

# An error quotes outside text bounded: a CSV cell may hold 131,072
# characters, and YAML aliases can make a config value's full repr gigabytes.
_QUOTE = reprlib.Repr()
_QUOTE.maxlevel, _QUOTE.maxstring = 2, 60


def quote(value) -> str:
    """``repr(value)`` for an error message, bounded: a string's repr over 60
    characters keeps its two ends around ``...``, and a collection shows its
    first few items, two levels deep."""
    return _QUOTE.repr(value)


class HlcastError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 1


class ConfigError(HlcastError):
    """Invalid or inconsistent run configuration."""

    exit_code = 2


class DataError(HlcastError):
    """Problems with input data: parsing, schema, coverage."""

    exit_code = 3


class ParseError(DataError):
    """Malformed text input (quarter labels, CSV cells)."""


class SchemaError(DataError):
    """A required column or field is missing or duplicated."""


class InsufficientDataError(DataError):
    """Not enough observations to perform the requested operation."""


class InconsistencyError(DataError):
    """Input series contradict each other (e.g. share moves with no movers)."""


class NumericalError(HlcastError):
    """Numerical failure: singular designs, domain violations."""

    exit_code = 4


class SingularDesignError(NumericalError):
    """Design matrix is rank deficient."""

    def __init__(self, message: str, columns: list[str] | None = None):
        super().__init__(message)
        self.columns = columns or []


class DomainError(NumericalError):
    """An input lies outside the mathematical domain of a formula."""
