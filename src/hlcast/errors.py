"""Exception hierarchy and record base shared across the package.

The CLI maps each branch of the hierarchy to a distinct exit code so batch
callers can tell configuration mistakes from bad data from numerical
failures.
"""

import operator
import reprlib


class _Quote(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # past sys.get_int_max_str_digits(), which YAML's hex ints can be
            return f"<int of {x.bit_length()} bits>"


# An error quotes outside text bounded: a CSV cell may hold 131,072
# characters, and YAML aliases can make a config value's full repr gigabytes.
_QUOTE = _Quote()
_QUOTE.maxlevel, _QUOTE.maxstring = 2, 60


def quote(value) -> str:
    """``repr(value)`` for an error message, bounded: a string's repr over 60
    characters keeps its two ends around ``...``, a collection shows its first
    few items, two levels deep, and an int too long for ``repr`` its bits."""
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


class Record:
    """Base of hlcast's immutable records.

    A subclass lists its fields in ``__slots__`` and sets each once in
    ``__init__``, with :meth:`_set`, or field by field with
    ``object.__setattr__`` where the record is built per fit, term or lag;
    afterwards every field is read-only. Records compare equal field by field when of
    the same class, hash alike when equal, and print as
    ``Name(field=value, ...)``. Written out, not generated at import:
    generating each record's methods cost every command ~15 ms of start-up.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, to ``values``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


def _integer(name: str, value) -> int:
    """``value`` as an ``int``, or a ``TypeError`` naming field ``name``."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")
