"""Exception types shared across the package, and the integer check of its counts."""


def is_integer(value) -> bool:
    """Whether ``value`` is an ``int`` and not a ``bool``: ``True`` is no count, seed or size."""
    return isinstance(value, int) and not isinstance(value, bool)


class FriscovError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FriscovError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class DegenerateFitError(DomainError):
    """Moment matching was attempted on an input with no usable moments."""


class ConfigError(FriscovError, ValueError):
    """A configuration file failed to parse or violated a constraint.

    Carries optional line/field context for diagnostics.
    """

    def __init__(self, message: str, *, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)
