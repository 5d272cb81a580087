"""Exception types shared across the package."""


class BoolpsError(Exception):
    """Base class for all errors raised by this library."""


class UsageError(BoolpsError):
    """Operands were combined incorrectly, e.g. values over different variable tables."""


class ValidationError(BoolpsError):
    """A model or argument violates a structural contract."""


class CapacityError(BoolpsError):
    """An exhaustive operation would exceed the configured enumeration cap."""


class ParseError(BoolpsError):
    """Syntax or naming error in a model text.

    `offset` is a 0-based byte offset into the parsed fragment; `line` is a
    1-based line number when the fragment came from a multi-line source.
    """

    def __init__(self, message, offset=None, line=None, source=None):
        super().__init__(message)
        self.message = message
        self.offset = offset
        self.line = line
        self.source = source

    def __str__(self):
        where = []
        if self.source is not None:
            where.append(str(self.source))
        if self.line is not None:
            where.append(f"line {self.line}")
        if self.offset is not None:
            where.append(f"offset {self.offset}")
        if where:
            return f"{':'.join(where)}: {self.message}"
        return self.message
