"""Exception types shared across the package."""


class SizeError(ValueError):
    """Matrix or lattice size outside the operation's domain."""


class PreconditionError(ValueError):
    """Input violates a documented precondition of the operation."""


class InvariantError(RuntimeError):
    """An internal consistency condition failed, such as a singular system
    (every system the package solves is nonsingular) or a result failing its
    check; a bug, not bad input (CLI exit 3)."""


class ParseError(ValueError):
    """Malformed matrix or polynomial text.  Carries 1-based line/column when known."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column
