"""Exception types shared across the toolkit."""


class KoszulkitError(Exception):
    """Base class for all toolkit errors."""


class InputError(KoszulkitError):
    """Malformed user input (bad ring definition, bad flag value, ...)."""


class ParseError(InputError):
    """Syntax error in a ring definition or expression.

    Carries the 1-based line and column of the offending token.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = "line %d, column %d: %s" % (line, column, message)
        super().__init__(message)


class NotArtinianError(KoszulkitError):
    """Raised when an operation needs a finite-dimensional quotient ring."""


class NotACycleError(KoszulkitError):
    """Raised when an element claimed to be a cycle has nonzero differential."""


class PreconditionError(KoszulkitError):
    """An operation's stated precondition is violated by the arguments."""


class BudgetError(KoszulkitError):
    """A computation exceeded one of the toolkit's fixed work budgets."""
