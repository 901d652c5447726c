"""Exception hierarchy shared by the library and the CLI.

Each family maps to one CLI exit code (see cli.EXIT_CODES), not always
its own: ValidationError, PreconditionError and OSError all exit 3.
"""


class Error(Exception):
    """Base class for all errors raised by this package."""


class FormatError(Error):
    """A text artifact (hgt/bgt/certificate/recipe) deviates from its format.

    Messages start with ``line <n>:`` whenever a line number is known.
    """


class ValidationError(Error):
    """A structure value violates its invariants (names the offending part);
    ``index`` is the position of the offending edge or incidence, if any."""

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class PreconditionError(Error):
    """An operation was called with arguments outside its contract."""


class ResourceBudgetError(Error):
    """An exact computation would exceed its configured budget.

    Raised instead of ever returning an approximate or wrong answer.
    """


class VerificationError(Error):
    """A self-check, cross-check, or fail-fast verification did not hold."""
