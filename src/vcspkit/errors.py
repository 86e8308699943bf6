"""Exception types shared across the toolkit."""


class VcspError(Exception):
    """Base class for all toolkit errors."""


class FormatError(VcspError):
    """Malformed or semantically invalid instance document."""

    def __init__(self, message, where=None):
        self.where = where
        if where is not None:
            message = f"{message} (at {where})"
        super().__init__(message)


class InstanceError(VcspError):
    """Invalid instance data or a solution that does not fit the instance."""


class InternalError(VcspError):
    """A self-check failed: an answer, a flow or a certificate does not hold
    up, which is a fault of the program, not of its input."""


class ClassViolation(VcspError):
    """Input falls outside the tractable class a solver or check requires.

    ``witness`` carries the offending entries (triangle, table cell, set
    pair, ...) in a JSON-serialisable form.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class BudgetExceeded(VcspError):
    """Exhaustive enumeration would exceed the configured budget."""


# assignments an exhaustive oracle enumerates unless told otherwise
DEFAULT_BUDGET = 2_000_000


class GenerationError(VcspError):
    """A seeded generator could not produce an instance in its target class."""
