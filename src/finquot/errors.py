"""Shared exception types; every budget error reports what budget would have sufficed."""


class FinquotError(Exception):
    """Base class for all domain errors raised by this package."""

    def detail(self) -> dict:
        return {}


class BudgetExceeded(FinquotError):
    """An enumeration outgrew its configured budget."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required

    def detail(self) -> dict:
        return {} if self.required is None else {"required_budget": self.required}


class IdentityWordError(FinquotError):
    """The word evaluates to the identity; there is nothing to separate."""


class NotFoundWithinBudget(FinquotError):
    """An exhaustive search within budget produced no result."""


class EntryParseError(FinquotError):
    """A matrix entry failed to parse; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset

    def detail(self) -> dict:
        return {"offset": self.offset}


class SpecFileError(FinquotError):
    """A group-specification file, witness file or budget override is malformed."""
