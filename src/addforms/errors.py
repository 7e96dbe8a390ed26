"""Shared exception types, and the work budget whose check raises
CapExceeded."""

from __future__ import annotations


class AddformsError(Exception):
    """Base class for all library errors."""


class GroupMismatchError(AddformsError, ValueError):
    """Operands live in different groups."""


class CapExceeded(AddformsError, RuntimeError):
    """A group-order or work budget was exceeded.

    Raised instead of silently degrading; callers can retry with a larger
    budget or switch to Monte Carlo estimation where available.
    """


class ParseError(AddformsError, ValueError):
    """Syntax or semantic error in a text input, with position info."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


DEFAULT_WORK_BUDGET = 10**9


def _check_work(predicted: int, budget, power: str, hint: str) -> None:
    """Refuse (CapExceeded) `predicted` work over `budget` (default DEFAULT_WORK_BUDGET),
    written as `power` beyond 64 bits, where Python may not print its digits."""
    cap = DEFAULT_WORK_BUDGET if budget is None else int(budget)
    if predicted > cap:
        work = predicted if predicted.bit_length() <= 64 else power
        raise CapExceeded(f"predicted work {work} exceeds budget {cap}; raise the budget or {hint}")
