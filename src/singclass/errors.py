"""Exception hierarchy shared by all singclass modules."""

from __future__ import annotations


class SingclassError(Exception):
    """Base class for every error raised by this package."""


class ParseError(SingclassError):
    """Syntax error in an expression, tree, profile or partition literal.

    Carries the character position at which scanning or parsing failed so
    callers can point at the offending spot, and the message without that
    position as ``reason``.
    """

    def __init__(self, message: str, position: int | None = None):
        self.reason = message
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ConstraintError(SingclassError):
    """A precondition of an operation is violated (dimension mismatch,
    coincident points, basis mismatch, codimension cap, ...)."""


class TreeStructureError(ConstraintError):
    """A raw tree violates the valency rules for marked trees."""


class TruncationError(SingclassError):
    """A power-series coefficient beyond the truncation order was requested."""
