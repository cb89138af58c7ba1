"""Exception hierarchy, the immutable record base and the argument gates
(integers, counts, operands, exact coefficients) shared by all singclass
modules, so that each module refuses a count or an operand through one call.

They live in this leaf module because every other module imports it already:
none of them adds a module to the import graph.
"""

from __future__ import annotations

from fractions import Fraction


class Record:
    """Base of singclass's immutable value classes.

    A subclass names its fields in ``_fields``, holds them in ``__slots__``
    and sets them in ``__init__`` through ``object.__setattr__``.  An instance
    then equals only an instance of its own class with equal fields (never a
    tuple), hashes like the tuple of its fields, shows its fields in its repr,
    copies and pickles through its constructor, and refuses every write.
    ``trees.MarkedTree`` is the exception: its ``__new__`` is its one
    constructor and hash-conses every tree in one table, so isomorphic trees
    are one object, compared and hashed by identity.  ``classes.ClassExpr``
    and ``local_models.Polynomial`` store their coefficients in an integer
    form, read their ``terms`` or ``coeffs`` field off it, and compare that
    form.  A class that stores other slots than its fields names them, in
    order, in ``_stored``; it defaults to ``_fields``.

    The constructor of a value type checks its arguments and makes them
    canonical, so equal values have equal fields.  ``_make`` is the one
    unchecked way in, for code whose values are canonical already.  When a
    subclass is created it looks up the setter of each stored slot once, in
    ``_setters``, so ``_make`` is one frame that sets each slot through its
    setter, with no lookup by name and no ``__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in getattr(cls, "_stored", cls._fields))

    @classmethod
    def _make(cls, *values):
        """The instance whose stored slots hold these values, in ``_stored``
        order, without the constructor."""
        self = object.__new__(cls)
        for setter, value in zip(cls._setters, values):
            setter(self, value)
        return self

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


def _integer(value, what: str) -> int:
    """value if it is exactly an int (no bool); else ConstraintError."""
    if type(value) is int:
        return value
    raise ConstraintError(f"{what} must be an integer, not {value!r}")


def _count(value, what: str, least: int = 0, most: int | None = None) -> int:
    """value if it is exactly an int, at least ``least`` and, when ``most``
    is given, at most ``most``, a cost budget; else ConstraintError, saying
    that what must be an integer, nonnegative or at least ``least``, or
    that it is over the budget."""
    if _integer(value, what) < least:
        floor = "nonnegative" if least == 0 else f">= {least}"
        raise ConstraintError(f"{what} must be {floor}")
    if most is not None and value > most:
        raise ConstraintError(f"{what} = {value} is over the budget of {most}")
    return value


def _ints(values, what: str) -> list[int]:
    """The values as a list of ints; anything else raises ConstraintError.
    what names one value with its article ("a partition row"); a refused
    non-sequence is named in the plural without it ("partition rows")."""
    try:
        return [_integer(v, what) for v in values]
    except TypeError:
        plural = what.split(" ", 1)[1] + "s"
        raise ConstraintError(f"{plural} must come as a sequence of integers, not {values!r}") from None


_EXACT = frozenset((int, Fraction))  # coefficient types; bool, float, str and the rest are refused


def _operand(value, cls: type, what: str):
    """value if it is exactly a cls; else ConstraintError, saying that the
    operation what takes a cls, with no exception context (``evaluate``
    gates on its except path)."""
    if type(value) is not cls:
        raise ConstraintError(f"{what} takes a {cls.__name__}, not {value!r}") from None
    return value


def _exact(values, what: str) -> None:
    """Nothing if every value is exactly an int or a Fraction; else
    ConstraintError, saying that what must be int or Fraction."""
    if not _EXACT.issuperset(map(type, values)):
        raise ConstraintError(f"{what} must be int or Fraction")


def _fractions(values, what: str) -> list[Fraction]:
    """The values as a list of Fractions, each given as an int or a Fraction;
    else ConstraintError."""
    try:
        values = list(values)
    except TypeError:
        raise ConstraintError(f"{what} must come as a sequence, not {values!r}") from None
    _exact(values, what)
    return [v if type(v) is Fraction else Fraction(v) for v in values]


def _pairs(values, message: str) -> tuple:
    """values as a tuple of 2-tuples; else ConstraintError(message)."""
    try:
        values = tuple(values)
    except TypeError:
        raise ConstraintError(message) from None
    if not ({tuple}.issuperset(map(type, values)) and {2}.issuperset(map(len, values))):
        raise ConstraintError(message)
    return values
