"""The text layer below both sides: one lexer and token parser, one
signed-term joiner with its text and LaTeX styles, the JSON list writer,
and the parsers and renderers of everything that is no class expression:
cycle expressions, x-polynomials, profiles, partitions, exponent lists,
rationals, and the text form of polynomials and rational functions in z.

It imports only ``errors`` and ``combinatorics``, so a call that reads or
writes cycle text compiles nothing of the class side.  ``grammar`` builds
the class reader and renderers on this module and re-exports its public
names.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import partial

from .combinatorics import CycleExpr, Partition, Profile, XPolynomial, make_partition, make_profile
from .errors import ConstraintError, ParseError, Record, _operand

__all__ = [
    "render_cycles",
    "render_cycles_latex",
    "cycles_to_json",
    "parse_cycles",
    "render_xpoly",
    "render_xpoly_latex",
    "xpoly_to_json",
    "format_polynomial",
    "format_function",
    "format_profile",
    "parse_orders",
    "parse_profile",
    "format_partition",
    "parse_partition",
    "parse_exponents",
    "parse_rational_value",
    "parse_rational_list",
]


# ---------------------------------------------------------------------------
# rendering: one signed-term joiner, spelled by a text or LaTeX style

class _Style(Record):
    """How one output form spells a term: the ``str.format`` template of a
    coefficient p/q, the separator between factors, and a template per atom
    kind (``^`` is the power template)."""

    __slots__ = _fields = ("coeff", "sep", "spell")

    def __init__(self, coeff: str, sep: str, spell: dict[str, str]):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "sep", sep)
        object.__setattr__(self, "spell", spell)

    def atom(self, kind: str, *args) -> str:
        return self.spell[kind].format(*args)

    def power(self, kind: str, k: int, *args) -> str:
        base = self.spell[kind].format(*args)
        return base if k == 1 else self.spell["^"].format(base, k)


_TEXT = _Style("{}/{}", "*", {
    "^": "{}^{}", "xi": "xi", "psi": "psi", "z": "z", "a": "a_{}", "x": "x{}",
    "i": "i[{}]", "d": "d[{}]", "C": "C[{}]", "tree": "T{{{}}}@{}",
})
_LATEX = _Style("\\frac{{{}}}{{{}}}", " ", {
    "^": "{}^{{{}}}", "xi": "\\xi", "psi": "\\psi", "a": "a_{{{}}}",
    "x": "x_{{{}}}", "i": "i_{{{}}}", "d": "\\delta_{{{}}}", "C": "C_{{{}}}",
    "tree": "\\left[{}\\right]_{{{}}}",
})


def _join(terms: Iterable[tuple[int, int, Sequence[str]]], style: _Style) -> str:
    """The signed sum ``a - b + c`` of coefficient-times-factors terms, each
    given as its reduced coefficient n/d (d >= 1) and its other factors.

    A coefficient of magnitude 1 is left out unless the term has no other
    factor; the empty sum is ``0``.  The text is joined once."""
    parts = []
    for n, d, factors in terms:
        if n < 0:
            parts.append(" - " if parts else "-")
            n = -n
        elif parts:
            parts.append(" + ")
        if n != 1 or d != 1 or not factors:
            factors = [str(n) if d == 1 else style.coeff.format(n, d), *factors]
        parts.append(style.sep.join(factors))
    return "".join(parts) or "0"


# JSON: the layout of json.dumps(payload, indent=2), written directly, since
# with an indent the stdlib cannot use its C encoder.  A coefficient or a
# tree encoding is digits and ( ) ; , / -, written as it is; every other
# string goes through _json_str, which escapes as json.dumps does by default:
# importing the stdlib's escaper would load the whole json package, decoder
# included, in every CLI call.

_JSON_ESCAPE = re.compile(r'[\\"]|[^ -~]')
_JSON_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_escape(match: re.Match) -> str:
    char = match.group()
    if char in _JSON_ESCAPES:
        return _JSON_ESCAPES[char]
    code = ord(char)
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000  # a UTF-16 surrogate pair
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def _json_str(text: str) -> str:
    """text as an ASCII JSON string literal, the output of
    json.encoder.encode_basestring_ascii."""
    return '"' + _JSON_ESCAPE.sub(_json_escape, text) + '"'


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of written items, one per line, closed at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


# ---------------------------------------------------------------------------
# parsing: one tokenizer, one coefficient literal, one signed-sum loop

_TOKEN_RE = re.compile(
    r"a_(?=\d)|\d+"  # a_m is the two tokens "a_" and "m"
    r"|[A-Za-z]+"
    r"|(?<=\d)/\d+"  # the "/q" of a literal p/q with no spaces inside
    r"|[-+*/^\[\]{}();,@]"
    r"|\S[\s\S]*"  # an unexpected character, and the rest of the text with it
)
_TOKEN_STARTS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz-+*/^[]{}();,@"


def _tokenize(text: str) -> list[str]:
    """The token strings of ``text`` without its whitespace, then "" for the
    end of input; a literal p/q is the two tokens "p" and "/q"."""
    tokens = _TOKEN_RE.findall(text)
    if tokens and not (tokens[-1][0].isdecimal() or tokens[-1][0] in _TOKEN_STARTS):
        raise ParseError(f"unexpected character {tokens[-1][0]!r}", len(text) - len(tokens[-1]))
    tokens.append("")
    return tokens


class _Parser:
    """Reads ``expr := ['-'] term (('+'|'-') term)*`` with
    ``term := factor ('*' factor)*`` over the token strings; rational literals
    ``p`` and ``p/q`` and integer lists are shared, every other factor is the
    caller's.

    Token positions are found by scanning the text a second time, which only
    an error report, or a sign that must touch its digits, pays for.  Every
    parser reads its text through this class, which refuses a text that is
    no str."""

    def __init__(self, text: str):
        self.text = _operand(text, str, "a parser")
        self.tokens = _tokenize(text)
        self.index = 0
        self.starts: list[int] | None = None

    def pos(self, index: int | None = None) -> int:
        """Where the token at ``index`` (by default the next one) starts."""
        if self.starts is None:
            self.starts = [m.start() for m in _TOKEN_RE.finditer(self.text)]
            self.starts.append(len(self.text))
        return self.starts[self.index if index is None else index]

    def error(self, reason: str, index: int | None = None) -> ParseError:
        return ParseError(reason, self.pos(index))

    def accept_op(self, op: str) -> bool:
        if self.tokens[self.index] == op:
            self.index += 1
            return True
        return False

    def expect_op(self, op: str):
        if not self.accept_op(op):
            raise self.error(f"expected {op!r}")

    def accept_close(self, close: str | None) -> bool:
        """Consume the ``close`` operator; None stands for the end of input."""
        return self.tokens[self.index] == "" if close is None else self.accept_op(close)

    def expect_end(self, what: str):
        if self.tokens[self.index]:
            raise self.error(f"trailing input after {what}")

    def parse_int(self, what: str, signed: bool = False) -> int:
        token = self.tokens[self.index]
        if not token.isdecimal():
            # as for int(), a sign binds only to the digits right after it
            if signed and token in ("+", "-") and self.pos(self.index + 1) == self.pos() + 1:
                self.index += 1
                return (-1 if token == "-" else 1) * self.parse_int(what)
            raise self.error(f"expected {what}")
        self.index += 1
        try:
            return int(token)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error("integer literal too long", self.index - 1) from None

    def parse_list(self, parse_item: Callable[[], object], close: str | None) -> list:
        """``ITEM (',' ITEM)*`` and then the ``close`` operator, or the end of
        input when ``close`` is None; ``parse_item()`` reads each ITEM."""
        values, tokens = [parse_item()], self.tokens
        while tokens[self.index] == ",":
            self.index += 1
            values.append(parse_item())
        if not self.accept_close(close):
            closer = repr(close) if close else "end of input"
            raise self.error(f"expected ',' or {closer}")
        return values

    def parse_int_list(self, close: str | None = "]", signed: bool = False) -> list[int]:
        """A list of integers; each may carry a sign if ``signed``."""
        return self.parse_list(partial(self.parse_int, "an integer", signed), close)

    def parse_ratio(self, signed: bool = False) -> tuple[int, int]:
        """A rational literal ``p`` or ``p/q`` with no spaces inside, as the
        integers (p, q); ``p`` may carry a sign if ``signed``."""
        numerator = self.parse_int("a number", signed)
        token = self.tokens[self.index]
        if token[:1] != "/":
            return numerator, 1
        if token == "/":  # not "/q": a space beside the slash, or no digits after it
            slash = self.pos()
            numerator_end = self.pos(self.index - 1) + len(self.tokens[self.index - 1])
            if slash == numerator_end == self.pos(self.index + 1) - 1:
                raise ParseError("expected a denominator", slash + 1)
            raise ParseError("no spaces allowed inside a rational literal p/q", slash)
        self.index += 1
        try:
            denominator = int(token[1:])
        except ValueError:
            raise ParseError("integer literal too long", self.pos(self.index - 1) + 1) from None
        if denominator == 0:
            raise ParseError("zero denominator", self.pos(self.index - 1) + 1)
        return numerator, denominator

    def parse_sum(self, parse_factor) -> list[tuple[int, int, list]]:
        """Every term as (numerator, denominator, other factors): the signed
        product of the term's rational literals, not reduced, and the factors
        that are none, each read by ``parse_factor(self)``.  A text with no
        token is an empty expression."""
        tokens, terms = self.tokens, []
        if not tokens[0]:
            raise ParseError("empty expression", 0)
        sign = -1 if self.accept_op("-") else 1
        while True:
            numerator, denominator, factors = sign, 1, []
            while True:
                if tokens[self.index].isdecimal():
                    p, q = self.parse_ratio()
                    numerator, denominator = numerator * p, denominator * q
                else:
                    factors.append(parse_factor(self))
                if tokens[self.index] != "*":
                    break
                self.index += 1
            terms.append((numerator, denominator, factors))
            token = tokens[self.index]
            self.index += 1
            if not token:
                return terms
            if token != "+" and token != "-":
                raise self.error("expected '+', '-' or end of expression", self.index - 1)
            sign = 1 if token == "+" else -1


# ---------------------------------------------------------------------------
# cycle expressions and x-polynomials

def _render_cycles(c: CycleExpr, style: _Style) -> str:
    return _join(
        (
            (a.numerator, a.denominator, [style.atom("C", ",".join(map(str, p)))] if p else [])
            for p, a in _operand(c, CycleExpr, "a cycle renderer").terms
        ),
        style,
    )


def render_cycles(c: CycleExpr) -> str:
    return _render_cycles(c, _TEXT)


def render_cycles_latex(c: CycleExpr) -> str:
    return _render_cycles(c, _LATEX)


def _profile_terms_to_json(terms: Iterable[tuple[tuple[int, ...], Fraction]], key: str) -> str:
    """``{"terms": [...]}`` with each term's coefficient and its profile under ``key``."""
    key = _json_str(key)
    rows = [
        f'{{\n      "coeff": "{c}",\n'
        f'      {key}: {_json_list([str(k) for k in p], "      ")}\n    }}'
        for p, c in terms
    ]
    return f'{{\n  "terms": {_json_list(rows, "  ")}\n}}'


def cycles_to_json(c: CycleExpr) -> str:
    return _profile_terms_to_json(_operand(c, CycleExpr, "a cycle renderer").terms, "profile")


def _cycle_factor(parser: _Parser) -> tuple[Profile, int]:
    index = parser.index
    if parser.tokens[index] != "C":
        raise parser.error("expected a factor", index)
    parser.index += 1
    parser.expect_op("[")
    try:
        return make_profile(parser.parse_int_list()), index
    except ConstraintError as exc:
        raise parser.error(str(exc), index) from None


def parse_cycles(text: str) -> CycleExpr:
    """Parse ``1/2*C[3] + 1/4*C[1,1] + 1/24*C[1]``; a bare rational is the identity."""
    parser = _Parser(text)
    terms = parser.parse_sum(_cycle_factor)
    for _, _, factors in terms:
        if len(factors) > 1:
            raise parser.error("a term may contain at most one C atom", factors[1][1])
    return CycleExpr((factors[0][0] if factors else (), Fraction(n, d)) for n, d, factors in terms)


def _render_xpoly(x: XPolynomial, style: _Style) -> str:
    return _join(
        (
            (c.numerator, c.denominator, [style.power("x", p.count(k), k) for k in sorted(set(p))])
            for p, c in _operand(x, XPolynomial, "an x-polynomial renderer").terms
        ),
        style,
    )


def render_xpoly(x: XPolynomial) -> str:
    return _render_xpoly(x, _TEXT)


def render_xpoly_latex(x: XPolynomial) -> str:
    return _render_xpoly(x, _LATEX)


def xpoly_to_json(x: XPolynomial) -> str:
    x = _operand(x, XPolynomial, "an x-polynomial renderer")
    return _profile_terms_to_json(x.terms, "monomial")


# ---------------------------------------------------------------------------
# polynomials and rational functions in z (text only): local_models' types,
# named in the annotations but not imported, since only their fields are read
# (importing local_models would make every CLI call compile it); a value
# without those fields is refused

def format_polynomial(poly: Polynomial) -> str:
    """Low-to-high text form: 'c_0 + c_1*z + ...' with zero terms omitted."""
    try:
        terms = [
            (c.numerator, c.denominator, [_TEXT.power("z", k)] if k else [])
            for k, c in poly.monomials()
        ]
    except (AttributeError, TypeError, ValueError):  # monomials that are no (k, rational) pairs
        raise ConstraintError(f"format_polynomial takes a Polynomial, not {poly!r}") from None
    return _join(terms, _TEXT)


def format_function(f: RationalFunction) -> str:
    try:
        numerator, denominator = f.numerator, f.denominator
    except AttributeError:
        raise ConstraintError(f"format_function takes a RationalFunction, not {f!r}") from None
    return f"({format_polynomial(numerator)}) / ({format_polynomial(denominator)})"


# ---------------------------------------------------------------------------
# profiles and partitions

def _list_text(values, brackets: str) -> str:
    """The items of values, each through str, comma-separated in the two
    brackets; a values that is no sequence raises ConstraintError."""
    try:
        return brackets[0] + ",".join(map(str, values)) + brackets[1]
    except TypeError:
        raise ConstraintError(f"a list literal is written from a sequence, not {values!r}") from None


def format_profile(p: Profile) -> str:
    return _list_text(p, "{}")


def _int_literal(text: str, brackets: str, what: str) -> list[int]:
    """The integers of a list literal such as ``{1,2,2}``, each with an
    optional sign: the brackets are optional, and a blank list is empty."""
    try:
        parser = _Parser(text)
        close = brackets[1] if parser.accept_op(brackets[0]) else None
        values = [] if parser.accept_close(close) else parser.parse_int_list(close, signed=True)
        parser.expect_end("the list")
    except ParseError as exc:
        raise ParseError(f"bad {what}: {exc.reason}", exc.position) from None
    return values


def parse_orders(text: str) -> tuple[int, ...]:
    """The parts of a profile literal ``{k1,...,kl}`` in the order typed."""
    parts = tuple(_int_literal(text, "{}", "profile literal"))
    if any(k < 1 for k in parts):
        raise ParseError("profile parts must be positive integers")
    return parts


def parse_profile(text: str) -> Profile:
    return make_profile(parse_orders(text))


def format_partition(lam: Partition) -> str:
    return _list_text(lam, "[]")


def parse_partition(text: str) -> Partition:
    try:
        return make_partition(_int_literal(text, "[]", "partition literal"))
    except ConstraintError as exc:
        raise ParseError(str(exc)) from None


def parse_exponents(text: str) -> list[int]:
    """The cotangent exponents ``[m1,...,ms]`` of a point-class delta expression."""
    return _int_literal(text, "[]", "exponent list")


# ---------------------------------------------------------------------------
# rational values: the point and the poles of a local model

def _rational_literal(text: str, what: str, many: bool) -> list[Fraction]:
    try:
        parser = _Parser(text)

        def item() -> Fraction:
            return Fraction(*parser.parse_ratio(signed=True))

        values = parser.parse_list(item, None) if many else [item()]
        parser.expect_end("the value")
    except ParseError as exc:
        raise ParseError(f"bad {what}: {exc.reason}", exc.position) from None
    return values


def parse_rational_value(text: str, what: str) -> Fraction:
    """One signed rational ``p`` or ``p/q``; decimals such as ``1.5`` are refused,
    and errors read ``bad <what>: ...`` with the position."""
    return _rational_literal(text, what, many=False)[0]


def parse_rational_list(text: str, what: str) -> list[Fraction]:
    """Comma-separated signed rationals such as ``1/2,-3``; no brackets."""
    return _rational_literal(text, what, many=True)
