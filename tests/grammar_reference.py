"""The text grammar as it stood before its lexer, parser and renderers were
rewritten for speed: a test-only reference.  ``tests/test_grammar_reference.py``
checks that ``singclass.grammar`` returns the same values, raises the same
``ParseError`` reasons at the same positions, and renders the same text and
LaTeX and JSON.  The code below is kept as it was, but for the imports.
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Iterable
from fractions import Fraction

from singclass.classes import BASIC, SINGULARITY, ClassExpr
from singclass.combinatorics import Partition, Profile, make_partition, make_profile
from singclass.cycles import CycleExpr, XPolynomial
from singclass.errors import ConstraintError, ParseError, Record
from singclass.local_models import Polynomial, RationalFunction
from singclass.trees import MarkedTree, encoding, star, stick


# ---------------------------------------------------------------------------
# rendering: one signed-term joiner, spelled by a text or LaTeX style

class _Style(Record):
    """How one output form spells a term: the coefficient, the separator
    between factors, and a ``str.format`` template per atom kind (``^`` is
    the power template)."""

    __slots__ = _fields = ("coeff", "sep", "spell")

    def __init__(self, coeff: Callable[[Fraction], str], sep: str, spell: dict[str, str]):
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "sep", sep)
        object.__setattr__(self, "spell", spell)

    def atom(self, kind: str, *args) -> str:
        return self.spell[kind].format(*args)

    def power(self, kind: str, k: int, *args) -> str:
        base = self.spell[kind].format(*args)
        return base if k == 1 else self.spell["^"].format(base, k)


def _frac(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c)
    return f"\\frac{{{c.numerator}}}{{{c.denominator}}}"


_TEXT = _Style(str, "*", {
    "^": "{}^{}", "xi": "xi", "psi": "psi", "z": "z", "a": "a_{}", "x": "x{}",
    "i": "i[{}]", "d": "d[{}]", "C": "C[{}]", "tree": "T{{{}}}@{}",
    SINGULARITY: "sing", BASIC: "basic",
})
_LATEX = _Style(_frac, " ", {
    "^": "{}^{{{}}}", "xi": "\\xi", "psi": "\\psi", "a": "a_{{{}}}",
    "x": "x_{{{}}}", "i": "i_{{{}}}", "d": "\\delta_{{{}}}", "C": "C_{{{}}}",
    "tree": "\\left[{}\\right]_{{{}}}",
    SINGULARITY: "\\mathrm{sing}", BASIC: "\\mathrm{basic}",
})


def _join(terms: Iterable[tuple[Fraction, list[str]]], style: _Style) -> str:
    """The signed sum ``a - b + c`` of coefficient-times-factors terms.

    A coefficient of magnitude 1 is left out unless the term has no other
    factor; the empty sum is ``0``."""
    text = ""
    for coeff, factors in terms:
        magnitude = abs(coeff)
        if magnitude != 1 or not factors:
            factors = [style.coeff(magnitude), *factors]
        body = style.sep.join(factors)
        if text:
            text += (" - " if coeff < 0 else " + ") + body
        else:
            text = "-" + body if coeff < 0 else body
    return text or "0"


def _joined_ints(values) -> str:
    return ",".join(str(v) for v in values)


def ordered_monomials(e: ClassExpr) -> list[tuple[MarkedTree, int, Fraction]]:
    """Monomials ordered for display: ascending xi-degree, then descending
    tree weight, then canonical encoding."""
    return sorted(
        e.monomials(), key=lambda m: (m[1], -m[0].weight, encoding(m[0]))
    )


def _class_atom(t: MarkedTree, basis: str, style: _Style) -> list[str]:
    """The factors naming a tree: none for the unit, one for a stick, a tree
    literal or a star, plus a psi power for a star's marked vertex."""
    if not t.children:
        if t.marking == 0:
            return []
        if basis == SINGULARITY:
            return [style.atom("a", t.marking)]
        return [style.power("psi", t.marking)]
    if any(c.children for c in t.children):
        return [style.atom("tree", encoding(t), style.spell[basis])]
    marks = sorted(c.marking for c in t.children)
    if basis == SINGULARITY:
        star_atom = style.atom("i", _joined_ints(m + 1 for m in marks))
    else:
        star_atom = style.atom("d", _joined_ints(marks))
    if t.marking == 0:
        return [star_atom]
    return [style.power("psi", t.marking), star_atom]


def _render_class(e: ClassExpr, style: _Style) -> str:
    return _join(
        (
            (coeff, ([style.power("xi", q)] if q else []) + _class_atom(t, e.basis, style))
            for t, q, coeff in ordered_monomials(e)
        ),
        style,
    )


def render_class(e: ClassExpr) -> str:
    return _render_class(e, _TEXT)


def render_class_latex(e: ClassExpr) -> str:
    return _render_class(e, _LATEX)


def class_to_json(e: ClassExpr) -> str:
    payload = {
        "basis": e.basis,
        "codim": e.degree,
        "terms": [
            {
                "coeff": str(coeff),
                "xi_power": q,
                "tree": encoding(t),
            }
            for t, q, coeff in ordered_monomials(e)
        ],
    }
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# parsing: one tokenizer, one coefficient literal, one signed-sum loop

_TOKEN_RE = re.compile(
    r"(?P<WS>\s+)"
    r"|(?P<ATOM_A>a_\d+)"
    r"|(?P<NUMBER>\d+)"
    r"|(?P<NAME>[A-Za-z]+)"
    r"|(?P<OP>[-+*/^\[\]{}();,@])"
    r"|(?P<BAD>.)"  # any other character; a newline is whitespace
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "BAD":
            raise ParseError(f"unexpected character {match.group()!r}", match.start())
        if kind != "WS":
            tokens.append((kind, match.group(), match.start()))
    tokens.append(("END", "", len(text)))
    return tokens


# Deepest nesting a tree literal may have: each level adds at least 2 to the
# codim, so no expandable tree comes near it, and deep input cannot exhaust
# the stack.
_MAX_TREE_DEPTH = 100


class _Parser:
    """Reads ``expr := ['-'] term (('+'|'-') term)*`` with
    ``term := factor ('*' factor)*`` over the token stream; rational literals
    ``p`` and ``p/q``, tree literals and integer lists are shared, every other
    factor is the caller's."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def accept_op(self, op: str) -> bool:
        kind, value, _ = self.tokens[self.index]
        if kind == "OP" and value == op:
            self.index += 1
            return True
        return False

    def expect_op(self, op: str):
        if not self.accept_op(op):
            raise ParseError(f"expected {op!r}", self.peek()[2])

    def accept_close(self, close: str | None) -> bool:
        """Consume the ``close`` operator; None stands for the end of input."""
        return self.peek()[0] == "END" if close is None else self.accept_op(close)

    def expect_end(self, what: str):
        if not self.accept_close(None):
            raise ParseError(f"trailing input after {what}", self.peek()[2])

    def parse_int(self, what: str, signed: bool = False) -> int:
        kind, value, pos = self.peek()
        # as for int(), a sign binds only to the digits right after it
        if signed and value in ("+", "-") and self.tokens[self.index + 1][2] == pos + 1:
            self.index += 1
            return (-1 if value == "-" else 1) * self.parse_int(what)
        if kind != "NUMBER":
            raise ParseError(f"expected {what}", pos)
        try:
            number = int(value)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise ParseError("integer literal too long", pos) from None
        self.index += 1
        return number

    def parse_list(self, parse_item: Callable[[], object], close: str | None) -> list:
        """``ITEM (',' ITEM)*`` and then the ``close`` operator, or the end of
        input when ``close`` is None; ``parse_item()`` reads each ITEM."""
        values = [parse_item()]
        while self.accept_op(","):
            values.append(parse_item())
        if not self.accept_close(close):
            closer = repr(close) if close else "end of input"
            raise ParseError(f"expected ',' or {closer}", self.peek()[2])
        return values

    def parse_int_list(self, close: str | None = "]", signed: bool = False) -> list[int]:
        """A list of integers; each may carry a sign if ``signed``."""
        return self.parse_list(lambda: self.parse_int("an integer", signed), close)

    def parse_tree(self, depth: int = 0) -> MarkedTree:
        """``TREE := INT | '(' INT ';' TREE (',' TREE)+ ')'``; a bare integer is
        the stick with that marking."""
        pos = self.peek()[2]
        if not self.accept_op("("):
            return stick(self.parse_int("an integer"))
        if depth == _MAX_TREE_DEPTH:
            raise ParseError(f"tree nested deeper than {_MAX_TREE_DEPTH} levels", pos)
        marking = self.parse_int("an integer")
        if not self.accept_op(";"):
            raise ParseError("expected ';' after vertex marking", self.peek()[2])
        children = [self.parse_tree(depth + 1)]
        while self.accept_op(","):
            children.append(self.parse_tree(depth + 1))
        self.expect_op(")")
        if len(children) < 2:
            raise ParseError("internal vertex needs at least two children", pos)
        return MarkedTree(marking, children)

    def parse_exponent(self) -> int:
        return self.parse_int("an integer exponent") if self.accept_op("^") else 1

    def parse_coefficient(self, signed: bool = False) -> Fraction:
        """A rational literal ``p`` or ``p/q`` with no spaces inside; ``p`` may
        carry a sign if ``signed``."""
        numerator = self.parse_int("a number", signed)
        if not self.accept_op("/"):
            return Fraction(numerator)
        _, digits, start = self.tokens[self.index - 2]
        slash = self.tokens[self.index - 1][2]
        pos = self.peek()[2]
        if slash != start + len(digits) or pos != slash + 1:
            raise ParseError("no spaces allowed inside a rational literal p/q", slash)
        denominator = self.parse_int("a denominator")
        if denominator == 0:
            raise ParseError("zero denominator", pos)
        return Fraction(numerator, denominator)

    def parse_sum(self, parse_factor) -> list[tuple[Fraction, list]]:
        """Every term as (signed coefficient, other factors); a factor that is
        not a rational literal is read by ``parse_factor(self, kind, value, pos)``."""
        terms = []
        sign = -1 if self.accept_op("-") else 1
        while True:
            coeff, factors = Fraction(sign), []
            while True:
                kind, value, pos = self.peek()
                if kind == "NUMBER":
                    coeff *= self.parse_coefficient()
                else:
                    factors.append(parse_factor(self, kind, value, pos))
                if not self.accept_op("*"):
                    break
            terms.append((coeff, factors))
            kind, value, pos = self.advance()
            if kind == "END":
                return terms
            if kind != "OP" or value not in ("+", "-"):
                raise ParseError("expected '+', '-' or end of expression", pos)
            sign = 1 if value == "+" else -1


def parse_tree(text: str) -> MarkedTree:
    """Parse a tree literal (see ``_Parser.parse_tree``); whitespace is
    insignificant, and nesting deeper than 100 levels is refused."""
    parser = _Parser(text)
    t = parser.parse_tree()
    parser.expect_end("tree")
    return t


def _class_factor(parser: _Parser, kind: str, value: str, pos: int):
    """One non-rational factor of a class term as (kind, payload, position)."""
    parser.advance()
    if kind == "NAME" and value in ("xi", "psi"):
        return value, parser.parse_exponent(), pos
    if kind == "ATOM_A":
        return "a", int(value[2:]), pos
    if kind == "NAME" and value in ("i", "d"):
        parser.expect_op("[")
        return value, parser.parse_int_list(), pos
    if kind == "NAME" and value == "T":
        parser.expect_op("{")
        try:
            parsed = parser.parse_tree()
            parser.expect_op("}")
        except ParseError as exc:
            raise ParseError(f"bad tree literal: {exc.reason}", exc.position) from None
        if not parser.accept_op("@"):
            raise ParseError("tree atom needs a basis tag @sing or @basic", parser.peek()[2])
        kind2, tag, pos2 = parser.advance()
        if kind2 != "NAME" or tag not in ("sing", "basic"):
            raise ParseError("basis tag must be sing or basic", pos2)
        return "tree", (parsed, SINGULARITY if tag == "sing" else BASIC), pos
    raise ParseError("expected a factor", pos)


def _class_term(factors) -> tuple[MarkedTree, int, str | None]:
    """Resolve a term's factors to (tree, xi power, basis constraint)."""
    xi_degree = sum(payload for kind, payload, _ in factors if kind == "xi")
    psi_power = sum(payload for kind, payload, _ in factors if kind == "psi")
    atoms = [f for f in factors if f[0] not in ("xi", "psi")]
    if len(atoms) > 1:
        raise ParseError("a term may contain at most one class atom", atoms[1][2])
    if not atoms:
        if psi_power > 0:
            return stick(psi_power), xi_degree, BASIC
        return stick(0), xi_degree, None
    kind, payload, pos = atoms[0]
    if kind == "a":
        if psi_power:
            raise ParseError("psi * a_m is not a class atom", pos)
        return stick(payload), xi_degree, SINGULARITY if payload > 0 else None
    if kind == "i":
        if len(payload) < 2 or any(k < 1 for k in payload):
            raise ParseError("i[...] needs at least two ramification orders >= 1", pos)
        return star(psi_power, [k - 1 for k in payload]), xi_degree, SINGULARITY
    if kind == "d":
        if len(payload) < 2:
            raise ParseError("d[...] needs at least two exponents", pos)
        return star(psi_power, payload), xi_degree, BASIC
    parsed, tag = payload
    if psi_power:
        if not parsed.children and tag == SINGULARITY:
            raise ParseError("psi * a_m is not a class atom", pos)
        parsed = MarkedTree(parsed.marking + psi_power, parsed.children)
    return parsed, xi_degree, tag


def parse_class(text: str, default_basis: str = SINGULARITY) -> ClassExpr:
    """Parse a class expression; the basis is inferred from the atoms.

    ``i[...]`` and ``T{...}@sing`` force the singularity basis; ``d[...]``,
    bare psi powers and ``T{...}@basic`` force the basic one.  Mixing the two
    is an error, and expressions built only from rationals, xi powers and
    ``a_0`` fall back to ``default_basis``.
    """
    if not text.strip():
        raise ParseError("empty expression", 0)
    if text.strip() == "0":
        return ClassExpr.zero(default_basis)
    parser = _Parser(text)
    acc: dict[tuple[MarkedTree, int], Fraction] = {}
    constraints: set[str] = set()
    for coeff, factors in parser.parse_sum(_class_factor):
        t, q, constraint = _class_term(factors)
        if constraint:
            constraints.add(constraint)
        acc[t, q] = acc.get((t, q), 0) + coeff
    if len(constraints) > 1:
        raise ParseError("expression mixes singularity-basis and basic-basis atoms")
    basis = constraints.pop() if constraints else default_basis
    # the only place that reads per-term xi powers: the monomials that survive
    # summing must share one total degree, which the expression then stores
    kept = [(t, q, c) for (t, q), c in acc.items() if c and not t.vanishing]
    degrees = sorted({t.codim + q for t, q, _ in kept})
    if len(degrees) > 1:
        raise ParseError(f"inhomogeneous class expression: total degrees {degrees}")
    degree = degrees[0] if degrees else None
    return ClassExpr(basis, degree, ((t, c) for t, _, c in kept))


# ---------------------------------------------------------------------------
# cycle expressions and x-polynomials

def _render_cycles(c: CycleExpr, style: _Style) -> str:
    return _join(
        ((coeff, [style.atom("C", _joined_ints(p))] if p else []) for p, coeff in c.terms),
        style,
    )


def render_cycles(c: CycleExpr) -> str:
    return _render_cycles(c, _TEXT)


def render_cycles_latex(c: CycleExpr) -> str:
    return _render_cycles(c, _LATEX)


def cycles_to_json(c: CycleExpr) -> str:
    payload = {
        "terms": [
            {"coeff": str(coeff), "profile": list(p)}
            for p, coeff in c.terms
        ]
    }
    return json.dumps(payload, indent=2)


def _cycle_factor(parser: _Parser, kind: str, value: str, pos: int) -> tuple[Profile, int]:
    if kind != "NAME" or value != "C":
        raise ParseError("expected a factor", pos)
    parser.advance()
    parser.expect_op("[")
    try:
        return make_profile(parser.parse_int_list()), pos
    except ConstraintError as exc:
        raise ParseError(str(exc), pos) from None


def parse_cycles(text: str) -> CycleExpr:
    """Parse ``1/2*C[3] + 1/4*C[1,1] + 1/24*C[1]``; a bare rational is the identity."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    if text.strip() == "0":
        return CycleExpr.zero()
    terms = _Parser(text).parse_sum(_cycle_factor)
    for _, factors in terms:
        if len(factors) > 1:
            raise ParseError("a term may contain at most one C atom", factors[1][1])
    return CycleExpr(
        (factors[0][0] if factors else (), coeff) for coeff, factors in terms
    )


def _render_xpoly(x: XPolynomial, style: _Style) -> str:
    def factors(p: Profile) -> list[str]:
        return [style.power("x", p.count(k), k) for k in sorted(set(p))]

    return _join(((coeff, factors(p)) for p, coeff in x.terms), style)


def render_xpoly(x: XPolynomial) -> str:
    return _render_xpoly(x, _TEXT)


def render_xpoly_latex(x: XPolynomial) -> str:
    return _render_xpoly(x, _LATEX)


def xpoly_to_json(x: XPolynomial) -> str:
    payload = {
        "terms": [
            {"coeff": str(coeff), "monomial": list(p)}
            for p, coeff in x.terms
        ]
    }
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# polynomials and rational functions in z (text only)

def format_polynomial(poly: Polynomial) -> str:
    """Low-to-high text form: 'c_0 + c_1*z + ...' with zero terms omitted."""
    return _join(
        ((c, [_TEXT.power("z", k)] if k else []) for k, c in poly.monomials()),
        _TEXT,
    )


def format_function(f: RationalFunction) -> str:
    return f"({format_polynomial(f.numerator)}) / ({format_polynomial(f.denominator)})"


# ---------------------------------------------------------------------------
# profiles and partitions

def format_profile(p: Profile) -> str:
    return "{" + ",".join(str(k) for k in p) + "}"


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
    return "[" + ",".join(str(r) for r in lam) + "]"


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
            return parser.parse_coefficient(signed=True)

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
