"""Concrete text grammar: parsing and rendering of class expressions,
cycle expressions, x-polynomials, tree literals, profiles, partitions and
exponent lists, with LaTeX and JSON emitters, and the text form of
polynomials and rational functions in z.  One token parser reads them all.

Class-expression atoms: ``a_m``, ``i[k1,...,kl]``, ``d[m1,...,ms]``, ``psi``,
``xi``, ``T{tree}@sing`` / ``T{tree}@basic``; terms are joined by ``+``/``-``,
factors by ``*``, exponents by ``^``, coefficients are rationals ``p/q``.

``parse_class`` reads a text spelled as ``render_class`` spells it one term
per pattern match, and hands any other text to the token parser, which
gives every error its reason and position; no memo is keyed on a text.  The
three class renderers share one display order, sorted once per expression.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd, lcm

from .classes import BASIC, SINGULARITY, ClassExpr, _basis, _canonical_form
from .combinatorics import CycleExpr, Partition, Profile, XPolynomial, make_partition, make_profile
from .errors import ConstraintError, ParseError, Record, _operand
from .trees import MarkedTree, encoding, star, stick

__all__ = [
    "render_class",
    "render_class_latex",
    "class_to_json",
    "parse_class",
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
    "parse_tree",
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
    SINGULARITY: "sing", BASIC: "basic",
})
_LATEX = _Style("\\frac{{{}}}{{{}}}", " ", {
    "^": "{}^{{{}}}", "xi": "\\xi", "psi": "\\psi", "a": "a_{{{}}}",
    "x": "x_{{{}}}", "i": "i_{{{}}}", "d": "\\delta_{{{}}}", "C": "C_{{{}}}",
    "tree": "\\left[{}\\right]_{{{}}}",
    SINGULARITY: "\\mathrm{sing}", BASIC: "\\mathrm{basic}",
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


def _display_order(e: ClassExpr) -> tuple[tuple[MarkedTree, int, int, int], ...]:
    """(tree, xi power, numerator, denominator) for each term of e, the
    coefficient reduced from the stored integer form, in display order:
    ascending xi power, then descending tree weight, then encoding (the
    stored order, which the stable sort keeps).  Sorted once per expression:
    the first call stores the tuple in e's ``_order`` slot, and every class
    renderer reads it from there."""
    try:
        return e._order
    except AttributeError:
        (den, terms), degree = _operand(e, ClassExpr, "a class renderer")._form, e.degree
    out = []
    for t, n in terms:
        g = gcd(n, den)
        out.append((t, degree - t.codim, n // g, den // g))
    out.sort(key=lambda m: (m[1], -m[0].weight))
    order = tuple(out)
    object.__setattr__(e, "_order", order)
    return order


@lru_cache(maxsize=None)
def _class_atom(t: MarkedTree, basis: str, latex: bool) -> tuple[str, ...]:
    """The factors naming a tree in the LaTeX or the text style: none for the
    unit, one for a stick, a tree literal or a star, plus a psi power for a
    star's marked vertex.  Memoised: trees are interned, and the flag stands
    for the style, whose dict of templates cannot be hashed."""
    style = _LATEX if latex else _TEXT
    if not t.children:
        if t.marking == 0:
            return ()
        if basis == SINGULARITY:
            return (style.atom("a", t.marking),)
        return (style.power("psi", t.marking),)
    marks = []
    for c in t.children:
        if c.children:
            return (style.atom("tree", encoding(t), style.spell[basis]),)
        marks.append(c.marking)
    marks.sort()
    if basis == SINGULARITY:
        star_atom = style.atom("i", ",".join([str(m + 1) for m in marks]))
    else:
        star_atom = style.atom("d", ",".join(map(str, marks)))
    if t.marking == 0:
        return (star_atom,)
    return (style.power("psi", t.marking), star_atom)


def _render_class(e: ClassExpr, style: _Style) -> str:
    order = _display_order(e)  # first, since it refuses a value that is no ClassExpr
    basis, latex = e.basis, style is _LATEX
    xi = {0: ()}  # the xi factor of each power, spelled once per render
    terms = []
    for t, q, n, d in order:
        factor = xi.get(q)
        if factor is None:
            factor = xi[q] = (style.power("xi", q),)
        terms.append((n, d, factor + _class_atom(t, basis, latex)))
    return _join(terms, style)


def render_class(e: ClassExpr) -> str:
    return _render_class(e, _TEXT)


def render_class_latex(e: ClassExpr) -> str:
    return _render_class(e, _LATEX)


# JSON: the layout of json.dumps(payload, indent=2), written directly, since
# with an indent the stdlib cannot use its C encoder.  Every string goes
# through the stdlib's own escaper.

def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of written items, one per line, closed at ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def class_to_json(e: ClassExpr) -> str:
    terms = [
        f'{{\n      "coeff": "{n if d == 1 else f"{n}/{d}"}",\n      "xi_power": {q},\n'
        f'      "tree": {_json_str(encoding(t))}\n    }}'
        for t, q, n, d in _display_order(e)
    ]
    codim = "null" if e.degree is None else e.degree
    return (
        f'{{\n  "basis": {_json_str(e.basis)},\n  "codim": {codim},\n'
        f'  "terms": {_json_list(terms, "  ")}\n}}'
    )


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


# Deepest nesting a tree literal may have: each level adds at least 2 to the
# codim, so no expandable tree comes near it, and deep input cannot exhaust
# the stack.
_MAX_TREE_DEPTH = 100


class _Parser:
    """Reads ``expr := ['-'] term (('+'|'-') term)*`` with
    ``term := factor ('*' factor)*`` over the token strings; rational literals
    ``p`` and ``p/q``, tree literals and integer lists are shared, every other
    factor is the caller's.

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

    def parse_tree(self, depth: int = 0) -> MarkedTree:
        """``TREE := INT | '(' INT ';' TREE (',' TREE)+ ')'``; a bare integer is
        the stick with that marking."""
        if not self.accept_op("("):
            return stick(self.parse_int("an integer"))
        start = self.index - 1
        if depth == _MAX_TREE_DEPTH:
            raise self.error(f"tree nested deeper than {_MAX_TREE_DEPTH} levels", start)
        marking = self.parse_int("an integer")
        if not self.accept_op(";"):
            raise self.error("expected ';' after vertex marking")
        children = [self.parse_tree(depth + 1)]
        while self.accept_op(","):
            children.append(self.parse_tree(depth + 1))
        self.expect_op(")")
        if len(children) < 2:
            raise self.error("internal vertex needs at least two children", start)
        return MarkedTree(marking, tuple(children))

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


def parse_tree(text: str) -> MarkedTree:
    """Parse a tree literal (see ``_Parser.parse_tree``); whitespace is
    insignificant, and nesting deeper than 100 levels is refused."""
    parser = _Parser(text)
    t = parser.parse_tree()
    parser.expect_end("tree")
    return t


def _class_factor(parser: _Parser):
    """One non-rational factor of a class term as (kind, payload, token index)."""
    index = parser.index
    token = parser.tokens[index]
    parser.index += 1
    if token == "xi" or token == "psi":
        return token, parser.parse_int("an integer exponent") if parser.accept_op("^") else 1, index
    if token == "a_":
        return "a", parser.parse_int("an integer"), index
    if token == "i" or token == "d":
        parser.expect_op("[")
        return token, tuple(parser.parse_int_list()), index
    if token == "T":
        parser.expect_op("{")
        try:
            parsed = parser.parse_tree()
            parser.expect_op("}")
        except ParseError as exc:
            raise ParseError(f"bad tree literal: {exc.reason}", exc.position) from None
        if not parser.accept_op("@"):
            raise parser.error("tree atom needs a basis tag @sing or @basic")
        tag = parser.tokens[parser.index]
        parser.index += 1
        if tag != "sing" and tag != "basic":
            raise parser.error("basis tag must be sing or basic", parser.index - 1)
        return "tree", (parsed, SINGULARITY if tag == "sing" else BASIC), index
    raise parser.error("expected a factor", index)


@lru_cache(maxsize=None)
def _star_atom(kind: str, payload: tuple[int, ...], psi_power: int) -> MarkedTree:
    """The star that ``psi^psi_power * i[payload]`` (kind "i") or
    ``* d[payload]`` (kind "d") names; a payload that names no atom raises a
    ParseError with no position, and nothing is stored for it."""
    if kind == "i":
        if len(payload) < 2 or any(k < 1 for k in payload):
            raise ParseError("i[...] needs at least two ramification orders >= 1")
        return star(psi_power, [k - 1 for k in payload])
    if len(payload) < 2:
        raise ParseError("d[...] needs at least two exponents")
    return star(psi_power, payload)


def _class_term(parser: _Parser, factors) -> tuple[MarkedTree, int, str | None]:
    """Resolve a term's factors to (tree, xi power, basis constraint).  This
    runs once the whole text is read, so a syntax error anywhere is reported
    before a term's other faults."""
    xi_degree = psi_power = 0
    atom = None
    for kind, payload, index in factors:
        if kind == "xi":
            xi_degree += payload
        elif kind == "psi":
            psi_power += payload
        elif atom is None:
            atom = kind, payload, index
        else:
            raise parser.error("a term may contain at most one class atom", index)
    if atom is None:  # psi powers alone are basic-basis classes
        return stick(psi_power), xi_degree, BASIC if psi_power > 0 else None
    kind, payload, index = atom
    if kind == "i" or kind == "d":
        try:
            t = _star_atom(kind, payload, psi_power)
        except ParseError as exc:
            raise parser.error(exc.reason, index) from None
        return t, xi_degree, SINGULARITY if kind == "i" else BASIC
    if kind == "a":
        if psi_power:
            raise parser.error("psi * a_m is not a class atom", index)
        return stick(payload), xi_degree, SINGULARITY if payload > 0 else None
    parsed, tag = payload
    if psi_power:
        if not parsed.children and tag == SINGULARITY:
            raise parser.error("psi * a_m is not a class atom", index)
        parsed = MarkedTree(parsed.marking + psi_power, parsed.children)
    return parsed, xi_degree, tag


# One term of a class expression as render_class spells it: its sign ("-"
# or none at the start of the text, " - " or " + " right after a term), then,
# each optional and in this order, a coefficient p or p/q, a power of xi, a
# power of psi, and an a_m, i[...] or d[...] atom, joined by "*".  Each
# factor is followed by "*" or a word boundary, so no two factors touch, and
# the term ends in a digit, "i" or "]" (so it is not empty and has no
# trailing "*") right before the next sign or the end of the text.  A string,
# which re compiles on the first parse_class call and caches: no import pays.
_TERM = (
    r"((?:\A(-?)|(?<=[0-9i\]]) ([-+]) )"
    r"(?:([0-9]+)(?:/([0-9]+))?(?:\*|\b))?"
    r"(?:(xi(?:\^[0-9]+)?)(?:\*|\b))?"
    r"(?:(psi(?:\^[0-9]+)?)(?:\*|\b))?"
    r"(?:a_([0-9]+)|([id]\[[0-9]+(?:,[0-9]+)*\]))?"
    r"(?<=[0-9i\]])(?= [-+] |\Z))"
)


@lru_cache(maxsize=None)
def _atom_ints(token: str) -> tuple[int, ...]:
    """The integers of an ``i[...]`` or ``d[...]`` atom that ``_TERM`` matched,
    such as ``i[1,2,2]``."""
    return tuple(map(int, token[2:-1].split(",")))


def _rendered_terms(text: str) -> list[tuple[int, int, MarkedTree, int, str | None]] | None:
    """The terms of ``text`` as (numerator, denominator, tree, xi power,
    basis constraint), the coefficient unreduced, when every term is spelled
    as render_class spells it: one match of ``_TERM`` per term, the matches
    tiling the text.  None for any other text, and for a term that
    ``_Parser`` refuses or reads otherwise: a zero denominator, psi times
    a_m, an atom payload that names no atom, or a literal too long for
    ``int()``."""
    terms, covered = [], 0
    try:
        for term, minus, sign, p, q, xi, psi, a, atom in re.findall(_TERM, text):
            covered += len(term)
            n = int(p) if p else 1
            if minus or sign == "-":
                n = -n
            d = int(q) if q else 1
            if d == 0:
                return None
            psi_power = (int(psi[4:]) if len(psi) > 3 else 1) if psi else 0
            if atom:
                t = _star_atom(atom[0], _atom_ints(atom), psi_power)
                constraint = SINGULARITY if atom[0] == "i" else BASIC
            elif a:
                if psi:
                    return None
                t = stick(int(a))
                constraint = SINGULARITY if t.marking > 0 else None
            else:
                t, constraint = stick(psi_power), BASIC if psi_power > 0 else None
            terms.append((n, d, t, (int(xi[3:]) if len(xi) > 2 else 1) if xi else 0, constraint))
    except (ParseError, ValueError):
        return None
    # non-overlapping matches that add up to the text's length tile it
    return terms if terms and covered == len(text) else None


def _class_sum(terms, default_basis: str) -> ClassExpr:
    """The expression that the (numerator, denominator, tree, xi power,
    basis constraint) terms add up to, over the lcm of the denominators;
    its basis is the one the constraints name, else ``default_basis``."""
    numerators, denominators, trees, xi_powers, constraints = zip(*terms)
    constraints = set(constraints) - {None}
    if len(constraints) > 1:
        raise ParseError("expression mixes singularity-basis and basic-basis atoms")
    basis = constraints.pop() if constraints else default_basis
    den = lcm(*denominators)  # every coefficient as a numerator over den
    if den > 1:
        numerators = [n * (den // d) for n, d in zip(numerators, denominators)]
    # the only place that reads per-term xi powers: the monomials that survive
    # summing must share one total degree, which the expression then stores;
    # when every term has one degree, summing need not be done here to know it
    degrees = {t.codim + q for t, q in zip(trees, xi_powers)}
    if len(degrees) > 1:
        acc: dict[tuple[MarkedTree, int], int] = {}
        for key, n in zip(zip(trees, xi_powers), numerators):
            acc[key] = acc.get(key, 0) + n
        degrees = {t.codim + q for (t, q), n in acc.items() if n and not t.vanishing}
        if len(degrees) > 1:
            raise ParseError(f"inhomogeneous class expression: total degrees {sorted(degrees)}")
    degree = degrees.pop() if degrees else None
    # _canonical_form sums by tree: the trees that survive have one xi power
    # each, and zero sums and vanishing trees drop out
    return ClassExpr._make(basis, degree, _canonical_form(degree, (den, list(zip(trees, numerators)))))


def parse_class(text: str, default_basis: str = SINGULARITY) -> ClassExpr:
    """Parse a class expression; the basis is inferred from the atoms.

    ``i[...]`` and ``T{...}@sing`` force the singularity basis; ``d[...]``,
    bare psi powers and ``T{...}@basic`` force the basic one.  Mixing the two
    is an error, and expressions built only from rationals, xi powers and
    ``a_0`` fall back to ``default_basis``.

    A text spelled as render_class spells it is read a term at a time
    (``_rendered_terms``); any other text goes through ``_Parser``, token by
    token, which reports every syntax error.
    """
    default_basis = _basis(default_basis)
    terms = _rendered_terms(text) if text.__class__ is str else None
    if terms is None:
        parser = _Parser(text)
        terms = [
            (n, d, *_class_term(parser, factors))
            for n, d, factors in parser.parse_sum(_class_factor)
        ]
    return _class_sum(terms, default_basis)


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
        f'{{\n      "coeff": {_json_str(str(c))},\n'
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
