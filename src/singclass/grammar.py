"""Class-expression text: the parser and the text, LaTeX and JSON renderers
of class expressions, and tree literals, built on the token parser and the
signed-term joiner of ``notation``.

Class-expression atoms: ``a_m``, ``i[k1,...,kl]``, ``d[m1,...,ms]``, ``psi``,
``xi``, ``T{tree}@sing`` / ``T{tree}@basic``; terms are joined by ``+``/``-``,
factors by ``*``, exponents by ``^``, coefficients are rationals ``p/q``.

``parse_class`` reads a text spelled as ``render_class`` spells it one term
per pattern match, and hands any other text to the token parser, which
gives every error its reason and position; no memo is keyed on a text.  The
three class renderers share one display order, sorted once per expression.

The public names of ``notation`` (cycle expressions, x-polynomials,
profiles, partitions, rationals, polynomials in z) are re-exported, so
``grammar`` names every parser and renderer.  Code that writes or reads no
class text imports ``notation`` instead and compiles nothing of the class
side.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd, lcm

from .classes import BASIC, SINGULARITY, ClassExpr, _basis, _canonical_form
from .errors import ParseError, _operand
from .notation import (
    _LATEX,
    _TEXT,
    _join,
    _json_list,
    _json_str,
    _Parser,
    _Style,
    cycles_to_json,
    format_function,
    format_partition,
    format_polynomial,
    format_profile,
    parse_cycles,
    parse_exponents,
    parse_orders,
    parse_partition,
    parse_profile,
    parse_rational_list,
    parse_rational_value,
    render_cycles,
    render_cycles_latex,
    render_xpoly,
    render_xpoly_latex,
    xpoly_to_json,
)
from .trees import MarkedTree, _encoding, star, stick

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
# rendering

# the basis tag of a tree atom, in the text and in the LaTeX style
_TAGS = {
    (SINGULARITY, False): "sing", (BASIC, False): "basic",
    (SINGULARITY, True): "\\mathrm{sing}", (BASIC, True): "\\mathrm{basic}",
}


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
            return (style.atom("tree", _encoding(t), _TAGS[basis, latex]),)
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


def class_to_json(e: ClassExpr) -> str:
    terms = [
        f'{{\n      "coeff": "{n if d == 1 else f"{n}/{d}"}",\n      "xi_power": {q},\n'
        f'      "tree": "{_encoding(t)}"\n    }}'
        for t, q, n, d in _display_order(e)
    ]
    codim = "null" if e.degree is None else e.degree
    return (
        f'{{\n  "basis": {_json_str(e.basis)},\n  "codim": {codim},\n'
        f'  "terms": {_json_list(terms, "  ")}\n}}'
    )


# ---------------------------------------------------------------------------
# parsing: tree literals and class terms over notation's token parser

# Deepest nesting a tree literal may have: each level adds at least 2 to the
# codim, so no expandable tree comes near it, and deep input cannot exhaust
# the stack.
_MAX_TREE_DEPTH = 100


def _read_tree(parser: _Parser, depth: int = 0) -> MarkedTree:
    """``TREE := INT | '(' INT ';' TREE (',' TREE)+ ')'`` at the parser's next
    token; a bare integer is the stick with that marking."""
    if not parser.accept_op("("):
        return stick(parser.parse_int("an integer"))
    start = parser.index - 1
    if depth == _MAX_TREE_DEPTH:
        raise parser.error(f"tree nested deeper than {_MAX_TREE_DEPTH} levels", start)
    marking = parser.parse_int("an integer")
    if not parser.accept_op(";"):
        raise parser.error("expected ';' after vertex marking")
    children = [_read_tree(parser, depth + 1)]
    while parser.accept_op(","):
        children.append(_read_tree(parser, depth + 1))
    parser.expect_op(")")
    if len(children) < 2:
        raise parser.error("internal vertex needs at least two children", start)
    return MarkedTree(marking, tuple(children))


def parse_tree(text: str) -> MarkedTree:
    """Parse a tree literal (see ``_read_tree``); whitespace is
    insignificant, and nesting deeper than 100 levels is refused."""
    parser = _Parser(text)
    t = _read_tree(parser)
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
            parsed = _read_tree(parser)
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
    # each, and zero sums and vanishing trees drop out; a sum with no term
    # left has degree None
    form = _canonical_form(degree, (den, list(zip(trees, numerators))))
    return ClassExpr._make(basis, degree if form[1] else None, form)


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
