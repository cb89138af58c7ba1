"""The grammar against its test-only reference, ``grammar_reference``.

Every parser must return an equal value, or raise a ``ParseError`` with the
same reason and position, on the CLI corpus, the benchmark texts, literals of
every kind, mutated renders and the edges of ``parse_class``'s fast path.
The one intended difference: the reference lets ``int()`` of an overlong
``a_m`` escape as ``ValueError``, where the grammar reports ``integer literal
too long`` at the digits.  Every renderer
must give the same text, LaTeX and JSON on random expressions.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import grammar_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass import classes, grammar
from singclass.classes import BASIC, SINGULARITY, ClassExpr, product_expansion, psi_power_sing
from singclass.cycles import CycleExpr, XPolynomial, completed_cycle, x_polynomial
from singclass.errors import ParseError, SingclassError
from singclass.local_models import Polynomial, RationalFunction
from singclass.trees import enumerate_trees

HERE = Path(__file__).resolve().parent
CORPUS = json.loads((HERE / "cli_corpus.json").read_text())
EXPECTED = json.loads((HERE.parent / "perfbench" / "data" / "expected.json").read_text())

# every reader of text, with its arguments after the text
PARSERS = [
    ("parse_class", ()),
    ("parse_class", (BASIC,)),
    ("parse_cycles", ()),
    ("parse_tree", ()),
    ("parse_orders", ()),
    ("parse_profile", ()),
    ("parse_partition", ()),
    ("parse_exponents", ()),
    ("parse_rational_value", ("x value",)),
    ("parse_rational_list", ("pole list",)),
]


def _outcome(parse, text: str, args: tuple):
    try:
        return "value", parse(text, *args)
    except ParseError as exc:
        return "ParseError", exc.reason, exc.position
    except SingclassError as exc:
        return type(exc).__name__, str(exc)
    except ValueError as exc:
        return "ValueError", str(exc)


def _assert_agree(text: str):
    for name, args in PARSERS:
        old = _outcome(getattr(reference, name), text, args)
        new = _outcome(getattr(grammar, name), text, args)
        if old[0] == "ValueError":
            assert re.search(r"a_\d{4000}", text), (name, text[:80], old)
            assert new[:2] == ("ParseError", "integer literal too long"), (name, text[:80])
        else:
            assert new == old, (name, text[:200])


def _corpus_texts() -> list[str]:
    texts = {arg for case in CORPUS for arg in case["argv"]}
    texts |= {line for case in CORPUS for line in case["stdout"].splitlines()}
    return sorted(texts)


_CORPUS_TEXTS = _corpus_texts()


def _benchmark_texts() -> list[str]:
    texts = [t["text"] for t in EXPECTED["class_texts"]]
    texts += [field for row in EXPECTED["golden_rows"] for field in row["fields"]]
    return texts


@pytest.mark.parametrize("text", _CORPUS_TEXTS, ids=[repr(t)[:40] for t in _CORPUS_TEXTS])
def test_the_cli_corpus_reads_the_same(text):
    _assert_agree(text)


def test_the_benchmark_texts_read_the_same():
    for text in _benchmark_texts():
        _assert_agree(text)


LITERALS = [
    "", " ", "{}", "[]", "{ }", "{1,2,2}", "2,1,2", " { 1 , 2 } ", "\t{+1,02}\n",
    "{1,,2}", "{1,2", "{1,2}}", "[1,2]", "{1_0}", "{-1}", "{0,1}", "[2,-1]", "[-1,+2]",
    "1 2", "- 1", "-1", "+ 1", "1,-", "1,- ", "1,-x", "--1", "+-1", "[3,1,1]", "1,3,1",
    "1/2", "-1/2", "+3/4", "1 /2", "1/ 2", "1 / 2", "1/", "1/ ", "1/x", "1/-2", "1/0",
    "1/00", "0/5", "-0", "1/2/3", "1/2,", "1/2,-3", "1.5", "1e3", "1_0", "7 ", " 7",
    "(0;1,2)", "(0;(0;0,0),0,0)", "(0;1)", "(0 1,2)", "(0;1,2", "(0;1,2))", "( 0 ; 1 , 2 )",
    "a_1", "a_", "a_ 1", "a _1", "xa_1", "a_1_2", "i[1,1]", "d[0,0]", "psi^2*d[0,1]",
    "T{(0;1,2)}@sing", "T{(0;1,2)} @ basic", "T{(0;1)}@sing", "T{1}@sing", "T{(0;1,2)}@x",
    "T{(0;1,2)}", "T{(0;1,2)@sing", "C[2,1]", "C[0]", "C[]", "C[2]*C[1]", "C[-1]",
    "i[1]*a_2", "psi*a_2", "a_2*psi", "psi*T{2}@sing", "psi*T{2}@basic", "xi^", "xi^x",
    "i[0,1]", "d[1]", "i[1,1] + d[0,0]", "a_1 + a_2", "xi*a_1 + a_2", "0", " 0 ", "-0",
    "a_0", "2*3/4*a_1*5", "a_1 a_2", "a_1 +", "+ a_1", "- a_1", "--a_1", "a_1 - - a_2",
    "٣", "a_٣", "{١,٢}", "1/٣", "²", "a_1²", "é",
    "psi^" + "9" * 5000, "a_" + "9" * 5000, "T{" + "9" * 5000 + "}@sing",
    "{" + "1" * 5000 + "}", "1/" + "3" * 5000, "-" + "3" * 5000 + "/2",
    "T{" + "(0;" * 101 + "0,0" + ",0)" * 101 + "}@sing",
]


@pytest.mark.parametrize("text", LITERALS, ids=[repr(t)[:40] for t in LITERALS])
def test_literals_read_the_same(text):
    _assert_agree(text)


# the errors of the i[...] and d[...] atoms, spaced or not, as (reason,
# position); the two 5 000-digit literals are too long for int()
ATOM_ERRORS = [
    ("i[1]", ("i[...] needs at least two ramification orders >= 1", 0)),
    ("d[4]", ("d[...] needs at least two exponents", 0)),
    ("i[0,2]", ("i[...] needs at least two ramification orders >= 1", 0)),
    ("i[1,2", ("expected ',' or ']'", 5)),
    ("i[1,,2]", ("expected an integer", 4)),
    ("i[1,2]*d[1,1]", ("a term may contain at most one class atom", 7)),
    ("psi*a_2", ("psi * a_m is not a class atom", 4)),
    ("xi*i[1," + "7" * 5000 + "]", ("integer literal too long", 7)),
    ("d[" + "9" * 5000 + ",1]", ("integer literal too long", 2)),
]


@pytest.mark.parametrize("text, error", ATOM_ERRORS, ids=[t[:20] for t, _ in ATOM_ERRORS])
def test_atom_errors_keep_their_reason_and_position(text, error):
    for parse in (grammar.parse_class, reference.parse_class):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert (info.value.reason, info.value.position) == error
    _assert_agree(text)


_RENDERS = sorted(
    {grammar.render_class(psi_power_sing(m)) for m in range(2, 8)}
    | {grammar.render_class(product_expansion(m)) for m in range(2, 8)}
    | {grammar.render_class(classes.sing_to_basic(product_expansion(m))) for m in range(2, 6)}
)
_ATOM = re.compile(r"[id]\[[^\]]*\]")


@st.composite
def spaced_atoms(draw):
    """A rendered expansion, and the same text with whitespace drawn into
    some of its i[...] and d[...] atoms, where it breaks the term pattern
    ``_TERM``, so the token parser reads the text."""
    text = draw(st.sampled_from(_RENDERS))
    blanks = st.sampled_from(["", "", " ", "  ", "\t", "\n"])

    def spaced(match: re.Match) -> str:
        if not draw(st.booleans()):
            return match.group()
        pieces = re.findall(r"\d+|.", match.group())
        return "".join(piece + draw(blanks) for piece in pieces[:-1]) + pieces[-1]

    return text, _ATOM.sub(spaced, text)


@settings(max_examples=60, deadline=None)
@given(spaced_atoms())
def test_whitespace_inside_atoms_reads_the_same(texts):
    plain, spaced = texts
    assert grammar.parse_class(spaced) == grammar.parse_class(plain)
    _assert_agree(spaced)


# texts at the edges of parse_class's fast path, each with whether the path
# (_rendered_terms) reads it: every other text, and every term the path
# cannot resolve, goes to _Parser, and both paths' terms meet the same
# mixed-basis and degree checks
_RENDER = grammar.render_class(product_expansion(3))
FAST_PATH_EDGES = [
    (" + xi", False), ("+a_1", False), ("1/0*a_1", False), ("psi*a_2", False),
    ("i[1]", False), ("d[3]", False), ("a_1 + d[1,1]", True), ("a_1 + a_2", True),
    ("1/2 *a_1", False), ("2*3*a_1", False), ("a_1*a_2", False), ("xi^0*a_2", True),
    ("-0*a_3", True), (_RENDER, True), (_RENDER.replace(" + ", "\t+ ", 1), False),
    (_RENDER + " ", False), ("9" * 5000 + "*a_1", False), ("1/" + "3" * 5000 + "*a_1", False),
    ("xi^" + "9" * 5000 + "*a_1", False), ("psi^" + "9" * 5000 + "*d[0,1]", False),
    ("i[1," + "7" * 5000 + "]", False),
]


@pytest.mark.parametrize("text, fast", FAST_PATH_EDGES, ids=[repr(t)[:30] for t, _ in FAST_PATH_EDGES])
def test_the_fast_path_edges_read_as_the_reference_reads_them(text, fast):
    assert (grammar._rendered_terms(text) is not None) == fast
    for basis in (SINGULARITY, BASIC):
        new = _outcome(grammar.parse_class, text, (basis,))
        old = _outcome(reference.parse_class, text, (basis,))
        assert new == old
        if new[0] == "value":
            assert new[1].basis == old[1].basis
    _assert_agree(text)


def test_every_benchmark_class_text_takes_the_fast_path():
    texts = [t["text"] for t in EXPECTED["class_texts"]]
    texts += [
        field for row in EXPECTED["golden_rows"]
        for field, basis in zip(row["fields"], row["bases"]) if basis != "cycle"
    ]
    assert len(texts) == 116
    assert [t for t in texts if grammar._rendered_terms(t) is None] == []


def test_an_overlong_a_literal_is_a_parse_error_at_its_digits():
    with pytest.raises(ParseError) as info:
        grammar.parse_class("xi + a_" + "9" * 5000)
    assert (info.value.reason, info.value.position) == ("integer literal too long", 7)


# mutated renders: start from a rendered expression or literal and drop,
# duplicate or swap tokens, insert spaces, and move signs and slashes
_PIECES = re.compile(r"\s+|a_\d+|\d+|[A-Za-z]+|.", re.DOTALL)
_SEEDS = sorted(
    {grammar.render_class(psi_power_sing(m)) for m in range(5)}
    | {grammar.render_class(product_expansion(m)) for m in range(1, 5)}
    | {grammar.render_cycles(completed_cycle(m)) for m in range(4)}
    | {
        "1/4*T{(0;(0;0,0),0,0)}@sing - 3/2*xi^2*i[1,2]",
        "-2*psi^2*d[0,1] + 1/3*xi*T{(1;0,0,1)}@basic",
        "{1,2,2}", "[3,1,1]", "[-1,+2]", "1/2,-3,+4/5", "(0;(1;0,0),2)",
    }
)
_EXTRA = [" ", "  ", "-", "+", "/", "*", "^", ",", ";", "(", ")", "[", "]", "{", "}",
          "@", "_", ".", "0", "1", "12", "a_", "xi", "T"]


@st.composite
def mutated_texts(draw):
    pieces = _PIECES.findall(draw(st.sampled_from(_SEEDS)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        i = draw(st.integers(min_value=0, max_value=len(pieces)))
        step = draw(st.sampled_from(["drop", "duplicate", "swap", "space", "insert", "move"]))
        if step == "insert":
            pieces.insert(i, draw(st.sampled_from(_EXTRA)))
        elif step == "space":
            pieces.insert(i, draw(st.sampled_from([" ", "\t", "\n"])))
        elif pieces and i < len(pieces):
            if step == "drop":
                del pieces[i]
            elif step == "duplicate":
                pieces.insert(i, pieces[i])
            elif step == "swap":
                j = draw(st.integers(min_value=0, max_value=len(pieces) - 1))
                pieces[i], pieces[j] = pieces[j], pieces[i]
            else:  # move a sign or a slash somewhere else
                marks = [k for k, p in enumerate(pieces) if p in ("+", "-", "/")]
                if marks:
                    mark = pieces.pop(draw(st.sampled_from(marks)))
                    pieces.insert(min(i, len(pieces)), mark)
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(mutated_texts())
def test_mutated_renders_read_the_same(text):
    _assert_agree(text)


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="0123456789 -+/,{}[]()a_;.", max_size=14))
def test_short_literal_strings_read_the_same(text):
    _assert_agree(text)


# renderers on random values
_COEFFS = st.one_of(
    st.integers(min_value=-30, max_value=30),
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
).map(Fraction)
_TREES = enumerate_trees(6)


@st.composite
def class_exprs(draw):
    """Random sums over the trees of codim <= 6, with xi powers, in either
    basis; zero coefficients drop out, so the zero expression occurs too."""
    basis = draw(st.sampled_from([SINGULARITY, BASIC]))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        return ClassExpr.unit(basis)
    total = draw(st.integers(min_value=0, max_value=9))
    pool = [t for t in _TREES if t.codim <= total]
    picks = draw(st.lists(st.sampled_from(pool), max_size=7, unique=True))
    return ClassExpr(basis, total, [(t, draw(_COEFFS)) for t in picks])


_PROFILES = st.lists(st.integers(min_value=1, max_value=7), max_size=5).map(
    lambda parts: tuple(sorted(parts))
)


@settings(max_examples=120, deadline=None)
@given(class_exprs())
def test_class_renders_are_unchanged(e):
    for name in ("render_class", "render_class_latex", "class_to_json"):
        assert getattr(grammar, name)(e) == getattr(reference, name)(e), name


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_PROFILES, _COEFFS), max_size=6))
def test_cycle_and_x_polynomial_renders_are_unchanged(pairs):
    values = ((CycleExpr(pairs), "cycles"), (XPolynomial(pairs), "xpoly"))
    for value, kind in values:
        for name in (f"render_{kind}", f"render_{kind}_latex", f"{kind}_to_json"):
            assert getattr(grammar, name)(value) == getattr(reference, name)(value), name


@settings(max_examples=60, deadline=None)
@given(st.lists(_COEFFS, max_size=6), st.lists(_COEFFS, min_size=1, max_size=4).filter(any))
def test_polynomial_texts_are_unchanged(numerator, denominator):
    f = RationalFunction(Polynomial(numerator), Polynomial(denominator))
    assert grammar.format_function(f) == reference.format_function(f)


def test_engine_outputs_render_the_same():
    classes = [psi_power_sing(m) for m in range(8)] + [product_expansion(m) for m in range(1, 8)]
    cycles = [completed_cycle(m) for m in range(7)]
    xpolys = [x_polynomial(m) for m in range(7)]
    for values, kind in ((classes, "class"), (cycles, "cycles"), (xpolys, "xpoly")):
        for name in (f"render_{kind}", f"render_{kind}_latex", f"{kind}_to_json"):
            for value in values:
                assert getattr(grammar, name)(value) == getattr(reference, name)(value), name
