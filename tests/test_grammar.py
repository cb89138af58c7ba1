"""Expression grammar: parsing, rendering, LaTeX and JSON emission."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from grammar_reference import ordered_monomials
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass.classes import (
    BASIC,
    SINGULARITY,
    ClassExpr,
    basic_to_sing,
    psi_power_sing,
)
from singclass.cycles import CycleExpr, XPolynomial, completed_cycle
from singclass import grammar, notation
from singclass.errors import ConstraintError, ParseError
from singclass.grammar import class_to_json, parse_class, parse_tree, render_class, render_class_latex
from singclass.notation import (
    cycles_to_json,
    format_partition,
    format_profile,
    parse_cycles,
    parse_exponents,
    parse_orders,
    parse_partition,
    parse_profile,
    parse_rational_value,
    render_cycles,
    render_cycles_latex,
    render_xpoly,
    xpoly_to_json,
)
from singclass.trees import MarkedTree, canonicalize, encoding, enumerate_trees, star, stick


class TestRenderClass:
    def test_psi_square_layout(self):
        assert render_class(psi_power_sing(2)) == (
            "1/2*a_2 + 1/4*i[1,1] + 3/2*xi*a_1 + xi^2"
        )

    def test_negative_terms(self):
        from singclass.classes import product_expansion

        assert render_class(product_expansion(3)) == (
            "a_3 + 2*i[1,2] + 1/6*i[1,1,1] - 1/2*xi*i[1,1]"
        )

    def test_unit_and_zero(self):
        assert render_class(ClassExpr.unit(SINGULARITY)) == "1"
        assert render_class(ClassExpr.zero(BASIC)) == "0"

    def test_nested_trees_render_in_the_tree_grammar(self):
        e = parse_class("1/4*T{(0;0,0,(0;0,0))}@sing")
        assert render_class(e) == "1/4*T{(0;(0;0,0),0,0)}@sing"


class TestParseClass:
    def test_round_trip_on_engine_output(self):
        for m in range(0, 6):
            e = psi_power_sing(m)
            assert parse_class(render_class(e)) == e

    def test_randomized_round_trip(self):
        rng = random.Random(1234)
        trees_pool = enumerate_trees(5)
        for _ in range(40):
            total = rng.randint(0, 6)
            basis = rng.choice([SINGULARITY, BASIC])
            picks = [t for t in trees_pool if t.codim <= total]
            mapping = {}
            for t in rng.sample(picks, min(len(picks), rng.randint(1, 5))):
                coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if coeff == 0:
                    continue
                mapping[t] = coeff
            e = ClassExpr(basis, total, mapping.items())
            if e.is_zero():
                continue
            assert parse_class(render_class(e), default_basis=basis) == e

    def test_spec_sample_expression(self):
        e = parse_class("i[1,2] + xi*i[1,1]")
        assert e == basic_to_sing(parse_class("d[0,1]", default_basis=BASIC))

    def test_unit_atom(self):
        assert parse_class("a_0") == ClassExpr.unit(SINGULARITY)
        assert parse_class("1", default_basis=BASIC) == ClassExpr.unit(BASIC)

    def test_tree_atom_in_basic_basis(self):
        e = parse_class("T{(0;1,2)}@basic")
        assert e == ClassExpr.single(BASIC, MarkedTree(0, [stick(1), stick(2)]))
        assert e.basis == BASIC

    def test_unordered_index_lists_are_sorted(self):
        assert parse_class("i[2,1]") == parse_class("i[1,2]")

    def test_psi_prefix_sets_the_internal_marking(self):
        assert parse_class("psi*i[1,1,1]") == ClassExpr.single(
            SINGULARITY, star(1, [0, 0, 0])
        )
        assert parse_class("psi^2*i[1,1,1,1]") == ClassExpr.single(
            SINGULARITY, star(2, [0, 0, 0, 0])
        )

    def test_standalone_psi_powers_are_basic_sticks(self):
        assert parse_class("psi^3") == ClassExpr.single(BASIC, stick(3))

    def test_vanishing_atoms_collapse_to_zero(self):
        assert parse_class("psi*i[1,1]").is_zero()

    def test_mixed_bases_are_rejected(self):
        with pytest.raises(ParseError):
            parse_class("i[1,1] + d[0,0]")
        with pytest.raises(ParseError):
            parse_class("psi + a_1")

    def test_inhomogeneous_sums_are_rejected(self):
        with pytest.raises(ParseError):
            parse_class("a_1 + a_2")

    def test_psi_times_stick_is_rejected(self):
        with pytest.raises(ParseError):
            parse_class("psi*a_2")

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(ParseError) as info:
            parse_class("i[1,2] + @")
        assert info.value.position is not None

    def test_bad_tree_literal_position_is_absolute(self):
        with pytest.raises(ParseError) as info:
            parse_class("T{(0;0,(0;0;0))}@sing")
        assert info.value.position == 11
        assert str(info.value) == "bad tree literal: expected ')' (at position 11)"
        text = "xi*a_1 + T{(0;0,1 x)}@sing"
        with pytest.raises(ParseError) as info:
            parse_class(text)
        assert text[info.value.position] == "x"

    @pytest.mark.parametrize("text", ["0", " 0 ", "-0", "0*xi", "0/3"])
    @pytest.mark.parametrize("basis", [SINGULARITY, BASIC])
    def test_zero_literal(self, text, basis):
        # the parser itself reads a zero: no spelling of it takes a shortcut
        assert parse_class(text, default_basis=basis) == ClassExpr.zero(basis)

    @pytest.mark.parametrize("text", ["xi", "1/2", "a_0", "0"])
    @pytest.mark.parametrize("basis", ["bogus", [], None])
    def test_the_default_basis_is_checked_for_every_text(self, text, basis):
        # "xi" once returned a ClassExpr of basis "bogus", and with [] one
        # whose hash raised TypeError; only "0" checked the basis
        with pytest.raises(ConstraintError, match="unknown basis"):
            parse_class(text, default_basis=basis)

    @pytest.mark.parametrize("parse", [parse_class, parse_cycles])
    def test_empty_input(self, parse):
        with pytest.raises(ParseError, match="empty expression") as info:
            parse("   ")
        assert info.value.position == 0


class TestCycleGrammar:
    def test_round_trip(self):
        for m in range(0, 5):
            e = completed_cycle(m)
            assert parse_cycles(render_cycles(e)) == e

    @pytest.mark.parametrize("text", ["0", " 0 ", "-0", "0*C[2]", "0/3*C[1,1]"])
    def test_zero_literal(self, text):
        assert parse_cycles(text) == CycleExpr.zero()

    def test_table_layout(self):
        assert render_cycles(completed_cycle(2)) == (
            "1/2*C[3] + 1/4*C[1,1] + 1/24*C[1]"
        )

    def test_identity_term(self):
        e = parse_cycles("1")
        assert e.coefficient(()) == 1
        assert render_cycles(e) == "1"

    def test_negative_coefficients(self):
        e = parse_cycles("C[2] - 1/2*C[1,1]")
        assert e.coefficient((1, 1)) == Fraction(-1, 2)

    @pytest.mark.parametrize("text", ["1/0*C[2]", "1/2*C[0]", "C[2]*C[3]", "C[2] +", "xi*C[2]"])
    def test_bad_cycle_literals_are_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_cycles(text)


_COEFFS = st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool)


@st.composite
def class_exprs(draw):
    """Random homogeneous sums over the trees of codim <= 6 in either basis,
    each tree carrying xi^(total - codim) with a nonzero rational coefficient."""
    basis = draw(st.sampled_from([SINGULARITY, BASIC]))
    total = draw(st.integers(min_value=0, max_value=8))
    pool = [t for t in enumerate_trees(6) if t.codim <= total]
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6, unique=True))
    return ClassExpr(basis, total, [(t, draw(_COEFFS)) for t in picks])


_PROFILES = st.lists(st.integers(min_value=1, max_value=6), max_size=4).map(
    lambda parts: tuple(sorted(parts))
)


class TestAtomMemos:
    """The grammar memoises each class atom it renders, the integers of each
    ``i[...]``/``d[...]`` atom its term pattern reads and each star it builds;
    the results must not depend on it."""

    TEXT = "2*psi^2*d[0,1] - 1/3*xi*d[0,0] + d[ 0 , 1 ]*psi^2 + xi^3"

    def test_parsing_and_rendering_twice_give_equal_results(self):
        for memo in (grammar._class_atom, grammar._atom_ints, grammar._star_atom):
            memo.cache_clear()
        e = basic_to_sing(parse_class(self.TEXT))
        outputs = [
            (parse_class(render_class(e)), render_class(e), render_class_latex(e))
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == e
        assert grammar._class_atom.cache_info().hits > 0
        assert grammar._star_atom.cache_info().hits > 0

    def test_memo_entries_are_immutable(self):
        parse_class(self.TEXT)
        payload = grammar._atom_ints("d[0,1]")
        assert payload == (0, 1) and payload is grammar._atom_ints("d[0,1]")
        for t in enumerate_trees(5):
            for basis in (SINGULARITY, BASIC):
                for latex in (False, True):
                    atom = grammar._class_atom(t, basis, latex)
                    assert type(atom) is tuple and all(type(f) is str for f in atom)
                    assert atom is grammar._class_atom(t, basis, latex)
        for entry in (payload, grammar._class_atom(star(1, [0, 0, 1]), BASIC, False)):
            with pytest.raises(TypeError):
                entry[0] = entry[0]
        with pytest.raises(AttributeError):
            grammar._star_atom("d", (0, 1), 2).marking = 0

    def test_an_invalid_payload_is_refused_every_time(self):
        for _ in range(2):
            with pytest.raises(ParseError) as info:
                parse_class("xi + psi*i[1]")
            assert (info.value.reason, info.value.position) == (
                "i[...] needs at least two ramification orders >= 1", 9,
            )

    def test_an_atom_is_read_token_by_token(self):
        # spaced or not, an i[...] or d[...] atom is its letter, brackets,
        # integers and commas; only _TERM reads an atom whole
        assert notation._tokenize("2*i[1,2] + d[ 0,1]*psi^2*d[1,2") == [
            "2", "*", "i", "[", "1", ",", "2", "]", "+", "d", "[", "0", ",", "1", "]", "*",
            "psi", "^", "2", "*", "d", "[", "1", ",", "2", "",
        ]


class TestParseRenderProperties:
    @settings(deadline=None)
    @given(class_exprs())
    def test_parse_inverts_render_on_classes(self, e):
        assert parse_class(render_class(e), default_basis=e.basis) == e

    @settings(deadline=None)
    @given(st.dictionaries(_PROFILES, _COEFFS, max_size=6))
    def test_parse_inverts_render_on_cycles(self, mapping):
        c = CycleExpr(mapping.items())
        assert parse_cycles(render_cycles(c)) == c


class TestProfilesAndPartitions:
    def test_profile_forms(self):
        assert parse_profile("{1,2,2}") == (1, 2, 2)
        assert parse_profile("2,1,2") == (1, 2, 2)
        assert format_profile((1, 2, 2)) == "{1,2,2}"
        assert parse_profile("{}") == ()
        assert parse_orders("{2,1,2}") == (2, 1, 2)
        assert parse_orders("{}") == ()

    def test_partition_forms(self):
        assert parse_partition("[3,1,1]") == (3, 1, 1)
        assert format_partition((3, 1, 1)) == "[3,1,1]"
        assert parse_partition("[]") == ()

    def test_bad_literals(self):
        with pytest.raises(ParseError):
            parse_profile("{1,a}")
        with pytest.raises(ParseError):
            parse_profile("{0,1}")
        with pytest.raises(ParseError):
            parse_orders("{2,0}")


_RAW_TREES = st.recursive(
    st.integers(min_value=0, max_value=12),
    lambda kids: st.tuples(
        st.integers(min_value=0, max_value=3), st.lists(kids, min_size=2, max_size=3)
    ),
    max_leaves=8,
)


def _spaced(data, text: str) -> str:
    """``text`` with random whitespace wherever it does not split a number."""
    out = []
    for i, ch in enumerate(text):
        if i == 0 or not (ch.isdigit() and text[i - 1].isdigit()):
            out.append(data.draw(st.sampled_from(["", "", " ", "\t", "\n  "])))
        out.append(ch)
    return "".join(out) + data.draw(st.sampled_from(["", " "]))


class TestLiteralReader:
    @settings(max_examples=40, deadline=None)
    @given(_RAW_TREES.map(canonicalize), st.data())
    def test_parse_inverts_render_on_trees(self, t, data):
        assert parse_tree(_spaced(data, encoding(t))) == t

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=30), max_size=6), st.data())
    def test_parse_inverts_render_on_profiles_and_partitions(self, parts, data):
        p, lam = tuple(sorted(parts)), tuple(sorted(parts, reverse=True))
        assert parse_profile(_spaced(data, format_profile(p))) == p
        assert parse_partition(_spaced(data, format_partition(lam))) == lam

    @pytest.mark.parametrize(
        "parse, text, expected",
        [
            (parse_profile, "{1,2,2}", (1, 2, 2)),
            (parse_profile, "2,1,2", (1, 2, 2)),
            (parse_profile, "{}", ()),
            (parse_profile, "", ()),
            (parse_profile, "  ", ()),
            (parse_profile, "{ }", ()),
            (parse_profile, " { 1 , 2 } ", (1, 2)),
            (parse_profile, "\t{+1,02}\n", (1, 2)),
            (parse_orders, "{2,1,2}", (2, 1, 2)),
            (parse_orders, "3, 1", (3, 1)),
            (parse_partition, "[3,1,1]", (3, 1, 1)),
            (parse_partition, "1,3,1", (3, 1, 1)),
            (parse_partition, "[]", ()),
            (parse_partition, " [ 2 , 1 ] ", (2, 1)),
            (parse_exponents, "[0,2]", [0, 2]),
            (parse_exponents, "0, 2", [0, 2]),
            (parse_exponents, "[]", []),
            (parse_exponents, "", []),
            (parse_exponents, "[-1,+2]", [-1, 2]),
        ],
    )
    def test_accepted_spellings(self, parse, text, expected):
        assert parse(text) == expected

    @pytest.mark.parametrize(
        "parse, text, position",
        [
            (parse_profile, "{1,,2}", 3),
            (parse_partition, "[2,,1]", 3),
            (parse_exponents, "[1,,2]", 3),
            (parse_profile, "{1,2", 4),
            (parse_profile, "{1,2}}", 5),
            (parse_profile, "[1,2]", 0),
            (parse_exponents, "1 2", 2),
            (parse_exponents, "- 1", 0),
            (parse_profile, "{1_0}", 2),
        ],
    )
    def test_bad_lists_carry_positions(self, parse, text, position):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.position == position

    def test_range_checks_follow_the_reader(self):
        with pytest.raises(ParseError, match="positive"):
            parse_profile("{-1}")
        with pytest.raises(ParseError, match="positive"):
            parse_partition("[2,-1]")


class TestRationalValue:
    def test_parse_inverts_format(self):
        assert parse_rational_value("11/48", "value") == Fraction(11, 48)
        assert parse_rational_value("-5", "value") == Fraction(-5)
        for q in (Fraction(11, 48), Fraction(-3, 2), Fraction(7)):
            assert parse_rational_value(str(q), "value") == q

    def test_parse_rejects_garbage(self):
        for text in ("1.5", "1/0", "1_0", " 1 / 2"):
            with pytest.raises(ParseError):
                parse_rational_value(text, "value")


class TestLatex:
    def test_psi_square(self):
        assert render_class_latex(psi_power_sing(2)) == (
            "\\frac{1}{2} a_{2} + \\frac{1}{4} i_{1,1}"
            " + \\frac{3}{2} \\xi a_{1} + \\xi^{2}"
        )

    def test_delta_and_psi_atoms(self):
        e = parse_class("d[0,1] - xi*psi^2", default_basis=BASIC)
        assert render_class_latex(e) == "\\delta_{0,1} - \\xi \\psi^{2}"

    def test_cycles(self):
        assert render_cycles_latex(completed_cycle(1)) == "C_{2}"
        assert render_cycles_latex(completed_cycle(2)) == (
            "\\frac{1}{2} C_{3} + \\frac{1}{4} C_{1,1} + \\frac{1}{24} C_{1}"
        )


class TestJson:
    def test_class_schema(self):
        payload = json.loads(class_to_json(psi_power_sing(2)))
        assert payload["basis"] == "singularity"
        assert payload["codim"] == 2
        assert payload["terms"][0] == {"coeff": "1/2", "xi_power": 0, "tree": "2"}
        assert {"coeff": "1", "xi_power": 2, "tree": "0"} in payload["terms"]

    def test_stable_output(self):
        a = class_to_json(psi_power_sing(3))
        b = class_to_json(psi_power_sing(3))
        assert a == b

    def test_cycles_schema(self):
        payload = json.loads(cycles_to_json(completed_cycle(2)))
        assert {"coeff": "1/4", "profile": [1, 1]} in payload["terms"]


# The JSON writers must match json.dumps(payload, indent=2) byte for byte; the
# payloads below are the reference.
_JSON_COEFFS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(max_denominator=10**9),
).map(Fraction)
_JSON_PROFILES = st.lists(st.integers(min_value=1, max_value=9), max_size=5).map(
    lambda parts: tuple(sorted(parts))
)


@st.composite
def json_class_exprs(draw):
    """Zero, unit or a random sum over the trees of codim <= 6, in either basis."""
    basis = draw(st.sampled_from([SINGULARITY, BASIC]))
    kind = draw(st.sampled_from(["zero", "unit", "sum", "sum", "sum"]))
    if kind != "sum":
        return getattr(ClassExpr, kind)(basis)
    degree = draw(st.integers(min_value=0, max_value=8))
    pool = [t for t in enumerate_trees(6) if t.codim <= degree]
    picks = draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
    return ClassExpr(basis, degree, [(t, draw(_JSON_COEFFS)) for t in picks])


class TestJsonLayout:
    @settings(max_examples=40, deadline=None)
    @given(json_class_exprs())
    def test_class_json_is_the_indent_2_dump(self, e):
        terms = [
            {"coeff": str(coeff), "xi_power": q, "tree": encoding(t)}
            for t, q, coeff in ordered_monomials(e)
        ]
        payload = {"basis": e.basis, "codim": e.degree, "terms": terms}
        assert class_to_json(e) == json.dumps(payload, indent=2)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(_JSON_PROFILES, _JSON_COEFFS), max_size=6))
    def test_cycle_and_x_polynomial_json_is_the_indent_2_dump(self, pairs):
        c = CycleExpr(pairs)
        x = XPolynomial(pairs)
        cycles = {"terms": [{"coeff": str(coeff), "profile": list(p)} for p, coeff in c.terms]}
        xpoly = {"terms": [{"coeff": str(coeff), "monomial": list(p)} for p, coeff in x.terms]}
        assert cycles_to_json(c) == json.dumps(cycles, indent=2)
        assert xpoly_to_json(x) == json.dumps(xpoly, indent=2)

    # arbitrary text, weighted towards the characters that are escaped: the
    # two JSON specials, control characters, DEL, non-ASCII, lone surrogates
    # and astral characters
    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(
        st.characters(),
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\x80\u2028\ud800\udfff\uffff\U00010000\U0001f600\U0010ffff'),
        st.characters(max_codepoint=0x7F),
    )))
    def test_the_string_escaper_is_the_stdlib_one(self, text):
        assert notation._json_str(text) == json.encoder.encode_basestring_ascii(text)

    def test_the_empty_cases(self):
        assert class_to_json(ClassExpr.zero(BASIC)) == (
            '{\n  "basis": "basic",\n  "codim": null,\n  "terms": []\n}'
        )
        unit = CycleExpr([((), Fraction(1, 2))])
        assert cycles_to_json(unit) == (
            '{\n  "terms": [\n    {\n      "coeff": "1/2",\n      "profile": []\n    }\n  ]\n}'
        )
        assert xpoly_to_json(XPolynomial([])) == '{\n  "terms": []\n}'


class TestXPolyRendering:
    def test_monomials_with_powers(self):
        from singclass.cycles import x_polynomial

        assert render_xpoly(x_polynomial(2)) == "1/2*x3 + 1/4*x1^2"
        assert render_xpoly(x_polynomial(2, normalized=False)) == "x3 + 1/2*x1^2"
