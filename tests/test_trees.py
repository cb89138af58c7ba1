"""Marked trees: canonical forms, grading, vanishing, grafting, substitution."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singclass.classes import BASIC, SINGULARITY, ClassExpr, psi_power_sing
from singclass.errors import ConstraintError, TreeStructureError
from singclass.exact import XiPolynomial
from singclass.trees import (
    MarkedTree,
    canonicalize,
    codim,
    encoding,
    enumerate_trees,
    graft,
    leaf_markings,
    parse_tree,
    star,
    stick,
    substitute,
    tree,
    vanishes,
    weight,
)


class TestCanonicalForm:
    def test_child_order_is_immaterial(self):
        assert tree(0, [stick(1), stick(2)]) == tree(0, [stick(2), stick(1)])

    def test_stick_is_itself(self):
        assert canonicalize(stick(3)) == stick(3)
        assert encoding(stick(3)) == "3"

    def test_idempotent(self):
        for t in enumerate_trees(6):
            assert canonicalize(t) == t

    def test_random_shuffles_are_isomorphism_invariant(self):
        rng = random.Random(7)
        raw = (0, [(1, [0, 0, 2]), (0, [1, (0, [0, 0])]), 3])

        def shuffled(node):
            if isinstance(node, int):
                return node
            marking, children = node
            children = [shuffled(c) for c in children]
            rng.shuffle(children)
            return (marking, children)

        reference = canonicalize(raw)
        for _ in range(25):
            assert canonicalize(shuffled(raw)) == reference

    def test_single_child_is_a_valency_violation(self):
        with pytest.raises(TreeStructureError):
            tree(0, [stick(1)])

    def test_distinct_shapes_with_equal_leaf_multisets(self):
        a = canonicalize((0, [0, 1, (0, [0, 0])]))
        b = canonicalize((0, [0, 0, (0, [0, 1])]))
        assert sorted(leaf_markings(a)) == sorted(leaf_markings(b))
        assert a != b
        assert encoding(a) != encoding(b)

    def test_three_leaf_nested_tree_contracts_to_psi_star(self):
        # the boundary point over three branches equals the cotangent class
        # at the root point, so the normal form is the marked star
        assert canonicalize((0, [0, (0, [0, 0])])) == star(1, [0, 0, 0])
        assert canonicalize((0, [2, (0, [0, 0])])) == star(1, [0, 0, 2])

    def test_four_leaf_nested_tree_stays_nested(self):
        t = canonicalize((0, [0, 0, (0, [0, 0])]))
        assert t == MarkedTree(0, (tree(0, [stick(0), stick(0)]), stick(0), stick(0)))
        assert any(c.children for c in t.children)


class TestGrammar:
    def test_parse_render_round_trip(self):
        for t in enumerate_trees(6):
            assert parse_tree(encoding(t)) == t

    def test_whitespace_is_insignificant(self):
        assert parse_tree(" ( 0 ; 1 , 2 ) ") == tree(0, [stick(1), stick(2)])

    def test_bare_integer_is_the_stick(self):
        assert parse_tree("4") == stick(4)

    def test_syntax_errors_have_positions(self):
        from singclass.errors import ParseError

        with pytest.raises(ParseError):
            parse_tree("(0;1")
        with pytest.raises(ParseError):
            parse_tree("(0;1,2) junk")
        with pytest.raises(ParseError):
            parse_tree("(0;1)")  # single child

    def test_nesting_depth_is_limited(self):
        from singclass.errors import ParseError

        def nested(depth):
            literal = "1"
            for _ in range(depth):
                literal = f"(0;{literal},1)"
            return literal

        assert codim(parse_tree(nested(100))) == 301
        with pytest.raises(ParseError, match="nested deeper") as info:
            parse_tree(nested(3000))
        assert info.value.position == 300


class TestGrading:
    def test_stick_codim_is_its_marking(self):
        assert codim(stick(2)) == 2
        assert codim(stick(0)) == 0

    def test_node_locus(self):
        assert codim(star(0, [0, 0])) == 2

    def test_psi_marked_star(self):
        assert codim(star(1, [0, 0, 0])) == 4

    def test_nested_tree_counts_its_internal_edge(self):
        assert codim(canonicalize((0, [0, 0, (0, [0, 0])]))) == 5

    def test_weight_is_the_leaf_marking_sum(self):
        assert weight(stick(3)) == 3
        assert weight(star(1, [0, 2, 1])) == 3


class TestVanishing:
    def test_marked_two_leaf_vertex_vanishes(self):
        assert vanishes(star(1, [0, 0]))

    def test_marked_three_leaf_vertex_survives(self):
        assert not vanishes(star(1, [0, 0, 0]))

    def test_sticks_never_vanish(self):
        for m in range(8):
            assert not vanishes(stick(m))

    def test_deep_violations_are_found(self):
        t = MarkedTree(0, (stick(0), stick(0), MarkedTree(2, (stick(0), stick(0)))))
        assert vanishes(t)

    def test_no_operation_emits_vanishing_terms(self):
        for m in range(7):
            for t, _ in psi_power_sing(m).terms:
                assert not vanishes(t)


class TestGraft:
    def test_sticks_graft_as_leaf_relabeling(self):
        assert graft(star(0, [0, 0]), [stick(1), stick(2)]) == star(0, [1, 2])

    def test_star_graft_nests(self):
        out = graft(star(0, [0, 0, 0]), [stick(0), stick(1), star(0, [0, 0])])
        assert out == canonicalize((0, [0, 1, (0, [0, 0])]))

    def test_graft_length_mismatch(self):
        with pytest.raises(ConstraintError):
            graft(star(0, [0, 0]), [stick(1)])

    def test_cannot_graft_into_a_stick(self):
        with pytest.raises(ConstraintError):
            graft(stick(2), [stick(1)])


class TestSubstitute:
    def test_substitution_of_sticks_is_relabeling(self):
        outer = star(0, [0, 1, 2])
        grafts = [
            ClassExpr.single(SINGULARITY, stick(m)) for m in (3, 0, 1)
        ]
        result = substitute(outer, grafts)
        assert result == ClassExpr.single(SINGULARITY, star(0, [3, 0, 1]))

    def test_worked_three_exponent_example(self):
        # grafting the expansions of psi^0, psi^1, psi^2 into the 3-leaf star:
        # 2 * 4 = 8 glued trees that merge into 7 distinct terms
        outer = star(0, [0, 1, 2])
        result = substitute(
            outer, [psi_power_sing(0), psi_power_sing(1), psi_power_sing(2)]
        )
        expected = {
            star(0, [0, 1, 2]): XiPolynomial.from_coeffs([Fraction(1, 2)]),
            star(0, [0, 1, 1]): XiPolynomial.from_coeffs([0, Fraction(3, 2)]),
            star(0, [0, 0, 2]): XiPolynomial.from_coeffs([0, Fraction(1, 2)]),
            star(0, [0, 0, 1]): XiPolynomial.from_coeffs([0, 0, Fraction(5, 2)]),
            star(0, [0, 0, 0]): XiPolynomial.from_coeffs([0, 0, 0, 1]),
            canonicalize((0, [0, 1, (0, [0, 0])])): XiPolynomial.from_coeffs(
                [Fraction(1, 4)]
            ),
            canonicalize((0, [0, 0, (0, [0, 0])])): XiPolynomial.from_coeffs(
                [0, Fraction(1, 4)]
            ),
        }
        assert dict(result.terms) == expected

    def test_multilinearity(self):
        outer = star(0, [0, 1])
        e1 = psi_power_sing(1)
        e2 = psi_power_sing(2).scale(3)
        u = ClassExpr.single(SINGULARITY, stick(0))
        combined = substitute(outer, [u, e1.mul_xi(1) + e2])
        split = substitute(outer, [u, e1.mul_xi(1)]) + substitute(outer, [u, e2])
        assert combined == split

    def test_codim_additivity(self):
        # substituting the psi^{m_l} expansions into a basic tree lands in the
        # same total codimension as the basic tree itself
        for raw in [(0, [0, 2]), (1, [0, 0, 1]), (0, [1, (0, [0, 0, 1])])]:
            outer = canonicalize(raw)
            result = substitute(
                outer, [psi_power_sing(m) for m in leaf_markings(outer)]
            )
            assert result.total_codim == codim(outer)

    def test_length_mismatch(self):
        with pytest.raises(ConstraintError):
            substitute(star(0, [0, 0]), [psi_power_sing(1)])

    def test_rejects_basic_grafts(self):
        with pytest.raises(ConstraintError):
            substitute(
                star(0, [0, 0]),
                [ClassExpr.unit(BASIC), ClassExpr.unit(BASIC)],
            )


class TestEnumeration:
    def test_all_enumerated_trees_are_canonical_and_alive(self):
        out = enumerate_trees(6)
        assert len(out) == len(set(out))
        for t in out:
            assert not vanishes(t)
            assert codim(t) <= 6
            assert canonicalize(t) == t

    def test_contains_the_expected_small_trees(self):
        out = set(enumerate_trees(4))
        assert stick(0) in out
        assert stick(4) in out
        assert star(0, [0, 0]) in out
        assert star(1, [0, 0, 0]) in out
        assert star(1, [0, 0]) not in out  # vanishes
