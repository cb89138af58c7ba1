"""Marked trees: canonical forms, grading, vanishing, grafting, substitution."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from singclass.classes import BASIC, SINGULARITY, ClassExpr, psi_power_sing, substitute
from singclass.errors import ConstraintError, TreeStructureError
from singclass.grammar import parse_tree
from singclass.trees import (
    MarkedTree,
    canonicalize,
    encoding,
    enumerate_trees,
    graft,
    leaf_markings,
    star,
    stick,
    tree,
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

        assert parse_tree(nested(100)).codim == 301
        with pytest.raises(ParseError, match="nested deeper") as info:
            parse_tree(nested(3000))
        assert info.value.position == 300


class TestGrading:
    def test_stick_codim_is_its_marking(self):
        assert stick(2).codim == 2
        assert stick(0).codim == 0

    def test_node_locus(self):
        assert star(0, [0, 0]).codim == 2

    def test_psi_marked_star(self):
        assert star(1, [0, 0, 0]).codim == 4

    def test_nested_tree_counts_its_internal_edge(self):
        assert canonicalize((0, [0, 0, (0, [0, 0])])).codim == 5

    def test_weight_is_the_leaf_marking_sum(self):
        assert stick(3).weight == 3
        assert star(1, [0, 2, 1]).weight == 3


class TestVanishing:
    def test_marked_two_leaf_vertex_vanishes(self):
        assert star(1, [0, 0]).vanishing

    def test_marked_three_leaf_vertex_survives(self):
        assert not star(1, [0, 0, 0]).vanishing

    def test_sticks_never_vanish(self):
        for m in range(8):
            assert not stick(m).vanishing

    def test_deep_violations_are_found(self):
        t = MarkedTree(0, (stick(0), stick(0), MarkedTree(2, (stick(0), stick(0)))))
        assert t.vanishing

    def test_no_operation_emits_vanishing_terms(self):
        for m in range(7):
            for t, _ in psi_power_sing(m).terms:
                assert not t.vanishing


def _reference_codim(t: MarkedTree) -> int:
    if not t.children:
        return t.marking
    return t.marking + sum(_reference_codim(c) + 1 for c in t.children)


def _reference_weight(t: MarkedTree) -> int:
    if not t.children:
        return t.marking
    return sum(_reference_weight(c) for c in t.children)


def _reference_vanishes(t: MarkedTree) -> bool:
    if t.children:
        if t.marking > len(t.children) - 2:
            return True
        return any(_reference_vanishes(c) for c in t.children)
    return False


def _direct(t: MarkedTree) -> MarkedTree:
    """A structural copy built without tree(), so it is not interned."""
    return MarkedTree(t.marking, tuple(_direct(c) for c in t.children))


class TestInterning:
    def test_equal_input_gives_the_same_instance(self):
        assert tree(0, [stick(1), stick(2)]) is tree(0, [stick(2), stick(1)])
        assert canonicalize((0, [0, (0, [0, 0])])) is star(1, [0, 0, 0])
        for t in enumerate_trees(6):
            assert tree(t.marking, t.children) is t
            assert canonicalize(t) is t
            assert canonicalize(_direct(t)) is t
            assert parse_tree(encoding(t)) is t

    def test_a_direct_instance_equals_its_interned_twin(self):
        for t in enumerate_trees(6):
            twin = _direct(t)
            assert twin is not t
            assert twin == t and t == twin
            assert hash(twin) == hash(t)
            assert {t: 1}[twin] == 1
        assert stick(1) != stick(2)
        assert star(0, [0, 1]) != star(0, [0, 2])
        assert stick(0) != 0

    def test_grading_and_vanishing_match_the_recursive_definitions(self):
        vanishing = MarkedTree(0, (stick(0), stick(0), MarkedTree(2, (stick(0), stick(0)))))
        # bumping the top marking reaches vanishing trees as well
        bumped = [tree(t.marking + k, t.children) for t in enumerate_trees(6) for k in (1, 2)]
        candidates = enumerate_trees(8) + bumped + [vanishing, _direct(vanishing)]
        assert any(_reference_vanishes(t) for t in candidates)
        for t in candidates:
            assert t.codim == _reference_codim(t)
            assert t.weight == _reference_weight(t)
            assert t.vanishing == _reference_vanishes(t)


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
        # tree -> (xi power, coefficient)
        expected = {
            star(0, [0, 1, 2]): (0, Fraction(1, 2)),
            star(0, [0, 1, 1]): (1, Fraction(3, 2)),
            star(0, [0, 0, 2]): (1, Fraction(1, 2)),
            star(0, [0, 0, 1]): (2, Fraction(5, 2)),
            star(0, [0, 0, 0]): (3, Fraction(1)),
            canonicalize((0, [0, 1, (0, [0, 0])])): (0, Fraction(1, 4)),
            canonicalize((0, [0, 0, (0, [0, 0])])): (1, Fraction(1, 4)),
        }
        assert result.degree == outer.codim == 6
        assert {t: (q, c) for t, q, c in result.monomials()} == expected
        assert dict(result.terms) == {t: c for t, (_, c) in expected.items()}

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
            assert result.degree == outer.codim

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
            assert not t.vanishing
            assert t.codim <= 6
            assert canonicalize(t) == t

    def test_contains_the_expected_small_trees(self):
        out = set(enumerate_trees(4))
        assert stick(0) in out
        assert stick(4) in out
        assert star(0, [0, 0]) in out
        assert star(1, [0, 0, 0]) in out
        assert star(1, [0, 0]) not in out  # vanishes
