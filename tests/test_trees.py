"""Marked trees: canonical forms, grading, vanishing, grafting, substitution."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass import trees
from singclass.classes import (
    BASIC,
    SINGULARITY,
    ClassExpr,
    basic_to_sing,
    psi_power_sing,
    sing_to_basic,
    substitute,
)
from singclass.errors import ConstraintError, SingclassError, TreeStructureError
from singclass.grammar import parse_tree, render_class
from singclass.trees import (
    MarkedTree,
    canonicalize,
    encoding,
    enumerate_trees,
    graft,
    star,
    stick,
)


class TestCanonicalForm:
    def test_child_order_is_immaterial(self):
        assert MarkedTree(0, [stick(1), stick(2)]) == MarkedTree(0, [stick(2), stick(1)])

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
            MarkedTree(0, [stick(1)])

    def test_distinct_shapes_with_equal_leaf_multisets(self):
        a = canonicalize((0, [0, 1, (0, [0, 0])]))
        b = canonicalize((0, [0, 0, (0, [0, 1])]))
        assert sorted(a.leaves) == sorted(b.leaves)
        assert a != b
        assert encoding(a) != encoding(b)

    def test_three_leaf_nested_tree_contracts_to_psi_star(self):
        # the boundary point over three branches equals the cotangent class
        # at the root point, so the normal form is the marked star
        assert canonicalize((0, [0, (0, [0, 0])])) == star(1, [0, 0, 0])
        assert canonicalize((0, [2, (0, [0, 0])])) == star(1, [0, 0, 2])

    def test_four_leaf_nested_tree_stays_nested(self):
        t = canonicalize((0, [0, 0, (0, [0, 0])]))
        assert t == MarkedTree(0, (MarkedTree(0, [stick(0), stick(0)]), stick(0), stick(0)))
        assert any(c.children for c in t.children)


class TestGrammar:
    def test_parse_render_round_trip(self):
        for t in enumerate_trees(6):
            assert parse_tree(encoding(t)) == t

    def test_whitespace_is_insignificant(self):
        assert parse_tree(" ( 0 ; 1 , 2 ) ") == MarkedTree(0, [stick(1), stick(2)])

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


def _reference_leaves(t: MarkedTree) -> tuple[int, ...]:
    if not t.children:
        return (t.marking,)
    return tuple(m for c in t.children for m in _reference_leaves(c))


def _direct(t: MarkedTree) -> MarkedTree:
    """A structural copy built with every vertex's children in reverse order."""
    return MarkedTree(t.marking, tuple(_direct(c) for c in reversed(t.children)))


class TestInterning:
    def test_equal_input_gives_the_same_instance(self):
        assert MarkedTree(0, [stick(1), stick(2)]) is MarkedTree(0, [stick(2), stick(1)])
        assert canonicalize((0, [0, (0, [0, 0])])) is star(1, [0, 0, 0])
        for t in enumerate_trees(6):
            assert MarkedTree(t.marking, t.children) is t
            assert canonicalize(t) is t
            assert canonicalize(_direct(t)) is t
            assert parse_tree(encoding(t)) is t

    def test_a_direct_instance_equals_its_interned_twin(self):
        for t in enumerate_trees(6):
            twin = _direct(t)
            assert twin is t
            assert twin == t and t == twin
            assert hash(twin) == hash(t)
            assert {t: 1}[twin] == 1
        assert stick(1) != stick(2)
        assert star(0, [0, 1]) != star(0, [0, 2])
        assert stick(0) != 0

    def test_grading_and_vanishing_match_the_recursive_definitions(self):
        vanishing = MarkedTree(0, (stick(0), stick(0), MarkedTree(2, (stick(0), stick(0)))))
        # bumping the top marking reaches vanishing trees as well
        bumped = [MarkedTree(t.marking + k, t.children) for t in enumerate_trees(6) for k in (1, 2)]
        candidates = enumerate_trees(8) + bumped + [vanishing, _direct(vanishing)]
        assert any(_reference_vanishes(t) for t in candidates)
        for t in candidates:
            assert t.codim == _reference_codim(t)
            assert t.weight == _reference_weight(t)
            assert t.vanishing == _reference_vanishes(t)
            assert t.leaves == _reference_leaves(t)

    def test_direct_construction_returns_the_canonical_tree(self):
        assert MarkedTree.__eq__ is object.__eq__
        assert MarkedTree.__hash__ is object.__hash__
        for t in enumerate_trees(8):
            assert MarkedTree(t.marking, t.children) is MarkedTree(t.marking, t.children[::-1]) is t

    def test_copies_and_pickles_are_the_same_tree(self):
        for t in enumerate_trees(6):
            assert copy.copy(t) is t
            assert copy.deepcopy(t) is t
            assert pickle.loads(pickle.dumps(t)) is t

    def test_two_threads_building_one_new_tree_get_one_node(self, monkeypatch):
        # The threads meet after each lookup in the node table, so both miss
        # the new tree before either stores it.  (Meeting in encoding, during
        # the sort, is too early: the thread released last looks up, builds
        # and stores without a thread switch.)
        kids = (stick(9001), stick(9002))
        assert (0, kids) not in trees._NODES
        met = threading.Barrier(2, timeout=30)

        class MeetingTable(dict):
            def get(self, key, default=None):
                found = dict.get(self, key, default)
                met.wait()
                return found

        table = MeetingTable(trees._NODES)
        monkeypatch.setattr(trees, "_NODES", table)
        built = []
        threads = [threading.Thread(target=lambda: built.append(MarkedTree(0, kids))) for _ in range(2)]
        _run_all(threads)
        monkeypatch.undo()
        trees._NODES.update(table)
        assert len(built) == 2 and built[0] is built[1]

    def test_threads_that_build_the_same_new_trees_share_every_node(self):
        # a stress run: more threads than cores, switching as often as the
        # interpreter lets them, each building the same 200 new trees
        def build(base: int) -> list[MarkedTree]:
            return [
                MarkedTree(k % 3, (stick(base + k), stick(base + k + 1), star(0, (base + k + 2, 0))))
                for k in range(200)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(5):
                base = 20000 + 1000 * trial
                assert (base, ()) not in trees._NODES  # new trees, each trial
                results: list[list[MarkedTree]] = []
                _run_all([threading.Thread(target=lambda: results.append(build(base))) for _ in range(6)])
                assert len(results) == 6
                assert all(len({id(r[k]) for r in results}) == 1 for k in range(200))
        finally:
            sys.setswitchinterval(interval)


def _run_all(threads: list[threading.Thread]):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()


# nested (marking, children) data over small markings, two or three children a vertex
_nested = st.recursive(
    st.integers(0, 2),
    lambda inner: st.tuples(st.integers(0, 2), st.lists(inner, min_size=2, max_size=3)),
    max_leaves=5,
)


@st.composite
def _built_in_random_order(draw):
    """Nested data and the tree that nested MarkedTree calls build from it,
    each vertex given its children in a drawn order."""
    data = draw(_nested)

    def build(node):
        if type(node) is int:
            return MarkedTree(node)
        marking, children = node
        return MarkedTree(marking, draw(st.permutations([build(c) for c in children])))

    return data, build(data)


class TestChildOrder:
    def test_unsorted_children_give_the_sorted_tree(self):
        t = MarkedTree(0, (stick(1), stick(0)))
        assert t is MarkedTree(0, (stick(0), stick(1)))
        assert encoding(t) == "(0;0,1)"

        def expanded(children):
            return sing_to_basic(ClassExpr.single(SINGULARITY, MarkedTree(0, children)))

        assert expanded((stick(1), stick(0))) == expanded((stick(0), stick(1)))
        assert render_class(expanded((stick(1), stick(0)))) == "d[0,1] - xi*d[0,0]"

    def test_a_negative_marking_is_refused(self):
        with pytest.raises(TreeStructureError, match="nonnegative"):
            MarkedTree(-1)

    def test_a_vertex_with_one_child_is_refused(self):
        with pytest.raises(TreeStructureError, match="single child"):
            MarkedTree(0, (stick(0),))

    @settings(max_examples=120, deadline=None)
    @given(case=_built_in_random_order())
    def test_any_child_order_builds_the_canonical_tree(self, case):
        data, t = case
        assert t is canonicalize(data)
        if type(data) is int:
            assert t is MarkedTree(data)
        else:
            marking, children = data
            kids = sorted((canonicalize(c) for c in children), key=encoding)
            assert t is MarkedTree(marking, tuple(kids))
        for convert, basis in ((sing_to_basic, SINGULARITY), (basic_to_sing, BASIC)):
            try:
                out = convert(ClassExpr.single(basis, t))
            except SingclassError:
                continue
            assert isinstance(out, ClassExpr)


SRC = Path(__file__).resolve().parent.parent / "src"

# each bad construction, then what it must not change, in a fresh process:
# inside this test session stick(1) and stick(2) are interned already
POISONING = [
    ("MarkedTree(2.0)", "render_class(psi_power_sing(2))", "1/2*a_2 + 1/4*i[1,1] + 3/2*xi*a_1 + xi^2"),
    ("MarkedTree(True)", "encoding(stick(1))", "1"),
    ("MarkedTree(2.0, ())", "encoding(stick(2))", "2"),
    ("MarkedTree(True, ())", "encoding(MarkedTree(1))", "1"),
    ("canonicalize((True, [0, 0]))", "encoding(star(1, [0, 0]))", "(1;0,0)"),
    ("MarkedTree(0, (1, 2))", "encoding(star(0, [1, 2]))", "(0;1,2)"),
]

_FRESH = """
from singclass import psi_power_sing, render_class
from singclass.errors import TreeStructureError
from singclass.trees import MarkedTree, canonicalize, encoding, star, stick
try:
    {bad}
except TreeStructureError:
    print("refused")
print({check})
"""


# markings and children of every kind: ints, bools, floats, Fractions,
# strings, None, trees, and lists and tuples of them
_junk = st.recursive(
    st.one_of(
        st.integers(-2, 4), st.booleans(), st.floats(-3, 3), st.fractions(max_denominator=3),
        st.text(max_size=2), st.none(), st.sampled_from(enumerate_trees(3)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.tuples(inner, inner), st.tuples(inner, st.lists(inner, max_size=3)),
    ),
    max_leaves=8,
)


class TestMalformedInput:
    @pytest.mark.parametrize("bad,check,expected", POISONING, ids=[p[0] for p in POISONING])
    def test_a_refused_marking_or_child_leaves_the_tables_clean(self, bad, check, expected):
        result = subprocess.run(
            [sys.executable, "-c", _FRESH.format(bad=bad, check=check)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["refused", expected]

    @pytest.mark.parametrize(
        "raw", ["x", None, (0,), (0, 5), (0, [0, "a"]), 1.5, True, (True, [0, 0]), (0.7, [0, 0])],
    )
    def test_canonicalize_refuses_malformed_data(self, raw):
        with pytest.raises(TreeStructureError):
            canonicalize(raw)

    def test_unhashable_children_are_refused(self):
        with pytest.raises(TreeStructureError):
            MarkedTree(0, ([1], stick(0)))
        with pytest.raises(TreeStructureError):
            MarkedTree(0, 5)
        # a list of trees is a sequence like any other
        assert MarkedTree(0, [stick(1), stick(0)]) is MarkedTree(0, (stick(0), stick(1)))

    @settings(max_examples=150, deadline=None)
    @given(marking=_junk, children=_junk)
    def test_only_a_tree_or_a_tree_structure_error(self, marking, children):
        calls = [
            lambda: MarkedTree(marking, children),
            lambda: canonicalize(marking),
            lambda: canonicalize((marking, children)),
            lambda: stick(marking),
        ]
        for call in calls:
            try:
                out = call()
            except TreeStructureError:
                continue
            assert isinstance(out, MarkedTree)
        assert [encoding(stick(m)) for m in range(4)] == ["0", "1", "2", "3"]

    def test_star_refuses_leaf_markings_that_are_no_sequence(self):
        with pytest.raises(TreeStructureError, match="leaf markings"):
            star(0, 5)
        with pytest.raises(TreeStructureError):
            star(0, [0, 0.5])

    def test_graft_refuses_replacements_that_are_no_sequence(self):
        with pytest.raises(TreeStructureError, match="replacements"):
            graft(star(0, [0, 0]), 5)
        with pytest.raises(TreeStructureError):
            graft((0, [0, 0]), [stick(0), stick(0)])
        with pytest.raises(TreeStructureError):
            graft(star(0, [0, 0]), [stick(0), 5])

    @pytest.mark.parametrize("bad", [2.5, True, "3", None, (3,)])
    def test_enumerate_trees_takes_only_an_int(self, bad):
        with pytest.raises(ConstraintError, match="max_codim must be an integer"):
            enumerate_trees(bad)

    @pytest.mark.parametrize("bad", [-1, -5])
    def test_enumerate_trees_refuses_a_negative_codim(self, bad):
        # it once returned [] for every negative codimension
        with pytest.raises(ConstraintError, match="max_codim must be nonnegative"):
            enumerate_trees(bad)


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
                outer, [psi_power_sing(m) for m in outer.leaves]
            )
            assert result.degree == outer.codim

    def test_length_mismatch(self):
        with pytest.raises(ConstraintError):
            substitute(star(0, [0, 0]), [psi_power_sing(1)])

    @pytest.mark.parametrize(
        "outer, grafts",
        [
            (stick(2), [ClassExpr.unit(SINGULARITY)]),
            ((0, [0, 0]), [ClassExpr.unit(SINGULARITY)] * 2),
            (star(0, [0, 0]), 5),
            (star(0, [0, 0]), ClassExpr.unit(SINGULARITY)),
        ],
        ids=["a stick", "raw tree data", "an int", "one expression"],
    )
    def test_refuses_what_graft_would_refuse(self, outer, grafts):
        # the glue kernel grafts through graft's body without its gates
        with pytest.raises(ConstraintError):
            substitute(outer, grafts)

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
