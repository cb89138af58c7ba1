"""The integer kernels of the class engine against their ``Fraction``
reference, ``class_kernel_reference``.

``product_expansion`` and ``psi_power_sing`` must return the expressions of
the ``Fraction`` product recursion and of the triangular ``psi_decomposition``
for every m <= 14, and the rows psi * a_k those of ``psi_stick`` for
k <= 14.  ``substitute`` and both basis changes must return equal
expressions, rendered to the same text, on every tree of codim <= 8 in both
bases (and, for both per-tree tables, of codim <= 10), on random sums of
trees, and on grafts that carry xi powers.  The coefficients are negative,
non-unit and have large denominators, so a lost common factor or a wrong
rescaling of a common denominator shows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import class_kernel_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass import classes
from singclass.classes import BASIC, SINGULARITY, ClassExpr, product_expansion, psi_power_sing
from singclass.grammar import render_class
from singclass.trees import MarkedTree, canonicalize, enumerate_trees, star, stick

TREES = enumerate_trees(8)


def coefficient(i: int) -> Fraction:
    """A negative or positive coefficient with a large, odd denominator."""
    return Fraction((-1) ** i * (2**61 - 1 + 7 * i), 3 ** (i % 40) * 10**12 + 7)


def assert_same(got: ClassExpr, want: ClassExpr):
    assert got == want
    assert render_class(got) == render_class(want)


@pytest.mark.parametrize("m", range(1, 15))
def test_product_expansions(m):
    assert_same(product_expansion(m), reference.product_expansion(m))


@pytest.mark.parametrize("m", range(15))
def test_psi_powers(m):
    assert_same(psi_power_sing(m), reference.psi_power_sing(m))


def from_ints(basis: str, t: MarkedTree, form: tuple) -> ClassExpr:
    """The expression of degree t.codim whose integer form is ``form``."""
    den, terms = form
    return ClassExpr(basis, t.codim, ((t2, Fraction(n, den)) for t2, n in terms))


@pytest.mark.parametrize("k", range(15))
def test_psi_stick_rows(k):
    """_psi_stick builds each star of its row straight from the leaf sticks,
    with the automorphism count of the canonical profile; the row is the one
    built through star and aut_count."""
    want = reference.psi_stick(k)
    assert classes._psi_stick(k) == want._form
    assert_same(from_ints(SINGULARITY, stick(k + 1), classes._psi_stick(k)), want)


def test_tree_basic_expansions():
    for t in TREES:
        got = from_ints(SINGULARITY, t, classes._basic_ints(t))
        assert_same(got, reference._tree_basic_expansion(t))


def test_gluing_drops_vanishing_trees():
    """Into a vanishing tree every graft vanishes: the row is empty."""
    for t in (star(1, [0, 0]), star(2, [1, 0, 2])):
        assert t.vanishing and classes._basic_ints(t) == (1, ())


def test_a_weight_0_tree_is_its_own_row():
    """Both tables give a tree with children and all leaves marked 0 as
    itself, and a vanishing one as the empty row, as the generic routes do."""
    weight_0 = [t for t in enumerate_trees(10) if t.children and not t.weight]
    assert len(weight_0) > 100
    for t in [*weight_0, star(1, [0, 0]), star(2, [0, 0, 0])]:
        basic, sing = classes._basic_ints(t), classes._sing_ints(t)
        assert basic == reference._tree_basic_expansion(t)._form, t
        assert sing == reference.sing_to_basic(ClassExpr(SINGULARITY, t.codim, [(t, 1)]))._form, t
        assert basic == sing == ((1, ()) if t.vanishing else (1, ((t, 1),))), t


def test_every_tree_to_codim_10_to_the_singularity_basis():
    """The integer psi rows grafted by _basic_ints, highest codim first from
    an empty table, against the Fraction substitution of the reference."""
    classes._basic_ints.cache_clear()
    for t in sorted(enumerate_trees(10), key=lambda t: -t.codim):
        got = from_ints(SINGULARITY, t, classes._basic_ints(t))
        assert_same(got, reference._tree_basic_expansion(t))


def test_every_tree_to_codim_10_to_the_basic_basis():
    """Highest codim first from an empty table, so each tall tree fills in
    the entries of the lower trees it needs."""
    classes._sing_ints.cache_clear()
    for t in sorted(enumerate_trees(10), key=lambda t: -t.codim):
        e = ClassExpr.single(SINGULARITY, t)
        assert_same(classes.sing_to_basic(e), reference.sing_to_basic(e))


@pytest.mark.parametrize(
    "table, basis, convert",
    [
        (classes._sing_ints, BASIC, classes.sing_to_basic),
        (classes._basic_ints, SINGULARITY, classes.basic_to_sing),
    ],
    ids=["_sing_ints", "_basic_ints"],
)
def test_the_table_keeps_each_denominator_reduced(table, basis, convert):
    """Each entry of a basis-change table is held over the lcm of its
    conversion's reduced denominators, never a product of denominators, and
    holds no term that the conversion drops."""
    source = SINGULARITY if basis == BASIC else BASIC
    for t in enumerate_trees(10):
        den, terms = table(t)
        out = convert(ClassExpr.single(source, t))
        assert den == lcm(*(c.denominator for _, c in out.terms)), t
        assert from_ints(basis, t, (den, terms)) == out
        assert len(terms) == len(out.terms), t


@pytest.mark.parametrize("basis", [BASIC, SINGULARITY])
def test_every_tree_with_a_scaled_coefficient(basis):
    convert, convert_ref = {
        BASIC: (classes.basic_to_sing, reference.basic_to_sing),
        SINGULARITY: (classes.sing_to_basic, reference.sing_to_basic),
    }[basis]
    for i, t in enumerate(TREES):
        e = ClassExpr.single(basis, t).mul_xi(i % 3).scale(coefficient(i))
        assert_same(convert(e), convert_ref(e))


@st.composite
def tree_sums(draw, basis: str) -> ClassExpr:
    """Up to 6 trees of one degree <= 8, each with a random rational."""
    degree = draw(st.integers(0, 8))
    fits = [t for t in TREES if t.codim <= degree]
    chosen = draw(st.lists(st.sampled_from(fits), min_size=1, max_size=6))
    numerators = st.integers(-(10**12), 10**12)
    denominators = st.integers(1, 10**15)
    return ClassExpr(
        basis,
        degree,
        [(t, Fraction(draw(numerators), draw(denominators))) for t in chosen],
    )


@settings(max_examples=40, deadline=None)
@given(tree_sums(BASIC))
def test_basic_sums(e):
    assert_same(classes.basic_to_sing(e), reference.basic_to_sing(e))


@settings(max_examples=40, deadline=None)
@given(tree_sums(SINGULARITY))
def test_singularity_sums(e):
    assert_same(classes.sing_to_basic(e), reference.sing_to_basic(e))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(0, [0, 1]), (0, [0, 1, 2]), (1, [0, 0, 1]), (0, [1, (0, [0, 0, 1])])]),
    st.data(),
)
def test_substitute_with_xi_powers(raw, data):
    outer = canonicalize(raw)
    grafts = []
    for _ in outer.leaves:
        m = data.draw(st.integers(0, 3))
        k = data.draw(st.integers(0, 2))
        c = Fraction(data.draw(st.integers(-999, 999)), data.draw(st.integers(1, 10**9)))
        g = psi_power_sing(m).mul_xi(k).scale(c)
        if data.draw(st.booleans()):
            g = g + ClassExpr.single(SINGULARITY, stick(m + k)).scale(coefficient(m))
        grafts.append(g)
    assert_same(classes.substitute(outer, grafts), reference.substitute(outer, grafts))


def test_substitute_of_the_worked_example_with_xi_powers():
    outer = star(0, [0, 1])
    u = ClassExpr.single(SINGULARITY, stick(0))
    grafts = [u.scale(Fraction(-3, 7)), psi_power_sing(1).mul_xi(1) + psi_power_sing(2).scale(3)]
    assert_same(classes.substitute(outer, grafts), reference.substitute(outer, grafts))
