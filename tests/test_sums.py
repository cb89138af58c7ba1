"""Property tests for the summing constructors, the degree of class
expressions and the basis change on sums."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass.classes import BASIC, ClassExpr, basic_to_sing, sing_to_basic
from singclass.cycles import CycleExpr, XPolynomial
from singclass.errors import ConstraintError
from test_grammar import _COEFFS, _PROFILES, class_exprs

_SETTINGS = settings(deadline=None, max_examples=30)


def _as_basic(e: ClassExpr) -> ClassExpr:
    return e if e.basis == BASIC else sing_to_basic(e)


@st.composite
def _repeated(draw, pairs):
    """The pairs with each one spread over repeated keys: n + 1 copies of the
    value and n of its negative, in a random order."""
    spread = []
    for key, value in pairs:
        n = draw(st.integers(min_value=0, max_value=2))
        spread += [(key, value)] * (n + 1) + [(key, -value)] * n
    return draw(st.permutations(spread))


class TestBasisChangeOnSums:
    @_SETTINGS
    @given(class_exprs())
    def test_round_trip(self, e):
        there = basic_to_sing if e.basis == BASIC else sing_to_basic
        back = sing_to_basic if e.basis == BASIC else basic_to_sing
        assert back(there(e)) == e

    @_SETTINGS
    @given(class_exprs(), class_exprs())
    def test_basic_to_sing_is_additive(self, a, b):
        a, b = sorted((_as_basic(a), _as_basic(b)), key=lambda e: e.degree)
        a = a.mul_xi(b.degree - a.degree)
        assert basic_to_sing(a + b) == basic_to_sing(a) + basic_to_sing(b)


class TestFromTerms:
    @_SETTINGS
    @given(st.data(), class_exprs())
    def test_class_terms_sum(self, data, e):
        pairs = data.draw(_repeated(e.terms))
        assert ClassExpr.from_terms(e.basis, e.degree, pairs) == e
        cancelled = data.draw(st.permutations(pairs + [(t, -p) for t, p in pairs]))
        assert ClassExpr.from_terms(e.basis, e.degree, cancelled) == ClassExpr.zero(e.basis)

    @_SETTINGS
    @given(st.data(), st.sampled_from([CycleExpr, XPolynomial]),
           st.dictionaries(_PROFILES, _COEFFS, max_size=6))
    def test_profile_terms_sum(self, data, kind, mapping):
        expected = kind.from_terms(mapping.items())
        assert dict(expected.terms) == mapping
        assert kind.from_terms(data.draw(_repeated(mapping.items()))) == expected
        cancelled = list(mapping.items()) + [(p, -c) for p, c in mapping.items()]
        assert kind.from_terms(data.draw(st.permutations(cancelled))) == kind(())


class TestDegree:
    @_SETTINGS
    @given(class_exprs())
    def test_each_tree_carries_one_monomial(self, e):
        for t, c in e.terms:
            q = e.degree - t.codim
            assert e.coefficient_at(t, q) == c
            assert e.coefficient_at(t, q + 1) == e.coefficient_at(t, q - 1) == 0
        assert e.monomials() == [(t, e.degree - t.codim, c) for t, c in e.terms]

    @_SETTINGS
    @given(class_exprs(), _COEFFS, st.integers(min_value=0, max_value=3))
    def test_operations_keep_or_shift_the_degree(self, e, c, k):
        assert e.scale(c).degree == e.degree
        assert e.scale(0).degree is None
        assert e.mul_xi(k).degree == e.degree + k
        assert (e + e.scale(c)).degree == (None if c == -1 else e.degree)
        there = basic_to_sing if e.basis == BASIC else sing_to_basic
        assert there(e).degree == e.degree

    @_SETTINGS
    @given(class_exprs(), st.integers(min_value=1, max_value=3))
    def test_inhomogeneous_sum_is_refused(self, e, k):
        with pytest.raises(ConstraintError, match="inhomogeneous class expression"):
            e + e.mul_xi(k)
        with pytest.raises(ConstraintError):
            e.mul_xi(-k)

    @_SETTINGS
    @given(class_exprs(), st.integers(min_value=1, max_value=3))
    def test_from_terms_refuses_a_tree_above_the_degree(self, e, k):
        top = max(t.codim for t, _ in e.terms)
        assert ClassExpr.from_terms(e.basis, e.degree, e.terms) == e
        with pytest.raises(ConstraintError):
            ClassExpr.from_terms(e.basis, top - k, e.terms)
