"""Property tests for the canonical constructors, the degree of class
expressions and the basis change on sums.

Each value type has one constructor, and it always builds the canonical
value: shuffled, repeated or zero-padded input gives the value that
canonical input gives, and rebuilding a value from its fields gives it back."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hurwitz_reference import add, mul
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass.classes import BASIC, SINGULARITY, ClassExpr, basic_to_sing, sing_to_basic
from singclass.cycles import CycleExpr, XPolynomial
from singclass.errors import ConstraintError
from singclass.grammar import parse_class, render_class, render_cycles
from singclass.local_models import Polynomial, RationalFunction
from singclass.trees import encoding, star, stick
from test_grammar import _COEFFS, _PROFILES, class_exprs

_SETTINGS = settings(deadline=None, max_examples=30)
_EXACT = st.one_of(st.integers(-5, 5), st.fractions(min_value=-4, max_value=4, max_denominator=6))
_POLYNOMIALS = st.lists(_EXACT, max_size=4).map(Polynomial)
_Z = Polynomial([0, 1])
_ONE = Polynomial.one()


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


class TestConstructors:
    @_SETTINGS
    @given(st.data(), class_exprs())
    def test_class_terms_sum(self, data, e):
        pairs = data.draw(_repeated(e.terms))
        assert ClassExpr(e.basis, e.degree, pairs) == e
        cancelled = data.draw(st.permutations(pairs + [(t, -p) for t, p in pairs]))
        assert ClassExpr(e.basis, e.degree, cancelled) == ClassExpr.zero(e.basis)

    @_SETTINGS
    @given(st.data(), st.sampled_from([CycleExpr, XPolynomial]),
           st.dictionaries(_PROFILES, _COEFFS, max_size=6))
    def test_profile_terms_sum(self, data, kind, mapping):
        expected = kind(mapping.items())
        assert dict(expected.terms) == mapping
        assert kind(data.draw(_repeated(mapping.items()))) == expected
        cancelled = list(mapping.items()) + [(p, -c) for p, c in mapping.items()]
        assert kind(data.draw(st.permutations(cancelled))) == kind(())

    @_SETTINGS
    @given(st.data(), class_exprs())
    def test_class_input_is_made_canonical(self, data, e):
        assert ClassExpr(*e._values()) == e
        # zero coefficients and a vanishing tree (a star marked above its valency) drop out
        padded = list(e.terms) + [(t, 0) for t, _ in e.terms] + [(star(1, [0, 0]), 5)]
        assert ClassExpr(e.basis, e.degree, data.draw(st.permutations(padded))) == e
        ints = [(t, c.numerator) for t, c in e.terms if c.denominator == 1]
        as_fractions = [(t, Fraction(c)) for t, c in ints]
        assert ClassExpr(e.basis, e.degree, ints) == ClassExpr(e.basis, e.degree, as_fractions)
        # every way in stores the canonical integer form, and == and hash
        # agree with comparing the Fraction terms
        part = ClassExpr(e.basis, e.degree, [(t, data.draw(_COEFFS)) for t, _ in e.terms[::2]])
        c = data.draw(_EXACT)
        built = [
            e, part, ClassExpr(e.basis, e.degree, padded), e + part, e - part, e - e,
            e.scale(c), e.mul_xi(data.draw(st.integers(0, 3))),
            parse_class(render_class(e), e.basis),
            parse_class("2/4*a_2 - 1/4*a_2 + 3/6*xi*a_1 + 0*a_3 + 1/3*i[1,1]*xi^0 - 2/6*i[1,1]"),
        ]
        for x in built:
            den, terms = x._form
            assert den >= 1 and gcd(den, *(n for _, n in terms)) == 1
            assert all(n and not t.vanishing for t, n in terms)
            codes = [encoding(t) for t, _ in terms]
            assert codes == sorted(set(codes))
            assert x.terms == tuple((t, Fraction(n, den)) for t, n in terms)
            assert (x.degree is None) is not bool(terms)
        for x in built:
            for y in built:
                assert (x == y) is ((x.basis, x.degree, x.terms) == (y.basis, y.degree, y.terms))
                assert x != y or hash(x) == hash(y)

    @_SETTINGS
    @given(st.data(), st.sampled_from([CycleExpr, XPolynomial]),
           st.dictionaries(_PROFILES, _COEFFS, max_size=6))
    def test_profile_input_is_made_canonical(self, data, kind, mapping):
        x = kind(mapping.items())
        assert kind(*x._values()) == x
        # profiles in any order, zero coefficients beside them
        shuffled = [(tuple(data.draw(st.permutations(p))), c) for p, c in mapping.items()]
        padded = shuffled + [(p, 0) for p in mapping] + [((7,), Fraction(0))]
        assert kind(data.draw(st.permutations(padded))) == x

    @_SETTINGS
    @given(st.lists(_EXACT, max_size=6), st.integers(0, 3))
    def test_polynomial_input_is_made_canonical(self, coeffs, zeros):
        p = Polynomial(coeffs)
        assert Polynomial(*p._values()) == p
        assert Polynomial(coeffs + [0] * zeros) == p
        assert Polynomial([Fraction(c) for c in coeffs]) == p
        assert not p.coeffs or p.coeffs[-1] != 0
        assert p.degree == (len(p.coeffs) - 1 if p.coeffs else None)

    @_SETTINGS
    @given(_POLYNOMIALS, _POLYNOMIALS.filter(lambda p: p.coeffs),
           _POLYNOMIALS.filter(lambda p: p.coeffs), _EXACT.filter(bool))
    def test_rational_function_input_is_made_canonical(self, n, d, g, c):
        f = RationalFunction(n, d)
        assert RationalFunction(*f._values()) == f
        assert RationalFunction(mul(n, g), mul(d, g)) == f
        assert RationalFunction(n.scale(c), d.scale(c)) == f
        assert f.denominator.leading() == 1
        assert f.numerator.gcd(f.denominator).degree == 0


class TestTheExamplesThatDifferedByConstructor:
    """Each of these held only for values built by the canonical factory
    that the constructor has replaced; a directly built value differed."""

    def test_a_repeated_tree_adds_up(self):
        e = ClassExpr(SINGULARITY, 2, ((stick(2), 1), (stick(2), 1)))
        assert render_class(e) == "2*a_2"
        assert e == ClassExpr.single(SINGULARITY, stick(2)).scale(2)

    def test_a_class_without_terms_is_zero(self):
        assert ClassExpr(SINGULARITY, 2, ()) == ClassExpr.zero(SINGULARITY)
        assert ClassExpr(SINGULARITY, 2, ((stick(2), 0),)).degree is None

    def test_a_repeated_profile_adds_up(self):
        c = CycleExpr((((2,), Fraction(1)), ((2,), Fraction(1))))
        assert render_cycles(c) == "2*C[2]"
        assert c == CycleExpr((((2,), 2),))

    def test_a_zero_coefficient_drops_out(self):
        assert CycleExpr((((2,), Fraction(0)),)).is_zero()
        assert CycleExpr((((2,), Fraction(0)),)) == CycleExpr.zero()

    def test_trailing_zeros_are_stripped(self):
        assert Polynomial((Fraction(1), Fraction(0))).degree == 0
        assert Polynomial((Fraction(1), Fraction(0))) == Polynomial.one()

    def test_a_rational_function_is_reduced(self):
        assert RationalFunction(add(_Z, _ONE), add(_Z, _ONE)) == RationalFunction(_ONE, _ONE)
        assert RationalFunction(_Z.scale(2), _Z.scale(4)).numerator == Polynomial([Fraction(1, 2)])

    @pytest.mark.parametrize(
        "build",
        [lambda: Polynomial([0.5]), lambda: RationalFunction(1, _ONE),
         lambda: RationalFunction(_ONE, Polynomial.zero())],
        ids=["polynomial float", "function of an int", "zero denominator"],
    )
    def test_inexact_or_malformed_input_is_refused(self, build):
        with pytest.raises(ConstraintError):
            build()


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
    def test_the_constructor_refuses_a_tree_above_the_degree(self, e, k):
        top = max(t.codim for t, _ in e.terms)
        assert ClassExpr(e.basis, e.degree, e.terms) == e
        with pytest.raises(ConstraintError):
            ClassExpr(e.basis, top - k, e.terms)


def rnd_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


class TestRational:
    def test_serialization(self):
        assert str(Fraction(11, 48)) == "11/48"
        assert str(Fraction(-3, 2)) == "-3/2"
        assert str(Fraction(7)) == "7"

    def test_field_laws_on_random_triples(self):
        rng = random.Random(20240308)
        for _ in range(200):
            a, b, c = (rnd_fraction(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_normalization_is_idempotent(self):
        q = Fraction(6, -8)
        assert q.denominator > 0
        assert Fraction(q.numerator, q.denominator) == q
        assert Fraction(0, 5) == Fraction(0, 1)

    def test_division_by_zero_is_an_error(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)
