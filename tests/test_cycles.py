"""Completed cycles, coefficient polynomials, class-algebra products."""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass.combinatorics import (
    aut_count,
    central_character,
    partitions_of,
    profiles_with_sum,
    shifted_power_sum,
)
from singclass.cycles import (
    CycleExpr,
    completed_cycle,
    genus0_equality_check,
    evaluate,
    genus0_part,
    multiply_central,
    profile_order,
    rho,
    verify_in_group_algebra,
    x_polynomial,
)
from singclass.errors import ConstraintError
from singclass.grammar import parse_cycles


def _profiles_of_order_up_to(limit: int) -> list[tuple[int, ...]]:
    return [
        p
        for total in range(1, limit)
        for p in profiles_with_sum(total)
        if profile_order(p) <= limit
    ]


# every ordered pair of nonempty profiles with order(p1) + order(p2) <= 9
_PRODUCT_PAIRS = [
    (a, b)
    for a in _profiles_of_order_up_to(7)
    for b in _profiles_of_order_up_to(7)
    if profile_order(a) + profile_order(b) <= 9
]


class TestXPolynomial:
    def test_degree_zero(self):
        assert x_polynomial(0).terms == (((1,), Fraction(1)),)

    def test_degree_two_normalized(self):
        poly = x_polynomial(2)
        assert poly.coefficient((3,)) == Fraction(1, 2)
        assert poly.coefficient((1, 1)) == Fraction(1, 4)
        assert len(poly.terms) == 2

    def test_degree_two_raw(self):
        poly = x_polynomial(2, normalized=False)
        assert poly.coefficient((3,)) == 1
        assert poly.coefficient((1, 1)) == Fraction(1, 2)

    def test_literal_coefficient_formula(self):
        for m in range(0, 9):
            poly = x_polynomial(m, normalized=False)
            for p, coeff in poly.terms:
                length, total = len(p), sum(p)
                assert total == m - length + 2
                assert coeff == Fraction(
                    factorial(m) * prod(p), factorial(total) * aut_count(p)
                )

    def test_products_concatenate_monomials(self):
        left = x_polynomial(0)
        assert (left * left).coefficient((1, 1)) == 1


class TestRho:
    def test_genus_zero_single_part(self):
        for k in range(1, 7):
            assert rho(0, (k,)) == Fraction(1, factorial(k - 1))

    def test_genus_one_three(self):
        assert rho(1, (3,)) == Fraction(11, 48)

    def test_genus_two_one(self):
        assert rho(2, (1,)) == Fraction(1, 1920)

    def test_empty_profile_rejected(self):
        with pytest.raises(ConstraintError):
            rho(0, ())


class TestCompletedCycle:
    def test_table(self):
        expected = {
            0: "C[1]",
            1: "C[2]",
            2: "1/2*C[3] + 1/4*C[1,1] + 1/24*C[1]",
            3: "1/6*C[4] + 1/3*C[1,2] + 5/24*C[2]",
            4: "1/24*C[5] + 1/8*C[1,3] + 1/12*C[2,2] + 1/36*C[1,1,1]"
            " + 11/48*C[3] + 1/32*C[1,1] + 1/1920*C[1]",
        }
        for m, text in expected.items():
            assert completed_cycle(m) == parse_cycles(text)

    def test_genus0_part(self):
        assert genus0_part(completed_cycle(2), 2) == parse_cycles(
            "1/2*C[3] + 1/4*C[1,1]"
        )
        assert genus0_part(completed_cycle(1), 1) == parse_cycles("C[2]")
        assert genus0_part(completed_cycle(4), 4) == parse_cycles(
            "1/24*C[5] + 1/8*C[1,3] + 1/12*C[2,2] + 1/36*C[1,1,1]"
        )

    def test_genus0_matches_the_x_polynomial(self):
        for m in range(0, 7):
            g0 = genus0_part(completed_cycle(m), m)
            poly = x_polynomial(m)
            assert sorted(g0.profiles()) == sorted(p for p, _ in poly.terms)
            for p in g0.profiles():
                assert g0.coefficient(p) == poly.coefficient(p)

    def test_shifted_power_sum_evaluation_small(self):
        for m in range(0, 4):
            element = completed_cycle(m)
            for size in range(0, 7):
                for lam in partitions_of(size):
                    assert evaluate(element, lam) == shifted_power_sum(lam, m)


class TestEvaluate:
    def test_identity_element(self):
        for lam in [(), (1,), (3, 2)]:
            assert evaluate(CycleExpr.identity(), lam) == 1

    def test_completed_two_cycle_on_a_three_cycle(self):
        assert evaluate(completed_cycle(1), (3,)) == 3
        assert evaluate(completed_cycle(1), (3,)) == shifted_power_sum((3,), 1)

    def test_constant_term_survives_on_the_point(self):
        assert evaluate(completed_cycle(2), (1,)) == Fraction(1, 24)


class TestMultiplyCentral:
    def test_two_transposition_classes(self):
        assert multiply_central((2,), (2,)) == parse_cycles(
            "C[2,2] + 3*C[3] + 1/2*C[1,1]"
        )

    def test_marked_points(self):
        assert multiply_central((1,), (1,)) == parse_cycles("C[1,1] + C[1]")

    def test_identity_element(self):
        assert multiply_central((), (1, 2)) == parse_cycles("C[1,2]")
        assert multiply_central((2, 2), ()) == parse_cycles("C[2,2]")

    @pytest.mark.parametrize(
        "p1,p2",
        [((2,), (3,)), ((1, 2), (2,)), ((1,), (1, 1)), ((2, 2), (2, 2)), ((1, 2), (3,))],
    )
    def test_leading_term_is_the_concatenation(self, p1, p2):
        product = multiply_central(p1, p2)
        concat = tuple(sorted(p1 + p2))
        assert product.coefficient(concat) == 1
        top = profile_order(p1) + profile_order(p2)
        for p in product.profiles():
            assert profile_order(p) <= top
            if profile_order(p) == top:
                assert p == concat

    @pytest.mark.parametrize(
        "p1,p2,sizes",
        [
            ((2,), (2,), (4, 5)),
            ((1,), (2,), (3, 4)),
            ((1, 1, 1), (2,), (5, 6)),
            ((1, 2), (3,), (6,)),
            ((3,), (3,), (6,)),
        ],
    )
    def test_products_verify_in_two_group_algebras(self, p1, p2, sizes):
        product = multiply_central(p1, p2)
        for n in sizes:
            assert verify_in_group_algebra(p1, p2, product, n)

    def test_over_the_tuple_budget_is_refused(self):
        with pytest.raises(ConstraintError, match="budget"):
            multiply_central((1,) * 6, (1,) * 6)

    def test_square_of_three_three_matches_the_characters(self):
        # 73 920 cycle tuples, within PRODUCT_TUPLE_BUDGET; S_12 is out of
        # the oracle's reach, so the check is by characters
        product = multiply_central((3, 3), (3, 3))
        for size in range(0, 13):
            for lam in partitions_of(size):
                assert evaluate(product, lam) == central_character((3, 3), lam) ** 2

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from(_PRODUCT_PAIRS))
    def test_commutative_multiplicative_and_confirmed_in_the_group_algebra(self, pair):
        p1, p2 = pair
        product = multiply_central(p1, p2)
        assert product == multiply_central(p2, p1)
        n = sum(p1) + sum(p2)
        for size in range(0, n + 3):
            for lam in partitions_of(size):
                assert evaluate(product, lam) == (
                    central_character(p1, lam) * central_character(p2, lam)
                )
        if n <= 6:
            assert verify_in_group_algebra(p1, p2, product, n)


class TestGroupAlgebraOracle:
    def test_confirms_the_transposition_square(self):
        claimed = parse_cycles("C[2,2] + 3*C[3] + 1/2*C[1,1]")
        assert verify_in_group_algebra((2,), (2,), claimed, 4)

    def test_rejects_a_perturbed_claim(self):
        wrong = parse_cycles("C[2,2] + 3*C[3] + C[1,1]")
        assert not verify_in_group_algebra((2,), (2,), wrong, 4)

    def test_marked_point_square(self):
        claimed = parse_cycles("C[1,1] + C[1]")
        assert verify_in_group_algebra((1,), (1,), claimed, 3)

    def test_too_small_symmetric_group(self):
        with pytest.raises(ConstraintError):
            verify_in_group_algebra((2,), (2,), CycleExpr.zero(), 3)


class TestEquality1:
    def test_small_degrees(self):
        for m in range(1, 5):
            assert genus0_equality_check(m)

    def test_rejects_degree_zero(self):
        with pytest.raises(ConstraintError):
            genus0_equality_check(0)


class TestCycleExpr:
    def test_parse_render_round_trip(self):
        from singclass.grammar import render_cycles

        e = completed_cycle(4)
        assert parse_cycles(render_cycles(e)) == e

    def test_profiles_with_sum_reused_for_enumeration(self):
        # the m=4 new-profile layer matches the displayed i-classes
        assert profiles_with_sum(4, 2) == [(1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)]
