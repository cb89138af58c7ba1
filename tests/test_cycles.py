"""Completed cycles, coefficient polynomials, class-algebra products."""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest
from hurwitz_reference import product
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass.combinatorics import (
    aut_count,
    central_character,
    partitions_of,
    profile_order,
    profiles_with_sum,
    shifted_power_sum,
)
from singclass.cycles import (
    PRODUCT_STEP_BUDGET,
    CycleExpr,
    _placements,
    completed_cycle,
    evaluate,
    genus0_part,
    multiply_central,
    rho,
    verify_in_group_algebra,
    x_polynomial,
)
from singclass.errors import ConstraintError
from singclass.grammar import parse_cycles
from singclass.verification import genus0_equality_check


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

    @pytest.mark.parametrize("p", [(1, 1), (1, 2), (2, 2), (1, 1, 3)])
    def test_genus_zero_is_the_leading_factor(self, p):
        # S(0) = 1, so only prod(p) / K! is left
        assert rho(0, p) == _rho_reference(0, p) == Fraction(prod(p), factorial(sum(p)))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_genus_one_single_part(self, k):
        # the z^2 coefficient of S(z)^(k-1) S(kz) is (k - 1 + k^2) / 24
        expected = Fraction(k, factorial(k)) * Fraction(k * k + k - 1, 24)
        assert rho(1, (k,)) == _rho_reference(1, (k,)) == expected

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


def _s_series(order: int, k: int = 1) -> list[Fraction]:
    """S(kz), S(z) = sinh(z/2)/(z/2) = sum_n (z/2)^2n/(2n+1)!, truncated at z^order."""
    return [Fraction(k**i, 4 ** (i // 2) * factorial(i + 1)) if i % 2 == 0 else Fraction(0)
            for i in range(order + 1)]


@lru_cache(maxsize=None)
def _series_product(order: int, e: int, p: tuple[int, ...]) -> list[Fraction]:
    """S(z)^e prod_{k in p} S(kz), truncated at z^order and memoised, so
    profiles share their powers of S and their prefixes; the caller must not
    change the list."""
    if p:
        return product(_series_product(order, e, p[:-1]), _s_series(order, p[-1]))
    if e:
        return product(_series_product(order, e - 1, ()), _s_series(order))
    return [Fraction(1)] + [Fraction(0)] * order


def _rho_reference(g: int, p: tuple[int, ...]) -> Fraction:
    """rho(g, p) from its definition by series products: (prod p / K!) times
    the z^2g coefficient of S(z)^(K-1) prod S(k_i z), K = sum(p)."""
    series = _series_product(max(2 * g, 1), sum(p) - 1, p)
    return Fraction(prod(p), factorial(sum(p))) * series[2 * g]


class TestSeriesReference:
    def test_constant_term(self):
        assert _s_series(4)[0] == 1

    def test_quadratic_coefficient(self):
        # Taylor expansion of sinh(z/2)/(z/2) has z^2 coefficient 1/24
        assert _s_series(4)[2] == Fraction(1, 24)

    def test_quartic_coefficient(self):
        assert _s_series(6)[4] == Fraction(1, 1920)

    def test_odd_coefficients_vanish(self):
        s = _s_series(9)
        assert all(s[n] == 0 for n in range(1, 10, 2))

    def test_even_coefficient_closed_form(self):
        s = _s_series(12)
        for n in range(0, 13, 2):
            assert s[n] == Fraction(1, 2**n) / factorial(n + 1)

    def test_scale_identity(self):
        assert _s_series(8, 1) == _s_series(8)

    def test_scale_three(self):
        assert _s_series(4, 3)[2] == Fraction(3, 8)

    def test_scale_leaves_the_constant(self):
        assert _s_series(4, 2)[0] == 1

    @pytest.mark.parametrize("e, p", [(0, (1,)), (3, ()), (2, (2, 3)), (5, (1, 1, 4))])
    def test_quadratic_coefficient_of_a_product(self, e, p):
        # each factor S(kz) adds k^2 / 24 to the z^2 coefficient
        series = _series_product(4, e, p)
        assert series[0] == 1
        assert series[2] == Fraction(e + sum(k * k for k in p), 24)


class TestCharacterKernel:
    """evaluate and rho against plain references: one Fraction per term, and
    the series products on Fraction lists."""

    @settings(deadline=None, max_examples=40)
    @given(st.lists(
        st.tuples(
            st.sampled_from([()] + _profiles_of_order_up_to(8)),
            st.fractions(min_value=-20, max_value=20, max_denominator=30),
        ),
        max_size=6,
    ))
    def test_evaluate_is_the_sum_of_central_characters(self, pairs):
        element = CycleExpr(pairs)
        for n in range(0, 9):
            for lam in partitions_of(n):
                want = sum(
                    (coeff * central_character(p, lam) for p, coeff in element.terms),
                    Fraction(0),
                )
                assert evaluate(element, lam) == want
                assert evaluate(element, lam[::-1]) == want

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=0, max_value=5),
        st.sampled_from([p for total in range(1, 9) for p in profiles_with_sum(total)]),
    )
    def test_rho_matches_the_series_reference(self, g, p):
        assert rho(g, p) == _rho_reference(g, p)


class TestAgainstTheSeriesRoute:
    """rho runs the exponential recursion over integers; the series products it
    replaced stay here as the reference, and the completed cycles built from it
    must still evaluate to shifted power sums."""

    def test_rho_equals_the_series_products(self):
        for g in range(0, 7):
            for total in range(1, 13):
                for p in profiles_with_sum(total):
                    assert rho(g, p) == _rho_reference(g, p), (g, p)

    def test_completed_cycles_evaluate_to_shifted_power_sums(self):
        for m in range(0, 11):
            element = completed_cycle(m)
            for n in range(0, 13):
                for lam in partitions_of(n):
                    assert evaluate(element, lam) == shifted_power_sum(lam, m), (m, lam)


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

    def test_placements_stop_once_over_the_cap(self):
        def reference(p, n):
            return factorial(n) // (factorial(n - sum(p)) * prod(p))

        for total in range(0, 9):
            for p in profiles_with_sum(total) if total else [()]:
                for n in range(total, total + 6):
                    for cap in (0, 1, 7, 100, 10**9):
                        want = reference(p, n)
                        assert _placements(p, n, cap) == (want if want <= cap else cap + 1)

    def test_the_step_budget_admits_and_refuses_the_documented_products(self):
        def steps(p1, p2):
            n = sum(p1) + sum(p2)
            tuples = min(factorial(n) // (factorial(n - sum(p)) * prod(p)) for p in (p1, p2))
            return tuples * n

        assert steps((6,), (6,)) <= PRODUCT_STEP_BUDGET
        assert steps((3, 3), (3, 3)) <= PRODUCT_STEP_BUDGET
        assert steps((1,) * 6, (1,) * 6) > PRODUCT_STEP_BUDGET
        assert all(steps(a, b) <= PRODUCT_STEP_BUDGET for a, b in _PRODUCT_PAIRS)

    def test_work_over_the_budget_is_refused_at_once(self):
        with pytest.raises(ConstraintError, match="budget"):
            multiply_central((20000,), (1,))  # 20 001 tuples of 20 001 points
        with pytest.raises(ConstraintError, match="budget"):
            multiply_central((10**6,), (1,))  # was factorial(10**6), several times
        with pytest.raises(ConstraintError, match="budget"):
            verify_in_group_algebra((2,), (2,), multiply_central((2,), (2,)), 10**6)

    def test_a_long_factor_times_the_identity(self):
        assert multiply_central((1,) * 2000, ()) == CycleExpr([((1,) * 2000, 1)])

    def test_square_of_three_three_matches_the_characters(self):
        # 73 920 cycle tuples, within PRODUCT_STEP_BUDGET; S_12 is out of
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

    def test_placements_of_the_claimed_terms_count_against_the_budget(self):
        # 100 compositions, but C[1^9] in S_10 has 3 628 800 placements
        claimed = CycleExpr([((1,) * 9, 1)])
        start = time.perf_counter()
        with pytest.raises(ConstraintError, match="placements of the claimed terms"):
            verify_in_group_algebra((1,), (1,), claimed, 10)
        assert time.perf_counter() - start < 1


class TestEquality1:
    def test_small_degrees(self):
        for m in range(1, 5):
            assert genus0_equality_check(m)

    def test_rejects_degree_zero(self):
        with pytest.raises(ConstraintError):
            genus0_equality_check(0)


class TestTermOrder:
    """Terms come sorted by descending order l + sum(p), then by length,
    then by profile, and genus0_part keeps those of order m + 2."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: completed_cycle(5),
            lambda: x_polynomial(5),
            lambda: multiply_central((2, 2), (2, 2)),
            lambda: multiply_central((1, 2), (3,)),
            lambda: parse_cycles("C[1] + C[1,1,1] + C[3] + C[1,2] + C[2,2] + C[4]"),
        ],
        ids=["completed_cycle", "x_polynomial", "product 22 22", "product 12 3", "parsed"],
    )
    def test_terms_are_sorted_by_order_then_length(self, make):
        profiles = [p for p, _ in make().terms]
        keys = [(-profile_order(p), len(p), p) for p in profiles]
        assert len(profiles) > 1
        assert keys == sorted(keys)

    def test_genus0_part_keeps_the_terms_of_top_order(self):
        for m in range(0, 7):
            full, top = completed_cycle(m), genus0_part(completed_cycle(m), m)
            assert top.profiles() == [p for p in full.profiles() if profile_order(p) == m + 2]


class TestCycleExpr:
    def test_parse_render_round_trip(self):
        from singclass.grammar import render_cycles

        e = completed_cycle(4)
        assert parse_cycles(render_cycles(e)) == e

    def test_profiles_with_sum_reused_for_enumeration(self):
        # the m=4 new-profile layer matches the displayed i-classes
        assert profiles_with_sum(4, 2) == [(1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)]

    def test_unsorted_profiles_are_put_in_canonical_form(self):
        e = CycleExpr([((2, 1), 1)])
        assert e.coefficient((2, 1)) == e.coefficient((1, 2)) == 1
        assert e == CycleExpr([((1, 2), 1)])
        assert CycleExpr([((2, 1), 1), ((1, 2), -1)]).is_zero()

    def test_a_part_below_one_is_refused(self):
        with pytest.raises(ConstraintError, match="positive"):
            CycleExpr([((2, 0), 1)])
        with pytest.raises(ConstraintError):
            evaluate(CycleExpr([((2, 0), 1)]), (3,))
