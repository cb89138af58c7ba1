"""Completed cycles, coefficient polynomials, class-algebra products."""

from __future__ import annotations

import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm, prod
from pathlib import Path

import pytest
from hurwitz_reference import product
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass import cycles
from singclass.combinatorics import (
    CHARACTER_SIZE_BUDGET,
    aut_count,
    central_character,
    partitions_of,
    profiles_with_sum,
    shifted_power_sum,
)
from singclass.cycles import (
    PRODUCT_STEP_BUDGET,
    CycleExpr,
    _orbit_count,
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
from singclass.notation import parse_cycles, render_cycles
from singclass.verification import genus0_equality_check

SRC = Path(__file__).resolve().parent.parent / "src"


def profile_order(p: tuple[int, ...]) -> int:
    """Order of a stable central element: number of cycles plus their total
    length, the key ``CycleExpr`` sorts its terms by (descending)."""
    return len(p) + sum(p)


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


def steps(p1: tuple[int, ...], p2: tuple[int, ...]) -> int:
    """Point steps of multiply_central(p1, p2): its orbit representatives
    times the n points, for the factor it enumerates (the one with fewer
    points; the smaller profile on a tie)."""
    big, small = sorted((p1, p2), key=lambda p: (sum(p), p), reverse=True)
    return _orbit_count(small, sum(big), 10**12) * (sum(p1) + sum(p2))


def product_fits_the_characters(product: CycleExpr, p1, p2) -> bool:
    """Whether the product evaluates to the product of the factors' central
    characters on every partition of at most sum(p1) + sum(p2) boxes."""
    return all(
        evaluate(product, lam) == central_character(p1, lam) * central_character(p2, lam)
        for size in range(sum(p1) + sum(p2) + 1)
        for lam in partitions_of(size)
    )


# {6}^2, {3,3}^2, {4,4}^2, {3,3,3}*{3,3}, {8}*{1,1,6}, {1^6}^2 are admitted; {1^8}^2, {5,5}^2 not
_DOCUMENTED_STEPS = [
    ((6,), (6,)), ((3, 3), (3, 3)), ((4, 4), (4, 4)), ((3, 3, 3), (3, 3)), ((8,), (1, 1, 6)),
    ((1,) * 6, (1,) * 6), ((1,) * 8, (1,) * 8), ((5, 5), (5, 5)),
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


_COEFFICIENTS = st.fractions(min_value=-20, max_value=20, max_denominator=30)


@st.composite
def _fixed_point_families(draw):
    """(element, {cycle type: size at which its weight cancels}): for each of
    a few distinct cycle types mu, profiles mu + 1^f for several f; either
    each with a drawn coefficient, or two whose coefficients make the grouped
    weight of mu vanish at one size n0."""
    element, cancelled = CycleExpr.zero(), {}
    for mu in draw(st.lists(st.lists(st.integers(2, 4), max_size=2).map(tuple), min_size=1,
                            max_size=3, unique_by=lambda mu: tuple(sorted(mu)))):
        fixed = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        if len(fixed) >= 2 and draw(st.booleans()):
            few, many = sorted(fixed[:2])
            low, high = sum(mu) + few, sum(mu) + many
            n0 = draw(st.integers(high, 11))
            c = draw(_COEFFICIENTS.filter(bool))
            pairs = [(mu + (1,) * many, c), (mu + (1,) * few, -c * perm(n0, high) / perm(n0, low))]
            cancelled[tuple(sorted(mu, reverse=True))] = n0
        else:
            pairs = [(mu + (1,) * f, draw(_COEFFICIENTS)) for f in fixed]
        element = element + CycleExpr(pairs)
    return element, cancelled


_SMALL_PARTITIONS = [lam for n in range(12) for lam in partitions_of(n)]


class TestPerSizeTable:
    """evaluate sums, per size, one integer weight per cycle type: the
    profiles that differ only in fixed points share one character value.
    The per-term route, one central character per term, is the reference."""

    @settings(deadline=None, max_examples=60)
    @given(_fixed_point_families(), st.lists(st.sampled_from(_SMALL_PARTITIONS), min_size=1,
                                             max_size=25), st.randoms(use_true_random=False))
    def test_the_grouped_sums_equal_the_per_term_route(self, family, lams, rng):
        element, cancelled = family
        lams = lams + [(n0,) for n0 in cancelled.values()]  # each size where a weight cancels
        rng.shuffle(lams)
        want = {
            lam: sum((coeff * central_character(p, lam) for p, coeff in element.terms), Fraction(0))
            for lam in lams
        }
        assert [evaluate(element, lam) for lam in lams] == [want[lam] for lam in lams]
        again = lams[:]
        rng.shuffle(again)
        assert [evaluate(element, lam) for lam in again] == [want[lam] for lam in again]
        sizes = element._row[2]
        assert set(sizes) == {sum(lam) for lam in lams}
        for mu, n0 in cancelled.items():
            assert mu not in {m for _, m in sizes[n0]}

    def test_the_table_holds_one_entry_per_size_within_the_budget(self):
        element = CycleExpr([((1, 1, 2), 3), ((2,), -1), ((), 1)])
        for n in reversed(range(CHARACTER_SIZE_BUDGET + 1)):
            for _ in range(2):
                evaluate(element, (n,) if n else ())
        with pytest.raises(ConstraintError):
            evaluate(element, (CHARACTER_SIZE_BUDGET + 1,))
        assert sorted(element._row[2]) == list(range(CHARACTER_SIZE_BUDGET + 1))

    def test_completed_cycles_are_the_gated_rho_over_aut_count(self):
        for m in range(15):
            want = CycleExpr(
                (p, rho((m + 2 - len(p) - sum(p)) // 2, p) / aut_count(p))
                for p in _profiles_of_order_up_to(m + 2)
                if (m + 2 - len(p) - sum(p)) % 2 == 0
            )
            assert completed_cycle(m) == want, m

    def test_aut_count_is_the_product_of_multiplicity_factorials(self):
        for p in _profiles_of_order_up_to(12):
            want = prod(factorial(k) for k in Counter(p).values())
            assert aut_count(p) == aut_count(p[::-1]) == want, p


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
            multiply_central((1,) * 8, (1,) * 8)
        with pytest.raises(ConstraintError, match="budget"):
            multiply_central((5, 5), (5, 5))

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
        assert [steps(p1, p2) for p1, p2 in _DOCUMENTED_STEPS] == [
            26_664, 18_996, 1_462_096, 351_285, 3_845_584, 159_924, 23_067_664, 188_136_780,
        ]
        admitted = [steps(p1, p2) <= PRODUCT_STEP_BUDGET for p1, p2 in _DOCUMENTED_STEPS]
        assert admitted == [True] * 6 + [False] * 2
        assert all(steps(a, b) <= PRODUCT_STEP_BUDGET for a, b in _PRODUCT_PAIRS)

    @pytest.mark.parametrize("p1, p2", [((6,), (6,)), ((3, 3), (3, 3)), ((2, 3), (1, 2, 2)), ((1,), ())])
    def test_a_product_visits_as_many_representatives_as_its_steps_count(self, monkeypatch, p1, p2):
        visits = []
        tally = cycles._orbit_tally

        def counted(*args):
            visits.append(1)
            tally(*args)

        monkeypatch.setattr(cycles, "_orbit_tally", counted)
        multiply_central(p1, p2)
        assert len(visits) * (sum(p1) + sum(p2)) == steps(p1, p2)

    def test_one_step_over_the_budget_is_refused_at_once_and_a_call_at_it_answers(self, monkeypatch):
        want = multiply_central((3, 3, 3), (3, 3))  # 351 285 steps
        monkeypatch.setattr(cycles, "PRODUCT_STEP_BUDGET", 351_285 - 1)
        start = time.perf_counter()
        with pytest.raises(ConstraintError, match="budget"):
            multiply_central((3, 3, 3), (3, 3))
        assert time.perf_counter() - start < 0.1
        monkeypatch.setattr(cycles, "PRODUCT_STEP_BUDGET", 351_285)
        assert multiply_central((3, 3), (3, 3, 3)) == want

    def test_a_call_at_the_real_budget_answers(self):
        # {8}*{1,1,6}: 240 349 representatives on 16 points, 96 % of the budget
        assert 0.95 * PRODUCT_STEP_BUDGET < steps((8,), (1, 1, 6)) <= PRODUCT_STEP_BUDGET
        product = multiply_central((8,), (1, 1, 6))
        assert len(product.terms) == 125
        assert product.coefficient((1, 1, 6, 8)) == 1
        for lam in [(16,), (9, 7), (5, 4, 4, 3), (3,) * 5 + (1,), (1,) * 16, (2,), ()]:
            want = central_character((8,), lam) * central_character((1, 1, 6), lam)
            assert evaluate(product, lam) == want

    def test_work_over_the_budget_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ConstraintError, match="budget"):
            multiply_central((20000,), (1,))  # 20 001 representatives of 20 001 points
        with pytest.raises(ConstraintError, match="budget"):
            multiply_central((10**6,), (1,))  # was factorial(10**6), several times
        with pytest.raises(ConstraintError, match="budget"):
            multiply_central((4, 4, 1), (4, 4))  # 4 918 967 steps
        with pytest.raises(ConstraintError, match="budget"):
            verify_in_group_algebra((2,), (2,), multiply_central((2,), (2,)), 10**6)
        assert time.perf_counter() - start < 0.1

    def test_a_long_factor_times_the_identity(self):
        assert multiply_central((1,) * 2000, ()) == CycleExpr([((1,) * 2000, 1)])

    @pytest.mark.parametrize("p1, p2", [((4, 4), (4, 4)), ((3, 3, 3), (3, 3)), ((6,), (6,)), ((3, 3), (3, 3))])
    def test_products_at_scale_match_the_characters(self, p1, p2):
        # S_12 to S_16 are out of the oracle's reach, so the check is by the
        # homomorphism evaluate(C_p1 C_p2, lam) = evaluate(C_p1, lam) evaluate(C_p2, lam)
        # on every lam of at most n boxes, which determines the product
        product = multiply_central(p1, p2)
        assert product_fits_the_characters(product, p1, p2)

    def test_a_changed_coefficient_breaks_the_character_identity(self):
        product = multiply_central((3, 3), (3, 3))
        for i in (0, 7, len(product.terms) - 1):
            terms = list(product.terms)
            terms[i] = (terms[i][0], terms[i][1] + Fraction(1, 9))
            assert not product_fits_the_characters(CycleExpr(terms), (3, 3), (3, 3))

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


class TestCompletedCycleBudget:
    def test_one_step_over_is_refused_at_once_and_the_budget_is_answered(self):
        """From an empty memo: m = budget + 1 is refused in under 0.1 s with
        the memo untouched, and m = budget returns within 100 MB."""
        script = """
import resource, time
from singclass import cycles
from singclass.errors import ConstraintError
budget = cycles.COMPLETED_CYCLE_BUDGET
start = time.perf_counter()
try:
    cycles.completed_cycle(budget + 1)
except ConstraintError as exc:
    print(time.perf_counter() - start, exc)
print(cycles._completed_cycle.cache_info().currsize)
print(len(cycles.completed_cycle(budget).terms))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)
"""
        result = subprocess.run(
            [sys.executable, "-S", "-c", script],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        refused, memo_entries, terms, peak_mb = result.stdout.splitlines()
        seconds, message = refused.split(" ", 1)
        budget = cycles.COMPLETED_CYCLE_BUDGET
        assert float(seconds) < 0.1
        assert message == f"m = {budget + 1} is over the budget of {budget}"
        assert memo_entries == "0"
        assert int(terms) == 29_006
        assert int(peak_mb) < 100


class TestCycleExpr:
    def test_parse_render_round_trip(self):
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


class TestEvaluatePartitionGate:
    """evaluate reads the partition object a shape record holds at once, and
    takes every other argument through _character_partition: the value and
    the refusals are those of the canonical partition."""

    @pytest.mark.parametrize(
        "lam, canonical",
        [([3, 2, 1], (3, 2, 1)), ((1, 2, 3), (3, 2, 1)), ((1, 3, 1), (3, 1, 1)), ([], ()), ((48,), (48,))],
        ids=["list", "unsorted tuple", "unsorted with repeats", "empty list", "48 boxes"],
    )
    def test_a_partition_in_another_form_has_the_canonical_value(self, lam, canonical):
        for m in range(4):
            assert evaluate(completed_cycle(m), lam) == shifted_power_sum(canonical, m)

    @pytest.mark.parametrize(
        "lam, message",
        [
            ((True, 1), "a partition row must be an integer, not True"),
            ((2, 1.0), "a partition row must be an integer, not 1.0"),
            ([2.0], "a partition row must be an integer, not 2.0"),
            ((2, 0), "partition rows must be positive integers"),
            ((0,), "partition rows must be positive integers"),
            ((-1, 2), "partition rows must be positive integers"),
            ((25, 24), "a partition of 49 boxes is over the character budget of 48"),
            ([24, 25], "a partition of 49 boxes is over the character budget of 48"),
            (None, "partition rows must come as a sequence of integers, not None"),
        ],
        ids=["bool part", "float part", "float in a list", "zero part", "only a zero",
             "negative part", "49 boxes", "49 boxes in a list", "no sequence"],
    )
    def test_a_refused_partition_keeps_its_message(self, lam, message):
        with pytest.raises(ConstraintError) as caught:
            evaluate(completed_cycle(2), lam)
        assert str(caught.value) == message
