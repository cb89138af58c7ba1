"""Profiles, partitions, and Murnaghan-Nakayama character evaluation."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod

import pytest

from singclass.combinatorics import (
    CHARACTER_SIZE_BUDGET,
    aut_count,
    central_character,
    character_dimension,
    make_profile,
    mn_character,
    partitions_of,
    profiles_with_sum,
    shifted_power_sum,
)
from singclass.cycles import CycleExpr, evaluate
from singclass.errors import ConstraintError


class TestAutCount:
    @pytest.mark.parametrize(
        "profile,expected",
        [((1, 1), 2), ((1, 2), 1), ((1, 1, 2), 2), ((), 1), ((2, 2, 2), 6)],
    )
    def test_examples(self, profile, expected):
        assert aut_count(profile) == expected

    def test_orderings_times_aut_is_factorial(self):
        for p in profiles_with_sum(6):
            orderings = len(set(itertools.permutations(p)))
            assert aut_count(p) * orderings == factorial(len(p))


class TestProfilesWithSum:
    def test_small_cases(self):
        assert profiles_with_sum(2, 2) == [(1, 1)]
        assert profiles_with_sum(3, 2) == [(1, 2), (1, 1, 1)]

    def test_matches_the_degree_four_layer(self):
        assert profiles_with_sum(4, 2) == [(1, 3), (2, 2), (1, 1, 2), (1, 1, 1, 1)]

    def test_each_multiset_once(self):
        for total in range(1, 9):
            out = profiles_with_sum(total)
            assert len(out) == len(set(out))
            assert all(sum(p) == total for p in out)

    def test_zero_total(self):
        assert profiles_with_sum(0, 0) == [()]
        assert profiles_with_sum(0, 2) == []


def _s3_standard_character(cycle_type):
    """Brute-force oracle: permutation character of S_3 minus the trivial one."""
    fixed = {(1, 1, 1): 3, (2, 1): 1, (3,): 0}
    return fixed[tuple(cycle_type)] - 1


class TestMnCharacter:
    def test_trivial_representation(self):
        for mu in partitions_of(5):
            assert mn_character((5,), mu) == 1

    def test_sign_of_s2(self):
        assert mn_character((1, 1), (2,)) == -1

    def test_standard_representation_of_s3(self):
        for mu in partitions_of(3):
            assert mn_character((2, 1), mu) == _s3_standard_character(mu)

    def test_size_mismatch(self):
        with pytest.raises(ConstraintError):
            mn_character((2, 1), (2, 2))

    def test_column_orthogonality_up_to_s6(self):
        for n in range(1, 7):
            classes = partitions_of(n)
            for mu, nu in itertools.combinations(classes, 2):
                total = sum(
                    mn_character(lam, mu) * mn_character(lam, nu)
                    for lam in partitions_of(n)
                )
                assert total == 0

    def test_dimension_is_identity_value(self):
        assert character_dimension((2, 1)) == 2
        assert character_dimension((3, 2)) == 5

    def test_dimension_is_the_hook_length_formula_up_to_s12(self):
        for n in range(0, 13):
            for lam in partitions_of(n):
                columns = [sum(1 for row in lam if row > j) for j in range(lam[0] if lam else 0)]
                hooks = prod(
                    (row - j) + (columns[j] - i) - 1
                    for i, row in enumerate(lam)
                    for j in range(row)
                )
                assert character_dimension(lam) == factorial(n) // hooks


class TestCentralCharacter:
    def test_two_marked_fixed_points(self):
        for lam in [(4,), (2, 2), (3, 1, 1)]:
            n = sum(lam)
            assert central_character((1, 1), lam) == n * (n - 1)

    def test_transpositions_on_the_trivial(self):
        assert central_character((2,), (3,)) == 3

    def test_transpositions_vanish_on_the_standard(self):
        assert central_character((2,), (2, 1)) == 0

    def test_vanishing_convention(self):
        assert central_character((5,), (2, 1)) == 0

    def test_empty_profile_is_the_identity(self):
        assert central_character((), (3, 1)) == 1

    @pytest.mark.parametrize("p,lam", [((0,), (2, 1)), ((-1,), (3,)), ((2, 0), (4,))])
    def test_nonpositive_profile_parts_are_refused(self, p, lam):
        with pytest.raises(ConstraintError):
            central_character(p, lam)

    def test_unsorted_partition_is_canonicalised(self):
        assert central_character((2,), (1, 2)) == central_character((2,), (2, 1)) == 0
        assert central_character((1,), (1, 3)) == central_character((1,), (3, 1)) == 4


class TestCharacterBudget:
    @pytest.mark.parametrize(
        "call",
        [
            lambda lam: mn_character(lam, lam),
            lambda lam: mn_character(lam, (1,) * sum(lam)),
            character_dimension,
            lambda lam: central_character((2,), lam),
            lambda lam: evaluate(CycleExpr.identity(), lam),
        ],
    )
    def test_a_partition_over_the_budget_is_refused(self, call):
        # one row: its characters are cheap, so only the size check refuses it
        with pytest.raises(ConstraintError, match="character budget"):
            call((CHARACTER_SIZE_BUDGET + 1,))
        with pytest.raises(ConstraintError, match="character budget"):
            call((1,) * 1200)  # one recursion level per part: was a RecursionError

    def test_the_budget_itself_is_admitted(self):
        lam = (CHARACTER_SIZE_BUDGET,)
        n = CHARACTER_SIZE_BUDGET
        assert mn_character(lam, (1,) * n) == character_dimension(lam) == 1
        assert central_character((2,), lam) == n * (n - 1) // 2
        assert evaluate(CycleExpr.identity(), lam) == 1


class TestShiftedPowerSum:
    def test_empty_partition(self):
        for m in range(0, 6):
            assert shifted_power_sum((), m) == 0

    def test_single_row(self):
        # (1/2)[(5/2)^2 - (1/2)^2] = 3
        assert shifted_power_sum((3,), 1) == 3
        assert shifted_power_sum((3,), 1) == central_character((2,), (3,))

    def test_hook(self):
        assert shifted_power_sum((2, 1), 1) == 0
        assert shifted_power_sum((2, 1), 1) == central_character((2,), (2, 1))

    def test_cube_values(self):
        # (1/6)[(1/2)^3 - (-1/2)^3] = 1/24
        assert shifted_power_sum((1,), 2) == Fraction(1, 24)


class TestPartitionsOf:
    def test_counts(self):
        sizes = [len(partitions_of(n)) for n in range(9)]
        assert sizes == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_make_profile_sorts_and_validates(self):
        assert make_profile([3, 1, 2]) == (1, 2, 3)
        with pytest.raises(ConstraintError):
            make_profile([0, 1])
