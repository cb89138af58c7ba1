"""Profiles, partitions, and Murnaghan-Nakayama character evaluation."""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass import combinatorics
from singclass.combinatorics import (
    CHARACTER_SIZE_BUDGET,
    _mn,
    aut_count,
    central_character,
    character_dimension,
    make_profile,
    mn_character,
    partitions_of,
    profiles_with_sum,
    shifted_power_sum,
)
from singclass.cycles import CycleExpr, completed_cycle, evaluate
from singclass.errors import ConstraintError
from test_cycles import profile_order


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

    @pytest.mark.parametrize("total, min_len", [(3, -7), (0, -1)])
    def test_negative_counts_are_refused(self, total, min_len):
        # a negative min_len once read as min_len=1 (or 0 for a zero total)
        with pytest.raises(ConstraintError, match="must be nonnegative"):
            profiles_with_sum(total, min_len)


class TestProfileOrder:
    def test_cycles_plus_total_length(self):
        assert profile_order(()) == 0
        assert profile_order((2, 1)) == 5
        assert profile_order([1, 3]) == 6

    @pytest.mark.parametrize("p", [(1.5,), (0, -3), (0,), (2, True)])
    def test_what_make_profile_refuses_is_refused(self, p):
        with pytest.raises(ConstraintError):
            make_profile(p)


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


@lru_cache(maxsize=None)
def _full_tail_mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """The Murnaghan-Nakayama recursion over the whole cycle type, ones
    included, down to the empty shape: the route characters took before the
    hook-length formula ended it."""
    if not mu:
        return 1
    t = mu[0]
    rest = mu[1:]
    length = len(lam)
    beta = [lam[i] + length - 1 - i for i in range(length)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        b2 = b - t
        if b2 < 0 or b2 in beta_set:
            continue
        height = sum(1 for x in beta if b2 < x < b)
        new_beta = sorted((beta_set - {b}) | {b2}, reverse=True)
        new_lam = tuple(
            x - (length - 1 - i) for i, x in enumerate(new_beta) if x - (length - 1 - i) > 0
        )
        total += (-1) ** height * _full_tail_mn(new_lam, rest)
    return total


def _full_tail_central(p: tuple[int, ...], lam: tuple[int, ...]) -> Fraction:
    """central_character's formula N!/(N-K)! chi(mu) / (prod(p) dim), both
    characters by the full-tail recursion."""
    n = sum(lam)
    mu = tuple(sorted(p, reverse=True)) + (1,) * (n - sum(p))
    return Fraction(
        factorial(n) // factorial(n - sum(p)) * _full_tail_mn(lam, mu),
        prod(p) * _full_tail_mn(lam, (1,) * n),
    )


# the costliest dimension of 48 boxes that the full-tail recursion was sized on
_WORST_48 = (13, 9, 6, 5, 4, 3, 2, 2, 1, 1, 1, 1)

# the costliest 48-box character a hill-climb found (see CHARACTER_SIZE_BUDGET)
_WORST_48_CHARACTER = ((14, 8, 8, 4, 4, 4) + (1,) * 6, (3, 3) + (2,) * 18 + (1,) * 6)

# sizes past the exhaustive checks, up to 20 boxes
_SIZES_PAST_EXHAUSTIVE = st.integers(min_value=13, max_value=20)


def _partition_of(n: int):
    return st.sampled_from(partitions_of(n))


def _profile_up_to(n: int):
    return st.integers(min_value=1, max_value=n).flatmap(
        lambda total: st.sampled_from(profiles_with_sum(total))
    )


class TestCharactersWithoutTheOnesTail:
    def test_every_dimension_up_to_s14_matches_the_full_tail_recursion(self):
        for n in range(0, 15):
            for lam in partitions_of(n):
                assert character_dimension(lam) == _full_tail_mn(lam, (1,) * n), lam

    def test_every_character_up_to_s12_matches_the_full_tail_recursion(self):
        for n in range(0, 13):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert mn_character(lam, mu) == _full_tail_mn(lam, mu), (lam, mu)

    def test_central_characters_match_the_full_tail_recursion(self):
        for n in range(0, 10):
            for lam in partitions_of(n):
                for p in [p for total in range(1, n + 1) for p in profiles_with_sum(total)]:
                    assert central_character(p, lam) == _full_tail_central(p, lam), (p, lam)

    @settings(deadline=None, max_examples=30)
    @given(_SIZES_PAST_EXHAUSTIVE.flatmap(lambda n: st.tuples(_partition_of(n), _partition_of(n))))
    def test_characters_of_13_to_20_boxes_match_the_full_tail_recursion(self, pair):
        lam, mu = pair
        assert mn_character(lam, mu) == _full_tail_mn(lam, mu)

    @settings(deadline=None, max_examples=30)
    @given(_SIZES_PAST_EXHAUSTIVE.flatmap(lambda n: st.tuples(_profile_up_to(n), _partition_of(n))))
    def test_central_characters_of_13_to_20_boxes_match_the_full_tail_recursion(self, pair):
        p, lam = pair
        assert central_character(p, lam) == _full_tail_central(p, lam)

    def test_the_worst_48_box_character_keeps_its_recursion_tree(self, monkeypatch):
        # every key the recursion reaches, read through a wrapper on the memo
        keys = set()

        def recording(beta, mu):
            keys.add((beta, mu))
            return _mn(beta, mu)

        monkeypatch.setattr(combinatorics, "_mn", recording)
        _mn.cache_clear()
        assert mn_character(*_WORST_48_CHARACTER) == 27921493600
        assert len(keys) == _mn.cache_info().currsize == 9106
        # bit 0 set would be a zero row: each shape is stored under one key
        assert all(beta & 1 == 0 for beta, _ in keys)

    def test_the_worst_48_box_dimension_adds_no_memo_entries(self):
        before = _mn.cache_info().currsize
        assert character_dimension(_WORST_48) == 64322758460211876073912320000
        assert _mn.cache_info().currsize == before

    def test_the_ones_of_a_cycle_type_take_no_recursion(self):
        # chi at 1^48 is the one memo entry (beta, ()), beta the beta set of
        # lam as an int: the dimension itself
        before = _mn.cache_info().currsize
        assert mn_character(_WORST_48, (1,) * 48) == character_dimension(_WORST_48)
        assert _mn.cache_info().currsize <= before + 1


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


def _spellings(lam: tuple[int, ...]) -> list:
    """lam as partitions_of holds it, as a fresh equal tuple, reversed and as a list."""
    return [lam, tuple(list(lam)), lam[::-1], list(lam)]


def _characters(lam, canonical: tuple[int, ...]) -> list:
    n = sum(canonical)
    return [
        *(evaluate(completed_cycle(m), lam) for m in range(7)),
        central_character((2, 1), lam),
        mn_character(lam, canonical),
        mn_character(lam, (1,) * n),
        character_dimension(lam),
    ]


# the four character functions, each on a partition alone
_CHARACTER_CALLS = {
    "evaluate": lambda lam: evaluate(completed_cycle(2), lam),
    "central_character": lambda lam: central_character((2,), lam),
    "mn_character": lambda lam: mn_character(lam, (1,)),
    "character_dimension": character_dimension,
}


class TestShapeRecords:
    """Each canonical partition has one shape record (partition, n, beta,
    dim): the partition object the record holds reads it at once, and every
    other spelling goes through the partition gate first."""

    def test_every_spelling_of_a_partition_up_to_12_boxes_has_its_values(self):
        for n in range(13):
            for lam in partitions_of(n):
                expected = _characters(lam, lam)
                assert expected[:7] == [shifted_power_sum(lam, m) for m in range(7)], lam
                for spelling in _spellings(lam)[1:]:
                    assert _characters(spelling, lam) == expected, spelling

    @pytest.mark.parametrize("name", sorted(_CHARACTER_CALLS))
    @pytest.mark.parametrize(
        "lam, message",
        [
            ((2, 1.0), "a partition row must be an integer, not 1.0"),
            ((True, 1), "a partition row must be an integer, not True"),
            ((1, True), "a partition row must be an integer, not True"),
            ((2, 0), "partition rows must be positive integers"),
            ((25, 24), "a partition of 49 boxes is over the character budget of 48"),
            (([1],), "a partition row must be an integer, not [1]"),
            (5, "partition rows must come as a sequence of integers, not 5"),
            ((2.0, 1), "a partition row must be an integer, not 2.0"),
        ],
        ids=["float row", "bool row", "bool row equal to a record", "zero row", "49 boxes",
             "unhashable row", "no sequence", "float row equal to a record"],
    )
    def test_a_refused_partition_keeps_its_message(self, name, lam, message):
        # (2, 1) and (1, 1) have records, and (2.0, 1) and (1, True) are
        # equal to them, with the same hash: they are still gated
        for canonical in ((2, 1), (1, 1)):
            _characters(canonical, canonical)
        with pytest.raises(ConstraintError) as caught:
            _CHARACTER_CALLS[name](lam)
        assert type(caught.value) is ConstraintError
        assert str(caught.value) == message

    def test_a_literal_and_the_memoised_partition_share_one_record(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_SHAPES", {})
        literal = tuple([3, 2, 1])
        first = _characters(literal, (3, 2, 1))
        memoised = partitions_of(6)[partitions_of(6).index((3, 2, 1))]
        assert memoised is not literal
        assert _characters(memoised, (3, 2, 1)) == first
        for lam in partitions_of(6):
            _characters(lam, lam)
        assert sorted(combinatorics._SHAPES) == sorted(partitions_of(6))
        assert all(record[0] == lam for lam, record in combinatorics._SHAPES.items())

    def test_the_memoised_partition_is_the_one_a_record_holds(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_SHAPES", {})
        for lam in partitions_of(7):
            record = combinatorics._shape(lam)
            assert record[0] is lam and combinatorics._shape(lam) is record
            assert record[1:] == (sum(lam), combinatorics._shape(list(lam))[2], character_dimension(lam))
        # a list makes a record that holds its canonical tuple
        assert combinatorics._shape([9, 1])[0] == (9, 1)


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
