"""Products of central elements by orbit representatives against the
enumeration of every cycle tuple, ``cycle_product_reference``.

``multiply_central`` takes the tuples of one factor only up to relabelling of
the points outside the other factor's support; the reference composes every
tuple on all n points.  They must return equal expressions, rendered to the
same text, on the 30 unordered pairs of the benchmark (nonempty profiles,
order sum <= 9), on {6}*{6} and {3,3}*{3,3}, on a hypothesis draw of pairs
with an empty factor allowed, and with the S_n oracle where n <= 7.  The
representative count that the step budget reads must be the number of
orbits, counted here by brute force.
"""

from __future__ import annotations

import cycle_product_reference as reference
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singclass.combinatorics import profiles_with_sum
from singclass.cycles import _orbit_count, multiply_central, verify_in_group_algebra
from singclass.notation import render_cycles


def order(p: tuple[int, ...]) -> int:
    return len(p) + sum(p)


PROFILES = [()] + [p for total in range(1, 9) for p in profiles_with_sum(total) if order(p) <= 9]
# every unordered pair of profiles with order sum <= 9, the empty profile too
PAIRS = [
    (a, b) for i, a in enumerate(PROFILES) for b in PROFILES[i:] if order(a) + order(b) <= 9
]
BENCHMARK_PAIRS = [(a, b) for a, b in PAIRS if a and b]


def assert_same(p1, p2):
    got, want = multiply_central(p1, p2), reference.multiply_central(p1, p2)
    assert got == want, (p1, p2)
    assert render_cycles(got) == render_cycles(want)


def test_the_benchmark_pairs_are_thirty():
    assert len(BENCHMARK_PAIRS) == 30


@pytest.mark.parametrize("p1, p2", BENCHMARK_PAIRS + [((6,), (6,)), ((3, 3), (3, 3))])
def test_equal_to_the_enumeration_of_every_tuple(p1, p2):
    assert_same(p1, p2)


@pytest.mark.parametrize("p1, p2", [((), (1, 2)), ((2, 2), ()), ((), ()), ((), (3,))])
def test_an_empty_factor(p1, p2):
    assert_same(p1, p2)
    assert multiply_central(p1, p2).terms == ((tuple(sorted(p1 + p2)), 1),)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(PAIRS), st.booleans())
def test_a_drawn_pair_in_either_order(pair, swap):
    p1, p2 = reversed(pair) if swap else pair
    assert_same(p1, p2)
    n = sum(p1) + sum(p2)
    if n <= 7:
        assert verify_in_group_algebra(p1, p2, multiply_central(p1, p2), n)


def orbits(p: tuple[int, ...], support: int) -> int:
    """Number of the tuples of p-cycles on support + sum(p) points up to
    relabelling of the points from `support` on, by brute force: each tuple is
    spelled with every cycle that meets 0..support-1 turned to start at its
    least such point and every other point replaced by None, which is what a
    relabelling keeps and all it keeps."""
    seen = set()
    for b in reference._cycle_tuples(p, tuple(range(support + sum(p)))):
        spelled, done = [], set()
        for x in b:  # the map lists the cycles in tuple order, each from its start
            if x in done:
                continue
            cycle = [x]
            while b[cycle[-1]] != x:
                cycle.append(b[cycle[-1]])
            done.update(cycle)
            inside = [y for y in cycle if y < support]
            if inside:
                i = cycle.index(min(inside))
                cycle = cycle[i:] + cycle[:i]
            spelled.append(tuple(y if y < support else None for y in cycle))
        seen.add(tuple(spelled))
    return len(seen)


@pytest.mark.parametrize("p", [p for p in PROFILES if sum(p) <= 5])
def test_the_representative_count_is_the_number_of_orbits(p):
    for support in range(0, 5):
        want = orbits(p, support)
        for cap in (0, 1, 7, 100, 10**9):
            assert _orbit_count(p, support, cap) == (want if want <= cap else cap + 1)
