"""Products of stable central elements by enumerating every cycle tuple of
one factor on all n points: a test-only reference.

``tests/test_cycle_product_reference.py`` checks that
``singclass.cycles.multiply_central``, which enumerates one factor only up to
relabelling of the points outside the other factor's support, returns the
same expressions.  The code below is kept as it was in ``cycles`` but for the
imports and for the step budget, which is left out: the caller keeps the
products small.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator
from fractions import Fraction
from math import factorial, prod

from singclass.combinatorics import CycleExpr, Profile, _sorted_terms, make_profile


def placements(p: Profile, n: int) -> int:
    """Number of ordered tuples of disjoint cycles with lengths p on n points."""
    return factorial(n) // (factorial(n - sum(p)) * prod(p))


def _cycle_tuples(lengths: Profile, points: tuple[int, ...]) -> Iterator[dict[int, int]]:
    """Every ordered tuple of disjoint cycles with the given lengths on the
    points, as a map point -> image; each cycle starts at its smallest point."""
    if not lengths:
        yield {}
        return
    for i, anchor in enumerate(points):
        for rest in itertools.permutations(points[i + 1 :], lengths[0] - 1):
            cycle = dict(zip((anchor,) + rest, rest + (anchor,)))
            others = tuple(x for x in points if x not in cycle)
            for tail in _cycle_tuples(lengths[1:], others):
                yield {**cycle, **tail}


def _product_type(a: dict[int, int], b: dict[int, int]) -> Profile:
    """Cycle type of the partial permutation "b, then a": it acts on the union
    of the two supports, and its fixed points there count as 1-cycles."""
    left = {x: a.get(b.get(x, x), b.get(x, x)) for x in a.keys() | b.keys()}
    lengths = []
    while left:
        x, length = next(iter(left)), 0
        while x in left:
            x = left.pop(x)
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def multiply_central(p1: Profile, p2: Profile) -> CycleExpr:
    """Fix the p1-cycles on the points 0..K1-1 (K1 = sum(p1), n = K1 +
    sum(p2)) and compose them with every tuple of p2-cycles on n points; if
    t_r tuples give type r, C_r has the coefficient
    t_r (n-|r|)! prod(r) / ((n-K1)! prod(p1)).  The factor with fewer tuples
    is enumerated."""
    p1, p2 = make_profile(p1), make_profile(p2)
    n = sum(p1) + sum(p2)
    p1, p2 = sorted((p1, p2), key=lambda p: placements(p, n), reverse=True)  # p2 has fewer tuples
    # one tuple of p1-cycles on consecutive points: x -> x + 1, a cycle's last point to its first
    ends = list(itertools.accumulate(p1))
    first = {x: x + 1 for x in range(sum(p1))} | {end - 1: end - k for end, k in zip(ends, p1)}
    tally = Counter(_product_type(first, b) for b in _cycle_tuples(p2, tuple(range(n))))
    scale = factorial(n - sum(p1)) * prod(p1)
    return CycleExpr._make(_sorted_terms(
        (r, Fraction(t * factorial(n - sum(r)) * prod(r), scale)) for r, t in tally.items()
    ))
