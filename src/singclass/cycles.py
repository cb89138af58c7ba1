"""Completed-cycle calculus in the class algebra of symmetric groups.

Stable central elements are indexed by multiset profiles (numbered cycle
lengths, remaining points fixed) and identified with functions on the set
of all partitions through their eigenvalues on irreducible representations.
The completed (m+1)-cycle is the unique combination of stable central
elements evaluating to the normalized shifted power sum of exponent m+1,
and its coefficients come from the series sinh(z/2)/(z/2).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterator, Mapping

from .combinatorics import (
    Partition,
    Profile,
    aut_count,
    central_character,
    make_profile,
    profiles_with_sum_and_length,
)
from .errors import ConstraintError
from .exact import s_series, series_scale_arg

__all__ = [
    "CycleExpr",
    "XPolynomial",
    "x_polynomial",
    "rho",
    "completed_cycle",
    "genus0_part",
    "evaluate",
    "profile_order",
    "multiply_central",
    "verify_in_group_algebra",
    "genus0_equality_check",
]


def profile_order(p: Profile) -> int:
    """Order of a stable central element: number of cycles plus their total length."""
    return len(p) + sum(p)


def _sorted_profile_items(
    mapping: Mapping[Profile, Fraction]
) -> tuple[tuple[Profile, Fraction], ...]:
    items = [(p, Fraction(c)) for p, c in mapping.items() if c != 0]
    items.sort(key=lambda item: (-profile_order(item[0]), len(item[0]), item[0]))
    return tuple(items)


@dataclass(frozen=True)
class _ProfileTerms:
    """Profile -> nonzero rational map, sorted by descending order, then length."""

    terms: tuple[tuple[Profile, Fraction], ...]

    def coefficient(self, p: Profile) -> Fraction:
        p = make_profile(p)
        for p2, c in self.terms:
            if p2 == p:
                return c
        return Fraction(0)


class CycleExpr(_ProfileTerms):
    """Finite rational combination of stable central elements.

    Products of central elements are not monomial products; they go through
    :func:`multiply_central`."""

    @staticmethod
    def from_terms(mapping: Mapping[Profile, Fraction]) -> "CycleExpr":
        return CycleExpr(_sorted_profile_items(mapping))

    @staticmethod
    def zero() -> "CycleExpr":
        return CycleExpr(())

    @staticmethod
    def identity() -> "CycleExpr":
        return CycleExpr((((), Fraction(1)),))

    def profiles(self) -> list[Profile]:
        return [p for p, _ in self.terms]

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CycleExpr") -> "CycleExpr":
        acc = dict(self.terms)
        for p, c in other.terms:
            acc[p] = acc.get(p, Fraction(0)) + c
        return CycleExpr.from_terms(acc)

    def scale(self, c: Fraction | int) -> "CycleExpr":
        c = Fraction(c)
        return CycleExpr.from_terms({p: a * c for p, a in self.terms})


class XPolynomial(_ProfileTerms):
    """Polynomial in the variables x_k, one monomial per multiset of indices."""

    @staticmethod
    def from_terms(mapping: Mapping[Profile, Fraction]) -> "XPolynomial":
        return XPolynomial(_sorted_profile_items(mapping))

    def __mul__(self, other: "XPolynomial") -> "XPolynomial":
        acc: dict[Profile, Fraction] = {}
        for p1, c1 in self.terms:
            for p2, c2 in other.terms:
                key = tuple(sorted(p1 + p2))
                acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        return XPolynomial.from_terms(acc)


def x_polynomial(m: int, normalized: bool = True) -> XPolynomial:
    """The degree-tracking polynomial whose monomial prod x_{k_i} carries
    (1/|Aut|) (m!/(m-l+2)!) prod k_i; the normalized variant divides by m!
    and matches the genus-0 completed-cycle coefficients."""
    if m < 0:
        raise ConstraintError("m must be nonnegative")
    acc: dict[Profile, Fraction] = {}
    for length in range(1, (m + 2) // 2 + 1):
        total = m - length + 2
        for p in profiles_with_sum_and_length(total, length):
            coeff = Fraction(factorial(m) * prod(p), factorial(total) * aut_count(p))
            acc[p] = coeff / factorial(m) if normalized else coeff
    return XPolynomial.from_terms(acc)


def rho(g: int, p: Profile) -> Fraction:
    """Coefficient of z^{2g} in (prod k_i / K!) S(z)^{K-1} prod S(k_i z), K = sum k_i."""
    if g < 0:
        raise ConstraintError("genus must be nonnegative")
    p = make_profile(p)
    if not p:
        raise ConstraintError("profile must be nonempty")
    total = sum(p)
    order = max(2 * g, 1)
    base = s_series(order)
    series = base.pow(total - 1)
    for k in p:
        series = series * series_scale_arg(base, k)
    return Fraction(prod(p), factorial(total)) * series.coefficient(2 * g)


@lru_cache(maxsize=None)
def completed_cycle(m: int) -> CycleExpr:
    """The completed (m+1)-cycle as a combination of stable central elements.

    A profile with l parts and total K contributes at genus g whenever
    K + l + 2g - 2 = m; the ordered-tuple sum collapses on multisets to the
    coefficient rho(g, p) / |Aut(p)|.
    """
    if m < 0:
        raise ConstraintError("m must be nonnegative")
    acc: dict[Profile, Fraction] = {}
    for length in range(1, m + 2):
        for total in range(length, m + 3 - length):
            spare = m + 2 - length - total
            if spare < 0 or spare % 2:
                continue
            g = spare // 2
            for p in profiles_with_sum_and_length(total, length):
                acc[p] = rho(g, p) / aut_count(p)
    return CycleExpr.from_terms(acc)


def genus0_part(c: CycleExpr, m: int) -> CycleExpr:
    """Restriction to the maximal-order terms, those with l + sum(p) = m + 2."""
    return CycleExpr.from_terms(
        {p: coeff for p, coeff in c.terms if profile_order(p) == m + 2}
    )


def evaluate(c: CycleExpr, lam: Partition) -> Fraction:
    """Value of the central element on the irreducible representation lam."""
    return sum(
        (coeff * central_character(p, lam) for p, coeff in c.terms),
        Fraction(0),
    )


# Most cycle tuples one product may enumerate.  At about 8 us a tuple on
# CPython 3.11, an admitted product ends within 2 s: {3,3}*{3,3} (73 920 tuples)
# and {6}*{6} (110 880) run; {1,1,1,1,1,1}*{1,1,1,1,1,1} (665 280) is refused.
PRODUCT_TUPLE_BUDGET = 200_000


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
    """Product of two stable central elements as a combination of stable elements.

    A direct count of partial permutations (Ivanov-Kerov, arXiv:math/0302203).
    C_p sums the ordered tuples of disjoint numbered cycles with lengths p, so
    C_p = |Aut(p)| A_p with A_p the sum of the partial permutations of type p,
    which compose on the union of their supports.  Fix the p1-cycles on the
    points 0..K1-1 (K1 = sum(p1), n = K1 + sum(p2)) and compose them with every
    tuple of p2-cycles on n points; if t_r tuples give type r, C_r has the
    coefficient t_r (n-|r|)! prod(r) / ((n-K1)! prod(p1)).  The factor with
    fewer tuples is enumerated; more than PRODUCT_TUPLE_BUDGET raise
    ConstraintError.
    """
    p1, p2 = make_profile(p1), make_profile(p2)
    n = sum(p1) + sum(p2)

    def tuple_count(p: Profile) -> int:
        return factorial(n) // (factorial(n - sum(p)) * prod(p))

    p1, p2 = sorted((p1, p2), key=tuple_count, reverse=True)  # p2 has fewer tuples
    if tuple_count(p2) > PRODUCT_TUPLE_BUDGET:
        raise ConstraintError(
            f"product needs {tuple_count(p2)} cycle tuples, over the budget of {PRODUCT_TUPLE_BUDGET}"
        )
    first = next(_cycle_tuples(p1, tuple(range(sum(p1)))))
    tally = Counter(_product_type(first, b) for b in _cycle_tuples(p2, tuple(range(n))))
    scale = factorial(n - sum(p1)) * prod(p1)
    return CycleExpr.from_terms(
        {r: Fraction(t * factorial(n - sum(r)) * prod(r), scale) for r, t in tally.items()}
    )


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    # apply b first, then a
    return tuple(a[x] for x in b)


def _central_vector(p: Profile, n: int) -> dict[tuple[int, ...], int]:
    """The stable central element written out in S_n: permutation -> multiplicity.

    Sums over ordered tuples of disjoint numbered cycles with the profile's
    lengths; a permutation is counted once per numbering.
    """
    out: dict[tuple[int, ...], int] = {}
    if sum(p) > n:
        return out
    identity = tuple(range(n))

    def place(slot: int, available: tuple[int, ...], perm: tuple[int, ...]):
        if slot == len(p):
            out[perm] = out.get(perm, 0) + 1
            return
        k = p[slot]
        for support in itertools.combinations(available, k):
            rest = tuple(x for x in available if x not in support)
            anchor, others = support[0], support[1:]
            for order in itertools.permutations(others):
                cycle = (anchor,) + order
                images = list(perm)
                for i in range(k):
                    images[cycle[i]] = cycle[(i + 1) % k]
                place(slot + 1, rest, tuple(images))

    place(0, identity, identity)
    return out


def verify_in_group_algebra(
    p1: Profile, p2: Profile, claimed: CycleExpr, n: int
) -> bool:
    """Brute-force check of a product identity inside the group algebra of S_n.

    Both sides are constructed as explicit functions permutation -> rational
    (summing over numbered-cycle placements) and compared pointwise.
    """
    p1, p2 = make_profile(p1), make_profile(p2)
    if n < sum(p1) + sum(p2):
        raise ConstraintError(
            f"need n >= {sum(p1) + sum(p2)} to realize both factors in S_n"
        )
    left: dict[tuple[int, ...], Fraction] = {}
    v1 = _central_vector(p1, n)
    v2 = _central_vector(p2, n)
    for sigma, a in v1.items():
        for tau, b in v2.items():
            key = _compose(sigma, tau)
            left[key] = left.get(key, Fraction(0)) + a * b
    right: dict[tuple[int, ...], Fraction] = {}
    for p, coeff in claimed.terms:
        for sigma, count in _central_vector(p, n).items():
            right[sigma] = right.get(sigma, Fraction(0)) + coeff * count
    left = {k: v for k, v in left.items() if v != 0}
    right = {k: v for k, v in right.items() if v != 0}
    return left == right


def _genus0_profiles(m: int) -> list[Profile]:
    out: list[Profile] = []
    for length in range(1, m + 2):
        total = m + 2 - length
        if total < length:
            break
        out.extend(profiles_with_sum_and_length(total, length))
    return out


def genus0_equality_check(m: int) -> bool:
    """Genus-0 completed-cycle coefficients against the psi-power expansion.

    For every profile of maximal order m+2, the coefficient in the completed
    (m+1)-cycle must equal both the closed-form point coefficient and the
    coefficient actually extracted from the expansion of psi^m at the
    point-class tree (the stick, for one-part profiles).
    """
    from .classes import point_class_tree, point_coefficient_psi, psi_power_sing

    if m < 1:
        raise ConstraintError("m must be >= 1")
    g0 = genus0_part(completed_cycle(m), m)
    expansion = psi_power_sing(m)
    profiles = _genus0_profiles(m)
    if sorted(g0.profiles()) != sorted(profiles):
        return False
    for p in profiles:
        from_cycle = g0.coefficient(p)
        closed_form = point_coefficient_psi(m, p)
        extracted = expansion.coefficient_at(point_class_tree(p), 0)
        if not (from_cycle == closed_form == extracted):
            return False
    return True
