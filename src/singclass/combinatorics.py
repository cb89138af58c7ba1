"""Partitions, multiset profiles, and symmetric-group characters.

Profiles are multisets of positive integers stored as ascending tuples;
partitions are weakly decreasing tuples.  Characters are evaluated with the
Murnaghan-Nakayama recursion over beta numbers (first-column hook lengths),
memoized on (partition, cycle type), for at most CHARACTER_SIZE_BUDGET boxes.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, perm, prod

from .errors import ConstraintError

Profile = tuple[int, ...]
Partition = tuple[int, ...]

__all__ = [
    "Profile",
    "Partition",
    "make_profile",
    "make_partition",
    "aut_count",
    "profiles_with_sum",
    "profiles_with_sum_and_length",
    "partitions_of",
    "mn_character",
    "character_dimension",
    "central_character",
    "shifted_power_sum",
]


def make_profile(parts) -> Profile:
    out = tuple(sorted(int(k) for k in parts))
    if any(k < 1 for k in out):
        raise ConstraintError("profile parts must be positive integers")
    return out


def make_partition(rows) -> Partition:
    out = tuple(sorted((int(r) for r in rows), reverse=True))
    if any(r < 1 for r in out):
        raise ConstraintError("partition rows must be positive integers")
    return out


# The memoised recursion visits every partition inside lambda: 44 594 for the
# worst shape of 48 boxes found, (13,9,6,5,4,3,2,2,1,1,1,1), which takes 1.8 s
# on CPython 3.11; a 50-box shape takes 2.7 s, the 66-box staircase 9.5 s.
CHARACTER_SIZE_BUDGET = 48


def _character_partition(rows) -> Partition:
    """make_partition, refusing more than CHARACTER_SIZE_BUDGET boxes."""
    lam = make_partition(rows)
    if sum(lam) > CHARACTER_SIZE_BUDGET:
        raise ConstraintError(
            f"a partition of {sum(lam)} boxes is over the character budget of {CHARACTER_SIZE_BUDGET}"
        )
    return lam


def aut_count(p: Profile) -> int:
    """Number of permutations of the index set fixing the multiset: prod of multiplicity factorials."""
    return prod(factorial(m) for m in Counter(p).values())


def _ascending_splits(total: int, length: int, minimum: int) -> list[tuple[int, ...]]:
    if length == 0:
        return [()] if total == 0 else []
    if total < minimum * length:
        return []
    out = []
    for first in range(minimum, total // length + 1):
        for rest in _ascending_splits(total - first, length - 1, first):
            out.append((first,) + rest)
    return out


def profiles_with_sum(total: int, min_len: int = 1) -> list[Profile]:
    """All multisets of positive integers with the given sum and length >= min_len.

    Deterministic order: by length, then lexicographically on the ascending
    tuples.
    """
    if total < 0:
        raise ConstraintError("total must be nonnegative")
    out: list[Profile] = []
    if total == 0:
        return [()] if min_len <= 0 else []
    for length in range(max(min_len, 1), total + 1):
        out.extend(_ascending_splits(total, length, 1))
    return out


def profiles_with_sum_and_length(total: int, length: int) -> list[Profile]:
    return _ascending_splits(total, length, 1)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """Partitions of n in descending lexicographic order; partitions_of(0) = ((),)."""
    if n < 0:
        raise ConstraintError("n must be nonnegative")

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(gen(n, n))


@lru_cache(maxsize=None)
def _mn(lam: Partition, mu: Partition) -> int:
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
        total += (-1) ** height * _mn(new_lam, rest)
    return total


def mn_character(lam: Partition, cycle_type: Partition) -> int:
    """Irreducible character chi^lam at the given cycle type, by rim-hook removal."""
    lam = _character_partition(lam) if lam else ()
    mu = make_partition(cycle_type) if cycle_type else ()
    if sum(lam) != sum(mu):
        raise ConstraintError(
            f"size mismatch: |lambda| = {sum(lam)} but cycle type has size {sum(mu)}"
        )
    return _mn(lam, mu)


@lru_cache(maxsize=None)
def _dimension(lam: Partition) -> int:
    return _mn(lam, (1,) * sum(lam))


def character_dimension(lam: Partition) -> int:
    """Dimension of the irreducible representation: chi at the identity class."""
    return _dimension(_character_partition(lam))


def _central_numerator(p: Profile, lam: Partition, n: int) -> int:
    """N!/(N-K)! * chi(mu) for a canonical profile p and a partition lam of N:
    the central character times prod(p) * dim(lam)."""
    k = sum(p)
    if k > n:
        return 0
    return perm(n, k) * _mn(lam, p[::-1] + (1,) * (n - k))


def central_character(p: Profile, lam: Partition) -> Fraction:
    """Scalar by which the stable central element with the given profile acts on lambda.

    Equals N!/((N-K)! prod k_i) * chi(mu)/chi(1^N) with K = sum of the profile
    and mu the profile padded with fixed points; vanishes when K exceeds N.
    A part below 1 in either argument raises ConstraintError.
    """
    p, lam = make_profile(p), _character_partition(lam)
    return Fraction(_central_numerator(p, lam, sum(lam)), prod(p) * _dimension(lam))


def shifted_power_sum(lam: Partition, m: int) -> Fraction:
    """(1/(m+1)!) sum_i [(lam_i - i + 1/2)^{m+1} - (-i + 1/2)^{m+1}]."""
    if m < 0:
        raise ConstraintError("m must be nonnegative")
    e = m + 1
    total = Fraction(0)
    for i, row in enumerate(lam, start=1):
        total += Fraction(2 * row - 2 * i + 1, 2) ** e - Fraction(1 - 2 * i, 2) ** e
    return total / factorial(e)
