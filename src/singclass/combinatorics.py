"""Partitions, multiset profiles, symmetric-group characters, and the value
types keyed by profiles: CycleExpr and XPolynomial.

Profiles are multisets of positive integers stored as ascending tuples;
partitions are weakly decreasing tuples; every part is exactly an int.
Characters are evaluated with the Murnaghan-Nakayama recursion over beta
numbers (first-column hook lengths), for at most CHARACTER_SIZE_BUDGET boxes:
one rim hook per part above 1, then the hook-length formula.  A shape's beta
set is the set bits of one int, so removing a hook is bit arithmetic, and the
memo is keyed on that int and the parts above 1 of the cycle type.  Each
partition a character is asked of gets one shape record, its size, beta set
and dimension, made when it first passes the partition gate.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, perm, prod
from operator import itemgetter

from .errors import ConstraintError, Record, _count, _exact, _ints, _operand, _pairs

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
    "CycleExpr",
    "XPolynomial",
]


def make_profile(parts) -> Profile:
    out = tuple(sorted(_ints(parts, "a profile part")))
    if out and out[0] < 1:
        raise ConstraintError("profile parts must be positive integers")
    return out


def make_partition(rows) -> Partition:
    out = tuple(sorted(_ints(rows, "a partition row"), reverse=True))
    if out and out[-1] < 1:
        raise ConstraintError("partition rows must be positive integers")
    return out


# On CPython 3.11 (2 vCPUs) a 48-box dimension takes about 0.1 ms; the
# costliest 48-box character a hill-climb found, (14,8,8,4,4,4,1^6) at
# 3^2 2^18 1^6, takes 23-30 ms from empty memos and leaves 9 106 memo
# entries.  The CLI's output and exit codes are pinned at 48.
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
    return _aut_count(make_profile(p))


def _aut_count(p: Profile) -> int:
    """aut_count of a canonical profile: each part equal to the one before it
    extends a run of equal parts, and a run of r parts multiplies in r!, one
    factor at a time."""
    out = run = 1
    for before, part in zip(p, p[1:]):
        run = run + 1 if part == before else 1
        out *= run
    return out


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
    _count(total, "total")
    _count(min_len, "min_len")
    out: list[Profile] = []
    if total == 0:
        return [()] if min_len == 0 else []
    for length in range(max(min_len, 1), total + 1):
        out.extend(_ascending_splits(total, length, 1))
    return out


def profiles_with_sum_and_length(total: int, length: int) -> list[Profile]:
    return _ascending_splits(_count(total, "total"), _count(length, "length"), 1)


def partitions_of(n: int) -> tuple[Partition, ...]:
    """Partitions of n in descending lexicographic order; partitions_of(0) = ((),).

    n is gated before the memo, so an unhashable n is refused like a float;
    ``partitions_of.cache_info`` reads the memo."""
    return _partitions_of(_count(n, "n"))


@lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple[Partition, ...]:
    return tuple(_partitions_below(n, n))


partitions_of.cache_info = _partitions_of.cache_info


def _partitions_below(remaining: int, cap: int) -> Iterator[Partition]:
    """The partitions of remaining with no part above cap, in descending
    lexicographic order."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(cap, remaining), 0, -1):
        for rest in _partitions_below(remaining - first, first):
            yield (first,) + rest


def _shape(lam) -> tuple[Partition, int, int, int]:
    """The shape record (partition, n, beta, dim) of lam made canonical by
    _character_partition: n boxes, the first-column hook lengths
    r + len - 1 - i as the set bits of beta (bit 0 clear), and the dimension.
    The very partition object a record holds has passed the gate once and
    gets its record back at once; any other argument is gated again, so an
    equal float or bool row keeps its refusal."""
    try:
        record = _SHAPES[lam]
        if record[0] is lam:
            return record
    except (KeyError, TypeError):  # no record yet, or unhashable
        pass
    rows = _character_partition(lam)
    record = _SHAPES.get(rows)
    if record is None:
        length = len(rows)
        beta = sum(1 << (r + length - 1 - i) for i, r in enumerate(rows))
        # a canonical tuple is kept itself, so that the caller's object is the fast one
        held = lam if type(lam) is tuple and lam == rows else rows
        # published with one setdefault, as trees publishes its nodes
        record = _SHAPES.setdefault(rows, (held, sum(rows), beta, _dimension(beta)))
    return record


_SHAPES: dict = {}  # canonical partition -> its one shape record (partition, n, beta, dim)


@lru_cache(maxsize=None)
def _mn(beta: int, mu: Partition) -> int:
    """chi at the cycle type mu + 1^(n - |mu|) of the shape whose beta set is
    beta (bit 0 clear: no zero rows), every part of mu above 1."""
    if not mu:
        return _dimension(beta)
    t, rest = mu[0], mu[1:]
    between = (1 << (t - 1)) - 1
    total = 0
    heads = (beta >> t) & ~beta  # bit b2: b2 + t is in the beta set and b2 is not
    while heads:
        low = heads & -heads  # 1 << b2
        heads ^= low
        # the t-hook moves the beta number b2 + t down to b2; the zero rows it
        # leaves are the trailing ones, shifted out
        shape = beta ^ (low << t) ^ low
        shape >>= (shape ^ (shape + 1)).bit_length() - 1
        value = _mn(shape, rest)
        # its leg length: the beta numbers strictly between b2 and b2 + t
        total += -value if (beta >> low.bit_length() & between).bit_count() & 1 else value
    return total


def mn_character(lam: Partition, cycle_type: Partition) -> int:
    """Irreducible character chi^lam at the given cycle type, by rim-hook removal."""
    _, n, beta, _ = _shape(lam)
    mu = make_partition(cycle_type)
    if n != sum(mu):
        raise ConstraintError(
            f"size mismatch: |lambda| = {n} but cycle type has size {sum(mu)}"
        )
    return _mn(beta, tuple(k for k in mu if k > 1))


@lru_cache(maxsize=None)
def _dimension(beta: int) -> int:
    """The hook-length formula n!/prod(hooks), in the first-column hook lengths
    b_i, the set bits of beta: n! prod_{i<j} (b_j - b_i) / prod_i b_i!, with
    n = sum(b_i) - L(L-1)/2 for L of them."""
    bits = [b for b in range(beta.bit_length()) if beta >> b & 1]
    length = len(bits)
    n = sum(bits) - length * (length - 1) // 2
    return factorial(n) * prod(b - a for a, b in combinations(bits, 2)) // prod(map(factorial, bits))


def character_dimension(lam: Partition) -> int:
    """Dimension of the irreducible representation: chi at the identity class."""
    return _shape(lam)[3]


def central_character(p: Profile, lam: Partition) -> Fraction:
    """Scalar by which the stable central element with the given profile acts on lambda.

    Equals N!/((N-K)! prod k_i) * chi(mu)/chi(1^N) with K = sum of the profile
    and mu the profile padded with fixed points; vanishes when K exceeds N.
    A part below 1 in either argument raises ConstraintError.
    """
    p = make_profile(p)
    _, n, beta, dim = _shape(lam)
    k = sum(p)
    if k > n:
        return Fraction(0)
    numerator = perm(n, k) * _mn(beta, tuple(x for x in reversed(p) if x > 1))
    return Fraction(numerator, prod(p) * dim)


def shifted_power_sum(lam: Partition, m: int) -> Fraction:
    """(1/(m+1)!) sum_i [(lam_i - i + 1/2)^{m+1} - (-i + 1/2)^{m+1}], for lam
    made a partition."""
    lam, e = make_partition(lam), _count(m, "m") + 1
    total = sum(
        (2 * row - 2 * i + 1) ** e - (1 - 2 * i) ** e for i, row in enumerate(lam, start=1)
    )
    return Fraction(total, 2**e * factorial(e))


# ---------------------------------------------------------------------------
# profile-keyed value types; the algorithms on them live in cycles

class _ProfileTerms(Record):
    """Profile -> nonzero rational map, sorted by descending order, then length.

    The constructor takes (profile, coefficient) pairs, each profile made
    canonical by make_profile and each coefficient an int or a Fraction:
    repeated profiles add up, and zero coefficients are dropped."""

    __slots__ = _fields = ("terms",)

    def __init__(self, terms: Iterable[tuple[Profile, Fraction]]):
        pairs = _pairs(terms, "cycle terms must be (profile, coefficient) pairs")
        _exact(map(itemgetter(1), pairs), "cycle coefficients")
        acc: dict[Profile, Fraction] = {}
        for p, c in pairs:
            p = make_profile(p)
            acc[p] = acc.get(p, 0) + c
        object.__setattr__(self, "terms", _sorted_terms(acc.items()))

    def coefficient(self, p: Profile) -> Fraction:
        p = make_profile(p)
        for p2, c in self.terms:
            if p2 == p:
                return c
        return Fraction(0)


def _sorted_terms(items) -> tuple[tuple[Profile, Fraction], ...]:
    """The (canonical profile, coefficient) items, each profile once, as terms:
    zero coefficients dropped, Fractions, sorted by descending order, then length."""
    items = [(p, c if type(c) is Fraction else Fraction(c)) for p, c in items if c]
    items.sort(key=lambda item: (-len(item[0]) - sum(item[0]), len(item[0]), item[0]))
    return tuple(items)


class CycleExpr(_ProfileTerms):
    """Finite rational combination of stable central elements.

    Products of central elements are not monomial products; they go through
    ``cycles.multiply_central``.  The slot ``_row`` holds what
    ``cycles.evaluate`` builds on its first call: ``(D, row, sizes)``, the
    common denominator D, one integer row entry ``(weight, K, mu)`` per term,
    and a dict that maps each size N evaluated so far to one integer weight
    per cycle type mu, the terms with K <= N summed (at most one entry per
    size up to CHARACTER_SIZE_BUDGET).  It is no field, so equality, hash,
    repr and pickle ignore it."""

    __slots__ = ("_row",)

    @staticmethod
    def zero() -> "CycleExpr":
        return CycleExpr._make(())

    @staticmethod
    def identity() -> "CycleExpr":
        return CycleExpr._make((((), Fraction(1)),))

    def profiles(self) -> list[Profile]:
        return [p for p, _ in self.terms]

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "CycleExpr") -> "CycleExpr":
        return CycleExpr(self.terms + _operand(other, CycleExpr, "+").terms)

    def scale(self, c: Fraction | int) -> "CycleExpr":
        _exact((c,), "cycle coefficients")
        if c == 0:
            return CycleExpr.zero()
        c = Fraction(c)
        return CycleExpr._make(tuple((p, a * c) for p, a in self.terms))


class XPolynomial(_ProfileTerms):
    """Polynomial in the variables x_k, one monomial per multiset of indices."""

    __slots__ = ()

    def __mul__(self, other: "XPolynomial") -> "XPolynomial":
        return XPolynomial(
            (p1 + p2, c1 * c2)
            for p1, c1 in self.terms
            for p2, c2 in _operand(other, XPolynomial, "*").terms
        )
