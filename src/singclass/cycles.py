"""Completed-cycle calculus in the class algebra of symmetric groups.

Stable central elements are indexed by multiset profiles (numbered cycle
lengths, remaining points fixed) and identified with functions on the set
of all partitions through their eigenvalues on irreducible representations.
The completed (m+1)-cycle is the unique combination of stable central
elements evaluating to the normalized shifted power sum of exponent m+1,
and its coefficients come from the series S(z) = sinh(z/2)/(z/2), through
the coefficients L_j = B_{2j} / (2j (2j)!) of log S (B the Bernoulli numbers).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, perm, prod

from .combinatorics import (  # the value types are defined beside the profiles
    CycleExpr,
    Partition,
    Profile,
    XPolynomial,
    _aut_count,
    _mn,
    _shape,
    _sorted_terms,
    aut_count,
    make_profile,
    profiles_with_sum_and_length,
)
from .errors import ConstraintError, _count, _integer, _ints, _operand

__all__ = [
    "x_polynomial",
    "rho",
    "completed_cycle",
    "genus0_part",
    "evaluate",
    "multiply_central",
    "verify_in_group_algebra",
    "point_coefficient_delta",
]


def x_polynomial(m: int, normalized: bool = True) -> XPolynomial:
    """The degree-tracking polynomial whose monomial prod x_{k_i} carries
    (1/|Aut|) (m!/(m-l+2)!) prod k_i; the normalized variant divides by m!
    and matches the genus-0 completed-cycle coefficients."""
    _count(m, "m")
    norm = factorial(m) if normalized else 1
    return XPolynomial._make(_sorted_terms(
        (p, Fraction(factorial(m) * prod(p), factorial(sum(p)) * aut_count(p) * norm))
        for length in range(1, (m + 2) // 2 + 1)
        for p in profiles_with_sum_and_length(m + 2 - length, length)
    ))


def point_coefficient_delta(ms: Iterable[int], p: Profile) -> Fraction:
    """Coefficient of the point class over the profile-p locus in the
    point-class delta expression with cotangent exponents ms.

    Requires 2 s + sum(ms) = l + sum(p); equals the coefficient of the
    monomial prod x_{k_i} in the product of normalized one-exponent
    polynomials.
    """
    ms = _ints(ms, "an exponent")
    if any(v < 0 for v in ms):
        raise ConstraintError("exponents must be nonnegative")
    p = make_profile(p)
    if 2 * len(ms) + sum(ms) != len(p) + sum(p):
        raise ConstraintError(
            f"need 2 s + sum(ms) = l + sum(profile); got ms={ms}, profile={p}"
        )
    if not ms:
        raise ConstraintError("need at least one exponent")
    poly = x_polynomial(ms[0], normalized=True)
    for v in ms[1:]:
        poly = poly * x_polynomial(v, normalized=True)
    return poly.coefficient(p)


@lru_cache(maxsize=None)
def _log_s(g: int) -> tuple[int, tuple[int, ...]]:
    """(D, (A_1..A_g)) with j L_j = A_j / D, log S(z) = sum_j L_j z^{2j}: from
    S = sum_n s_n z^{2n}, s_n = 1/(4^n (2n+1)!), by n s_n = sum_j j L_j s_{n-j}."""
    s = [Fraction(1, 4**n * factorial(2 * n + 1)) for n in range(g + 1)]
    a: list[Fraction] = []
    for n in range(1, g + 1):
        a.append(n * s[n] - sum(a[j - 1] * s[n - j] for j in range(1, n)))
    d = lcm(*(x.denominator for x in a))
    return d, tuple(x.numerator * (d // x.denominator) for x in a)


def rho(g: int, p: Profile) -> Fraction:
    """Coefficient of z^{2g} in (prod k_i / K!) S(z)^{K-1} prod S(k_i z), K = sum k_i.

    The product is exp(sum_j L_j P_j z^{2j}), P_j = K - 1 + sum_i k_i^{2j}, so
    its z^{2n} coefficient E_n obeys n E_n = sum_j j L_j P_j E_{n-j}; with
    j L_j = A_j / D, E_n = e_n / (n! D^n) and
    e_n = sum_j A_j P_j e_{n-j} (n-1)!/(n-j)! D^{j-1}, e_0 = 1.
    """
    _count(g, "the genus")
    p = make_profile(p)
    if not p:
        raise ConstraintError("profile must be nonempty")
    return Fraction(*_rho(g, p))


def _rho(g: int, p: Profile) -> tuple[int, int]:
    """rho(g, p) as (numerator, denominator), unreduced, for a canonical nonempty p."""
    total = sum(p)
    d, a = _log_s(g)
    weights = [a_j * (total - 1 + sum(k ** (2 * j) for k in p)) for j, a_j in enumerate(a, 1)]
    e = [1]
    for n in range(1, g + 1):
        e.append(sum(
            weights[j - 1] * e[n - j] * perm(n - 1, j - 1) * d ** (j - 1) for j in range(1, n + 1)
        ))
    return prod(p) * e[g], factorial(total) * factorial(g) * d**g


def completed_cycle(m: int) -> CycleExpr:
    """The completed (m+1)-cycle as a combination of stable central elements.

    A profile with l parts and total K contributes at genus g whenever
    K + l + 2g - 2 = m; the ordered-tuple sum collapses on multisets to the
    coefficient rho(g, p) / |Aut(p)|.  Memoised per m.
    """
    return _completed_cycle(_count(m, "m"))


@lru_cache(maxsize=None)
def _completed_cycle(m: int) -> CycleExpr:
    # the profiles come canonical and nonempty: one Fraction per term, no gate
    terms = []
    for length in range(1, m + 2):
        for total in range(m + 2 - length, length - 1, -2):
            g = (m + 2 - length - total) // 2
            for p in profiles_with_sum_and_length(total, length):
                numerator, denominator = _rho(g, p)
                terms.append((p, Fraction(numerator, denominator * _aut_count(p))))
    return CycleExpr._make(_sorted_terms(terms))


def genus0_part(c: CycleExpr, m: int) -> CycleExpr:
    """Restriction to the maximal-order terms, those with l + sum(p) = m + 2."""
    terms, order = _operand(c, CycleExpr, "genus0_part").terms, _integer(m, "m") + 2
    return CycleExpr._make(tuple((p, coeff) for p, coeff in terms if len(p) + sum(p) == order))


def _integer_row(c: CycleExpr) -> tuple[int, tuple[tuple[int, int, Partition], ...], dict]:
    """(D, ((coeff * D / prod(p), sum(p), parts of p above 1, descending), ...),
    {}), D = lcm(den(coeff) * prod(p)), stored in c._row; evaluate fills the
    dict with _size_row per size."""
    scales = [coeff.denominator * prod(p) for p, coeff in c.terms]
    common = lcm(*scales)
    row = tuple(
        (coeff.numerator * (common // scale), sum(p), tuple(k for k in reversed(p) if k > 1))
        for (p, coeff), scale in zip(c.terms, scales)
    )
    stored = (common, row, {})
    object.__setattr__(c, "_row", stored)
    return stored


def _size_row(row: tuple[tuple[int, int, Partition], ...], n: int) -> tuple[tuple[int, Partition], ...]:
    """((sum of weight * n!/(n-K)! over the terms of row with K <= n and this mu,
    mu), ...), one pair per cycle type mu, zero sums dropped: the terms whose
    profiles differ only in parts 1 share their mu."""
    grouped: dict[Partition, int] = {}
    for weight, k, mu in row:
        if k <= n:
            grouped[mu] = grouped.get(mu, 0) + weight * perm(n, k)
    return tuple((weight, mu) for mu, weight in grouped.items() if weight)


def evaluate(c: CycleExpr, lam: Partition) -> Fraction:
    """Value of the central element on the irreducible representation lam.

    The sum of coeff * central_character(p, lam) over the terms: with N = |lam|,
    one integer sum over the size-N row of c (see _integer_row and _size_row)
    of weight * chi(mu), one term per cycle type mu, divided by D * dim(lam).
    The size-N row is built on the first evaluation at size N and kept, and
    N, the beta set and dim(lam) are read from the shape record of lam.
    Profiles are canonical, as every CycleExpr builder makes them.  A
    partition over CHARACTER_SIZE_BUDGET boxes, or a c that is no CycleExpr,
    raises ConstraintError."""
    try:
        common, row, sizes = c._row
    except AttributeError:
        common, row, sizes = _integer_row(_operand(c, CycleExpr, "evaluate"))
    _, n, beta, dim = _shape(lam)
    try:
        size_row = sizes[n]
    except KeyError:
        size_row = sizes[n] = _size_row(row, n)
    total = 0
    for weight, mu in size_row:  # a loop: the rows are short, a generator costs more
        total += weight * _mn(beta, mu)
    return Fraction(total, common * dim)


# Most point steps a product or a group-algebra check may take: an orbit representative
# or a composition on n points is n steps, about 0.2 us each on CPython 3.11; {8}*{1,1,6}
# (240 349 representatives on 16 points) takes 0.8 s, and {1^8}^2 and {5,5}^2 are refused.
PRODUCT_STEP_BUDGET = 4_000_000


def _placements(p: Profile, n: int, cap: int) -> int:
    """Number of ordered tuples of disjoint cycles with lengths p on n >= sum(p)
    points, or cap + 1 if over cap: built point by point, it stops once over."""
    count = 1
    for k in p:
        for j in range(k):  # the k-cycles on the n points left: n (n-1) ... (n-k+1) / k
            count *= n - j
            if count > cap * k:
                return cap + 1
        count //= k
        n -= k
    return min(count, cap + 1)


def _orbit_count(p: Profile, support: int, cap: int) -> int:
    """Number of representatives _orbit_tally visits for p beside that many support points,
    or cap + 1 if over: counted cycle by cycle, it stops once over (none is a dead end)."""
    counts, total = {0: 1}, 1
    for k in p:
        new, total = {}, 0
        for used, count in counts.items():
            for s in range(min(k, support - used) + 1):  # s support points, the least at the head
                ways = count * perm(support - used, s) // s * comb(k - 1, s - 1) if s else count
                new[used + s] = new.get(used + s, 0) + ways
                total += ways
                if total > cap:
                    return cap + 1
        counts = new
    return total


def _orbit_tally(base: list[int], points: list[int], heads: list[int], succ: list[int],
                 least: int, weight: int, tally: dict[Profile, int]):
    """Add weight to tally[r], r the cycle type of "b, then a" for the cycles b that points
    spells (the point at each place; the cycle of place t starts at place heads[t], and t is
    followed by succ[t]), and recurse on each representative that puts a support point
    >= least at a further place.  base is a, but -1 at the free points b leaves out."""
    support = len(base) - len(points)
    left = base[:]
    for x, t in zip(points, succ):
        left[x] = base[points[t]]
    lengths = []
    for x, y in enumerate(left):
        if y >= 0:
            length = 1
            while y != x:
                left[y], y = -1, left[y]
                length += 1
            lengths.append(length)
    r = tuple(sorted(lengths))
    tally[r] = tally.get(r, 0) + weight
    for t, head in enumerate(heads):
        free = support + t  # the free point of place t
        if points[t] == free and (head == t or points[head] < support):
            base[free], grown = -1, weight * heads.count(t) if head == t else weight
            for x in range(least, support):
                points[t] = x
                _orbit_tally(base, points, heads, succ, x + 1, grown, tally)
            points[t] = base[free] = free


def multiply_central(p1: Profile, p2: Profile) -> CycleExpr:
    """Product of two stable central elements as a combination of stable elements.

    A direct count of partial permutations (Ivanov-Kerov, arXiv:math/0302203).  C_p sums the
    ordered tuples of disjoint numbered cycles with lengths p, so C_p = |Aut(p)| A_p with
    A_p the sum of the partial permutations of type p, which compose on the union of their
    supports.  Fix the p1-cycles on the points 0..K1-1 (K1 = sum(p1), n = K1 + sum(p2)) and
    take the tuples of p2-cycles on n points by orbit under relabelling of the n - K1 free
    points, which keeps the type r of the composition.  A representative starts each cycle
    that meets the support at its least support point and takes the free points in
    increasing order; with j free points it stands for perm(n-K1, j) / prod(its all-free
    cycle lengths) tuples, and it adds prod(its other cycle lengths) prod(r) / (prod(p1)
    prod(p2)) to the coefficient of C_r.  The factor with fewer points (the smaller profile
    on a tie) is enumerated; over PRODUCT_STEP_BUDGET / n representatives raise ConstraintError.
    """
    p1, p2 = make_profile(p1), make_profile(p2)
    n = sum(p1) + sum(p2)
    cap = PRODUCT_STEP_BUDGET // max(n, 1)
    p1, p2 = sorted((p1, p2), key=lambda p: (sum(p), p), reverse=True)
    if _orbit_count(p2, sum(p1), cap) > cap:
        raise ConstraintError(
            f"product needs more than {cap} orbit representatives on {n} points, over the step budget"
        )
    # the p1-cycles on the points, the p2-cycles on the places: x -> x + 1 on a cycle, and back
    a, succ = ([x + 1 if x + 1 < end else end - k for end, k in zip(itertools.accumulate(p), p)
                for x in range(end - k, end)] for p in (p1, p2))
    heads = [end - k for end, k in zip(itertools.accumulate(p2), p2) for _ in range(k)]
    tally: dict[Profile, int] = {}
    free = list(range(sum(p1), n))
    _orbit_tally(a + free, free[:], heads, succ, 0, 1, tally)
    scale = prod(p1) * prod(p2)
    return CycleExpr._make(_sorted_terms((r, Fraction(t * prod(r), scale)) for r, t in tally.items()))


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
    _place(p, 0, identity, identity, out)
    return out


def _place(p: Profile, slot: int, available: tuple[int, ...], perm: tuple[int, ...],
           out: dict[tuple[int, ...], int]):
    """Count in out every perm extended by numbered cycles of the lengths
    p[slot:] on disjoint supports drawn from available."""
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
            _place(p, slot + 1, rest, tuple(images), out)


def verify_in_group_algebra(
    p1: Profile, p2: Profile, claimed: CycleExpr, n: int
) -> bool:
    """Brute-force check of a product identity inside the group algebra of S_n.

    Both sides are constructed as explicit functions permutation -> rational
    (summing over numbered-cycle placements) and compared pointwise.  More
    than PRODUCT_STEP_BUDGET / n compositions, together with the placements
    of the claimed terms, raise ConstraintError.
    """
    p1, p2 = make_profile(p1), make_profile(p2)
    _operand(claimed, CycleExpr, "verify_in_group_algebra")
    _count(n, "n", sum(p1) + sum(p2))  # both factors must be realized in S_n
    cap = PRODUCT_STEP_BUDGET // max(n, 1)
    c1, c2 = _placements(p1, n, cap), _placements(p2, n, cap)
    if c1 * c2 > cap:
        count = c1 * c2 if max(c1, c2) <= cap else f"more than {cap}"
        raise ConstraintError(
            f"the check in S_{n} needs {count} compositions, over the budget of {cap} on {n} points"
        )
    placed = sum(_placements(p, n, cap) for p, _ in claimed.terms)
    if c1 * c2 + placed > cap:
        raise ConstraintError(
            f"the check in S_{n} needs {c1 * c2} compositions and more than {cap - c1 * c2} "
            f"placements of the claimed terms, over the budget of {cap} on {n} points"
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
