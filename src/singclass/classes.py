"""Class-expansion engine.

Expansions live in one of two bases over the same set of canonical marked
trees.  In the singularity basis a stick with marking m denotes a_m and a
tree denotes the pushforward of its boundary-stratum class over the
corresponding ramification locus; in the basic basis a stick denotes psi^m
and leaf markings denote cotangent powers at the branch points.  A
ClassExpr is a homogeneous finite sum of trees: xi-degree plus tree
codimension is one fixed integer, its degree, stored once, so each tree
carries a single rational coefficient.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import itemgetter

from .combinatorics import Profile, aut_count, make_profile, profiles_with_sum
from .errors import ConstraintError, Record, _exact, _integer
from .trees import MarkedTree, encoding, graft, star, stick, tree

SINGULARITY = "singularity"
BASIC = "basic"

__all__ = [
    "SINGULARITY",
    "BASIC",
    "ClassExpr",
    "substitute",
    "product_expansion",
    "psi_decomposition",
    "psi_power_sing",
    "basic_to_sing",
    "sing_to_basic",
    "point_class_tree",
    "point_coefficient_psi",
]


def _check_basis(basis: str) -> str:
    if basis not in (SINGULARITY, BASIC):
        raise ConstraintError(f"unknown basis {basis!r}")
    return basis


class ClassExpr(Record):
    """Homogeneous linear combination of marked trees.

    ``degree`` is the total degree (xi-degree plus tree codimension) shared by
    every term, or None for the zero expression.  A term ``(t, c)`` stands for
    ``c * xi^(degree - codim t) * t``, so each tree carries one rational.
    """

    __slots__ = _fields = ("basis", "degree", "terms")

    def __init__(
        self, basis: str, degree: int | None, terms: tuple[tuple[MarkedTree, Fraction], ...]
    ):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def from_terms(
        basis: str, degree: int | None, pairs: Iterable[tuple[MarkedTree, Fraction]]
    ) -> "ClassExpr":
        """The degree-``degree`` sum of the (tree, coefficient) pairs: repeated
        trees add up, and zero coefficients and vanishing trees are dropped.
        Coefficients must be ints or Fractions."""
        _check_basis(basis)
        pairs = list(pairs)
        _exact(map(itemgetter(1), pairs), "class coefficients")
        acc: dict[MarkedTree, Fraction] = {}
        for t, c in pairs:
            acc[t] = acc[t] + c if t in acc else c
        return _finish(basis, degree, acc.items())

    @staticmethod
    def zero(basis: str) -> "ClassExpr":
        return ClassExpr(_check_basis(basis), None, ())

    @staticmethod
    def unit(basis: str) -> "ClassExpr":
        return ClassExpr.single(basis, stick(0))

    @staticmethod
    def single(basis: str, t: MarkedTree) -> "ClassExpr":
        """The class of one tree, with coefficient 1 and no xi power."""
        return ClassExpr.from_terms(basis, t.codim, [(t, Fraction(1))])

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_at(self, t: MarkedTree, q: int) -> Fraction:
        """The coefficient of xi^q * t: the term's rational when q is the xi
        power t carries here, and 0 otherwise."""
        for t2, c in self.terms:
            if t2 == t:
                return c if self.degree - t.codim == q else Fraction(0)
        return Fraction(0)

    def monomials(self) -> list[tuple[MarkedTree, int, Fraction]]:
        """(tree, xi power, coefficient) for every term."""
        return [(t, self.degree - t.codim, c) for t, c in self.terms]

    def __add__(self, other: "ClassExpr") -> "ClassExpr":
        if self.basis != other.basis:
            raise ConstraintError(
                f"basis mismatch: {self.basis} vs {other.basis}"
            )
        if not other.terms:
            return self
        if not self.terms:
            return other
        if self.degree != other.degree:
            raise ConstraintError(
                "inhomogeneous class expression: total degrees "
                f"{sorted((self.degree, other.degree))}"
            )
        return ClassExpr.from_terms(self.basis, self.degree, self.terms + other.terms)

    def __sub__(self, other: "ClassExpr") -> "ClassExpr":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "ClassExpr":
        _exact((c,), "class coefficients")
        c = Fraction(c)
        if c == 0:
            return ClassExpr.zero(self.basis)
        return ClassExpr(self.basis, self.degree, tuple((t, a * c) for t, a in self.terms))

    def mul_xi(self, k: int = 1) -> "ClassExpr":
        if k < 0:
            raise ConstraintError("xi exponent must be nonnegative")
        if not self.terms:
            return self
        return ClassExpr(self.basis, self.degree + k, self.terms)

    def mul_psi_top(self) -> "ClassExpr":
        """Increment the marking of the root-adjacent vertex of every term.

        Defined only for trees with at least two leaves; terms whose bumped
        vertex exceeds the vanishing bound are dropped.
        """
        if any(not t.children for t, _ in self.terms):
            raise ConstraintError("psi-multiplication is not defined on sticks")
        if not self.terms:
            return self
        return ClassExpr.from_terms(
            self.basis,
            self.degree + 1,
            ((tree(t.marking + 1, t.children), c) for t, c in self.terms),
        )


def _finish(basis: str, degree: int | None, items) -> ClassExpr:
    """The expression of the (tree, coefficient) items, each tree once: drop zero
    coefficients and vanishing trees, check the degree, sort by encoding."""
    items = [(t, c) for t, c in items if c and not t.vanishing]
    if not items:
        return ClassExpr(basis, None, ())
    top = max(t.codim for t, _ in items)
    if degree is None or top > degree:
        raise ConstraintError(f"a tree of codim {top} in a class expression of degree {degree}")
    items.sort(key=lambda item: encoding(item[0]))
    return ClassExpr(basis, degree, tuple(items))


# The kernels below add and multiply integer numerators over one common
# denominator and build a single Fraction per output term.  The integer form
# of an expression is (den, ((tree, numerator), ...)).

def _ints(e: ClassExpr) -> tuple[int, tuple[tuple[MarkedTree, int], ...]]:
    """The terms of e as integer numerators over the lcm of their denominators."""
    den = lcm(*(c.denominator for _, c in e.terms))
    return den, tuple((t, c.numerator * (den // c.denominator)) for t, c in e.terms)


def _combination(degree: int, parts: Iterable[tuple[Fraction | int, tuple]]) -> ClassExpr:
    """The singularity-basis sum of c * e over the (c, integer form of e) parts,
    added up over the lcm of the products c.denominator * den."""
    parts = list(parts)
    den = lcm(*(c.denominator * d for c, (d, _) in parts))
    acc: dict[MarkedTree, int] = {}
    for c, (d, terms) in parts:
        factor = c.numerator * (den // (c.denominator * d))
        for t, n in terms:
            acc[t] = acc.get(t, 0) + n * factor
    return _finish(SINGULARITY, degree, ((t, Fraction(n, den)) for t, n in acc.items() if n))


def _new_profile_layer(m: int) -> ClassExpr:
    """Sum over profiles with total m and >= 2 parts of (prod k / |Aut|) i_{k...}."""
    return ClassExpr.from_terms(
        SINGULARITY,
        m,
        (
            (star(0, [k - 1 for k in p]), Fraction(prod(p), aut_count(p)))
            for p in profiles_with_sum(m, 2)
        ),
    )


@lru_cache(maxsize=None)
def _correction_part(m: int) -> ClassExpr:
    """The non-stick part P_m of the product expansion, by the recursion
    P_m = (new-profile layer) + (m psi - xi) P_{m-1}, P_1 = 0."""
    if m <= 1:
        return ClassExpr.zero(SINGULARITY)
    prev = _correction_part(m - 1)
    return (
        _new_profile_layer(m)
        + prev.mul_psi_top().scale(m)
        - prev.mul_xi(1)
    )


def product_expansion(m: int) -> ClassExpr:
    """Expansion of prod_{r=1}^m (r psi - xi) as a_m plus tree terms.  Memoised per m."""
    if _integer(m, "m") < 1:
        raise ConstraintError("m must be >= 1")
    return _product_expansion(m)


@lru_cache(maxsize=None)
def _product_expansion(m: int) -> ClassExpr:
    return ClassExpr.single(SINGULARITY, stick(m)) + _correction_part(m)


def psi_decomposition(m: int) -> tuple[Fraction, ...]:
    """Coefficients c_{m,0..m} with psi^m = sum_j c_{m,j} xi^{m-j} prod_{r=1}^j (r psi - xi).

    Comparing psi^t coefficients gives a triangular system: the j-th product
    has degree j in psi with leading coefficient j!, so c_{m,m} = 1/m! and
    each lower c_{m,t} follows from the ones above it.  Memoised per m.
    """
    if _integer(m, "m") < 0:
        raise ConstraintError("m must be nonnegative")
    return _psi_decomposition(m)


@lru_cache(maxsize=None)
def _psi_decomposition(m: int) -> tuple[Fraction, ...]:
    # products[j][t] = coefficient of psi^t (with xi^(j-t) implied) in prod_{r<=j}(r psi - xi)
    products: list[list[Fraction]] = [[Fraction(1)]]
    for j in range(1, m + 1):
        prev = products[-1]
        cur = [Fraction(0)] * (j + 1)
        for t, c in enumerate(prev):
            cur[t + 1] += j * c
            cur[t] -= c
        products.append(cur)
    coeffs = [Fraction(0)] * (m + 1)
    for t in range(m, -1, -1):
        rest = sum(coeffs[j] * products[j][t] for j in range(t + 1, m + 1))
        coeffs[t] = ((1 if t == m else 0) - rest) / products[t][t]
    return tuple(coeffs)


def psi_power_sing(m: int) -> ClassExpr:
    """psi^m expanded in the singularity basis; homogeneous of codimension m.
    Memoised per m."""
    if _integer(m, "m") < 0:
        raise ConstraintError("m must be nonnegative")
    return _psi_power_sing(m)


@lru_cache(maxsize=None)
def _psi_power_sing(m: int) -> ClassExpr:
    pieces = [ClassExpr.unit(SINGULARITY)] + [product_expansion(j) for j in range(1, m + 1)]
    return _combination(m, zip(psi_decomposition(m), map(_ints, pieces)))


def substitute(outer: MarkedTree, grafts: Iterable[ClassExpr]) -> ClassExpr:
    """Multilinear substitution of singularity-basis expansions into the leaves.

    Every choice of one term per graft produces a glued tree; vanishing trees
    are dropped and coefficients (including xi powers) multiply.  Returns a
    singularity-basis ClassExpr of degree outer.codim - (sum of its leaf
    markings) + (sum of the graft degrees): a leaf marked m adds m + 1 to the
    codim, and a glued tree t adds t.codim + 1.
    """
    if not outer.children:
        raise ConstraintError("substitution target must have at least two leaves")
    grafts = list(grafts)
    if len(grafts) != len(outer.leaves):
        raise ConstraintError(
            f"need one graft per leaf: tree has {len(outer.leaves)} leaves, got {len(grafts)}"
        )
    for g in grafts:
        if g.basis != SINGULARITY:
            raise ConstraintError("grafts must be in the singularity basis")

    if any(not g.terms for g in grafts):
        return ClassExpr.zero(SINGULARITY)
    # one part: the glued trees, numerators multiplied, over the product of the dens
    forms = [_ints(g) for g in grafts]
    combos = (zip(*combo) for combo in itertools.product(*(terms for _, terms in forms)))
    glued = ((graft(outer, trees), prod(nums)) for trees, nums in combos)
    degree = outer.codim - outer.weight + sum(g.degree for g in grafts)
    return _combination(degree, [(1, (prod(den for den, _ in forms), glued))])


def _tree_basic_expansion(t: MarkedTree) -> ClassExpr:
    """The basic class of a single canonical tree, expanded in the singularity basis."""
    if not t.children:
        return psi_power_sing(t.marking)
    return substitute(t, [psi_power_sing(m) for m in t.leaves])


@lru_cache(maxsize=None)
def _basic_ints(t: MarkedTree) -> tuple[int, tuple[tuple[MarkedTree, int], ...]]:
    """The integer form of _tree_basic_expansion(t): the only copy the kernels keep."""
    return _ints(_tree_basic_expansion(t))


def basic_to_sing(e: ClassExpr) -> ClassExpr:
    """Convert a basic-basis expression to the singularity basis.

    Each leaf marked m is replaced by the expansion of psi^m via grafting;
    sticks map through psi_power_sing directly; internal markings pass
    through unchanged.
    """
    if e.basis != BASIC:
        raise ConstraintError("basic_to_sing expects a basic-basis expression")
    return _combination(e.degree, ((c, _basic_ints(t)) for t, c in e.terms))


def sing_to_basic(e: ClassExpr) -> ClassExpr:
    """Convert a singularity-basis expression to the basic basis.

    Inversion by descending weight: the basic class of a tree T equals
    1/(m_1! ... m_l!) [T]_sing plus strictly lower-weight terms, so peeling
    the residue one weight at a time, highest first, terminates and is
    exact; within one weight the order of peeling does not matter.
    """
    if e.basis != SINGULARITY:
        raise ConstraintError("sing_to_basic expects a singularity-basis expression")
    # residue[w]: the numerators, over d, of the not yet peeled terms of weight w
    d, terms = _ints(e)
    residue: dict[int, dict[MarkedTree, int]] = {}
    for t, n in terms:
        residue.setdefault(t.weight, {})[t] = n
    out: list[tuple[MarkedTree, Fraction]] = []
    for w in range(max(residue, default=-1), -1, -1):
        bucket = residue.pop(w, {})
        forms = [(t, n, *_basic_ints(t)) for t, n in bucket.items()]
        # bring the lower weights over d * k, a multiple of d * den for every den
        k = lcm(*(den for _, _, den, _ in forms))
        residue = {v: {t2: n2 * k for t2, n2 in lower.items()} for v, lower in residue.items()}
        for t, n, den, expansion in forms:
            lead = n * prod(factorial(m) for m in t.leaves)
            out.append((t, Fraction(lead, d)))
            factor = lead * (k // den)
            for t2, n2 in expansion:
                if t2 == t:
                    continue
                if t2.weight >= w:  # would land in a bucket already peeled
                    raise RuntimeError(
                        f"basic expansion of {encoding(t)} has a term of weight "
                        f"{t2.weight} >= {w}"
                    )
                lower = residue.setdefault(t2.weight, {})
                updated = lower.pop(t2, 0) - n2 * factor
                if updated:
                    lower[t2] = updated
        d *= k
    return _finish(BASIC, e.degree, out)


def point_class_tree(p: Profile) -> MarkedTree:
    """Tree carrying the point class over the locus with ramification profile p.

    For l >= 2 branches this is the star with internal marking l - 2 (the
    top power of the cotangent class at the root); for a single branch it is
    the stick a_{k-1}.
    """
    p = make_profile(p)
    if not p:
        raise ConstraintError("profile must be nonempty")
    if len(p) == 1:
        return stick(p[0] - 1)
    return star(len(p) - 2, [k - 1 for k in p])


def point_coefficient_psi(m: int, p: Profile, raw: bool = False) -> Fraction:
    """Coefficient of the point class over the profile-p locus in psi^m.

    Requires m + 2 = l + sum(p).  The value is prod k_i / (|Aut| (sum k_i)!),
    which matches the expansion tables; ``raw=True`` returns the variant
    scaled by m! for inspection.
    """
    p = make_profile(p)
    if not p:
        raise ConstraintError("profile must be nonempty")
    if _integer(m, "m") + 2 != len(p) + sum(p):
        raise ConstraintError(
            f"need m + 2 = l + sum(profile); got m={m}, profile={p}"
        )
    value = Fraction(prod(p), aut_count(p) * factorial(sum(p)))
    return value * factorial(m) if raw else value
