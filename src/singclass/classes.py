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
from math import factorial, prod

from .combinatorics import Profile, aut_count, make_profile, profiles_with_sum
from .errors import ConstraintError, Record
from .trees import MarkedTree, encoding, graft, leaf_markings, star, stick, tree

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
        trees add up, and zero coefficients and vanishing trees are dropped."""
        _check_basis(basis)
        acc: dict[MarkedTree, Fraction] = {}
        for t, c in pairs:
            acc[t] = acc[t] + c if t in acc else c
        items = [(t, c) for t, c in acc.items() if c and not t.vanishing]
        if not items:
            return ClassExpr(basis, None, ())
        top = max(t.codim for t, _ in items)
        if degree is None or top > degree:
            raise ConstraintError(
                f"a tree of codim {top} in a class expression of degree {degree}"
            )
        items.sort(key=lambda item: encoding(item[0]))
        return ClassExpr(basis, degree, tuple(items))

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
        c = Fraction(c)
        if c == 0:
            return ClassExpr.zero(self.basis)
        return ClassExpr(
            self.basis, self.degree, tuple((t, a * c) for t, a in self.terms)
        )

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


@lru_cache(maxsize=None)
def product_expansion(m: int) -> ClassExpr:
    """Expansion of prod_{r=1}^m (r psi - xi) as a_m plus tree terms."""
    if m < 1:
        raise ConstraintError("m must be >= 1")
    return ClassExpr.single(SINGULARITY, stick(m)) + _correction_part(m)


@lru_cache(maxsize=None)
def psi_decomposition(m: int) -> tuple[Fraction, ...]:
    """Coefficients c_{m,0..m} with psi^m = sum_j c_{m,j} xi^{m-j} prod_{r=1}^j (r psi - xi).

    Comparing psi^t coefficients gives a triangular system: the j-th product
    has degree j in psi with leading coefficient j!, so c_{m,m} = 1/m! and
    each lower c_{m,t} follows from the ones above it.
    """
    if m < 0:
        raise ConstraintError("m must be nonnegative")
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


@lru_cache(maxsize=None)
def psi_power_sing(m: int) -> ClassExpr:
    """psi^m expanded in the singularity basis; homogeneous of codimension m."""
    if m < 0:
        raise ConstraintError("m must be nonnegative")
    pieces = [ClassExpr.unit(SINGULARITY)] + [product_expansion(j) for j in range(1, m + 1)]
    return ClassExpr.from_terms(
        SINGULARITY,
        m,
        (
            (t, c * a)
            for c, piece in zip(psi_decomposition(m), pieces)
            for t, a in piece.terms
        ),
    )


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
    if len(grafts) != len(leaf_markings(outer)):
        raise ConstraintError(
            f"need one graft per leaf: tree has {len(leaf_markings(outer))} leaves, got {len(grafts)}"
        )
    for g in grafts:
        if g.basis != SINGULARITY:
            raise ConstraintError("grafts must be in the singularity basis")

    if any(not g.terms for g in grafts):
        return ClassExpr.zero(SINGULARITY)
    return ClassExpr.from_terms(
        SINGULARITY,
        outer.codim - outer.weight + sum(g.degree for g in grafts),
        (
            (graft(outer, [t for t, _ in combo]), prod(c for _, c in combo))
            for combo in itertools.product(*(g.terms for g in grafts))
        ),
    )


@lru_cache(maxsize=None)
def _tree_basic_expansion(t: MarkedTree) -> ClassExpr:
    """The basic class of a single canonical tree, expanded in the singularity basis."""
    if not t.children:
        return psi_power_sing(t.marking)
    return substitute(t, [psi_power_sing(m) for m in leaf_markings(t)])


def basic_to_sing(e: ClassExpr) -> ClassExpr:
    """Convert a basic-basis expression to the singularity basis.

    Each leaf marked m is replaced by the expansion of psi^m via grafting;
    sticks map through psi_power_sing directly; internal markings pass
    through unchanged.
    """
    if e.basis != BASIC:
        raise ConstraintError("basic_to_sing expects a basic-basis expression")
    return ClassExpr.from_terms(
        SINGULARITY,
        e.degree,
        (
            (t2, c2 * c)
            for t, c in e.terms
            for t2, c2 in _tree_basic_expansion(t).terms
        ),
    )


def sing_to_basic(e: ClassExpr) -> ClassExpr:
    """Convert a singularity-basis expression to the basic basis.

    Inversion by descending weight: the basic class of a tree T equals
    1/(m_1! ... m_l!) [T]_sing plus strictly lower-weight terms, so peeling
    the residue one weight at a time, highest first, terminates and is
    exact; within one weight the order of peeling does not matter.
    """
    if e.basis != SINGULARITY:
        raise ConstraintError("sing_to_basic expects a singularity-basis expression")
    # residue[w]: the not yet peeled terms whose tree has weight w
    residue: dict[int, dict[MarkedTree, Fraction]] = {}
    for t, c in e.terms:
        residue.setdefault(t.weight, {})[t] = c
    out: list[tuple[MarkedTree, Fraction]] = []
    for w in range(max(residue, default=-1), -1, -1):
        for t, c in residue.pop(w, {}).items():
            lead = c * prod(factorial(m) for m in leaf_markings(t))
            out.append((t, lead))
            for t2, c2 in _tree_basic_expansion(t).terms:
                if t2 == t:
                    continue
                if t2.weight >= w:  # would land in a bucket already peeled
                    raise RuntimeError(
                        f"basic expansion of {encoding(t)} has a term of weight "
                        f"{t2.weight} >= {w}"
                    )
                bucket = residue.setdefault(t2.weight, {})
                updated = bucket.pop(t2, 0) - c2 * lead
                if updated:
                    bucket[t2] = updated
    return ClassExpr.from_terms(BASIC, e.degree, out)


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
    if m + 2 != len(p) + sum(p):
        raise ConstraintError(
            f"need m + 2 = l + sum(profile); got m={m}, profile={p}"
        )
    value = Fraction(prod(p), aut_count(p) * factorial(sum(p)))
    return value * factorial(m) if raw else value
