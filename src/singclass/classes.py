"""Class-expansion engine.

Expansions live in one of two bases over the same set of canonical marked
trees.  In the singularity basis a stick with marking m denotes a_m and a
tree denotes the pushforward of its boundary-stratum class over the
corresponding ramification locus; in the basic basis a stick denotes psi^m
and leaf markings denote cotangent powers at the branch points.  A
ClassExpr is a homogeneous finite sum of trees: xi-degree plus tree
codimension is one fixed integer, its degree, stored once, so each tree
carries a single rational coefficient.  The coefficients are stored as
integer numerators over one common denominator, the form every kernel
below reads and writes; a Fraction is built only when a caller reads
``terms``, ``monomials()`` or ``coefficient_at``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from operator import itemgetter

from .combinatorics import Profile, _aut_count, aut_count, make_profile, profiles_with_sum
from .errors import ConstraintError, Record, _count, _exact, _integer, _operand, _pairs
from .trees import MarkedTree, _encoding, _rebuild, star, stick

SINGULARITY = "singularity"
BASIC = "basic"

# The largest m that product_expansion and psi_power_sing take.  From empty
# memos, in a fresh process, either expansion at m = 26 takes 0.9-1.4 s and
# 57-63 MB of peak RSS on 2 vCPUs (Python 3.11); at 28 it takes 2.6-2.8 s and
# 91-104 MB, and the cost grows about 1.4-fold per step.
EXPANSION_DEGREE_BUDGET = 26

# The largest degree of an expression that basic_to_sing and sing_to_basic
# take.  From empty memos, in a fresh process, on 2 vCPUs (Python 3.11): the
# dearest basic_to_sing at degree 23, of the stars over leaves (6, 7, 7) and
# (4, 5, 5, 5), takes 0.9 s and 57-74 MB of peak RSS, and at 24 the stars over
# (7, 7, 7) and (5, 5, 5, 5) take 1.4-1.6 s and 86-100 MB (psi^24 itself 0.6 s).
# The dearest sing_to_basic is the stick: a_12 takes 0.8 s and 31 MB, a_13
# 2.9 s and 65 MB.
BASIC_TO_SING_BUDGET = 23
SING_TO_BASIC_BUDGET = 12

__all__ = [
    "SINGULARITY",
    "BASIC",
    "ClassExpr",
    "substitute",
    "product_expansion",
    "psi_power_sing",
    "basic_to_sing",
    "sing_to_basic",
    "point_class_tree",
    "point_coefficient_psi",
]


_PAIRS = "class terms must be (MarkedTree, coefficient) pairs"


def _basis(basis: str) -> str:
    """basis if it names a basis; else ConstraintError."""
    if basis not in (SINGULARITY, BASIC):
        raise ConstraintError(f"unknown basis {basis!r}")
    return basis


class ClassExpr(Record):
    """Homogeneous linear combination of marked trees.

    ``degree`` is the total degree (xi-degree plus tree codimension) shared by
    every term, or None for the zero expression.  A term ``(t, c)`` stands for
    ``c * xi^(degree - codim t) * t``, so each tree carries one rational.
    ``ClassExpr(basis, degree, terms)`` sums the (tree, coefficient) pairs of
    ``terms``: repeated trees add up, zero coefficients and vanishing trees are
    dropped, and the terms are sorted by encoding.  It refuses an unknown
    basis, a degree that is not an int or None, a pair that is not a
    (MarkedTree, int or Fraction) tuple and a tree above the degree.

    The stored value is the canonical integer form ``(den, ((tree,
    numerator), ...))``: den >= 1 with ``gcd(den, *numerators) == 1``, no
    zero numerator, no vanishing tree, trees in encoding order.  ``terms`` is
    its Fraction view, built each time it is read; equality compares the
    stored ``basis``, ``degree`` and form, and the hash, repr, copies and
    pickles are those of the fields ``basis``, ``degree`` and ``terms``.
    The slot ``_order`` caches the display order of ``grammar``'s renderers;
    it is neither field nor stored slot, so equality, hash, repr and pickle
    ignore it, and a copy does not carry it.
    """

    __slots__ = ("basis", "degree", "_form", "_order")
    _fields = ("basis", "degree", "terms")
    _stored = ("basis", "degree", "_form")

    def __init__(
        self, basis: str, degree: int | None, terms: Iterable[tuple[MarkedTree, Fraction]]
    ):
        basis = _basis(basis)
        if degree is not None:
            _integer(degree, "a class degree")
        pairs = _pairs(terms, _PAIRS)
        if not {MarkedTree}.issuperset(map(type, map(itemgetter(0), pairs))):
            raise ConstraintError(_PAIRS)
        _exact(map(itemgetter(1), pairs), "class coefficients")
        den = lcm(*(c.denominator for _, c in pairs))
        items = [(t, c.numerator * (den // c.denominator)) for t, c in pairs]
        form = _canonical_form(degree, (den, items))
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree if form[1] else None)
        object.__setattr__(self, "_form", form)

    @property
    def terms(self) -> tuple[tuple[MarkedTree, Fraction], ...]:
        """The (tree, coefficient) pairs in encoding order, as Fractions."""
        den, terms = self._form
        return tuple((t, Fraction(n, den)) for t, n in terms)

    @staticmethod
    def zero(basis: str) -> "ClassExpr":
        return ClassExpr._make(_basis(basis), None, (1, ()))

    @staticmethod
    def unit(basis: str) -> "ClassExpr":
        return ClassExpr.single(basis, stick(0))

    @staticmethod
    def single(basis: str, t: MarkedTree) -> "ClassExpr":
        """The class of one tree, with coefficient 1 and no xi power."""
        if t.__class__ is not MarkedTree or basis not in (SINGULARITY, BASIC):
            _operand(t, MarkedTree, "ClassExpr.single")
            _basis(basis)
        if t.vanishing:
            return ClassExpr._make(basis, None, (1, ()))
        return ClassExpr._make(basis, t.codim, (1, ((t, 1),)))

    def is_zero(self) -> bool:
        return not self._form[1]

    def coefficient_at(self, t: MarkedTree, q: int) -> Fraction:
        """The coefficient of xi^q * t: the term's rational when q is the xi
        power t carries here, and 0 otherwise.  A t that is no MarkedTree and
        a q that is no int raise ConstraintError."""
        t, q = _operand(t, MarkedTree, "coefficient_at"), _integer(q, "an xi power")
        den, terms = self._form
        n = dict(terms).get(t)
        return Fraction(n, den) if n is not None and self.degree - t.codim == q else Fraction(0)

    def monomials(self) -> list[tuple[MarkedTree, int, Fraction]]:
        """(tree, xi power, coefficient) for every term."""
        den, terms = self._form
        return [(t, self.degree - t.codim, Fraction(n, den)) for t, n in terms]

    def __add__(self, other: "ClassExpr") -> "ClassExpr":
        if self.basis != _operand(other, ClassExpr, "+").basis:
            raise ConstraintError(
                f"basis mismatch: {self.basis} vs {other.basis}"
            )
        if not other._form[1]:
            return self
        if not self._form[1]:
            return other
        if self.degree != other.degree:
            raise ConstraintError(
                "inhomogeneous class expression: total degrees "
                f"{sorted((self.degree, other.degree))}"
            )
        form = _sum([(1, 1, self._form), (1, 1, other._form)])
        return ClassExpr._make(self.basis, self.degree if form[1] else None, form)

    def __sub__(self, other: "ClassExpr") -> "ClassExpr":
        return self + _operand(other, ClassExpr, "-").scale(-1)

    def scale(self, c: Fraction | int) -> "ClassExpr":
        _exact((c,), "class coefficients")
        form = _sum([(c.numerator, c.denominator, self._form)])
        return ClassExpr._make(self.basis, self.degree if form[1] else None, form)

    def mul_xi(self, k: int = 1) -> "ClassExpr":
        _count(k, "xi exponent")
        if not self._form[1]:
            return self
        return ClassExpr._make(self.basis, self.degree + k, self._form)


# The kernels below add and multiply integer numerators over one common
# denominator and build no Fraction.  The integer form of an expression is
# (den, ((tree, numerator), ...)); _sum returns it canonical, the form a
# ClassExpr stores (see its docstring).  Every memo below holds this form:
# _psi_stick(k) is psi * a_k, _product_ints(m) and _psi_ints(m) the
# expansions, _basic_ints(t) [t]_basic in the singularity basis and
# _sing_ints(t) [t]_sing in the basic one.

def _sum(parts: Iterable[tuple[int, int, tuple]]) -> tuple[int, tuple]:
    """The canonical integer form of the sum of p/q * e over the (p, q,
    integer form of e) parts, q >= 1: numerators added up over the lcm of
    the products q * den, zero sums and vanishing trees dropped, the rest
    and the lcm divided by their gcd unless it is 1, and the trees sorted
    by encoding."""
    parts = list(parts)
    den = lcm(*(q * d for _, q, (d, _) in parts))
    acc: dict[MarkedTree, int] = {}
    for p, q, (d, terms) in parts:
        factor = p * (den // (q * d))
        for t, n in terms:
            acc[t] = acc.get(t, 0) + n * factor
    live = sorted((t for t, n in acc.items() if n and not t.vanishing), key=_encoding)
    g = gcd(den, *map(acc.__getitem__, live))
    if g == 1:
        return den, tuple((t, acc[t]) for t in live)
    return den // g, tuple((t, acc[t] // g) for t in live)


def _canonical_form(degree: int | None, form: tuple) -> tuple[int, tuple]:
    """``form``, which may repeat trees and hold zeros and vanishing trees,
    made canonical by _sum; ConstraintError if a tree is left above ``degree``."""
    form = _sum([(1, 1, form)])
    if form[1]:
        top = max(t.codim for t, _ in form[1])
        if degree is None or top > degree:
            raise ConstraintError(
                f"a tree of codim {top} in a class expression of degree {degree}"
            )
    return form


def _glue(outer: MarkedTree, forms: list[tuple]) -> tuple[int, tuple]:
    """The integer forms ``forms`` substituted into the leaves of ``outer``, a
    tree with one leaf per form: every choice of one term per form grafted
    in, numerators multiplied over the product of the dens.  Each graft goes
    through ``trees._rebuild``, graft's body without its gates, which the
    callers have passed already.  A glued tree vanishes only when ``outer``
    does (no form holds a vanishing tree), and _sum drops it then."""
    combos = (zip(*combo) for combo in itertools.product(*(terms for _, terms in forms)))
    glued = [(_rebuild(outer, iter(trees)), prod(nums)) for trees, nums in combos]
    return _sum([(1, 1, (prod(den for den, _ in forms), glued))])


@lru_cache(maxsize=None)
def _psi_stick(k: int) -> tuple[int, tuple[tuple[MarkedTree, int], ...]]:
    """psi * a_k in integer form: (a_{k+1} + xi a_k + sum_p prod(p)/|Aut p| i_p)
    / (k+1) over the profiles p of k+1 with at least two parts.  This is the
    product recursion ((k+1) psi - xi) a_k = a_{k+1} + (new-profile layer)
    read backwards.  The profiles come canonical, so each star is built
    straight from the leaf sticks a_0, ..., a_k."""
    sticks = list(map(MarkedTree, range(k + 1)))
    layer = [(MarkedTree(0, tuple([sticks[j - 1] for j in p])), prod(p), _aut_count(p))
             for p in profiles_with_sum(k + 1, 2)]
    terms = [(MarkedTree(k + 1), 1, 1), (sticks[k], 1, 1), *layer]
    return _sum((n, d * (k + 1), (1, ((t, 1),))) for t, n, d in terms)


def _psi(form: tuple[int, tuple]) -> list[tuple[int, int, tuple]]:
    """psi times the singularity-basis expression of integer form ``form``, as
    (p, q, integer form) parts for _sum, one degree up: a tree with children
    has its top marking raised, and a stick a_k becomes its _psi_stick row.
    A tree whose top vertex would be marked above its valency minus 3 is not
    raised at all: the raised tree vanishes (no contraction applies at a
    marking >= 1), so it adds nothing, and no dead node is built."""
    den, terms = form
    raised, sticks = [], []
    for t, n in terms:
        if t.children:
            if t.marking + 1 <= len(t.children) - 2:
                raised.append((MarkedTree(t.marking + 1, t.children), n))
        else:
            sticks.append((n, den, _psi_stick(t.marking)))
    return [(1, 1, (den, raised)), *sticks]


def product_expansion(m: int) -> ClassExpr:
    """Expansion of prod_{r=1}^m (r psi - xi) as a_m plus tree terms, of
    degree m.  It is m psi Pi_{m-1} - xi Pi_{m-1}, with Pi_0 the unit and psi
    the one operator _psi; the xi factor is implicit in the degree.  Its
    integer form is memoised per m.  An m over EXPANSION_DEGREE_BUDGET raises
    ConstraintError before any memo is touched."""
    m = _count(m, "m", 1, EXPANSION_DEGREE_BUDGET)
    return ClassExpr._make(SINGULARITY, m, _product_ints(m))


@lru_cache(maxsize=None)
def _product_ints(m: int) -> tuple[int, tuple[tuple[MarkedTree, int], ...]]:
    prev = _product_ints(m - 1) if m > 1 else _psi_ints(0)  # Pi_0 is the unit, psi^0
    return _sum([*((m * p, q, f) for p, q, f in _psi(prev)), (-1, 1, prev)])


def psi_power_sing(m: int) -> ClassExpr:
    """psi^m expanded in the singularity basis, of degree m: psi^0 is the
    unit and psi^m is the one operator _psi applied to psi^(m-1).  Its
    integer form is memoised per m.  An m over EXPANSION_DEGREE_BUDGET raises
    ConstraintError before any memo is touched."""
    m = _count(m, "m", 0, EXPANSION_DEGREE_BUDGET)
    return ClassExpr._make(SINGULARITY, m, _psi_ints(m))


@lru_cache(maxsize=None)
def _psi_ints(m: int) -> tuple[int, tuple[tuple[MarkedTree, int], ...]]:
    return (1, ((stick(0), 1),)) if m == 0 else _sum(_psi(_psi_ints(m - 1)))


def _expect(e: ClassExpr, basis: str, message: str) -> None:
    """Nothing if e is a ClassExpr in the given basis; else ConstraintError."""
    if not isinstance(e, ClassExpr) or e.basis != basis:
        raise ConstraintError(message)


def substitute(outer: MarkedTree, grafts: Iterable[ClassExpr]) -> ClassExpr:
    """Multilinear substitution of singularity-basis expansions into the leaves.

    Every choice of one term per graft produces a glued tree; vanishing trees
    are dropped and coefficients (including xi powers) multiply.  Returns a
    singularity-basis ClassExpr of degree outer.codim - (sum of its leaf
    markings) + (sum of the graft degrees): a leaf marked m adds m + 1 to the
    codim, and a glued tree t adds t.codim + 1.
    """
    if not _operand(outer, MarkedTree, "substitute").children:
        raise ConstraintError("substitution target must have at least two leaves")
    try:
        grafts = list(grafts)
    except TypeError:
        raise ConstraintError(f"grafts must come as a sequence, not {grafts!r}") from None
    if len(grafts) != len(outer.leaves):
        raise ConstraintError(
            f"need one graft per leaf: tree has {len(outer.leaves)} leaves, got {len(grafts)}"
        )
    for g in grafts:
        _expect(g, SINGULARITY, "grafts must be in the singularity basis")

    if any(not g._form[1] for g in grafts):
        return ClassExpr.zero(SINGULARITY)
    form = _glue(outer, [g._form for g in grafts])
    degree = outer.codim - outer.weight + sum(g.degree for g in grafts) if form[1] else None
    return ClassExpr._make(SINGULARITY, degree, form)


def _itself(t: MarkedTree) -> tuple[int, tuple[tuple[MarkedTree, int], ...]]:
    """The integer form of t with coefficient 1: the empty form if t vanishes."""
    return (1, ()) if t.vanishing else (1, ((t, 1),))


@lru_cache(maxsize=None)
def _basic_ints(t: MarkedTree) -> tuple[int, tuple[tuple[MarkedTree, int], ...]]:
    """[t]_basic in the singularity basis: psi^m for a stick marked m, else
    the _psi_ints row of m glued into each leaf marked m, the internal
    markings unchanged.  A tree of weight 0 is its own row (empty if it
    vanishes): psi^0 is the unit, so the glue would give t back."""
    if not t.weight:
        return _itself(t)
    if not t.children:
        return _psi_ints(t.marking)
    return _glue(t, [_psi_ints(m) for m in t.leaves])


@lru_cache(maxsize=None)
def _sing_ints(t: MarkedTree) -> tuple[int, tuple[tuple[MarkedTree, int], ...]]:
    """[t]_sing in the basic basis.  [t]_basic is [t]_sing / (m_1! ... m_l!)
    plus lower-weight terms c * [t2]_sing, so [t]_sing is m_1! ... m_l! times
    [t]_basic minus each c * [t2]_sing, read from this table; the weight
    falls at each step, which ends the recursion.  A tree of weight 0 is its
    own row (empty if it vanishes), as in _basic_ints."""
    if not t.weight:
        return _itself(t)
    den, terms = _basic_ints(t)
    lead = prod(factorial(m) for m in t.leaves)
    parts = [(lead, 1, (1, ((t, 1),)))]
    for t2, n in terms:
        if t2 is not t:
            if t2.weight >= t.weight:
                raise RuntimeError(f"basic expansion of {_encoding(t)} has a term of weight "
                                   f"{t2.weight} >= {t.weight}")
            parts.append((-lead * n, den, _sing_ints(t2)))
    return _sum(parts)


def _convert(e: ClassExpr, table) -> tuple[int, tuple]:
    """The integer form of the sum of each term's coefficient times the row
    ``table(tree)``."""
    den, terms = e._form
    return _sum((n, den, table(t)) for t, n in terms)


def basic_to_sing(e: ClassExpr) -> ClassExpr:
    """Convert a basic-basis expression to the singularity basis: the sum of
    each term's coefficient times the memoised singularity-basis form of its
    tree; one term with coefficient 1 is its row as it stands.  An expression
    of degree over BASIC_TO_SING_BUDGET raises ConstraintError before any
    memo is touched."""
    if e.__class__ is not ClassExpr or e.basis != BASIC or (e.degree or 0) > BASIC_TO_SING_BUDGET:
        _expect(e, BASIC, "basic_to_sing expects a basic-basis expression")
        _count(e.degree, "degree", 0, BASIC_TO_SING_BUDGET)
    den, terms = e._form
    if len(terms) == 1 and terms[0][1] == den == 1:
        return ClassExpr._make(SINGULARITY, e.degree, _basic_ints(terms[0][0]))
    return ClassExpr._make(SINGULARITY, e.degree, _convert(e, _basic_ints))


def sing_to_basic(e: ClassExpr) -> ClassExpr:
    """Convert a singularity-basis expression to the basic basis: the sum of
    each term's coefficient times the memoised basic-basis form of its tree;
    one term with coefficient 1 is its row as it stands.  An expression of
    degree over SING_TO_BASIC_BUDGET raises ConstraintError before any memo
    is touched."""
    if e.__class__ is not ClassExpr or e.basis != SINGULARITY or (e.degree or 0) > SING_TO_BASIC_BUDGET:
        _expect(e, SINGULARITY, "sing_to_basic expects a singularity-basis expression")
        _count(e.degree, "degree", 0, SING_TO_BASIC_BUDGET)
    den, terms = e._form
    if len(terms) == 1 and terms[0][1] == den == 1:
        return ClassExpr._make(BASIC, e.degree, _sing_ints(terms[0][0]))
    return ClassExpr._make(BASIC, e.degree, _convert(e, _sing_ints))


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
    m = _integer(m, "m")
    if m + 2 != len(p) + sum(p):
        raise ConstraintError(
            f"need m + 2 = l + sum(profile); got m={m}, profile={p}"
        )
    value = Fraction(prod(p), aut_count(p) * factorial(sum(p)))
    return value * factorial(m) if raw else value
