"""The class-engine kernels as they stood before they moved to integer
numerators over one common denominator: a test-only reference.
``tests/test_class_kernel_reference.py`` checks that ``singclass.classes``
returns the same expressions.  Every coefficient here is a ``Fraction`` and
every product and sum is a ``Fraction`` operation.  The product expansion is
the recursion over ``ClassExpr`` operators, and psi^m the weighted sum of
products given by the triangular solve ``psi_decomposition``.  The code below
is kept as it was, but for the imports, for ``_tree_basic_expansion``, which
calls this module's ``substitute`` and ``psi_power_sing``, and for
``mul_psi_top``, which was a ``ClassExpr`` method and is a function here.
``psi_stick`` is the row psi * a_k of the integer kernel as it was built
before its stars came straight from the leaf sticks: each star through
``star`` and each automorphism count through ``aut_count``.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from singclass.classes import BASIC, SINGULARITY, ClassExpr
from singclass.combinatorics import aut_count, profiles_with_sum
from singclass.errors import ConstraintError
from singclass.trees import MarkedTree, encoding, graft, star, stick


def mul_psi_top(e: ClassExpr) -> ClassExpr:
    """Increment the marking of the root-adjacent vertex of every term.

    Defined only for trees with at least two leaves; terms whose bumped
    vertex exceeds the vanishing bound are dropped.
    """
    if any(not t.children for t, _ in e.terms):
        raise ConstraintError("psi-multiplication is not defined on sticks")
    if not e.terms:
        return e
    pairs = ((MarkedTree(t.marking + 1, t.children), c) for t, c in e.terms)
    return ClassExpr(e.basis, e.degree + 1, pairs)


def psi_stick(k: int) -> ClassExpr:
    """psi * a_k = (a_{k+1} + xi a_k + sum_p prod(p)/|Aut p| i_p) / (k+1) over
    the profiles p of k+1 with at least two parts, as Fractions."""
    layer = [(star(0, [j - 1 for j in p]), Fraction(prod(p), aut_count(p)))
             for p in profiles_with_sum(k + 1, 2)]
    terms = [(stick(k + 1), Fraction(1)), (stick(k), Fraction(1)), *layer]
    return ClassExpr(SINGULARITY, k + 1, ((t, c / (k + 1)) for t, c in terms))


def _new_profile_layer(m: int) -> ClassExpr:
    """Sum over profiles with total m and >= 2 parts of (prod k / |Aut|) i_{k...}."""
    return ClassExpr(
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
        + mul_psi_top(prev).scale(m)
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
    return ClassExpr(
        SINGULARITY,
        m,
        (
            (t, c * a)
            for c, piece in zip(psi_decomposition(m), pieces)
            for t, a in piece.terms
        ),
    )


def substitute(outer: MarkedTree, grafts: Iterable[ClassExpr]) -> ClassExpr:
    """Multilinear substitution of singularity-basis expansions into the leaves."""
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
    return ClassExpr(
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
    return substitute(t, [psi_power_sing(m) for m in t.leaves])


def basic_to_sing(e: ClassExpr) -> ClassExpr:
    """Convert a basic-basis expression to the singularity basis."""
    if e.basis != BASIC:
        raise ConstraintError("basic_to_sing expects a basic-basis expression")
    return ClassExpr(
        SINGULARITY,
        e.degree,
        (
            (t2, c2 * c)
            for t, c in e.terms
            for t2, c2 in _tree_basic_expansion(t).terms
        ),
    )


def sing_to_basic(e: ClassExpr) -> ClassExpr:
    """Convert a singularity-basis expression to the basic basis, peeling by weight."""
    if e.basis != SINGULARITY:
        raise ConstraintError("sing_to_basic expects a singularity-basis expression")
    # residue[w]: the not yet peeled terms whose tree has weight w
    residue: dict[int, dict[MarkedTree, Fraction]] = {}
    for t, c in e.terms:
        residue.setdefault(t.weight, {})[t] = c
    out: list[tuple[MarkedTree, Fraction]] = []
    for w in range(max(residue, default=-1), -1, -1):
        for t, c in residue.pop(w, {}).items():
            lead = c * prod(factorial(m) for m in t.leaves)
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
    return ClassExpr(BASIC, e.degree, out)
