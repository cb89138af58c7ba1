"""Marked trees: canonical forms, grading, vanishing, grafting.

A marked tree is a rooted tree whose root is an unmarked valency-1 vertex;
every other vertex carries a nonnegative integer marking.  Internal vertices
(everything that is neither the root nor a leaf) have total valency >= 3,
i.e. at least two children.  We store only the part hanging below the root:
a :class:`MarkedTree` is the root-adjacent vertex together with its subtree.
A childless top vertex is the one-leaf "stick".

Canonical form
--------------
Children are sorted by their recursively computed encoding strings, so
isomorphic marked trees compare equal and hash identically.  On top of the
sort, construction contracts every edge joining two valency-3 vertices with
marking 0 and adds 1 to the marking of the merged vertex.  The two sides of
such an edge span a one-dimensional moduli factor on which the boundary
point class and the cotangent class at the point leading to the root agree,
so the contraction identifies equal classes; it is also what makes the
expansion tables come out in the psi * i_{...} form.  Contractions are
applied bottom-up (descendants first), which makes the normal form
deterministic.

Interning
---------
:class:`MarkedTree` is the one constructor, and it hash-conses its trees
(Filliatre & Conchon, *Type-safe modular hash-consing*, 2006) in one table
that maps ``(marking, children)``, both as a caller gave them and sorted, to
the canonical node.  A repeated call is one lookup in that table; a new one
checks its input, sorts and contracts, and allocates a node only when the
canonical key is new.  So isomorphic trees are the same object, and equality
and hash are identity.  Each node computes its codimension, weight, vanishing
flag and leaf markings once, from its children, when it is built.  Sets of
trees therefore iterate in address order: anything shown or compared across
runs is sorted by :func:`encoding` first.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .errors import ConstraintError, Record, TreeStructureError, _count, _operand

__all__ = [
    "MarkedTree",
    "stick",
    "star",
    "canonicalize",
    "encoding",
    "graft",
    "enumerate_trees",
]


class MarkedTree(Record):
    """One vertex of a marked tree with its canonically ordered subtrees.

    ``MarkedTree(marking, children)`` takes a nonnegative int marking and
    any sequence of children other than a single one, and returns the one
    node of the canonical tree: children sorted by :func:`encoding`, the
    0-marked 3-valent pair contracted.  Anything else raises
    TreeStructureError.  Equality and hash are identity.  Four attributes
    are computed from the children when a node is built:

    - ``codim``, the codimension of the class the tree denotes (the same in
      both bases).  A stick has its marking as codimension; otherwise the
      leaves contribute marking + 1 each, internal vertices their marking,
      and every edge between two internal vertices contributes 1.
    - ``weight``, the sum of the leaf markings: the grading that makes the
      basis change triangular.
    - ``vanishing``, true iff some vertex with children is marked beyond
      valency - 3.
    - ``leaves``, the markings of the childless vertices, depth first.
    """

    __slots__ = ("marking", "children", "codim", "weight", "vanishing", "leaves")
    _fields = ("marking", "children")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, marking: int, children: Sequence[MarkedTree] = ()):
        if type(marking) is not int:
            raise TreeStructureError(f"a marking must be an int, not {marking!r}")
        try:
            return _NODES[marking, children]
        except (KeyError, TypeError):
            pass
        try:
            given = tuple(children)
            if not all(isinstance(c, MarkedTree) for c in given):
                raise TypeError
        except TypeError:
            raise TreeStructureError(f"children must be a sequence of marked trees, not {children!r}") from None
        if marking < 0:
            raise TreeStructureError("markings must be nonnegative")
        if len(given) == 1:
            raise TreeStructureError("internal vertex with a single child (valency 2) is not allowed")
        kids = tuple(sorted(given, key=encoding))
        self = _NODES.get((marking, kids))
        if self is None and marking == 0 and len(kids) == 2:
            for idx, child in enumerate(kids):
                if child.marking == 0 and len(child.children) == 2:
                    self = cls(1, (kids[1 - idx],) + child.children)
                    break
        if self is None:
            self = object.__new__(cls)
            if kids:
                # each child branch also counts the edge up to its parent
                codim = marking + sum(c.codim + 1 for c in kids)
                weight = sum(c.weight for c in kids)
                vanishing = marking > len(kids) - 2 or any(c.vanishing for c in kids)
                leaves = tuple(m for c in kids for m in c.leaves)
            else:
                codim = weight = marking
                vanishing = False
                leaves = (marking,)
            for name, value in zip(self.__slots__, (marking, kids, codim, weight, vanishing, leaves)):
                object.__setattr__(self, name, value)
        _NODES[marking, given] = _NODES[marking, kids] = self
        return self


_NODES: dict = {}  # (marking, children) as given or sorted -> the one canonical tree


def stick(marking: int) -> MarkedTree:
    """The one-leaf tree: a_m in the singularity basis, psi^m in the basic one."""
    return MarkedTree(marking)


def star(marking: int, leaf_marks: Sequence[int]) -> MarkedTree:
    """Single internal vertex with the given marking over plain leaves."""
    try:
        leaves = tuple(stick(m) for m in leaf_marks)
    except TypeError:
        raise TreeStructureError(f"leaf markings must be a sequence of ints, not {leaf_marks!r}") from None
    return MarkedTree(marking, leaves)


def canonicalize(raw) -> MarkedTree:
    """The canonical tree of a MarkedTree (itself) or of nested (marking, children) data."""
    if isinstance(raw, MarkedTree):
        return raw
    if type(raw) is int:
        return MarkedTree(raw)
    try:
        marking, children = raw
        kids = tuple(canonicalize(c) for c in children)
    except (TypeError, ValueError):
        raise TreeStructureError(f"not a tree: {raw!r}") from None
    return MarkedTree(marking, kids)


@lru_cache(maxsize=None)
def encoding(t: MarkedTree) -> str:
    """Canonical string form: '(marking;child,child,...)' with leaves as bare
    integers.  A t that is no MarkedTree is refused on the cache miss."""
    if not _operand(t, MarkedTree, "encoding").children:
        return str(t.marking)
    return f"({t.marking};{','.join(encoding(c) for c in t.children)})"


def graft(outer: MarkedTree, replacements: Sequence[MarkedTree]) -> MarkedTree:
    """Erase the leaves of ``outer`` and glue the given trees in their place.

    Replacements are matched to leaves in canonical depth-first order; the
    root of the i-th replacement is glued onto the vertex that carried the
    i-th leaf, so sticks graft as plain marked leaves.
    """
    if not isinstance(outer, MarkedTree):
        raise TreeStructureError(f"can only graft into a marked tree, not {outer!r}")
    if not outer.children:
        raise ConstraintError("cannot graft into a stick")
    try:
        reps = list(replacements)
    except TypeError:
        raise TreeStructureError(f"replacements must be a sequence of marked trees, not {replacements!r}") from None
    if len(reps) != len(outer.leaves):
        raise ConstraintError(
            f"need one graft per leaf: tree has {len(outer.leaves)} leaves, got {len(reps)}"
        )
    it = iter(reps)

    def rebuild(node: MarkedTree) -> MarkedTree:
        if not node.children:
            return next(it)
        return MarkedTree(node.marking, tuple(rebuild(c) for c in node.children))

    return MarkedTree(outer.marking, tuple(rebuild(c) for c in outer.children))


@lru_cache(maxsize=None)
def _branch_options(cost: int) -> tuple[MarkedTree, ...]:
    """All canonical branches whose contribution to the parent codim is exactly ``cost``."""
    out: set[MarkedTree] = set()
    if cost >= 1:
        out.add(stick(cost - 1))
    # internal branch: marking q, t >= 2 children, contribution q + 1 + sum(child costs)
    for t_children in range(2, cost):
        budget = cost - 1 - t_children  # left for the marking once each child costs >= 1
        for q in range(0, min(t_children - 2, budget) + 1):
            for combo in _branch_combos(cost - 1 - q, t_children):
                candidate = MarkedTree(q, combo)
                if not candidate.vanishing and candidate.codim + 1 == cost:
                    out.add(candidate)
    return tuple(sorted(out, key=encoding))


def _branch_combos(total: int, count: int) -> list[tuple[MarkedTree, ...]]:
    options: list[tuple[int, MarkedTree]] = []
    for c in range(1, total - count + 2):
        options.extend((c, b) for b in _branch_options(c))

    out: list[tuple[MarkedTree, ...]] = []

    def pick(start: int, left: int, slots: int, acc: tuple[MarkedTree, ...]):
        if slots == 0:
            if left == 0:
                out.append(acc)
            return
        for idx in range(start, len(options)):
            c, b = options[idx]
            if c > left - (slots - 1):
                continue
            pick(idx, left - c, slots - 1, acc + (b,))

    pick(0, total, count, ())
    return out


def enumerate_trees(max_codim: int) -> list[MarkedTree]:
    """All canonical non-vanishing marked trees of codimension <= max_codim.

    Includes the sticks (codimension = marking).  Deterministic order:
    by codimension, then canonical encoding.
    """
    found = {t for k in range(_count(max_codim, "max_codim") + 1) for t in _branch_options(k + 1)}
    return sorted(found, key=lambda t: (t.codim, encoding(t)))
