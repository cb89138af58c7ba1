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

Threads
-------
A new node is published with one ``dict.setdefault`` per key, canonical key
first.  Hashing and comparing a key (ints, tuples and identity-hashed trees)
runs no Python code, so each ``setdefault`` is one step under the GIL: two
threads that build the same new tree both return the node stored first,
never two equal-looking trees that compare unequal.  (A free-threaded CPython
has not been checked.)  ``combinatorics`` publishes its shape records the
same way.  The other state filled lazily is harmless once trees are unique:
the slots ``classes.ClassExpr._order`` and ``combinatorics.CycleExpr._row``
may be written twice, with the same value, and an ``lru_cache`` may compute
an entry twice and keep one of two equal values.  Likewise a race may fill an entry of the per-size table in
``CycleExpr._row`` twice, or lose one entry when two threads write the slot
itself, always with equal values: a lost entry is built again on the next
evaluation at its size.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
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

    __slots__ = _stored = ("marking", "children", "codim", "weight", "vanishing", "leaves")
    _fields = ("marking", "children")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __new__(cls, marking: int, children: Sequence[MarkedTree] = ()):
        if type(marking) is not int:
            raise TreeStructureError(f"a marking must be an int, not {marking!r}")
        try:
            self = _NODES.get((marking, children))
        except TypeError:  # unhashable children
            self = None
        if self is not None:
            return self
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
        kids = tuple(sorted(given, key=_encoding))
        self = _NODES.get((marking, kids))
        if self is None and marking == 0 and len(kids) == 2:
            for idx, child in enumerate(kids):
                if child.marking == 0 and len(child.children) == 2:
                    self = cls(1, (kids[1 - idx],) + child.children)
                    break
        if self is None:
            if kids:
                # each child branch also counts the edge up to its parent
                codim, weight, vanishing, leaves = marking, 0, marking > len(kids) - 2, []
                for c in kids:
                    codim += c.codim + 1
                    weight += c.weight
                    vanishing = vanishing or c.vanishing
                    leaves += c.leaves
                leaves = tuple(leaves)
            else:
                codim = weight = marking
                vanishing = False
                leaves = (marking,)
            self = object.__new__(cls)
            for setter, value in zip(cls._setters, (marking, kids, codim, weight, vanishing, leaves)):
                setter(self, value)
        # published with one setdefault per key, so that of two threads that
        # build the same new tree, both return the node stored first
        self = _NODES.setdefault((marking, kids), self)
        _NODES.setdefault((marking, given), self)
        return self

    @classmethod
    def _make(cls, marking: int, children: Sequence[MarkedTree], *derived) -> MarkedTree:
        """The interned node: the derived slots come from the children, so only
        the fields are read, and the one tree with them is returned."""
        return cls(marking, children)


_NODES: dict = {}  # (marking, children) as given or sorted -> the one canonical tree


def stick(marking: int) -> MarkedTree:
    """The one-leaf tree: a_m in the singularity basis, psi^m in the basic one."""
    return MarkedTree(marking)


def star(marking: int, leaf_marks: Sequence[int]) -> MarkedTree:
    """Single internal vertex with the given marking over plain leaves."""
    try:
        leaves = tuple(map(MarkedTree, leaf_marks))
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


def encoding(t: MarkedTree) -> str:
    """Canonical string form: '(marking;child,child,...)' with leaves as bare
    integers.  A t that is no MarkedTree is refused before the memo, so an
    unhashable t is refused too; ``encoding.cache_info`` reads the memo."""
    return _encoding(_operand(t, MarkedTree, "encoding"))


@lru_cache(maxsize=None)
def _encoding(t: MarkedTree) -> str:
    """encoding of a tree, ungated: the sort key of the tree constructor and
    of the class side, and what the class renderers spell."""
    if not t.children:
        return str(t.marking)
    return f"({t.marking};{','.join(map(_encoding, t.children))})"


encoding.cache_info = _encoding.cache_info


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
    return _rebuild(outer, iter(reps))


def _rebuild(node: MarkedTree, it: Iterator[MarkedTree]) -> MarkedTree:
    """node, a tree with children, with each of its leaves, depth first,
    replaced by the next tree of it; a leaf takes its tree inside the
    comprehension, with no call of its own.

    The gate-free body of graft, which ``classes._glue`` calls directly on
    arguments it has checked already.  A module-level function, not a
    closure of graft: a nested function that calls itself is a reference
    cycle that only the cyclic collector frees."""
    return MarkedTree(node.marking, tuple([_rebuild(c, it) if c.children else next(it)
                                           for c in node.children]))


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
    return tuple(sorted(out, key=_encoding))


def _branch_combos(total: int, count: int) -> list[tuple[MarkedTree, ...]]:
    options: list[tuple[int, MarkedTree]] = []
    for c in range(1, total - count + 2):
        options.extend((c, b) for b in _branch_options(c))

    out: list[tuple[MarkedTree, ...]] = []
    _pick(options, 0, total, count, (), out)
    return out


def _pick(options: list[tuple[int, MarkedTree]], start: int, left: int, slots: int,
          acc: tuple[MarkedTree, ...], out: list[tuple[MarkedTree, ...]]):
    """Append to out each acc extended by slots more branches of options, taken
    from index start on in nondecreasing index order, whose costs sum to left."""
    if slots == 0:
        if left == 0:
            out.append(acc)
        return
    for idx in range(start, len(options)):
        c, b = options[idx]
        if c > left - (slots - 1):
            continue
        _pick(options, idx, left - c, slots - 1, acc + (b,), out)


def enumerate_trees(max_codim: int) -> list[MarkedTree]:
    """All canonical non-vanishing marked trees of codimension <= max_codim.

    Includes the sticks (codimension = marking).  Deterministic order:
    by codimension, then canonical encoding.
    """
    found = {t for k in range(_count(max_codim, "max_codim") + 1) for t in _branch_options(k + 1)}
    return sorted(found, key=lambda t: (t.codim, _encoding(t)))
