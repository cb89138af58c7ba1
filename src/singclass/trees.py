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
Canonical trees are hash-consed: :func:`tree` (and so every constructor
built on it) returns the one stored instance of each canonical tree, so
equality of canonical trees is identity.  Each instance computes its hash,
codimension, weight and vanishing flag once, from its children, when it is
built.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from .errors import ConstraintError, Record, TreeStructureError

__all__ = [
    "MarkedTree",
    "tree",
    "stick",
    "star",
    "canonicalize",
    "encoding",
    "leaf_markings",
    "graft",
    "enumerate_trees",
]


class MarkedTree(Record):
    """One vertex of a marked tree with its (canonically ordered) subtrees.

    Always build instances through :func:`tree` / :func:`canonicalize`;
    direct construction skips sorting, contraction, valency checks and
    interning, though the instance still equals and hashes like its
    interned twin.  Three attributes are computed from the children on
    construction:

    - ``codim``, the codimension of the class the tree denotes (the same in
      both bases).  A stick has its marking as codimension; otherwise the
      leaves contribute marking + 1 each, internal vertices their marking,
      and every edge between two internal vertices contributes 1.
    - ``weight``, the sum of the leaf markings: the grading that makes the
      basis change triangular.
    - ``vanishing``, true iff some vertex with children is marked beyond
      valency - 3.
    """

    __slots__ = ("marking", "children", "codim", "weight", "vanishing", "_hash")
    _fields = ("marking", "children")

    def __init__(self, marking: int, children: tuple[MarkedTree, ...] = ()):
        if children:
            # each child branch also counts the edge up to its parent
            codim = marking + sum(c.codim + 1 for c in children)
            weight = sum(c.weight for c in children)
            vanishing = marking > len(children) - 2 or any(c.vanishing for c in children)
        else:
            codim = weight = marking
            vanishing = False
        put = object.__setattr__
        put(self, "marking", marking)
        put(self, "children", children)
        put(self, "codim", codim)
        put(self, "weight", weight)
        put(self, "vanishing", vanishing)
        put(self, "_hash", hash((marking, children)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, MarkedTree):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.marking == other.marking
            and self.children == other.children
        )


# (marking, children) as passed to tree() -> the canonical instance.  Both the
# raw keys and the canonical ones are stored; a canonical tree is a fixed
# point of tree(), so every key maps to the tree that tree() would build.
_INTERNED: dict[tuple[int, tuple[MarkedTree, ...]], MarkedTree] = {}


def tree(marking: int, children: Sequence[MarkedTree] = ()) -> MarkedTree:
    """Canonical constructor: validates, sorts children, contracts 3-valent pairs.

    Returns the interned instance of the canonical tree.
    """
    key = (marking, tuple(children))
    found = _INTERNED.get(key)
    if found is None:
        found = _INTERNED[key] = _canonical(*key)
    return found


def _canonical(marking: int, kids: tuple[MarkedTree, ...]) -> MarkedTree:
    if marking < 0:
        raise TreeStructureError("markings must be nonnegative")
    if len(kids) == 1:
        raise TreeStructureError(
            "internal vertex with a single child (valency 2) is not allowed"
        )
    kids = tuple(sorted(kids, key=encoding))
    if marking == 0 and len(kids) == 2:
        for idx, child in enumerate(kids):
            if child.marking == 0 and len(child.children) == 2:
                other = kids[1 - idx]
                return tree(1, (other,) + child.children)
    return _INTERNED.setdefault((marking, kids), MarkedTree(marking, kids))


def stick(marking: int) -> MarkedTree:
    """The one-leaf tree: a_m in the singularity basis, psi^m in the basic one."""
    return tree(marking)


def star(marking: int, leaf_marks: Sequence[int]) -> MarkedTree:
    """Single internal vertex with the given marking over plain leaves."""
    return tree(marking, tuple(stick(m) for m in leaf_marks))


def canonicalize(raw) -> MarkedTree:
    """Rebuild a tree (MarkedTree or nested (marking, children) data) in canonical form."""
    if isinstance(raw, MarkedTree):
        return tree(raw.marking, tuple(canonicalize(c) for c in raw.children))
    if isinstance(raw, int):
        return stick(raw)
    marking, children = raw
    return tree(int(marking), tuple(canonicalize(c) for c in children))


@lru_cache(maxsize=None)
def encoding(t: MarkedTree) -> str:
    """Canonical string form: '(marking;child,child,...)' with leaves as bare integers."""
    if not t.children:
        return str(t.marking)
    return f"({t.marking};{','.join(encoding(c) for c in t.children)})"


def leaf_markings(t: MarkedTree) -> tuple[int, ...]:
    """Markings of the childless vertices, in canonical depth-first order."""
    if not t.children:
        return (t.marking,)
    out: list[int] = []
    for c in t.children:
        out.extend(leaf_markings(c))
    return tuple(out)


def graft(outer: MarkedTree, replacements: Sequence[MarkedTree]) -> MarkedTree:
    """Erase the leaves of ``outer`` and glue the given trees in their place.

    Replacements are matched to leaves in canonical depth-first order; the
    root of the i-th replacement is glued onto the vertex that carried the
    i-th leaf, so sticks graft as plain marked leaves.
    """
    if not outer.children:
        raise ConstraintError("cannot graft into a stick")
    reps = list(replacements)
    if len(reps) != len(leaf_markings(outer)):
        raise ConstraintError(
            f"need one graft per leaf: tree has {len(leaf_markings(outer))} leaves, got {len(reps)}"
        )
    it = iter(reps)

    def rebuild(node: MarkedTree) -> MarkedTree:
        if not node.children:
            return next(it)
        return tree(node.marking, tuple(rebuild(c) for c in node.children))

    return tree(outer.marking, tuple(rebuild(c) for c in outer.children))


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
                candidate = tree(q, combo)
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
    found = {t for k in range(max_codim + 1) for t in _branch_options(k + 1)}
    return sorted(found, key=lambda t: (t.codim, encoding(t)))
