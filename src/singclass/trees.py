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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import ConstraintError, ParseError, TreeStructureError

__all__ = [
    "MarkedTree",
    "tree",
    "stick",
    "star",
    "canonicalize",
    "encoding",
    "parse_tree",
    "codim",
    "weight",
    "vanishes",
    "is_stick",
    "leaf_markings",
    "leaf_count",
    "graft",
    "substitute",
    "enumerate_trees",
]


@dataclass(frozen=True)
class MarkedTree:
    """One vertex of a marked tree with its (canonically ordered) subtrees.

    Always build instances through :func:`tree` / :func:`canonicalize`;
    direct construction skips sorting, contraction and valency checks.
    """

    marking: int
    children: tuple["MarkedTree", ...] = ()


def tree(marking: int, children: Sequence[MarkedTree] = ()) -> MarkedTree:
    """Canonical constructor: validates, sorts children, contracts 3-valent pairs."""
    if marking < 0:
        raise TreeStructureError("markings must be nonnegative")
    kids = tuple(children)
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
    return MarkedTree(marking, kids)


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


def is_stick(t: MarkedTree) -> bool:
    return not t.children


@lru_cache(maxsize=None)
def _branch_codim(t: MarkedTree) -> int:
    # contribution of a non-top vertex: marking, plus 1 for its parent edge
    # (a leaf edge counts towards the ramification order, an internal edge
    # towards the boundary-stratum codimension), plus its subtrees.
    return t.marking + 1 + sum(_branch_codim(c) for c in t.children)


@lru_cache(maxsize=None)
def codim(t: MarkedTree) -> int:
    """Codimension of the class the tree denotes (same in both bases).

    Sticks have codimension equal to their marking; otherwise the leaves
    contribute marking+1 each, internal vertices their marking, and every
    edge between two internal vertices contributes 1.
    """
    if not t.children:
        return t.marking
    return t.marking + sum(_branch_codim(c) for c in t.children)


@lru_cache(maxsize=None)
def weight(t: MarkedTree) -> int:
    """Sum of the leaf markings; the grading that makes the basis change triangular."""
    if not t.children:
        return t.marking
    return sum(weight(c) for c in t.children)


def vanishes(t: MarkedTree) -> bool:
    """True iff some vertex with children is marked beyond valency - 3."""
    if t.children:
        if t.marking > len(t.children) - 2:
            return True
        return any(vanishes(c) for c in t.children)
    return False


def leaf_markings(t: MarkedTree) -> tuple[int, ...]:
    """Markings of the childless vertices, in canonical depth-first order."""
    if not t.children:
        return (t.marking,)
    out: list[int] = []
    for c in t.children:
        out.extend(leaf_markings(c))
    return tuple(out)


def leaf_count(t: MarkedTree) -> int:
    return len(leaf_markings(t))


def graft(outer: MarkedTree, replacements: Sequence[MarkedTree]) -> MarkedTree:
    """Erase the leaves of ``outer`` and glue the given trees in their place.

    Replacements are matched to leaves in canonical depth-first order; the
    root of the i-th replacement is glued onto the vertex that carried the
    i-th leaf, so sticks graft as plain marked leaves.
    """
    if not outer.children:
        raise ConstraintError("cannot graft into a stick")
    reps = list(replacements)
    if len(reps) != leaf_count(outer):
        raise ConstraintError(
            f"need one graft per leaf: tree has {leaf_count(outer)} leaves, got {len(reps)}"
        )
    it = iter(reps)

    def rebuild(node: MarkedTree) -> MarkedTree:
        if not node.children:
            return next(it)
        return tree(node.marking, tuple(rebuild(c) for c in node.children))

    return tree(outer.marking, tuple(rebuild(c) for c in outer.children))


def substitute(outer: MarkedTree, grafts):
    """Multilinear substitution of singularity-basis expansions into the leaves.

    Every choice of one term per graft produces a glued tree; vanishing trees
    are dropped and coefficients (including xi powers) multiply.  Returns a
    singularity-basis ClassExpr.
    """
    from . import classes

    if not outer.children:
        raise ConstraintError("substitution target must have at least two leaves")
    grafts = list(grafts)
    if len(grafts) != leaf_count(outer):
        raise ConstraintError(
            f"need one graft per leaf: tree has {leaf_count(outer)} leaves, got {len(grafts)}"
        )
    for g in grafts:
        if g.basis != classes.SINGULARITY:
            raise ConstraintError("grafts must be in the singularity basis")

    acc: dict[MarkedTree, object] = {}
    for combo in itertools.product(*(g.terms for g in grafts)):
        glued = graft(outer, [t for t, _ in combo])
        if vanishes(glued):
            continue
        poly = combo[0][1]
        for _, q in combo[1:]:
            poly = poly * q
        acc[glued] = acc[glued] + poly if glued in acc else poly
    return classes.ClassExpr.from_terms(classes.SINGULARITY, acc)


def parse_tree(text: str) -> MarkedTree:
    """Parse the tree grammar: TREE := INT | '(' INT ';' TREE (',' TREE)+ ')'.

    A top-level bare integer denotes the stick with that marking; whitespace
    is insignificant.
    """
    t, pos = _parse_tree_at(text, 0)
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing input after tree", pos)
    return t


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos].isspace():
        pos += 1
    return pos


def _parse_int_at(s: str, pos: int) -> tuple[int, int]:
    pos = _skip_ws(s, pos)
    start = pos
    while pos < len(s) and s[pos].isdigit():
        pos += 1
    if start == pos:
        raise ParseError("expected an integer", start)
    return int(s[start:pos]), pos


# Deepest nesting parse_tree accepts: each level adds at least 2 to the codim,
# so no expandable tree comes near it, and deep input cannot exhaust the stack.
_MAX_TREE_DEPTH = 100


def _parse_tree_at(s: str, pos: int, depth: int = 0) -> tuple[MarkedTree, int]:
    pos = _skip_ws(s, pos)
    if pos < len(s) and s[pos] == "(":
        if depth == _MAX_TREE_DEPTH:
            raise ParseError(f"tree nested deeper than {_MAX_TREE_DEPTH} levels", pos)
        open_pos = pos
        marking, pos = _parse_int_at(s, pos + 1)
        pos = _skip_ws(s, pos)
        if pos >= len(s) or s[pos] != ";":
            raise ParseError("expected ';' after vertex marking", pos)
        children = []
        pos += 1
        while True:
            child, pos = _parse_tree_at(s, pos, depth + 1)
            children.append(child)
            pos = _skip_ws(s, pos)
            if pos < len(s) and s[pos] == ",":
                pos += 1
                continue
            break
        if pos >= len(s) or s[pos] != ")":
            raise ParseError("expected ')'", pos)
        if len(children) < 2:
            raise ParseError("internal vertex needs at least two children", open_pos)
        return tree(marking, tuple(children)), pos + 1
    marking, pos = _parse_int_at(s, pos)
    return stick(marking), pos


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
                if not vanishes(candidate) and _branch_codim(candidate) == cost:
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
    found: set[MarkedTree] = set()
    for m in range(0, max_codim + 1):
        found.add(stick(m))
    for total in range(2, max_codim + 1):
        for t_children in range(2, total + 1):
            for q in range(0, min(t_children - 2, total - t_children) + 1):
                for combo in _branch_combos(total - q, t_children):
                    candidate = tree(q, combo)
                    if not vanishes(candidate) and codim(candidate) <= max_codim:
                        found.add(candidate)
    return sorted(found, key=lambda t: (codim(t), encoding(t)))
