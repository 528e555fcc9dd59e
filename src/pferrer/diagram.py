"""Recursive staircase partitions in p dimensions.

A depth-1 partition is a positive integer lambda and stands for the interval
of boxes (1),...,(lambda).  A depth-p partition is a weakly decreasing
sequence of depth-(p-1) partitions; its boxes are the boxes of the i-th child
with the slice index i appended as the last coordinate.  Box sets are always
downward closed in (N*)^p.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    DepthMismatch,
    NonPositiveLeaf,
    NonUniformDepth,
    NotDecreasing,
    SingletonDiagram,
)
from .limits import DEFAULT_LIMITS, Limits

Box = tuple[int, ...]

LESS = "less"
EQUAL = "equal"
GREATER = "greater"
INCOMPARABLE = "incomparable"


class PFerrerPartition(NamedTuple):
    """Immutable partition tree; ``value`` is set on leaves, ``children`` on nodes.

    Equality and the hash are the field tuple's, by value over the fields.
    """

    depth: int
    value: int | None = None
    children: tuple["PFerrerPartition", ...] = ()

    @staticmethod
    def leaf(value: int) -> "PFerrerPartition":
        return PFerrerPartition(depth=1, value=value)

    @staticmethod
    def node(children) -> "PFerrerPartition":
        children = tuple(children)
        return PFerrerPartition(depth=children[0].depth + 1, children=children)

    @property
    def is_leaf(self) -> bool:
        return self.depth == 1

    def to_tree(self):
        """Nested int/list form matching the JSON input format."""
        if self.is_leaf:
            return self.value
        if self.depth == 2:
            return [child.value for child in self.children]
        return [child.to_tree() for child in self.children]

    def __str__(self):
        return str(self.to_tree())


def validate(tree, limits: Limits = DEFAULT_LIMITS) -> PFerrerPartition:
    """Check a raw nested integer tree and wrap it; never reorders the input.

    Errors carry the JSON-path of the offending node, e.g. "$[1][0]".  The
    nesting depth is checked before anything recurses over the tree.  One
    depth-first walk checks a node (uniform depth, then each child dominated
    by its left sibling) after its children, left to right, and reports the
    first fault it meets: ``[[1, 2], 0]`` fails at ``$[0][1]``, not ``$[1]``.
    """
    limits.check("max_depth", _nesting_depth(tree))
    part = _build(tree, "$")
    limits.check("max_boxes", box_count(part))
    return part


def _nesting_depth(tree) -> int:
    """Deepest node level of a raw tree (a bare leaf is 1), found without recursion."""
    deepest = 0
    stack = [(tree, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        if type(node) in (list, tuple):
            stack.extend((sub, level + 1) for sub in node)
    return deepest


def _build(tree, path: str) -> PFerrerPartition:
    if isinstance(tree, bool):
        raise NonUniformDepth("expected integer or list, got bool", path)
    if isinstance(tree, int):
        if tree < 1:
            raise NonPositiveLeaf(f"leaf value {tree} is not positive", path)
        return PFerrerPartition.leaf(tree)
    if type(tree) in (list, tuple):  # plain sequences only: a PFerrerPartition is a tuple too
        if not tree:
            raise NonUniformDepth("empty sequence", path)
        children = [_build(sub, f"{path}[{i}]") for i, sub in enumerate(tree)]
        depths = {child.depth for child in children}
        if len(depths) != 1:
            raise NonUniformDepth("children have mixed depths", path)
        for i in range(1, len(children)):
            if not _ge(children[i - 1], children[i]):
                raise NotDecreasing(
                    f"child {i} is not dominated by child {i - 1}", f"{path}[{i}]"
                )
        return PFerrerPartition.node(children)
    raise NonUniformDepth(f"expected integer or list, got {type(tree).__name__}", path)


def _ge(a: PFerrerPartition, b: PFerrerPartition) -> bool:
    """Recursive dominance order: a >= b."""
    if a.is_leaf:
        return a.value >= b.value
    if len(a.children) < len(b.children):
        return False
    return all(_ge(a.children[i], b.children[i]) for i in range(len(b.children)))


def compare(a: PFerrerPartition, b: PFerrerPartition) -> str:
    """One of "less", "equal", "greater", "incomparable"; agrees with box containment."""
    if a.depth != b.depth:
        raise DepthMismatch(f"depths {a.depth} and {b.depth} differ")
    ge, le = _ge(a, b), _ge(b, a)
    if ge and le:
        return EQUAL
    if ge:
        return GREATER
    if le:
        return LESS
    return INCOMPARABLE


def box_count(part: PFerrerPartition) -> int:
    if part.is_leaf:
        return part.value
    return sum(box_count(child) for child in part.children)


@lru_cache(maxsize=1)
def boxes(part: PFerrerPartition) -> tuple[Box, ...]:
    """The finite downward-closed subset of (N*)^p encoded by the partition,
    in canonical order: ascending by reversed coordinates, the order of the
    diagram ideal's generators.  One walk, level by level from the root:
    each node's children extend its suffix of last coordinates in child
    order, so every level is already in canonical order of its suffixes and
    the walk needs no sort.  Only the last diagram's tuple is kept."""
    level = [(part, ())]
    while not level[0][0].is_leaf:
        level = [
            (child, (i,) + suffix)
            for node, suffix in level
            for i, child in enumerate(node.children, start=1)
        ]
    return tuple((i,) + suffix for leaf, suffix in level for i in range(1, leaf.value + 1))


def group_sizes(part: PFerrerPartition) -> tuple[int, ...]:
    """m_p, ..., m_1, m_k being the largest coordinate k among the boxes: the
    number of group-k variables of the diagram ideal.  The first child
    dominates its siblings, so the chain of first children holds every m_k."""
    sizes = []
    while not part.is_leaf:
        sizes.append(len(part.children))
        part = part.children[0]
    sizes.append(part.value)
    return tuple(sizes)


def diagonal_index(box: Box) -> int:
    """Diagonal of a box: sum of coordinates minus p plus 1."""
    return sum(box) - len(box) + 1


def full_diagonal_size(k: int, p: int) -> int:
    """Number of boxes in the k-th diagonal of the whole ambient space (N*)^p."""
    return math.comb(k + p - 2, p - 1)


class DiagonalProfile(NamedTuple):
    """Diagonal census: counts[k-1] boxes lie in diagonal k."""

    counts: tuple[int, ...]
    depth: int
    n: int  # variables of the diagram ideal, the sum of the group sizes m_k

    @property
    def delta(self) -> int:
        """Index of the last nonempty diagonal."""
        return len(self.counts)

    @property
    def df(self) -> int:
        """Number of leading diagonals that are completely filled."""
        k = 0
        while k < len(self.counts) and self.counts[k] == full_diagonal_size(k + 1, self.depth):
            k += 1
        return k

    @property
    def sigma(self) -> tuple[int, ...]:
        """Diagonal deviations: the counts of diagonals df+1 .. delta."""
        return self.counts[self.df:]

    def count(self, k: int) -> int:
        if 1 <= k <= len(self.counts):
            return self.counts[k - 1]
        return 0


def diagonal_profile(part: PFerrerPartition) -> DiagonalProfile:
    tally: dict[int, int] = {}
    for box in boxes(part):
        k = diagonal_index(box)
        tally[k] = tally.get(k, 0) + 1
    delta = max(tally)
    counts = tuple(tally.get(k, 0) for k in range(1, delta + 1))
    return DiagonalProfile(counts, part.depth, sum(group_sizes(part)))


def full_diagram(p: int, c: int, limits: Limits = DEFAULT_LIMITS) -> PFerrerPartition:
    """The diagram holding every box of (N*)^p with diagonal index at most c."""
    if p < 1 or c < 1:
        raise ValueError("p and c must be positive")
    limits.check("max_depth", p)
    limits.check("max_boxes", math.comb(c + p - 1, p))
    return _full(p, c)


def _full(p: int, c: int) -> PFerrerPartition:
    if p == 1:
        return PFerrerPartition.leaf(c)
    return PFerrerPartition.node(_full(p - 1, c - i) for i in range(c))


def partition_from_boxes(box_set, depth: int) -> PFerrerPartition:
    """Rebuild the partition tree of a nonempty downward-closed box set.

    The boxes' reversed coordinates are sorted once, so every node of the
    tree is a range of that list (see ``_subtree``)."""
    rows = sorted(box[::-1] for box in box_set)
    if not rows:
        raise ValueError("empty box set")
    return _subtree(rows, 0, len(rows), 0, depth)


def _subtree(rows: list[Box], start: int, end: int, k: int, depth: int) -> PFerrerPartition:
    """The node of ``rows[start:end]``, sorted reversed boxes that agree on
    their first k entries: its children are the runs of equal entry k, which
    must be 1, 2, ..., each run ending where bisection finds the next value."""
    if k == depth - 1:
        return PFerrerPartition.leaf(rows[end - 1][k])
    prefix = rows[start][:k]
    children = []
    while start < end:
        head = rows[start][k]
        if head != len(children) + 1:
            raise ValueError("box set is not downward closed in the last coordinate")
        stop = bisect_left(rows, prefix + (head + 1,), start, end)
        children.append(_subtree(rows, start, stop, k + 1, depth))
        start = stop
    return PFerrerPartition.node(children)


def remove_last_diagonal_box(part: PFerrerPartition) -> tuple[PFerrerPartition, Box]:
    """Drop one box from the last diagonal, returning the smaller diagram and the box.

    Ties are broken by taking the lexicographically largest box under
    (alpha_1, ..., alpha_p).  Any last-diagonal box is componentwise maximal,
    so the remaining set is still downward closed.
    """
    all_boxes = boxes(part)
    if len(all_boxes) < 2:
        raise SingletonDiagram("cannot remove the only box")
    removed = max(all_boxes, key=lambda b: (diagonal_index(b), b))
    rest = [b for b in all_boxes if b != removed]
    return partition_from_boxes(rest, part.depth), removed
