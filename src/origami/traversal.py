"""Traversal analysis of origin-graph pairs and the greedy labeling that
witnesses membership in the universal resynchronizer family.

A source x traverses z when some output keeps origin x on one side of z
and gets a new origin strictly on the other side.  Counts are per
direction: max_count is the largest number of distinct sources traversing
one position in one direction, which is the quantity the R_k family
matches exactly.  The report, ``max_traversal`` and ``greedy_label`` all
read one pass over the output positions (``_reach``): the rightmost and
the leftmost new origin of each source whose origins move.
"""

from __future__ import annotations

from dataclasses import dataclass

from .resync import ResyncWitness
from .transducers import OriginGraph


class TraversalError(ValueError):
    pass


class GreedyLabelError(ValueError):
    """Raised when the pass runs out of label indexes: k-traversal exceeded."""


def _check_pair(sigma, sigma_p):
    if sigma.input != sigma_p.input or sigma.output != sigma_p.output:
        raise TraversalError("traversal needs graphs with equal input and output words")


def _reach(sigma, sigma_p):
    """The pass every traversal count reads: for each source x whose new
    origins move right, the rightmost of them, and for each whose new
    origins move left, the leftmost; two dicts keyed by x."""
    _check_pair(sigma, sigma_p)
    right, left = {}, {}
    for x, new in zip(sigma.orig, sigma_p.orig):
        if new > right.get(x, x):
            right[x] = new
        elif new < left.get(x, x):
            left[x] = new
    return right, left


def traverses(sigma: OriginGraph, sigma_p: OriginGraph, x: int, z: int) -> bool:
    """Does source x traverse position z between the two graphs?"""
    _check_pair(sigma, sigma_p)
    n = len(sigma.input)
    if not (1 <= x <= n and 1 <= z <= n):
        raise TraversalError(f"positions must lie in 1..{n}")
    for t in range(len(sigma.output)):
        if sigma.orig[t] != x:
            continue
        new = sigma_p.orig[t]
        if x <= z < new or new < z <= x:
            return True
    return False


@dataclass(frozen=True)
class TraversalReport:
    left_to_right: tuple    # per position z (1-based): frozenset of sources
    right_to_left: tuple
    max_count: int

    def table(self):
        lines = []
        for z in range(1, len(self.left_to_right) + 1):
            lr = sorted(self.left_to_right[z - 1])
            rl = sorted(self.right_to_left[z - 1])
            lines.append(f"{z}: {len(lr)} {len(rl)} {lr + rl}")
        return "\n".join(lines)


def traversal_report(sigma: OriginGraph, sigma_p: OriginGraph) -> TraversalReport:
    """Exact per-position traverser sets, split by direction.

    A source traversing one position through several outputs counts once.
    max_count is the per-direction maximum over positions.
    """
    right, left = _reach(sigma, sigma_p)
    n = len(sigma.input)
    lr = [set() for _ in range(n)]
    rl = [set() for _ in range(n)]
    for x, hi in right.items():
        for z in range(x, hi):          # x <= z < max new origin
            lr[z - 1].add(x)
    for x, lo in left.items():
        for z in range(lo + 1, x + 1):  # min new origin < z <= x
            rl[z - 1].add(x)
    return TraversalReport(tuple(frozenset(s) for s in lr),
                           tuple(frozenset(s) for s in rl), max(map(len, lr + rl)))


def max_traversal(sigma: OriginGraph, sigma_p: OriginGraph) -> int:
    """max_count without materializing the sets (sweep over coverage deltas)."""
    right, left = _reach(sigma, sigma_p)
    n = len(sigma.input)
    diff_lr = [0] * (n + 2)
    diff_rl = [0] * (n + 2)
    for x, hi in right.items():
        diff_lr[x] += 1
        diff_lr[hi] -= 1
    for x, lo in left.items():
        diff_rl[lo + 1] += 1
        diff_rl[x + 1] -= 1
    mx = cur_lr = cur_rl = 0
    for z in range(1, n + 1):
        cur_lr += diff_lr[z]
        cur_rl += diff_rl[z]
        mx = max(mx, cur_lr, cur_rl)
    return mx


def mirror(g: OriginGraph) -> OriginGraph:
    """Reverse both words and origins; swaps the traversal directions."""
    n = len(g.input)
    return OriginGraph(tuple(reversed(g.input)),
                       tuple(reversed(g.output)),
                       tuple(n + 1 - o for o in reversed(g.orig)))


@dataclass(frozen=True)
class LabelAssignment:
    rights: tuple   # tuple of frozensets of input positions, index 0..k-1
    lefts: tuple

    def k(self):
        return len(self.rights)

    def to_witness(self, input_len: int) -> ResyncWitness:
        """Bit vectors ordered Right_0..Right_{k-1}, Left_0..Left_{k-1}."""
        vecs = []
        for group in (self.rights, self.lefts):
            for s in group:
                vecs.append(tuple(1 if p in s else 0 for p in range(1, input_len + 1)))
        return ResyncWitness(tuple(vecs))


def greedy_label(sigma: OriginGraph, sigma_p: OriginGraph, k: int) -> LabelAssignment:
    """Label redirected positions with Right_i / Left_i indexes.

    Left-to-right pass over the positions redirected strictly right, always
    taking the least index whose current occupant no longer traverses the
    new position; the incremental form keeps, per index, the rightmost
    redirection target of its latest member and frees the index once the
    pass reaches that target.  Succeeds whenever the pair has k-traversal
    and the produced assignment is then a valid R_k witness.

    Raises GreedyLabelError("k-traversal exceeded") when no index is free.
    """
    right, left = _reach(sigma, sigma_p)
    if k < 0:
        raise ValueError("k must be >= 0")

    rights = [set() for _ in range(k)]
    busy_until = [None] * k
    for x in sorted(right):
        free = [i for i in range(k) if busy_until[i] is None or busy_until[i] <= x]
        if not free:
            raise GreedyLabelError("k-traversal exceeded")
        i = free[0]
        rights[i].add(x)
        busy_until[i] = right[x]

    lefts = [set() for _ in range(k)]
    busy_until = [None] * k
    for x in sorted(left, reverse=True):
        free = [i for i in range(k) if busy_until[i] is None or busy_until[i] >= x]
        if not free:
            raise GreedyLabelError("k-traversal exceeded")
        i = free[0]
        lefts[i].add(x)
        busy_until[i] = left[x]

    return LabelAssignment(tuple(frozenset(s) for s in rights),
                           tuple(frozenset(s) for s in lefts))
