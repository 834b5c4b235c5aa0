"""Greedy construction of a minimum-weight m-fold dominating set.

The greedy grows a set C, at each step adding the node with the best
(coverage gain)/(cost) ratio, until every node outside C has at least m
neighbors inside.  The potential being maximized is the total satisfied
domination demand

    covered(C) = m*n - sum over u of deficit_C(u)

where deficit_C(u) = max(m - |N(u) & C|, 0) for u outside C and 0 inside.
This potential is monotone and submodular with value 0 on the empty set, so
the standard greedy cover guarantee applies to the produced set.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .graph import Instance, checked_ids


@dataclass(frozen=True)
class GreedyStep:
    """One phase-1 pick; the field order is the report's step key order."""

    node: int
    gain: int
    ratio: float
    running_cost: float


@dataclass
class GreedyTrace:
    steps: list[GreedyStep]
    given: bool = False


class DeficitState:
    """Incremental residual-domination bookkeeping for a growing node set.

    Tracks per node: membership and the residual demand (deficit).  A
    member's deficit is 0 and deficits only fall, so a node with positive
    deficit is outside the set: the neighbor loops test the deficit alone.
    """

    def __init__(self, inst: Instance):
        n = inst.graph.node_count
        self.inst = inst
        self.in_set = [False] * n
        self.deficit = [inst.m] * n

    def add(self, u: int) -> None:
        """Insert u, zeroing its own deficit and relieving uncovered neighbors."""
        if not 0 <= u < len(self.in_set):
            checked_ids(len(self.in_set), (u,))  # raises the range error
        if self.in_set[u]:
            raise ValueError(f"node {u} already in the set")
        self.deficit[u] = 0
        self.in_set[u] = True
        for v in self.inst.graph.adjacency[u]:
            if self.deficit[v] > 0:
                self.deficit[v] -= 1


def coverage_gain(state: DeficitState, u: int) -> int:
    """Potential increase from adding u, without mutating the state.

    Equals u's own deficit plus the number of uncovered neighbors outside
    the set whose deficit it would relieve.
    """
    if not 0 <= u < len(state.in_set):
        checked_ids(len(state.in_set), (u,))  # raises the range error
    if state.in_set[u]:
        raise ValueError(f"node {u} already in the set")
    gain = state.deficit[u]
    for v in state.inst.graph.adjacency[u]:
        if state.deficit[v] > 0:
            gain += 1
    return gain


def ratio_key(gain: int, cost: float, shift: int) -> int:
    """floor(gain / cost * 2**shift): the exact gain/cost order as one integer.

    With cost = num/den, two unequal ratios differ by at least
    1/(num1 * num2) > 2**-(2*B), so under ``graph.ratio_shift`` of the
    costs compared their keys differ, larger ratio larger key; equal ratios
    give equal keys.  A graph computes that shift once, as
    ``WeightedGraph.key_shift``, for its costs and every star total.  Both
    greedy phases order their candidates by this key, then by larger gain,
    then by smaller node id.  A star total can round up to infinity; its
    ratio is 0, below every finite ratio's key of at least 1.
    """
    if cost == math.inf:
        return 0
    num, den = cost.as_integer_ratio()
    return (gain * den << shift) // num


def greedy_dominating_set(inst: Instance) -> tuple[set[int], GreedyTrace]:
    """Run the greedy cover, returning the m-fold dominating set and its trace.

    Selection maximizes gain/cost exactly, on the rational values of the
    float costs, through ``ratio_key``; ties prefer the larger gain, then the
    smaller node id.  A decimal tie such as 11/1.1 against 9/0.9 is decided
    by the costs' binary values, not by rounded products: 1.1 is stored
    further above 11/10, relatively, than 0.9 above 9/10, so 9/0.9 is the
    larger ratio and the gain-9 node wins.  Terminates because the
    potential strictly increases and is bounded by m*n, at which point the
    set m-fold dominates the graph.

    Candidates sit in a lazy heap of ``(-key, -gain, node)`` tuples on their
    last computed gain.  Costs are fixed and, the potential being
    submodular, gains never rise as the set grows, so a stored entry never
    ranks below its node's current value.  The top entry's gain is
    recomputed before it is taken: if unchanged, the node is the best free
    node; otherwise the entry is re-sifted (or dropped at gain 0) and the
    new top is examined.  The picks equal those of a full scan in the same
    exact order.
    """
    g = inst.graph
    cost = g.cost
    shift = g.key_shift
    state = DeficitState(inst)
    heap: list[tuple[int, int, int]] = []
    for u in range(g.node_count):
        gain = coverage_gain(state, u)
        if gain > 0:
            heap.append((-ratio_key(gain, cost[u], shift), -gain, u))
    heapq.heapify(heap)
    chosen: set[int] = set()
    steps: list[GreedyStep] = []
    running = 0.0
    while heap:
        _, neg_gain, u = heap[0]
        gain = coverage_gain(state, u)
        if gain != -neg_gain:
            if gain > 0:
                heapq.heapreplace(heap, (-ratio_key(gain, cost[u], shift), -gain, u))
            else:
                heapq.heappop(heap)
            continue
        heapq.heappop(heap)
        state.add(u)
        chosen.add(u)
        running += cost[u]
        steps.append(GreedyStep(node=u, gain=gain, ratio=gain / cost[u], running_cost=running))
    return chosen, GreedyTrace(steps=steps)
