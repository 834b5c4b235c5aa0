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
from typing import NamedTuple

from .graph import Instance, checked_ids


class GreedyStep(NamedTuple):
    """One phase-1 pick; the field order is the report's step key order."""

    node: int
    gain: int
    ratio: float
    running_cost: float


@dataclass
class GreedyTrace:
    """Phase 1's picks, and its lazy heap's work: stale tops re-sifted and tops dropped at gain 0."""

    steps: list[GreedyStep]
    given: bool = False
    resifts: int = 0
    dropped: int = 0


class DeficitState:
    """Incremental residual-domination bookkeeping for a growing node set.

    Tracks per node: membership, the residual demand (deficit) and the
    exact coverage gain ``gain[u]`` for each free u (what ``coverage_gain``
    returns) and 0 for each member.  A member's deficit is 0 and deficits only
    fall, so a node with positive deficit is outside the set.

    A free node's gain is its deficit plus its neighbors of positive
    deficit, so it starts at m + deg(u) (``Instance`` checks m >= 1, so
    every deficit starts positive) and changes only when a deficit falls:
    by one at the node whose deficit falls, and by one at each free
    neighbor of a node whose deficit reaches 0.  ``add(u)`` pays
    O(deg(u)) for u's neighbors plus O(deg(v)) for each neighbor v whose
    deficit reaches 0.  Each node joins once and reaches deficit 0 once, so
    the upkeep over any sequence of adds is O(n + E).
    """

    def __init__(self, inst: Instance):
        n = inst.graph.node_count
        self.inst = inst
        self.in_set = [False] * n
        self.deficit = [inst.m] * n
        self.gain = [inst.m + len(nbrs) for nbrs in inst.graph.adjacency]

    def add(self, u: int) -> None:
        """Insert u, zeroing its own deficit and gain and relieving uncovered neighbors."""
        if not 0 <= u < len(self.in_set):
            checked_ids(len(self.in_set), (u,))  # raises the range error
        in_set = self.in_set
        if in_set[u]:
            raise ValueError(f"node {u} already in the set")
        adjacency = self.inst.graph.adjacency
        deficit = self.deficit
        gain = self.gain
        # a neighbor v loses 1 as its own deficit falls, and each free
        # neighbor loses 1 more if u's deficit was positive and now is 0
        lost = 2 if deficit[u] > 0 else 1
        deficit[u] = 0
        gain[u] = 0
        in_set[u] = True
        for v in adjacency[u]:
            d = deficit[v]
            if d > 0:
                deficit[v] = d - 1
                gain[v] -= lost
                if d == 1:
                    for w in adjacency[v]:
                        if not in_set[w]:
                            gain[w] -= 1
            elif lost == 2 and not in_set[v]:
                gain[v] -= 1


def coverage_gain(state: DeficitState, u: int) -> int:
    """Potential increase from adding u, without mutating the state.

    Equals u's own deficit plus the number of uncovered neighbors outside
    the set whose deficit it would relieve, as ``state.gain`` keeps it.
    """
    if not 0 <= u < len(state.in_set):
        checked_ids(len(state.in_set), (u,))  # raises the range error
    if state.in_set[u]:
        raise ValueError(f"node {u} already in the set")
    return state.gain[u]


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
    ranks below its node's current value.  The top entry's gain is read
    from ``DeficitState.gain``, which the state keeps exact, in O(1): if
    unchanged, the node is the best free node; otherwise the entry is
    re-sifted (or dropped at gain 0) and the new top is examined.  The
    picks equal those of a full scan in the same exact order, and no step
    rescans a neighborhood, so a hub that reaches the top after every pick
    costs O(log n) each time rather than O(deg).

    Each node's key factors are computed once: with cost = num/den,
    ``scaled = den << shift``, and ``gain * scaled // num`` is the integer
    ``ratio_key(gain, cost, shift)`` (node costs are finite, so its inf
    branch never applies).
    """
    g = inst.graph
    cost = g.cost
    shift = g.key_shift
    state = DeficitState(inst)
    current = state.gain
    num: list[int] = []
    scaled: list[int] = []
    for c in cost:
        c_num, c_den = c.as_integer_ratio()
        num.append(c_num)
        scaled.append(c_den << shift)
    heap = [(-(gain * scaled[u] // num[u]), -gain, u) for u, gain in enumerate(current)]
    heapq.heapify(heap)
    chosen: set[int] = set()
    steps: list[GreedyStep] = []
    running = 0.0
    resifts = dropped = 0
    while heap:
        _, neg_gain, u = heap[0]
        gain = current[u]
        if gain != -neg_gain:
            if gain > 0:
                heapq.heapreplace(heap, (-(gain * scaled[u] // num[u]), -gain, u))
                resifts += 1
            else:
                heapq.heappop(heap)
                dropped += 1
            continue
        heapq.heappop(heap)
        state.add(u)
        chosen.add(u)
        running += cost[u]
        steps.append(GreedyStep(u, gain, gain / cost[u], running))
    return chosen, GreedyTrace(steps=steps, resifts=resifts, dropped=dropped)
