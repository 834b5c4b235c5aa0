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

from dataclasses import dataclass

from .graph import Instance


@dataclass(frozen=True)
class GreedyStep:
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

    Tracks per node: membership and the residual demand (deficit).
    ``covered`` is the running value of the potential, kept equal to
    m*n - sum(deficit).
    """

    def __init__(self, inst: Instance):
        n = inst.graph.node_count
        self.inst = inst
        self.in_set = [False] * n
        self.deficit = [inst.m] * n
        self.covered = 0

    def add(self, u: int) -> None:
        """Insert u, zeroing its own deficit and relieving uncovered neighbors."""
        if self.in_set[u]:
            raise ValueError(f"node {u} already in the set")
        self.covered += self.deficit[u]
        self.deficit[u] = 0
        self.in_set[u] = True
        for v in self.inst.graph.adjacency[u]:
            if not self.in_set[v] and self.deficit[v] > 0:
                self.deficit[v] -= 1
                self.covered += 1


def coverage_gain(state: DeficitState, u: int) -> int:
    """Potential increase from adding u, without mutating the state.

    Equals u's own deficit plus the number of uncovered neighbors outside
    the set whose deficit it would relieve.
    """
    if state.in_set[u]:
        raise ValueError(f"node {u} already in the set")
    gain = state.deficit[u]
    for v in state.inst.graph.adjacency[u]:
        if not state.in_set[v] and state.deficit[v] > 0:
            gain += 1
    return gain


def greedy_dominating_set(inst: Instance) -> tuple[set[int], GreedyTrace]:
    """Run the greedy cover, returning the m-fold dominating set and its trace.

    Selection maximizes gain/cost, compared by cross-multiplication; ties
    prefer the larger gain, then the smaller node id.  A tie is detected
    exactly only when the products gain*cost are exactly representable, as
    with integer or dyadic costs; otherwise rounding may split it.
    Terminates because the potential strictly increases and is bounded by
    m*n, at which point the set m-fold dominates the graph.
    """
    g = inst.graph
    cost = g.cost
    state = DeficitState(inst)
    chosen: set[int] = set()
    steps: list[GreedyStep] = []
    running = 0.0
    # TODO: replace the linear candidate scan with a lazy priority queue if
    # instances outgrow desk scale.
    while True:
        best_u = -1
        best_gain = 0
        for u in range(g.node_count):
            if state.in_set[u]:
                continue
            gain = coverage_gain(state, u)
            if gain <= 0:
                continue
            if best_u < 0:
                best_u, best_gain = u, gain
                continue
            lhs = gain * cost[best_u]
            rhs = best_gain * cost[u]
            if lhs > rhs or (lhs == rhs and gain > best_gain):
                best_u, best_gain = u, gain
        if best_u < 0:
            break
        state.add(best_u)
        chosen.add(best_u)
        running += cost[best_u]
        steps.append(GreedyStep(node=best_u, gain=best_gain, ratio=best_gain / cost[best_u], running_cost=running))
    return chosen, GreedyTrace(steps=steps)
