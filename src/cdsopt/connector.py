"""Phase-2 connectors: merge the components of a dominating set into one.

The main routine repeatedly adds the most cost-efficient *star* (a free
center node plus a subset of its free neighbors).  A star's value is a
capped merge count: the number of components its center touches, minus one,
plus one for each leaf (taken in nondecreasing cost order) that touches at
least one component not already reached by the star so far.  Capping each
leaf's contribution at one is what makes the most efficient star computable
in polynomial time: it is always attained by a prefix of the cheapest
single-component leaves, one per fresh component.

A deliberately weaker baseline adds only single nodes and adjacent pairs;
on the adversarial ladder family its cost grows linearly with the rung
count while the star connector stays near the optimum.

Both connectors run through one driver that keeps each free center's best
candidate in a heap of ``(-key, -gain, center, version, candidate)``
tuples, where the key is ``domination.ratio_key`` of the candidate's gain
and total cost: the exact gain/cost order as an integer, the same key the
cover phase uses.  Recomputing a center bumps its version, and the pick
pops entries until one is live (its center free and its version current).
A star at a center, like a pair at its lower-id node, reads only the
center's ``ComponentIndex.reach`` entry (the labels of the components it
touches), which of its neighbors are members, and the reach entries of its
free neighbors, so a center costs O(deg) plus a sort.  After a candidate
joins, the stale centers are exactly the free nodes of R, N(R) and N(J),
where J are the joined nodes and R the free nodes whose reach entry
``ComponentIndex.add`` reports as changed; every other center keeps its
entry.  Candidate values can rise as well as fall between rounds, so lazy
upper bounds would be wrong; this invalidation is explicit and exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .components import ComponentIndex
from .domination import ratio_key
from .graph import Instance, WeightedGraph


@dataclass(frozen=True)
class StarCandidate:
    """A center with cost-ordered leaves, its merge value, and total cost."""

    center: int
    leaves: tuple[int, ...]
    gain: int
    total_cost: float

    @property
    def nodes(self) -> tuple[int, ...]:
        return (self.center, *self.leaves)


@dataclass
class ConnectReport:
    """Trace of a connector run: chosen stars and the component counts."""

    method: str
    stars: list[StarCandidate] = field(default_factory=list)
    connectors: set[int] = field(default_factory=set)
    initial_components: int = 1
    component_trace: list[int] = field(default_factory=list)


def component_neighbors(idx: ComponentIndex, graph: WeightedGraph, u: int) -> set[int]:
    """Labels of the distinct components of G[D] adjacent to u (u outside D)."""
    if idx.label[u] >= 0:
        raise ValueError(f"node {u} already in the indexed set")
    return set(idx.reach[u])


def best_star_at(idx: ComponentIndex, graph: WeightedGraph, u: int) -> StarCandidate | None:
    """Most efficient star centered at u, or None when no star merges anything.

    Candidate leaves are the free neighbors touching exactly one component.
    Scanning them by (cost, id) and keeping only those whose component is
    still fresh, every prefix of the kept list is evaluated and the best
    gain/cost prefix with positive gain is returned, ties going to the
    larger gain.  Some globally optimal star always has this
    one-fresh-component-per-leaf shape, so the prefix scan attains the
    optimum over all leaf subsets.
    """
    cost = graph.cost
    reach = idx.reach
    if idx.label[u] >= 0:
        raise ValueError(f"node {u} already in the indexed set")
    shift = graph.key_shift
    eligible: list[tuple[float, int, int]] = []
    for v in graph.adjacency[u]:
        # a member's reach entry is empty, so this also skips members
        if len(reach[v]) == 1:
            (comp,) = reach[v]
            eligible.append((cost[v], v, comp))
    eligible.sort()
    covered = set(reach[u])
    gain = len(covered) - 1
    total = cost[u]
    best = (ratio_key(gain, total, shift), 0, gain, total) if gain >= 1 else None  # (key, take, gain, total)
    kept: list[int] = []
    for leaf_cost, v, comp in eligible:
        if comp in covered:
            continue
        kept.append(v)
        covered.add(comp)
        total += leaf_cost
        gain += 1
        if gain < 1:
            continue
        key = ratio_key(gain, total, shift)
        # prefixes grow in gain, so on an equal key the later one wins
        if best is None or key >= best[0]:
            best = (key, len(kept), gain, total)
    if best is None:
        return None
    _, take, gain, total = best
    return StarCandidate(center=u, leaves=tuple(kept[:take]), gain=gain, total_cost=total)


def best_pair_at(idx: ComponentIndex, graph: WeightedGraph, a: int) -> StarCandidate | None:
    """Best of the singleton a and the free pairs (a, b) with b > a, or None.

    A candidate's value is the number of components it touches minus one.
    Candidates are ordered by ``ratio_key`` and then gain; ties keep the
    first of the singleton and then b in adjacency order.
    """
    cost = graph.cost
    label = idx.label
    reach = idx.reach
    if label[a] >= 0:
        raise ValueError(f"node {a} already in the indexed set")
    shift = graph.key_shift
    reached_a = reach[a]
    best = None  # (key, gain, partner or -1, total)
    gain = len(reached_a) - 1
    if gain >= 1:
        best = (ratio_key(gain, cost[a], shift), gain, -1, cost[a])
    for b in graph.adjacency[a]:
        if b <= a or label[b] >= 0:
            continue
        pair_gain = len(reached_a | reach[b]) - 1
        if pair_gain < 1:
            continue
        total = cost[a] + cost[b]
        if best is None:
            best = (ratio_key(pair_gain, total, shift), pair_gain, b, total)
        elif pair_gain > best[1] or total < best[3]:
            # otherwise no larger gain at no lower cost: it cannot win
            key = ratio_key(pair_gain, total, shift)
            if (key, pair_gain) > best[:2]:
                best = (key, pair_gain, b, total)
    if best is None:
        return None
    _, gain, b, total = best
    return StarCandidate(center=a, leaves=() if b < 0 else (b,), gain=gain, total_cost=total)


class _CandidateHeap:
    """Each free center's best candidate, popped in the exact ratio order.

    Entries are ``(-key, -gain, center, version, candidate)``.  ``refresh``
    recomputes centers and pushes their new entries, bumping each center's
    version, so an entry is live only while its center is free and its
    version current; ``pop`` drops dead entries as they reach the top.
    Live entries have distinct centers, so the pick does not depend on the
    order of the pushes.
    """

    def __init__(self, idx: ComponentIndex, graph: WeightedGraph, best_at_center):
        self.idx = idx
        self.graph = graph
        self.best_at_center = best_at_center
        self.version = [0] * graph.node_count
        self.entries: list[tuple] = []

    def live(self, entry: tuple) -> bool:
        center = entry[2]
        return self.idx.label[center] < 0 and entry[3] == self.version[center]

    def refresh(self, centers) -> None:
        idx, graph = self.idx, self.graph
        shift = graph.key_shift
        label = idx.label
        version = self.version
        entries = self.entries
        best_at_center = self.best_at_center
        for u in centers:
            if label[u] >= 0:
                continue
            version[u] += 1
            cand = best_at_center(idx, graph, u)
            if cand is not None:
                key = ratio_key(cand.gain, cand.total_cost, shift)
                heapq.heappush(entries, (-key, -cand.gain, u, version[u], cand))

    def pop(self) -> StarCandidate | None:
        entries = self.entries
        while entries:
            entry = heapq.heappop(entries)
            if self.live(entry):
                return entry[4]
        return None


def _stale_centers(graph: WeightedGraph, joined, changed) -> set[int]:
    """Nodes whose candidate may differ after ``joined`` entered the set.

    ``changed`` are the free nodes whose reach entry changed.  A center's
    candidate reads its own reach entry, which of its neighbors are members
    and the reach entries of its free neighbors, so the stale nodes are
    ``changed`` and the neighbors of ``changed`` and of ``joined``; callers
    skip the members.
    """
    adjacency = graph.adjacency
    stale = set(changed)
    for x in changed:
        stale.update(adjacency[x])
    for x in joined:
        stale.update(adjacency[x])
    return stale


def _connect(inst: Instance, dominating_set, method: str, best_at_center) -> ConnectReport:
    """Add the most efficient candidate until the set is connected.

    ``best_at_center(idx, graph, u)`` is the best candidate at the
    free node u, or None.  Each chosen candidate must merge as many
    components as it promises, so at most (initial components - 1) rounds
    run.  Only the ``_stale_centers`` are recomputed each round, and the
    input check reads the index: a free node with empty reach is undominated.
    """
    graph = inst.graph
    idx = ComponentIndex(graph, dominating_set)
    for u, near in enumerate(idx.reach):
        if not near and u not in idx:
            raise ValueError(f"set is not dominating: node {u} has no neighbor inside")
    report = ConnectReport(method=method, initial_components=idx.component_count)
    heap = _CandidateHeap(idx, graph, best_at_center)
    stale = range(graph.node_count)
    while idx.component_count > 1:
        heap.refresh(stale)
        best = heap.pop()
        if best is None:
            raise RuntimeError(f"{method} connector stalled: no candidate merges components")
        before = idx.component_count
        changed: set[int] = set()
        for node in best.nodes:
            changed |= idx.add(node)
            report.connectors.add(node)
        after = idx.component_count
        if before - after != best.gain:
            raise RuntimeError(
                f"{method} connector: selected candidate promised {best.gain} merges"
                f" but delivered {before - after}"
            )
        report.stars.append(best)
        report.component_trace.append(after)
        stale = _stale_centers(graph, best.nodes, changed)
    return report


def greedy_connect(inst: Instance, dominating_set) -> ConnectReport:
    """Connect a dominating set by repeatedly adding the most efficient star."""
    return _connect(inst, dominating_set, "star", best_star_at)


def pairwise_connect(inst: Instance, dominating_set) -> ConnectReport:
    """Baseline connector restricted to single nodes and adjacent pairs.

    Greedy on (components merged)/(cost) over all free singletons and free
    adjacent pairs.  Whenever the current set is dominating and disconnected,
    two nearest components are at most three hops apart, so some candidate
    always merges at least two of them.
    """
    return _connect(inst, dominating_set, "pairwise", best_pair_at)
