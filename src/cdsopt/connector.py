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
candidate between rounds and recomputes only the centers a round can have
changed.  A star at a center, like a pair at its lower-id node, reads the
center's ``ComponentIndex.reach`` entry (the labels of the components it
touches), which of its neighbors are free, and the reach entries of those
free neighbors; no labels two hops out are scanned, so a center costs
O(deg) plus a sort.  The index rewrites a reach entry only at a free
neighbor of a node whose label changed (the candidate's nodes and the
members of the components it absorbed), so after a candidate is added only
free nodes within two hops of a changed node are stale, and only via a free
middle node when two hops away.
Candidate values can rise as well as fall between rounds, so lazy upper
bounds would be wrong; this invalidation is explicit and exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .components import ComponentIndex
from .graph import Instance, WeightedGraph
from .verify import verify_mds


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
    gain/cost prefix with positive gain is returned.  Some globally optimal
    star always has this one-fresh-component-per-leaf shape, so the prefix
    scan attains the optimum over all leaf subsets.
    """
    cost = graph.cost
    label = idx.label
    reach = idx.reach
    if label[u] >= 0:
        raise ValueError(f"node {u} already in the indexed set")
    center_neighbors = reach[u]
    eligible: list[tuple[float, int, int]] = []
    for v in graph.adjacency[u]:
        if label[v] < 0 and len(reach[v]) == 1:
            (comp,) = reach[v]
            eligible.append((cost[v], v, comp))
    eligible.sort()
    kept: list[int] = []
    covered = set(center_neighbors)
    for leaf_cost, v, comp in eligible:
        if comp in covered:
            continue
        kept.append(v)
        covered.add(comp)

    best: StarCandidate | None = None
    gain = len(center_neighbors) - 1
    total = cost[u]
    for take in range(len(kept) + 1):
        if take > 0:
            total += cost[kept[take - 1]]
            gain += 1
        if gain < 1:
            continue
        cand = StarCandidate(center=u, leaves=tuple(kept[:take]), gain=gain, total_cost=total)
        if best is None or _better_candidate(cand, best):
            best = cand
    return best


def _better_candidate(a: StarCandidate, b: StarCandidate) -> bool:
    """True when a beats b: efficiency, then gain, then center id.

    No leaf-count key is needed: the prefixes ``best_star_at`` compares at one
    center differ in gain, and ``best_pair_at`` tests only pairs, against a
    best with no more leaves, keeping that best on a tie.
    """
    lhs = a.gain * b.total_cost
    rhs = b.gain * a.total_cost
    if lhs != rhs:
        return lhs > rhs
    if a.gain != b.gain:
        return a.gain > b.gain
    return a.center < b.center


def best_pair_at(idx: ComponentIndex, graph: WeightedGraph, a: int) -> StarCandidate | None:
    """Best of the singleton a and the free pairs (a, b) with b > a, or None.

    A candidate's value is the number of components it touches minus one;
    ties keep the first of the singleton and then b in adjacency order.
    """
    cost = graph.cost
    label = idx.label
    reach = idx.reach
    if label[a] >= 0:
        raise ValueError(f"node {a} already in the indexed set")
    reached_a = reach[a]
    best: StarCandidate | None = None
    gain = len(reached_a) - 1
    if gain >= 1:
        best = StarCandidate(center=a, leaves=(), gain=gain, total_cost=cost[a])
    for b in graph.adjacency[a]:
        if b <= a or label[b] >= 0:
            continue
        pair_gain = len(reached_a | reach[b]) - 1
        if pair_gain >= 1:
            cand = StarCandidate(
                center=a, leaves=(b,), gain=pair_gain, total_cost=cost[a] + cost[b]
            )
            if best is None or _better_candidate(cand, best):
                best = cand
    return best


def _check_dominating(inst: Instance, members: set[int]) -> None:
    report = verify_mds(replace(inst, m=1), members)
    if not report.is_m_ds:
        u = report.violations[0][0]
        raise ValueError(f"set is not dominating: node {u} has no neighbor inside")


def _stale_centers(idx: ComponentIndex, graph: WeightedGraph, changed) -> set[int]:
    """Nodes whose best candidate may differ now that the labels of ``changed`` moved.

    That is every node within one hop of a changed node, plus the neighbors
    of the free ones among them; callers skip the members.
    """
    label = idx.label
    adjacency = graph.adjacency
    near = set(changed)
    for x in changed:
        near.update(adjacency[x])
    stale = set()
    for y in near:
        if label[y] < 0:
            stale.add(y)
            stale.update(adjacency[y])
    return stale


def _connect(inst: Instance, dominating_set, method: str, best_at_center) -> ConnectReport:
    """Add the most efficient candidate until the set is connected.

    ``best_at_center(idx, graph, u)`` is the best candidate at the free node
    u, or None.  Each chosen candidate must merge as many components as it
    promises, so at most (initial components - 1) rounds run.  Only the
    ``_stale_centers`` are recomputed; ``_better_candidate`` orders distinct
    centers strictly, so the pick does not depend on the cache's order.
    """
    ds = set(dominating_set)
    _check_dominating(inst, ds)
    graph = inst.graph
    idx = ComponentIndex(graph, sorted(ds))
    label = idx.label
    report = ConnectReport(method=method, initial_components=idx.component_count)
    best_at: dict[int, StarCandidate] = {}
    stale = range(graph.node_count)
    while idx.component_count > 1:
        for u in stale:
            if label[u] >= 0:
                continue
            cand = best_at_center(idx, graph, u)
            if cand is None:
                best_at.pop(u, None)
            else:
                best_at[u] = cand
        best: StarCandidate | None = None
        for cand in best_at.values():
            if best is None or _better_candidate(cand, best):
                best = cand
        if best is None:
            raise RuntimeError(f"{method} connector stalled: no candidate merges components")
        before = idx.component_count
        changed: list[int] = []
        for node in best.nodes:
            changed.extend(idx.add(node))
            report.connectors.add(node)
            best_at.pop(node, None)
        after = idx.component_count
        if before - after != best.gain:
            raise RuntimeError(
                f"{method} connector: selected candidate promised {best.gain} merges"
                f" but delivered {before - after}"
            )
        report.stars.append(best)
        report.component_trace.append(after)
        stale = _stale_centers(idx, graph, changed)
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
