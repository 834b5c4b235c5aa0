"""Shared test utilities: small instance builders and independent references.

Each reference recomputes from scratch what the library computes
incrementally or by a shortcut, and tests compare the two.  The library
structure each one avoids:

- ``bfs_component_labels``: a plain BFS in place of ``ComponentIndex``;
- ``removal_cut_vertices``: a BFS component count per removed node in place of
  ``cut_vertices``'s low-link search;
- ``coverage_value``: a from-scratch deficit sum in place of ``DeficitState``;
- ``reference_component_neighbors``: an adjacency label scan in place of ``ComponentIndex.reach``;
- ``reference_best_star_at``: the same label scans in place of ``ComponentIndex.reach``;
- ``merge_potential``: per-leaf label scans in place of ``best_star_at``'s prefix scan;
- ``simulate_star_value``: a BFS per prefix in place of the capped merge recurrence;
- ``formula_star_value``: the recurrence on BFS labels in place of ``ComponentIndex``;
- ``brute_force_best_star``: every leaf subset in place of ``best_star_at``'s prefix scan;
- ``reference_unit_disk_edges``: the all-pairs loop in place of ``unit_disk_adjacency``'s grid;
- ``reference_gen_random_connected``: a ``random()`` per pair in place of bulk coins;
- ``reference_better_candidate``: cross-multiplied float products in place of ``ratio_key``;
- ``reference_greedy_dominating_set``: a scan per step in place of the lazy cover heap;
- ``reference_pick``: a scan of every free node's candidates in place of ``_CandidateHeap``'s slots;
- ``reference_connect``: ``reference_pick`` each round in place of revaluing risers and older heap tops,
  and ``verify_mds`` in place of the connector's input check on ``ComponentIndex.reach``;
- ``exhaustive_minimum``: an unpruned subset scan in place of the oracle's branch and bound;
- ``reference_exact_search``: the branch and bound without the oracle's connectivity and
  forced-cost prunes.

Ranking by float products, the references agree with the library except on
ties that only rounding decides.
"""

from __future__ import annotations

import math
import pathlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

from cdsopt.components import ComponentIndex
from cdsopt.connector import ConnectReport, StarCandidate
from cdsopt.domination import DeficitState, GreedyStep, GreedyTrace
from cdsopt.graph import Instance, InstanceError, WeightedGraph, edge_adjacency
from cdsopt.oracle import OracleResult
from cdsopt.verify import verify_mds

# the ratio sweep's batch spec: seeded random and UDG corpora with the exact oracle
RATIO_CORPUS = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ratio_corpus.json"


def make_instance(n, edges, costs=None, m=1, coords=None, label="") -> Instance:
    if costs is None:
        costs = [1.0] * n
    graph = WeightedGraph.from_adjacency(edge_adjacency(n, list(edges)), costs, coords)
    return Instance(graph=graph, m=m, label=label)


def degree(graph: WeightedGraph, u: int) -> int:
    return len(graph.adjacency[u])


def edge_list(graph: WeightedGraph) -> list[tuple[int, int]]:
    """All edges as (u, v) with u < v, lexicographically sorted."""
    return [(u, v) for u, nbrs in enumerate(graph.adjacency) for v in nbrs if u < v]


def path_instance(k, m=1, costs=None) -> Instance:
    return make_instance(k, [(i, i + 1) for i in range(k - 1)], costs=costs, m=m)


def cycle_instance(k, m=1, costs=None) -> Instance:
    edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    return make_instance(k, edges, costs=costs, m=m)


def complete_instance(k, m=1, costs=None) -> Instance:
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return make_instance(k, edges, costs=costs, m=m)


def star_instance(leaf_count, m=1, costs=None) -> Instance:
    return make_instance(leaf_count + 1, [(0, i) for i in range(1, leaf_count + 1)], costs=costs, m=m)


def comb_instance(k) -> Instance:
    """Hub 0 (cost 1), leaves 1..k (cost 1000) on the hub, and helper k+1+i
    pendant on leaf 1+i, m = 1.

    Helper i's ratio is k+2 for i = 0 and k+1.5-i after, so the greedy takes
    the helpers in id order, each with gain 2, then the hub with gain 1.
    After each helper pick the hub's stored key (its gain before that pick)
    still beats the next helper, so the hub reaches the heap top k times.
    """
    costs = [1.0] + [1000.0] * k + [2 / (k + 2)] + [2 / (k + 1.5 - i) for i in range(1, k)]
    edges = [(0, 1 + i) for i in range(k)] + [(1 + i, k + 1 + i) for i in range(k)]
    return make_instance(2 * k + 1, edges, costs=costs, m=1, label=f"comb-{k}")


# ---------------------------------------------------------------------------
# independent component oracles


def bfs_component_labels(graph: WeightedGraph, members) -> dict[int, int]:
    """Label each member with its component id within the induced subgraph."""
    member_set = set(members)
    labels: dict[int, int] = {}
    next_label = 0
    for start in sorted(member_set):
        if start in labels:
            continue
        stack = [start]
        labels[start] = next_label
        while stack:
            u = stack.pop()
            for v in graph.adjacency[u]:
                if v in member_set and v not in labels:
                    labels[v] = next_label
                    stack.append(v)
        next_label += 1
    return labels


def bfs_component_count(graph: WeightedGraph, members) -> int:
    labels = bfs_component_labels(graph, members)
    return len(set(labels.values()))


def removal_cut_vertices(adjacency) -> list[int]:
    """The nodes whose removal leaves more components, each found by a BFS count without it.

    ``adjacency`` need not be connected, so it is wrapped rather than built
    into a ``WeightedGraph``.
    """
    graph = SimpleNamespace(adjacency=adjacency)
    n = len(adjacency)
    whole = bfs_component_count(graph, range(n))
    return [v for v in range(n) if bfs_component_count(graph, [u for u in range(n) if u != v]) > whole]


# ---------------------------------------------------------------------------
# reference coverage potential


def coverage_value(inst: Instance, members) -> int:
    """From-scratch potential evaluation; reference oracle for DeficitState."""
    member_set = set(members)
    g = inst.graph
    m = inst.m
    total_deficit = 0
    for u in range(g.node_count):
        if u in member_set:
            continue
        inside = sum(1 for v in g.adjacency[u] if v in member_set)
        total_deficit += max(m - inside, 0)
    return m * g.node_count - total_deficit


# ---------------------------------------------------------------------------
# label-scan reference star search


def reference_component_neighbors(idx: ComponentIndex, graph: WeightedGraph, u: int) -> set[int]:
    """Labels of the distinct components of G[D] adjacent to u (u outside D)."""
    label = idx.label
    if label[u] >= 0:
        raise ValueError(f"node {u} already in the indexed set")
    return {label[v] for v in graph.adjacency[u] if label[v] >= 0}


def reference_better_candidate(a: StarCandidate, b: StarCandidate) -> bool:
    """True when a beats b: efficiency, then gain, then center id, then fewer leaves."""
    lhs = a.gain * b.total_cost
    rhs = b.gain * a.total_cost
    if lhs != rhs:
        return lhs > rhs
    if a.gain != b.gain:
        return a.gain > b.gain
    if a.center != b.center:
        return a.center < b.center
    return len(a.leaves) < len(b.leaves)


def reference_best_star_at(idx: ComponentIndex, graph: WeightedGraph, u: int) -> StarCandidate | None:
    """Most efficient star centered at u, read from the labels alone.

    Each free neighbor's components are re-derived by scanning its own
    adjacency, so this ignores ``idx.reach``.
    """
    cost = graph.cost
    adjacency = graph.adjacency
    label = idx.label
    if label[u] >= 0:
        raise ValueError(f"node {u} already in the indexed set")
    center_neighbors = {label[v] for v in adjacency[u] if label[v] >= 0}
    eligible: list[tuple[float, int, int]] = []
    for v in adjacency[u]:
        if label[v] >= 0:
            continue
        # the one component v touches, or -1 for none or several
        comp = -1
        for w in adjacency[v]:
            lw = label[w]
            if lw >= 0:
                if comp < 0:
                    comp = lw
                elif lw != comp:
                    comp = -1
                    break
        if comp >= 0:
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
        if best is None or reference_better_candidate(cand, best):
            best = cand
    return best


# ---------------------------------------------------------------------------
# independent star-value oracles


def merge_potential(idx: ComponentIndex, graph: WeightedGraph, center: int, leaves) -> int:
    """Capped merge count of the star (center, leaves) against the indexed set.

    Leaves must be outside the set, adjacent to the center, and sorted by
    nondecreasing cost.  Each leaf contributes one when it touches a
    component not already reached by the center or an earlier leaf; the
    index is not mutated.
    """
    center_adj = set(graph.adjacency[center])
    covered = reference_component_neighbors(idx, graph, center)
    value = len(covered) - 1
    prev_cost = None
    for leaf in leaves:
        if leaf in idx:
            raise ValueError(f"star node {leaf} already in the indexed set")
        if leaf not in center_adj:
            raise ValueError(f"leaf {leaf} not adjacent to center {center}")
        if prev_cost is not None and graph.cost[leaf] < prev_cost:
            raise ValueError("leaves must be sorted by nondecreasing cost")
        prev_cost = graph.cost[leaf]
        reached = reference_component_neighbors(idx, graph, leaf)
        if reached - covered:
            value += 1
        covered |= reached
    return value


def simulate_star_value(graph: WeightedGraph, members, center, leaves) -> int:
    """Literal star value with components rebuilt from scratch at each prefix."""
    member_set = set(members)
    labels = bfs_component_labels(graph, member_set)
    center_comps = {labels[v] for v in graph.adjacency[center] if v in member_set}
    value = len(center_comps) - 1
    current = set(member_set) | {center}
    prev = bfs_component_count(graph, current)
    for leaf in leaves:
        current.add(leaf)
        now = bfs_component_count(graph, current)
        value += min(1, prev - now)
        prev = now
    return value


def formula_star_value(graph: WeightedGraph, members, center, leaves) -> tuple[int, float]:
    """Star value via the capped fresh-component recurrence on BFS labels.

    Returns (value, cost) with the cost summed in leaf order so it is
    bit-identical to a library candidate built from the same star.
    """
    member_set = set(members)
    labels = bfs_component_labels(graph, member_set)

    def comps_of(node):
        return {labels[v] for v in graph.adjacency[node] if v in member_set}

    covered = comps_of(center)
    value = len(covered) - 1
    cost = graph.cost[center]
    for leaf in leaves:
        reached = comps_of(leaf)
        if reached - covered:
            value += 1
        covered |= reached
        cost += graph.cost[leaf]
    return value, cost


def brute_force_best_star(graph: WeightedGraph, members, center):
    """Exhaustive best efficiency over every leaf subset of the center.

    Leaves of each subset are taken in (cost, id) order.  Returns the best
    efficiency as an exact Fraction, or None when no subset has value >= 1.
    """
    member_set = set(members)
    free = [v for v in graph.adjacency[center] if v not in member_set]
    free.sort(key=lambda v: (graph.cost[v], v))
    best: Fraction | None = None
    for size in range(len(free) + 1):
        for subset in combinations(free, size):
            value, cost = formula_star_value(graph, member_set, center, subset)
            if value < 1:
                continue
            eff = Fraction(value) / Fraction(cost)
            if best is None or eff > best:
                best = eff
    return best


# ---------------------------------------------------------------------------
# all-pairs reference unit-disk edges


def reference_unit_disk_edges(coords) -> list[tuple[int, int]]:
    """The unit-disk edge set: sorted (i, j), i < j, at Euclidean distance <= 1."""
    return [
        (i, j)
        for i, (xi, yi) in enumerate(coords)
        for j, (xj, yj) in enumerate(coords[i + 1:], i + 1)
        if (sx := xi - xj) * sx + (sy := yi - yj) * sy <= 1.0
    ]


# ---------------------------------------------------------------------------
# per-pair reference random generator


def reference_gen_random_connected(
    n: int,
    edge_prob: float,
    cost_range: tuple[float, float],
    seed: int,
    m: int = 1,
) -> Instance:
    """Random connected graph with one ``rng.random()`` call per non-tree pair."""
    lo, hi = cost_range
    if n < 1:
        raise InstanceError("n must be >= 1")
    if not 0 < edge_prob <= 1:
        raise InstanceError("edge_prob must be in (0, 1]")
    if not 0 < lo <= hi:
        raise InstanceError("cost range must satisfy 0 < lo <= hi")
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < edge_prob:
                edges.add((u, v))
    costs = [rng.uniform(lo, hi) for _ in range(n)]
    graph = WeightedGraph.from_edges(n, sorted(edges), costs)
    return Instance(graph=graph, m=m, label=f"random-n{n}-p{edge_prob:g}-m{m}-s{seed}")


# ---------------------------------------------------------------------------
# full-scan reference greedy cover


def reference_coverage_gain(state: DeficitState, u: int) -> int:
    """u's deficit plus its neighbors of positive deficit, by an O(deg(u)) scan.

    Reads only ``state.deficit``, so it checks ``state.gain`` independently.
    """
    gain = state.deficit[u]
    for v in state.inst.graph.adjacency[u]:
        if state.deficit[v] > 0:
            gain += 1
    return gain


def reference_greedy_dominating_set(inst: Instance) -> tuple[set[int], GreedyTrace]:
    """Greedy cover that evaluates every free node at every step.

    Each node is ranked as a leafless candidate by ``reference_better_candidate``,
    so a full tie goes to the smaller id.
    """
    g = inst.graph
    cost = g.cost
    state = DeficitState(inst)
    chosen: set[int] = set()
    steps: list[GreedyStep] = []
    running = 0.0
    while True:
        best: StarCandidate | None = None
        for u in range(g.node_count):
            if state.in_set[u]:
                continue
            gain = reference_coverage_gain(state, u)
            if gain <= 0:
                continue
            cand = StarCandidate(center=u, leaves=(), gain=gain, total_cost=cost[u])
            if best is None or reference_better_candidate(cand, best):
                best = cand
        if best is None:
            break
        u = best.center
        state.add(u)
        chosen.add(u)
        running += cost[u]
        steps.append(GreedyStep(node=u, gain=best.gain, ratio=best.gain / cost[u], running_cost=running))
    return chosen, GreedyTrace(steps=steps)


# ---------------------------------------------------------------------------
# full-rescan reference connector


def _reference_candidates(idx: ComponentIndex, graph: WeightedGraph, a: int, method: str):
    """The candidates at the free node a: its best star, or its singleton and pairs."""
    if method == "star":
        cand = reference_best_star_at(idx, graph, a)
        if cand is not None:
            yield cand
        return
    cost = graph.cost
    reached_a = reference_component_neighbors(idx, graph, a)
    if len(reached_a) >= 2:
        yield StarCandidate(center=a, leaves=(), gain=len(reached_a) - 1, total_cost=cost[a])
    for b in graph.adjacency[a]:
        if b <= a or b in idx:
            continue
        pair_gain = len(reached_a | reference_component_neighbors(idx, graph, b)) - 1
        if pair_gain >= 1:
            yield StarCandidate(center=a, leaves=(b,), gain=pair_gain, total_cost=cost[a] + cost[b])


def reference_pick(idx: ComponentIndex, graph: WeightedGraph, method: str) -> StarCandidate | None:
    """The best candidate of connector ``method`` over every free node, or None."""
    best: StarCandidate | None = None
    for u in range(graph.node_count):
        if u in idx:
            continue
        for cand in _reference_candidates(idx, graph, u, method):
            if best is None or reference_better_candidate(cand, best):
                best = cand
    return best


def reference_connect(inst: Instance, dominating_set, method: str) -> ConnectReport:
    """Connector ``method`` ("star" or "pairwise") scoring every free node in every round."""
    ds = set(dominating_set)
    check = verify_mds(replace(inst, m=1), ds)
    if not check.is_m_ds:
        u = check.violations[0][0]
        raise ValueError(f"set is not dominating: node {u} has no neighbor inside")
    graph = inst.graph
    idx = ComponentIndex(graph, sorted(ds))
    report = ConnectReport(method=method, initial_components=idx.component_count)
    while idx.component_count > 1:
        best = reference_pick(idx, graph, method)
        if best is None:
            raise RuntimeError(f"{method} connector stalled: no candidate merges components")
        before = idx.component_count
        for node in best.nodes:
            idx.add(node)
            report.connectors.add(node)
        after = idx.component_count
        if before - after != best.gain:
            raise RuntimeError(
                f"{method} connector: selected candidate promised {best.gain} merges"
                f" but delivered {before - after}"
            )
        report.stars.append(best)
        report.component_trace.append(after)
    return report


# ---------------------------------------------------------------------------
# unpruned exact optimization


def _dominates(graph: WeightedGraph, member_set, m) -> bool:
    for u in range(graph.node_count):
        if u in member_set:
            continue
        if sum(1 for v in graph.adjacency[u] if v in member_set) < m:
            return False
    return True


def exhaustive_minimum(inst: Instance, require_connected: bool):
    """Minimum-cost (connected) m-fold dominating set by full subset scan."""
    g = inst.graph
    n = g.node_count
    best_cost = None
    best_set = None
    for mask in range(1, 1 << n):
        members = {u for u in range(n) if mask >> u & 1}
        if not _dominates(g, members, inst.m):
            continue
        if require_connected and bfs_component_count(g, members) != 1:
            continue
        cost = sum(g.cost[u] for u in members)
        if best_cost is None or cost < best_cost:
            best_cost, best_set = cost, members
    return best_cost, best_set


def reference_exact_search(inst: Instance, require_connected: bool, incumbent=None) -> OracleResult:
    """The oracle's branch and bound with only its domination and incumbent cuts.

    It decides nodes in id order, include branch first, and a leaf replaces
    the incumbent only when it costs strictly less, so it returns the same
    L* as ``_exact_search``; it just never prunes a subtree for connectivity
    or for the cost of the nodes every completion must choose.  ``incumbent``
    must be feasible (default: all of V).
    """
    adj = inst.graph.adjacency
    cost = inst.graph.cost
    n = inst.graph.node_count
    m = inst.m
    incumbent = range(n) if incumbent is None else sorted(set(incumbent))
    incumbent_cost = 0.0
    for u in incumbent:
        incumbent_cost += cost[u]
    best_cost = math.nextafter(incumbent_cost, math.inf)
    best_mask = sum(1 << u for u in incumbent)
    explored = 0

    out = [False] * n
    avail = list(map(len, adj))
    nbr_masks = [sum(1 << v for v in nbrs) for nbrs in adj]

    def rec(i: int, cost_so_far: float, in_mask: int) -> None:
        nonlocal best_cost, best_mask, explored
        explored += 1
        if cost_so_far >= best_cost:
            return
        if i == n:
            if require_connected:
                frontier = in_mask & -in_mask
                rest = in_mask ^ frontier
                while frontier and rest:
                    low = frontier & -frontier
                    frontier ^= low
                    grow = nbr_masks[low.bit_length() - 1] & rest
                    rest ^= grow
                    frontier |= grow
                if rest:
                    return
            best_cost = cost_so_far
            best_mask = in_mask
            return

        rec(i + 1, cost_so_far + cost[i], in_mask | 1 << i)

        if avail[i] < m:
            return
        out[i] = True
        feasible = True
        for w in adj[i]:
            avail[w] -= 1
            if out[w] and avail[w] < m:
                feasible = False
        if feasible:
            rec(i + 1, cost_so_far, in_mask)
        for w in adj[i]:
            avail[w] += 1
        out[i] = False

    rec(0, 0.0, 0)
    opt_set = tuple(u for u in range(n) if best_mask >> u & 1)
    return OracleResult(opt_set=opt_set, opt_cost=best_cost, nodes_explored=explored)


# ---------------------------------------------------------------------------
# random structures


def random_dominating_set(rng: random.Random, graph: WeightedGraph) -> set[int]:
    """A dominating set: random seed nodes plus repairs for uncovered nodes."""
    n = graph.node_count
    chosen = {u for u in range(n) if rng.random() < 0.35}
    for u in range(n):
        if u not in chosen and not any(v in chosen for v in graph.adjacency[u]):
            chosen.add(rng.choice([u, *graph.adjacency[u]]))
    return chosen


def degree_capped_instance(seed: int, n: int, cap: int, m: int = 1) -> Instance:
    """Random connected instance whose maximum degree never exceeds ``cap``."""
    assert cap >= 2
    rng = random.Random(seed)
    degree = [0] * n
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        candidates = [j for j in range(i) if degree[j] < cap]
        j = rng.choice(candidates)
        edges.add((j, i))
        degree[i] += 1
        degree[j] += 1
    extra_attempts = 2 * n
    for _ in range(extra_attempts):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        a, b = min(u, v), max(u, v)
        if (a, b) in edges or degree[a] >= cap or degree[b] >= cap:
            continue
        edges.add((a, b))
        degree[a] += 1
        degree[b] += 1
    costs = [rng.uniform(0.1, 10.0) for _ in range(n)]
    return make_instance(n, sorted(edges), costs=costs, m=m, label=f"capped-{seed}")
