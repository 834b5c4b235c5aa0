"""Exact minimum-cost solutions by branch and bound, plus ratio reporting.

The search decides nodes in id order (include branch first) and prunes on
accumulated cost against the incumbent and on domination feasibility: a
branch dies as soon as some excluded node can no longer collect m dominators
from the chosen and still-undecided nodes.

The starting bound is ``nextafter(c, inf)``, where c is the cost of a known
feasible set (the caller's incumbent, else all of V) summed left to right in
id order, exactly as the search sums a leaf.  A leaf replaces the incumbent
only when it costs strictly less, so the search returns L*, the first
minimum-cost leaf in DFS order, from any starting bound above the optimum:
every prefix of L* costs at most cost(L*), and every incumbent found before
L* costs more.  The incumbent only cuts work; the answer and, with V as the
incumbent, the search tree are those of a bound of sum(cost).  When the
costs overflow to inf no leaf beats the bound and the incumbent is returned.

Four more prunes cut only subtrees that hold no leaf the search would
take, so they keep L*, ``opt_cost`` and its float bits, and lower only
``nodes_explored``:

- *Forced nodes (both searches).*  A bitmask ``forced`` holds the undecided
  nodes that every completion must choose: a node with fewer than m chosen
  plus undecided neighbors, and every undecided neighbor of an OUT node
  with exactly m.  Counts only fall along a path, so ``forced`` only grows
  and travels down by value.  A node returns when its cost plus the forced
  costs, added in increasing id order, is at least the incumbent's.  Every
  leaf below sums a superset of those costs in the same relative order; the
  costs are positive and float rounding is monotone, so inserting a term
  never lowers a left-to-right sum, and the leaf costs at least that float
  and cannot replace the incumbent.  A forced node is never decided OUT.
  Since every undecided neighbor of a tight OUT node is forced, no OUT
  decision can leave a node short: the domination check is this skip.
- *Connectivity (CDS only).*  Once node i is decided OUT, the chosen nodes
  must still lie in one component of G[chosen + {v > i}], or no leaf below
  is connected.  ``_links`` precomputes, for each depth i and each u < i,
  the nodes below i that u reaches directly or through one component of
  G[{v > i}]; the check is then the leaf's flood fill over the chosen nodes
  alone, with ``links[i]`` in place of the neighbor masks.  Deciding a node
  IN leaves chosen + undecided as it was, so only OUT decisions check.  The
  precompute floods G[{v > i}] once per depth, O(n^2) big-int operations
  plus O(n) per node and component it touches: 0.2 ms at n = 24 and about
  0.14 s at n = 500, the depth limit below (2 shared CPUs, Python 3.11).
  A plain flood fill of G[chosen + undecided] prunes the same nodes but
  walks the undecided ones too: on a random graph with n = 32 the search
  took 2.4-2.9 s with it and 0.85-1.06 s with ``links``.  Against no check
  at OUT decisions at all, only the leaf's, the check with ``links`` costs
  time on sparse random graphs and wins heavily on unit-disk graphs: 3.07
  against 2.12 s on random graphs with n = 34, p = 0.1, m = 2 (seeds 0-2),
  and 5.30M against 43.0M nodes, 10.8 against 46.4 s, on unit-disk graphs
  with n = 40 in a square of side 4 (seeds 1-3; 2 shared CPUs, Python 3.11).
- *Cut vertices (CDS only).*  Every connected dominating set holds every
  cut vertex of G, for any m >= 1.  Take v not in D, with D connected: D
  lies in one component A of G - v, and a node x in another component has
  all its neighbors in that component or at v, none of them in D, so x is
  not dominated.  So the root's ``forced`` also holds the cut vertices,
  from one ``cut_vertices`` pass.  Every CDS leaf holds them, so the
  forced-node argument above holds as it stands: only subtrees with no CDS
  leaf are cut.  A cut vertex of G minus the OUT nodes is forced too, but
  recomputing them at every OUT decision halved the nodes again and made
  the search about 4x slower in Python; the next prune takes the case that
  costs O(1) to see.
- *Last neighbors (CDS only).*  Call a node kept when it is chosen or
  forced, so that every CDS leaf below holds it.  When every CDS has at
  least two nodes, each of its members has a neighbor in it.  So a kept
  node with no chosen or undecided neighbor left has no CDS leaf below, and
  the branch ends; one with a single one left, undecided, makes that
  neighbor part of every CDS leaf below, so it joins ``forced`` and the
  forced-node argument holds as it stands.  Only OUT decisions lower the
  counts, so the rule is checked for node i in its IN branch, where i
  becomes kept, and for each kept neighbor of an OUT node i as the OUT loop
  lowers its count: O(1) per neighbor that loop visits anyway.  A node
  forced by the rule waits for its own IN branch or a neighbor's OUT
  decision; checking it at once, and the nodes it forces in turn, cut only
  0.8% more nodes on ``scripts/ratio_corpus_n30.json``'s 90 cases
  (2,441,914 to 2,422,839) and is left out.  The guard: a CDS of one node
  exists only when n = 1, or when m = 1 and some node neighbors every
  other, as the center of K_{1,k} does; then the rule is off, since a
  single-node optimum has no neighbor in it.

On the ``oracle-bounds`` benchmark cases the prunes take the search from
1,660,957 to 111,923 nodes per pass (150,211 without the last neighbors,
200,679 without the cut vertices too), with the same answers.  On the 90
cases of ``scripts/ratio_corpus_n30.json`` the last neighbors cut the CDS
search from 3,933,959 to 2,441,914 nodes.

The chosen (IN) set and ``forced`` travel down the recursion as int
bitmasks.  The search keeps one count per node, its chosen plus undecided
neighbors.  Deciding a node IN leaves every such count unchanged, so the IN
branch does no bookkeeping; only deciding a node OUT lowers its neighbors'
counts.  So at a leaf, where nothing is undecided, every OUT node already
has m chosen neighbors and the chosen set is non-empty: only connectivity
is left to check there, by a flood fill over per-node neighbor masks, since
the set is already an int.  ``opt_set`` is decoded once, at the end.

Intended for desk-scale instances.  Two refusals run before any O(n + E)
work, the incumbent check, the cut-vertex pass and the ``_links``
precompute included: the node budget, which guards against accidental
exponential blowups, and the depth limit.  The search recurses once per
node, so it refuses n > ``sys.getrecursionlimit() // 2``; the other half of
the interpreter's limit is left for the caller's frames.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .graph import Instance, cut_vertices, left_sum
from .verify import verify_cds, verify_mds


DEFAULT_NODE_BUDGET = 16


class OracleBudgetError(ValueError):
    """Raised when an instance exceeds the exhaustive-search node budget."""


@dataclass(frozen=True)
class OracleResult:
    opt_set: tuple[int, ...]
    opt_cost: float
    nodes_explored: int


def harmonic(k: int) -> float:
    """Harmonic number H(k) = sum of 1/i for i in 1..k, with H(k)=0 for k <= 0."""
    return left_sum(1.0 / i for i in range(1, k + 1)) if k > 0 else 0.0


def proven_bounds(inst: Instance) -> tuple[float, float, float | None]:
    """Proven ratio bounds for phase 1, the connectors, and the connectors on a UDG.

    H(delta+m) against the unconstrained optimum, 2*H(delta-1) against the
    connected optimum, and 2*H(3) = 11/3 on unit-disk instances (else None).
    """
    delta = inst.graph.max_degree
    udg_bound_d2 = 2.0 * harmonic(3) if inst.graph.coords is not None else None
    return harmonic(delta + inst.m), 2.0 * harmonic(delta - 1), udg_bound_d2


def exact_minimum_cds(
    inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET, *, incumbent=None
) -> OracleResult:
    """Provably minimum-cost connected m-fold dominating set.

    ``incumbent`` is a known connected m-fold dominating set (default: all
    of V); it tightens the starting cost bound without changing the answer.
    """
    return _exact_search(inst, node_budget, True, incumbent)


def exact_minimum_mds(
    inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET, *, incumbent=None
) -> OracleResult:
    """Provably minimum-cost m-fold dominating set (connectivity not required).

    ``incumbent`` is a known m-fold dominating set (default: all of V).
    """
    return _exact_search(inst, node_budget, False, incumbent)


def _exact_search(inst: Instance, node_budget: int, require_connected: bool, incumbent) -> OracleResult:
    g = inst.graph
    n = g.node_count
    if n > node_budget:
        raise OracleBudgetError(f"instance too large for oracle: {n} nodes > budget {node_budget}")
    # the search recurses once per node; half the interpreter's limit leaves
    # room for the caller's frames
    if n > sys.getrecursionlimit() // 2:
        raise OracleBudgetError(f"instance too deep for the oracle's recursive search: {n} nodes")
    adj = g.adjacency
    cost = g.cost
    m = inst.m

    if incumbent is None:
        # the whole node set is feasible for both variants (G is connected)
        incumbent = range(n)
    else:
        incumbent = sorted(set(incumbent))
        report = verify_cds(inst, incumbent) if require_connected else verify_mds(inst, incumbent)
        if not (report.is_cds if require_connected else report.is_m_ds):
            raise ValueError(
                "incumbent is not a feasible solution: "
                + "; ".join(reason for _, reason in report.violations[:3])
            )
    # the incumbent leaf itself beats this bound, so the search always ends
    # on L*; only when the costs overflow to inf does the incumbent stand
    best_cost = math.nextafter(left_sum(cost[u] for u in incumbent), math.inf)
    best_mask = sum(1 << u for u in incumbent)
    explored = 0

    # each node's chosen plus undecided neighbors
    avail = list(map(len, adj))
    nbr_masks = [sum(1 << v for v in nbrs) for nbrs in adj]
    links = _links(nbr_masks) if require_connected else []

    def rec(i: int, cost_so_far: float, in_mask: int, forced: int) -> None:
        nonlocal best_cost, best_mask, explored
        explored += 1
        # every leaf below chooses the forced nodes too, after the chosen ones
        bound = cost_so_far
        rest = forced
        while rest:
            low = rest & -rest
            rest ^= low
            bound += cost[low.bit_length() - 1]
        if bound >= best_cost:
            return
        if i == n:
            # m-fold domination holds here by the invariant in the module docstring
            if require_connected and not _joined(in_mask, nbr_masks):
                return
            best_cost = cost_so_far
            best_mask = in_mask
            return

        bit = 1 << i
        undecided = -(bit << 1)
        # a kept node needs a chosen or undecided neighbor, and its last one
        # is in every leaf below
        if avail[i] >= lone:
            rec(i + 1, cost_so_far + cost[i], in_mask | bit, forced & ~bit)
        elif avail[i]:
            rec(i + 1, cost_so_far + cost[i], in_mask | bit, forced & ~bit | nbr_masks[i] & undecided)

        # a forced node OUT leaves some node short of m dominators
        if forced & bit:
            return
        # i OUT with exactly m leaves every undecided neighbor of i forced
        if avail[i] == m:
            forced |= nbr_masks[i] & undecided
        stranded = False
        for w in adj[i]:
            avail[w] -= 1
            if w > i:
                if avail[w] < m:
                    forced |= 1 << w
            elif avail[w] == m and not in_mask >> w & 1:
                # an OUT neighbor now needs every undecided neighbor it has left
                forced |= nbr_masks[w] & undecided
            if avail[w] < lone and (in_mask | forced) >> w & 1:
                if avail[w]:
                    forced |= nbr_masks[w] & undecided
                else:
                    stranded = True
        if not stranded and (not (require_connected and in_mask) or _joined(in_mask, links[i])):
            rec(i + 1, cost_so_far, in_mask, forced)
        for w in adj[i]:
            avail[w] += 1

    # a node with fewer than m neighbors is in every solution, and a cut
    # vertex of G is in every connected one
    forced = sum(1 << u for u in range(n) if avail[u] < m)
    # a kept node (chosen or forced) with fewer than ``lone`` chosen plus
    # undecided neighbors ends the branch or forces its last neighbor; 0
    # turns the last-neighbor rule off
    lone = 0
    if require_connected:
        forced |= sum(1 << u for u in cut_vertices(adj))
        # unless one node can dominate G alone, every CDS has two nodes
        if n > 1 and (m > 1 or max(avail) < n - 1):
            lone = 2
    rec(0, 0.0, 0, forced)
    opt_set = tuple(u for u in range(n) if best_mask >> u & 1)
    return OracleResult(opt_set=opt_set, opt_cost=best_cost, nodes_explored=explored)


def _joined(members: int, links: list[int]) -> bool:
    """Whether a flood fill from the lowest member along ``links`` reaches every member."""
    frontier = members & -members
    rest = members ^ frontier
    while frontier and rest:
        low = frontier & -frontier
        frontier ^= low
        grow = links[low.bit_length() - 1] & rest
        rest ^= grow
        frontier |= grow
    return not rest


def _links(nbr_masks: list[int]) -> list[list[int]]:
    """``links[i][u]``, for u < i: the nodes below i that u reaches through G[{v > i}].

    That is N(u) plus N(C) for each component C of G[{v > i}] that u
    touches, restricted to the nodes below i.  Two chosen nodes are linked
    iff they are adjacent or touch one component of the undecided nodes, so
    after node i is decided OUT, the chosen nodes lie in one component of
    G[chosen + undecided] iff ``_joined(chosen, links[i])``.
    """
    n = len(nbr_masks)
    links = []
    for i in range(n):
        below = (1 << i) - 1
        row = [nbr_masks[u] & below for u in range(i)]
        rest = -(2 << i) & ((1 << n) - 1)
        while rest:
            # flood one component C of the nodes above i, collecting N(C)
            frontier = rest & -rest
            rest ^= frontier
            reach = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                nbrs = nbr_masks[low.bit_length() - 1]
                reach |= nbrs
                grow = nbrs & rest
                rest ^= grow
                frontier |= grow
            reach &= below
            touched = reach
            while touched:
                low = touched & -touched
                touched ^= low
                row[low.bit_length() - 1] |= reach
        links.append(row)
    return links


@dataclass(frozen=True)
class RatioRecord:
    """The exact optima, the observed cost ratios against them, and the matching bounds.

    The bounds are those of ``proven_bounds``; ``bound_total`` is the sum of
    the two phase bounds.  The field order is the report's ``oracle`` key order.
    """

    opt_set: tuple[int, ...]
    opt_cost: float
    opt_mds_set: tuple[int, ...]
    opt_mds_cost: float
    ratio_d1: float
    ratio_d2: float
    ratio_total: float
    bound_d1: float
    bound_d2: float
    bound_total: float
    udg_bound_d2: float | None


def ratio_report(
    inst: Instance,
    cost_d1: float,
    cost_d2: float,
    opt_cds: OracleResult,
    opt_mds: OracleResult,
) -> RatioRecord:
    """The phase costs against the optima, with the proven bounds; the total is ``cost_d1 + cost_d2``."""
    bound_d1, bound_d2, udg_bound_d2 = proven_bounds(inst)
    return RatioRecord(
        opt_set=opt_cds.opt_set,
        opt_cost=opt_cds.opt_cost,
        opt_mds_set=opt_mds.opt_set,
        opt_mds_cost=opt_mds.opt_cost,
        ratio_d1=cost_d1 / opt_mds.opt_cost,
        ratio_d2=cost_d2 / opt_cds.opt_cost,
        ratio_total=(cost_d1 + cost_d2) / opt_cds.opt_cost,
        bound_d1=bound_d1,
        bound_d2=bound_d2,
        bound_total=bound_d1 + bound_d2,
        udg_bound_d2=udg_bound_d2,
    )
