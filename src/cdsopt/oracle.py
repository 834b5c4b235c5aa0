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

The chosen (IN) set travels down the recursion as an int bitmask, and a list
flags the OUT nodes.  The search keeps one count per node, its chosen plus
undecided neighbors.  Deciding a node IN leaves every such count unchanged,
so the IN branch does no bookkeeping; only deciding a node OUT lowers its
neighbors' counts, and the loop that lowers them checks each OUT neighbor
(the node's own count must already be at least m).  So at a leaf, where
nothing is undecided, every OUT node already has m chosen neighbors and the
chosen set is non-empty: only connectivity is left to check there.  The leaf
checks it with a flood fill over per-node neighbor masks, since the set is
already an int; decoding it into a list for ``component_labels`` cost about
11% of the search.  A CDS search builds the masks once, before it recurses;
an MDS search builds none.  ``opt_set`` is decoded once, at the end.

Intended for desk-scale instances.  Two refusals run before any O(n + E)
work, the incumbent check included: the node budget, which guards against
accidental exponential blowups, and the depth limit.  The search recurses
once per node, so it refuses n > ``sys.getrecursionlimit() // 2``; the other
half of the interpreter's limit is left for the caller's frames.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .graph import Instance
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
    return sum(1.0 / i for i in range(1, k + 1)) if k > 0 else 0.0


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
    # summed in id order like a leaf's cost_so_far (sum() compensates on 3.12+)
    incumbent_cost = 0.0
    for u in incumbent:
        incumbent_cost += cost[u]
    # the incumbent leaf itself beats this bound, so the search always ends
    # on L*; only when the costs overflow to inf does the incumbent stand
    best_cost = math.nextafter(incumbent_cost, math.inf)
    best_mask = sum(1 << u for u in incumbent)
    explored = 0

    out = [False] * n
    # each node's chosen plus undecided neighbors
    avail = list(map(len, adj))
    nbr_masks = [sum(1 << v for v in nbrs) for nbrs in adj] if require_connected else []

    def rec(i: int, cost_so_far: float, in_mask: int) -> None:
        nonlocal best_cost, best_mask, explored
        explored += 1
        if cost_so_far >= best_cost:
            return
        if i == n:
            # m-fold domination holds here by the invariant in the module docstring
            if require_connected:
                # flood fill G[in_mask] from its lowest node
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

        # i OUT lowers no count of its own, so a short node needs no bookkeeping
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
    cost_total: float,
    opt_cds: OracleResult,
    opt_mds: OracleResult,
) -> RatioRecord:
    bound_d1, bound_d2, udg_bound_d2 = proven_bounds(inst)
    return RatioRecord(
        opt_set=opt_cds.opt_set,
        opt_cost=opt_cds.opt_cost,
        opt_mds_set=opt_mds.opt_set,
        opt_mds_cost=opt_mds.opt_cost,
        ratio_d1=cost_d1 / opt_mds.opt_cost,
        ratio_d2=cost_d2 / opt_cds.opt_cost,
        ratio_total=cost_total / opt_cds.opt_cost,
        bound_d1=bound_d1,
        bound_d2=bound_d2,
        bound_total=bound_d1 + bound_d2,
        udg_bound_d2=udg_bound_d2,
    )
