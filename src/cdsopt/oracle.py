"""Exact minimum-cost solutions by branch and bound, plus ratio reporting.

The search decides nodes in id order (include branch first) and prunes on
accumulated cost against the incumbent and on domination feasibility: a
branch dies as soon as some excluded node can no longer collect m dominators
from the chosen and still-undecided nodes.  The search keeps one count per
node, its chosen plus undecided neighbors.  Deciding a node IN leaves every
such count unchanged, so the IN branch does no bookkeeping; only deciding a
node OUT lowers its neighbors' counts, and that decision checks the node
itself and every OUT neighbor.  So at a leaf, where nothing is undecided,
every OUT node already has m chosen neighbors and the chosen set is
non-empty: only connectivity is left to check there.  Intended for
desk-scale instances; the node budget guards against accidental exponential
blowups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Instance, component_labels


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


def exact_minimum_cds(inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Provably minimum-cost connected m-fold dominating set."""
    return _exact_search(inst, node_budget, require_connected=True)


def exact_minimum_mds(inst: Instance, node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Provably minimum-cost m-fold dominating set (connectivity not required)."""
    return _exact_search(inst, node_budget, require_connected=False)


def _exact_search(inst: Instance, node_budget: int, require_connected: bool) -> OracleResult:
    g = inst.graph
    n = g.node_count
    if n > node_budget:
        raise OracleBudgetError(f"instance too large for oracle: {n} nodes > budget {node_budget}")
    adj = g.adjacency
    cost = g.cost
    m = inst.m

    # the whole node set is feasible for both variants (G is connected)
    best_cost = sum(cost)
    best_set = tuple(range(n))
    explored = 0

    UNDECIDED, IN, OUT = 0, 1, 2
    status = [UNDECIDED] * n
    # each node's chosen plus undecided neighbors
    avail = [g.degree(u) for u in range(n)]

    def rec(i: int, cost_so_far: float) -> None:
        nonlocal best_cost, best_set, explored
        explored += 1
        if cost_so_far >= best_cost:
            return
        if i == n:
            # m-fold domination holds here by the invariant in the module docstring
            chosen = [u for u in range(n) if status[u] == IN]
            if require_connected and component_labels(adj, chosen)[1] != 1:
                return
            best_cost = cost_so_far
            best_set = tuple(chosen)
            return

        status[i] = IN
        rec(i + 1, cost_so_far + cost[i])

        status[i] = OUT
        for w in adj[i]:
            avail[w] -= 1
        if avail[i] >= m and all(avail[w] >= m for w in adj[i] if status[w] == OUT):
            rec(i + 1, cost_so_far)
        for w in adj[i]:
            avail[w] += 1
        status[i] = UNDECIDED

    try:
        rec(0, 0.0)
    except RecursionError:
        raise OracleBudgetError(f"instance too deep for the oracle's recursive search: {n} nodes") from None
    return OracleResult(opt_set=best_set, opt_cost=best_cost, nodes_explored=explored)


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
