"""End-to-end solve: domination phase, connector phase, verification, report."""

from __future__ import annotations

import time
from dataclasses import dataclass

from .connector import ConnectReport, greedy_connect, pairwise_connect
from .domination import GreedyTrace, greedy_dominating_set
from .graph import Instance, left_sum
from .oracle import (
    DEFAULT_NODE_BUDGET,
    RatioRecord,
    exact_minimum_cds,
    exact_minimum_mds,
    ratio_report,
)
from .verify import VerifyReport, verify_cds, verify_mds

REPORT_SCHEMA = 1


@dataclass
class SolveResult:
    instance: Instance
    d1: set[int]
    d2: set[int]
    cost_d1: float
    cost_d2: float
    phase1_trace: GreedyTrace
    connect_report: ConnectReport
    verify_report: VerifyReport
    ratios: RatioRecord | None
    timings: dict[str, float]

    @property
    def dominating_and_connectors(self) -> set[int]:
        return self.d1 | self.d2

    @property
    def cost_total(self) -> float:
        return self.cost_d1 + self.cost_d2


def solve(
    inst: Instance,
    given_ds=None,
    connector: str = "star",
    with_oracle: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveResult:
    """Run both phases and verify the output.

    ``given_ds`` skips the domination phase and connects the supplied set
    instead (it must already m-fold dominate the graph).  ``connector``
    selects the star greedy ("star") or the node/pair baseline ("pairwise").
    """
    if connector not in ("star", "pairwise"):
        raise ValueError(f"unknown connector {connector!r}")
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    if given_ds is None:
        d1, trace = greedy_dominating_set(inst)
    else:
        d1 = set(given_ds)
        check = verify_mds(inst, d1)
        if not check.is_m_ds:
            raise ValueError(
                "given dominating set is not an m-fold dominating set: "
                + "; ".join(reason for _, reason in check.violations[:3])
            )
        trace = GreedyTrace(steps=[], given=True)
    timings["phase1_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    connect = greedy_connect(inst, d1) if connector == "star" else pairwise_connect(inst, d1)
    timings["phase2_s"] = time.perf_counter() - t0

    cost = inst.graph.cost
    cost_d1 = left_sum(cost[u] for u in d1)
    cost_d2 = left_sum(cost[u] for u in connect.connectors)

    t0 = time.perf_counter()
    report = verify_cds(inst, d1 | connect.connectors)
    timings["verify_s"] = time.perf_counter() - t0

    ratios = None
    if with_oracle:
        t0 = time.perf_counter()
        # the solver's own sets bound the searches from the start
        opt_cds = exact_minimum_cds(inst, node_budget=node_budget, incumbent=d1 | connect.connectors)
        opt_mds = exact_minimum_mds(inst, node_budget=node_budget, incumbent=d1)
        ratios = ratio_report(inst, cost_d1, cost_d2, opt_cds, opt_mds)
        timings["oracle_s"] = time.perf_counter() - t0

    return SolveResult(
        instance=inst,
        d1=d1,
        d2=set(connect.connectors),
        cost_d1=cost_d1,
        cost_d2=cost_d2,
        phase1_trace=trace,
        connect_report=connect,
        verify_report=report,
        ratios=ratios,
        timings=timings,
    )


def solve_report_dict(result: SolveResult, include_timings: bool = True) -> dict:
    """JSON-ready report with a stable key order, schema ``REPORT_SCHEMA``.

    Steps, the verify block and the oracle block are their records' fields
    in declaration order.
    """
    inst = result.instance
    g = inst.graph
    doc = {
        "schema": REPORT_SCHEMA,
        "label": inst.label,
        "n": g.node_count,
        "edges": g.edge_count,
        "m": inst.m,
        "delta": g.max_degree,
        "d1": sorted(result.d1),
        "d2": sorted(result.d2),
        "dg": sorted(result.dominating_and_connectors),
        "cost": {
            "d1": result.cost_d1,
            "d2": result.cost_d2,
            "total": result.cost_total,
        },
        "phase1": {
            "given": result.phase1_trace.given,
            "steps": [step._asdict() for step in result.phase1_trace.steps],
        },
        "phase2": {
            "method": result.connect_report.method,
            "initial_components": result.connect_report.initial_components,
            "component_trace": list(result.connect_report.component_trace),
            "stars": [
                {
                    "center": star.center,
                    "leaves": list(star.leaves),
                    "gain": star.gain,
                    "cost": star.total_cost,
                }
                for star in result.connect_report.stars
            ],
        },
        "verify": vars(result.verify_report).copy(),
        "oracle": None if result.ratios is None else vars(result.ratios).copy(),
    }
    if include_timings:
        doc["timings"] = dict(result.timings)
    return doc
