"""Solution validation: m-fold domination and induced connectivity checks."""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Instance, checked_ids, component_labels, left_sum


@dataclass
class VerifyReport:
    """Outcome of checking a candidate solution.

    ``is_connected`` and ``is_cds`` stay None when only domination was
    checked.  ``violations`` holds (node, reason) pairs; the sentinel node -1
    marks set-level failures such as an empty solution.  The field order is
    the report's ``verify`` key order.
    """

    is_m_ds: bool
    is_connected: bool | None
    is_cds: bool | None
    violations: list[tuple[int, str]] = field(default_factory=list)
    cost: float = 0.0


def verify_mds(inst: Instance, members) -> VerifyReport:
    """Check that every node outside the set has at least m neighbors inside."""
    member_set = set(members)
    g = inst.graph
    if member_set and not (0 <= min(member_set) and max(member_set) < g.node_count):
        checked_ids(g.node_count, member_set)  # raises the range error
    m = inst.m
    violations: list[tuple[int, str]] = []
    for u in range(g.node_count):
        if u in member_set:
            continue
        # neighbour ids are distinct, so the intersection counts each dominator once
        inside = len(member_set.intersection(g.adjacency[u]))
        if inside < m:
            violations.append((u, f"node {u} has {inside} < {m} dominators"))
    return VerifyReport(
        is_m_ds=not violations,
        is_connected=None,
        is_cds=None,
        violations=violations,
        cost=left_sum(g.cost[u] for u in member_set),
    )


def verify_cds(inst: Instance, members) -> VerifyReport:
    """Full check: m-fold domination plus connectivity of the induced subgraph."""
    member_set = set(members)
    report = verify_mds(inst, member_set)
    if not member_set:
        report.is_connected = False
        report.violations.append((-1, "solution set is empty"))
    else:
        label, count = component_labels(inst.graph.adjacency, member_set)
        report.is_connected = count == 1
        if not report.is_connected:
            # components by smallest member, ids ascending within each
            anchor = min(member_set)
            for u in sorted(member_set, key=lambda u: (label[u], u)):
                if label[u] != anchor:
                    report.violations.append(
                        (u, f"node {u} disconnected from node {anchor} in the induced subgraph")
                    )
    report.is_cds = report.is_m_ds and report.is_connected
    return report
