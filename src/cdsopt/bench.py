"""Batch benchmark harness: run solver corpora and check the proven bounds.

A batch spec is a JSON document:

    {"entries": [
        {"kind": "random", "n": 10, "p": 0.3, "m": [1, 2],
         "seeds": {"start": 0, "count": 25},
         "cost_lo": 0.1, "cost_hi": 10.0, "oracle": true},
        {"kind": "udg", "n": 12, "side": 3.0, "m": 1,
         "seeds": {"start": 0, "count": 50}, "oracle": true},
        {"kind": "fig1", "d": 3, "eps": 0.01, "oracle": true}
    ]}

Each entry expands to one case per (m, seed) combination, solved in a worker
pool of the --threads width and merged back in deterministic case order.  Any
instance whose costs exceed a proven bound is flagged as a violation: that
would falsify the implementation, not the theorems.

The JSON summary holds ``schema``, ``rows``, ``violations``, and over the
rows that have an oracle ratio ``max_ratio_total``, ``mean_ratio_total``,
``max_ratio_to_bound`` (the largest ``ratio_total / bound_total``) and
``max_ratio_to_bound_label`` (the label of that row, the first in case order
on a tie); the last four are null when no row has a ratio.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

from .generators import KINDS, generate
from .graph import InstanceError, fmt_float, left_sum
from .oracle import DEFAULT_NODE_BUDGET, OracleBudgetError, proven_bounds
from .solver import solve

CSV_COLUMNS = [
    "label",
    "n",
    "edges",
    "m",
    "delta",
    "cost_d1",
    "cost_d2",
    "cost_total",
    "opt",
    "opt_mds",
    "ratio_total",
    "bound_total",
    "udg",
    "violation",
]

# float slack for bound comparisons, relative so that it scales with the
# costs: the proven inequalities are exact, the operands are products of floats
BOUND_RTOL = 1e-9

# the error for a non-finite output number: costs are finite, so only a cost
# sum or ratio past the float range makes one
OVERFLOW_MESSAGE = "a cost sum or ratio overflows the float range; no report written"

# every case dict is built before any runs, so a batch larger than this is
# rejected instead of exhausting memory
MAX_BATCH_CASES = 100_000

# (field, converter, default) of every entry, beside "kind", "m", "seeds"
# and the parameters its kind has in KINDS
_CASE_FIELDS = (("oracle", bool, False), ("node_budget", int, DEFAULT_NODE_BUDGET))


def _convert(value, convert, key: str, where: str):
    """``convert(value)``; a bool field takes only a JSON boolean, a number
    field only a JSON number that fits, and an int field no fractional one."""
    try:
        if isinstance(value, bool) != (convert is bool) or not isinstance(value, (int, float)):
            raise TypeError
        if convert is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where}: field {key!r} must be {convert.__name__}, got {value!r}") from None


def _field(obj: dict, key: str, convert, default, where: str):
    """``convert(obj[key])``, or ``default`` when absent (None: required); errors name ``where``."""
    if key not in obj:
        if default is None:
            raise ValueError(f"{where}: missing field {key!r}")
        return default
    return _convert(obj[key], convert, key, where)


def _reject_unknown(obj: dict, known, where: str) -> None:
    for key in obj:
        if key not in known:
            raise ValueError(f"{where}: unknown field {key!r}")


def load_batch_spec(text: str) -> list[dict]:
    """Parse and expand a batch spec into a deterministic list of cases,
    each holding its entry's position under ``entry``.

    A missing, unknown or malformed field raises ValueError naming its entry,
    as do an empty ``m`` list, a ``seeds.count`` below 1, ``seeds`` on an
    entry of a kind that takes no seed (its copies would be identical) and a
    batch of more than ``MAX_BATCH_CASES`` cases.  So does a spec nested too
    deeply for ``json.loads``, which raises RecursionError on it.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("batch spec nests too deeply to parse") from None
    if not isinstance(doc, dict) or "entries" not in doc or not isinstance(doc["entries"], list):
        raise ValueError("batch spec must be an object with an 'entries' list")
    cases: list[dict] = []
    for pos, entry in enumerate(doc["entries"]):
        where = f"entry {pos}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in KINDS:
            raise ValueError(f"{where}: unknown kind {kind!r}")
        fields = _CASE_FIELDS + KINDS[kind].params
        _reject_unknown(entry, ("kind", "m", "seeds", *(name for name, _, _ in fields)), where)
        m_values = entry.get("m", 1)
        if not isinstance(m_values, list):
            m_values = [m_values]
        if not m_values:
            raise ValueError(f"{where}: field 'm' must not be empty")
        m_values = [_convert(m, int, "m", where) for m in m_values]
        if any(m < 1 for m in m_values):
            raise ValueError(f"{where}: m must be >= 1")
        if not KINDS[kind].seeded and "seeds" in entry:
            raise ValueError(f"{where}: field 'seeds' does not apply to kind {kind!r}, which takes no seed")
        seeds_spec = entry.get("seeds", {})
        if not isinstance(seeds_spec, dict):
            raise ValueError(f"{where}: field 'seeds' must be an object, got {seeds_spec!r}")
        _reject_unknown(seeds_spec, ("start", "count"), f"{where} seeds")
        seed_start = _field(seeds_spec, "start", int, 0, f"{where} seeds")
        seed_count = _field(seeds_spec, "count", int, 1, f"{where} seeds")
        if seed_count < 1:
            raise ValueError(f"{where} seeds: field 'count' must be >= 1, got {seed_count}")
        total = len(cases) + len(m_values) * seed_count
        if total > MAX_BATCH_CASES:
            raise ValueError(f"{where}: batch would hold {total} cases, more than {MAX_BATCH_CASES}")
        values = {key: _field(entry, key, conv, default, where) for key, conv, default in fields}
        for m in m_values:
            for seed in range(seed_start, seed_start + seed_count):
                cases.append({"kind": kind, "m": m, "seed": seed, "entry": pos, **values})
    return cases


def build_case_instance(case: dict):
    return generate(case["kind"], case)[0]


def run_case(case: dict) -> dict:
    """Solve one case and evaluate every applicable bound.  Picklable worker."""
    inst = build_case_instance(case)
    result = solve(
        inst,
        with_oracle=case["oracle"],
        node_budget=case["node_budget"],
    )
    g = inst.graph
    bound_d1, bound_d2, udg_bound_d2 = proven_bounds(inst)
    bound_total = bound_d1 + bound_d2
    problems: list[str] = []
    if not result.verify_report.is_cds:
        problems.append("output failed verification")
    opt = opt_mds = ratio_total = None
    if result.ratios is not None:
        r = result.ratios
        opt, opt_mds = r.opt_cost, r.opt_mds_cost
        ratio_total = r.ratio_total
        if result.cost_total > bound_total * opt * (1 + BOUND_RTOL):
            problems.append("total cost exceeds (H(delta+m)+2H(delta-1))*opt")
        if result.cost_d1 > bound_d1 * opt_mds * (1 + BOUND_RTOL):
            problems.append("d1 cost exceeds H(delta+m)*opt_mds")
        if result.cost_d2 > bound_d2 * opt * (1 + BOUND_RTOL):
            problems.append("d2 cost exceeds 2H(delta-1)*opt")
        if udg_bound_d2 is not None and result.cost_d2 > udg_bound_d2 * opt * (1 + BOUND_RTOL):
            problems.append("d2 cost exceeds (11/3)*opt on UDG")
    return {
        "label": inst.label,
        "n": g.node_count,
        "edges": g.edge_count,
        "m": inst.m,
        "delta": g.max_degree,
        "cost_d1": result.cost_d1,
        "cost_d2": result.cost_d2,
        "cost_total": result.cost_total,
        "opt": opt,
        "opt_mds": opt_mds,
        "ratio_total": ratio_total,
        "bound_total": bound_total,
        "udg": g.coords is not None,
        "violation": "; ".join(problems),
    }


def pool_width(case_count: int, requested: int | None = None) -> int:
    """Worker count: the requested width, never more than cases or CPUs."""
    return max(1, min(requested or 1, case_count, os.cpu_count() or 1))


def _run_entry_case(case: dict) -> dict:
    """``run_case`` on a case of ``load_batch_spec``, whose InstanceError, such
    as a bad generator parameter, or OracleBudgetError names the case's entry
    and keeps its class, and whose row must hold only finite numbers: a
    non-finite one raises ValueError naming the entry.  Picklable worker."""
    try:
        row = run_case(case)
    except (InstanceError, OracleBudgetError) as exc:
        raise type(exc)(f"entry {case['entry']}: {exc}") from None
    if not all(math.isfinite(value) for value in row.values() if isinstance(value, float)):
        raise ValueError(f"entry {case['entry']}: {OVERFLOW_MESSAGE}")
    return row


def run_batch(cases: list[dict], threads: int | None = None) -> list[dict]:
    width = pool_width(len(cases), threads)
    if width == 1:
        return [_run_entry_case(case) for case in cases]
    with ProcessPoolExecutor(max_workers=width) as pool:
        return list(pool.map(_run_entry_case, cases))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    return str(value)


def write_csv(rows: list[dict], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_cell(row[col]) for col in CSV_COLUMNS])


def summarize(rows: list[dict]) -> dict:
    rated = [row for row in rows if row["ratio_total"] is not None]
    ratios = [row["ratio_total"] for row in rated]
    # max keeps the first of tied rows, so a tie names the earliest case
    worst = max(rated, key=lambda row: row["ratio_total"] / row["bound_total"], default=None)
    return {
        "schema": 1,
        "rows": len(rows),
        "violations": sum(1 for row in rows if row["violation"]),
        "max_ratio_total": max(ratios) if ratios else None,
        "mean_ratio_total": left_sum(ratios) / len(ratios) if ratios else None,
        "max_ratio_to_bound": worst["ratio_total"] / worst["bound_total"] if worst else None,
        "max_ratio_to_bound_label": worst["label"] if worst else None,
    }
