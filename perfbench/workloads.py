"""The benchmark's workloads: seeded instance sets, the timed path, output gates.

A workload turns ``--seed`` into a fixed list of instances (one *pass*),
serializes them to instance text, and solves each from that text alone.
Each workload puts a different cdsopt layer on top; README.md explains why.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass, field

import cdsopt.bench
from cdsopt.bench import run_case
from cdsopt.generators import gen_fig1, gen_random_connected, gen_udg
from cdsopt.graph import parse_instance, serialize_instance
from cdsopt.solver import solve, solve_report_dict
from cdsopt.verify import verify_cds

COST_RANGE = (0.1, 10.0)
DESIGNATED_PREFIX = "# designated-ds:"
LADDER_EPS = 0.01
LADDER_RTOL = 1e-9

# Instance sizes per workload.  "full" is what the benchmark measures; "tiny"
# exists only for the self-test.
SIZES = {
    "full": {
        "udg-star": {"n": 800, "side": 10.0, "count": 6},
        "random-cover": {"n": 2000, "count": 3},
        "oracle-bounds": {"random_n": 22, "udg_n": 18, "udg_side": 2.8, "count": 12},
        "ladder-baseline": {"d": (400, 500, 600)},
    },
    "tiny": {
        "udg-star": {"n": 40, "side": 2.2, "count": 2},
        "random-cover": {"n": 60, "count": 2},
        "oracle-bounds": {"random_n": 9, "udg_n": 8, "udg_side": 1.4, "count": 2},
        "ladder-baseline": {"d": (3, 4)},
    },
}


@dataclass(frozen=True)
class Item:
    """One instance of a pass, as the text the program receives."""

    label: str
    text: str
    nodes: int  # graph nodes solved by one sample of this item
    meta: dict = field(default_factory=dict)


class Ops:
    """The program entry points a sample calls; a traced run wraps each in a span."""

    def __init__(self, captured: list, tracer=None):
        # run_case's SolveResult, appended by run_case_hooks
        self.captured = captured

        def wrap(fn, name, key):
            return tracer.wrap(fn, name, key) if tracer is not None else fn

        self.parse = wrap(parse_instance, "graph.parse_instance", "graph.parse")
        self.solve = wrap(solve, "solver.solve", "solver.self")
        self.report = wrap(report_text, "solver.report", "solver.report")
        self.run_case = wrap(run_case, "bench.run_case", "bench.run_case.self")


def report_text(result) -> str:
    """The report ``cds-opt solve`` prints for a result."""
    return json.dumps(solve_report_dict(result), indent=2) + "\n"


def golden_text(result) -> str:
    """The byte-stable ``--no-timing`` report, hashed to compare outputs."""
    return json.dumps(solve_report_dict(result, include_timings=False), indent=2) + "\n"


@contextmanager
def run_case_hooks(captured: list):
    """Make ``bench.run_case`` solve the parsed instance in ``case["instance"]``.

    ``run_case`` normally regenerates its instance from generator arguments;
    here it gets the instance parsed from text, and the SolveResult it
    computes is appended to ``captured`` so its report can be checked.
    """
    saved_build, saved_solve = cdsopt.bench.build_case_instance, cdsopt.bench.solve

    def capture(*args, **kwargs):
        result = saved_solve(*args, **kwargs)
        captured.append(result)
        return result

    cdsopt.bench.build_case_instance = lambda case: case["instance"]
    cdsopt.bench.solve = capture
    try:
        yield
    finally:
        cdsopt.bench.build_case_instance, cdsopt.bench.solve = saved_build, saved_solve


# -- generation (the set-up) -------------------------------------------------


def generate_udg(seed: int, size: dict) -> list:
    return [
        (gen_udg(size["n"], size["side"], COST_RANGE, seed * 1000 + i, m=1), None, {})
        for i in range(size["count"])
    ]


def generate_random(seed: int, size: dict) -> list:
    n = size["n"]
    return [
        (gen_random_connected(n, 3.0 / n, COST_RANGE, seed * 1000 + i, m=4), None, {})
        for i in range(size["count"])
    ]


def generate_oracle(seed: int, size: dict) -> list:
    # The oracle's time varies about 10x between instances of one size, so
    # no seeded draw of the few dozen cases a run can solve has a steady
    # median.  The cases are therefore fixed; the seed sets their order.
    out = []
    for i in range(size["count"]):
        n = size["random_n"] + i % 3
        out.append((gen_random_connected(n, 0.12, COST_RANGE, i, m=2), None, {}))
        out.append((gen_udg(size["udg_n"], size["udg_side"], COST_RANGE, i, m=1), None, {}))
    random.Random(seed).shuffle(out)
    return out


def generate_ladder(seed: int, size: dict) -> list:
    # a small seed-dependent offset keeps the rung counts, and so the
    # pairwise baseline's quadratic cost, nearly the same on every seed
    out = []
    for base in size["d"]:
        d = base + seed % 5
        inst, designated = gen_fig1(d, LADDER_EPS)
        out.append((inst, designated, {"d": d}))
    return out


def serialize(generated: list, solves_per_item: int) -> list[Item]:
    items = []
    for inst, designated, meta in generated:
        text = serialize_instance(inst)
        if designated is not None:
            lines = text.splitlines()
            lines.insert(1, f"{DESIGNATED_PREFIX} {' '.join(map(str, sorted(designated)))}")
            text = "\n".join(lines) + "\n"
        items.append(Item(inst.label, text, inst.graph.node_count * solves_per_item, meta))
    return items


# -- the timed path ----------------------------------------------------------


def sample_solve(ops: Ops, item: Item):
    inst = ops.parse(item.text)
    result = ops.solve(inst)
    ops.report(result)
    return [result], None


def sample_ladder(ops: Ops, item: Item):
    inst = ops.parse(item.text)
    given = designated_ds(item.text)
    results = []
    for connector in ("star", "pairwise"):
        result = ops.solve(inst, given_ds=given, connector=connector)
        ops.report(result)
        results.append(result)
    return results, None


def sample_oracle(ops: Ops, item: Item):
    inst = ops.parse(item.text)
    ops.captured.clear()
    row = ops.run_case(
        {"instance": inst, "oracle": True, "node_budget": inst.graph.node_count}
    )
    result = ops.captured[-1]
    ops.report(result)
    return [result], row


def designated_ds(text: str) -> list[int]:
    """The designated dominating set a ladder instance carries as a comment."""
    for line in text.splitlines():
        if line.startswith(DESIGNATED_PREFIX):
            return [int(tok) for tok in line[len(DESIGNATED_PREFIX):].split()]
    raise ValueError("instance text carries no designated dominating set")


# -- output gates ------------------------------------------------------------


def check_sample(workload: str, item: Item, results: list, row) -> list[str]:
    """Problems with one sample's outputs, checked outside the timed path."""
    problems = []
    for result in results:
        if not result.verify_report.is_cds:
            problems.append("solve's own verification rejected its output")
        if not verify_cds(result.instance, result.dominating_and_connectors).is_cds:
            problems.append("independent verify_cds rejected the output")
    if workload == "oracle-bounds":
        if row["violation"]:
            problems.append(f"bound violation: {row['violation']}")
        if row["ratio_total"] is None:
            problems.append("run_case returned no ratio")
    if workload == "ladder-baseline":
        d = item.meta["d"]
        expected = {"star": 1 + (d + 1) * LADDER_EPS, "pairwise": d * (1 + LADDER_EPS)}
        for result in results:
            method = result.connect_report.method
            if not math.isclose(result.cost_d2, expected[method], rel_tol=LADDER_RTOL):
                problems.append(
                    f"{method} connector cost {result.cost_d2!r} != closed form {expected[method]!r}"
                )
    return problems


@dataclass(frozen=True)
class Workload:
    why: str
    generate: object  # (seed, size) -> [(instance, designated set or None, meta)]
    sample: object  # (ops, item) -> (results, run_case row or None)
    solves_per_item: int = 1


WORKLOADS = {
    "udg-star": Workload(
        "UDG n=800 at 8 points per unit^2, m=1: the star connector and the "
        "unit-disk parse check dominate, phase 1 is small",
        generate_udg,
        sample_solve,
    ),
    "random-cover": Workload(
        "sparse random graph n=2000, p=3/n, m=4: the greedy cover dominates, "
        "parsing and the connector are small",
        generate_random,
        sample_solve,
    ),
    "oracle-bounds": Workload(
        "bench.run_case with the exact oracle on random (n=22-24) and UDG (n=18) "
        "graphs: the only oracle and bound-check workload",
        generate_oracle,
        sample_oracle,
    ),
    "ladder-baseline": Workload(
        "fig1 ladders d~400-600 solved from the designated set with the star and the "
        "pairwise connector: the only pairwise workload",
        generate_ladder,
        sample_ladder,
        solves_per_item=2,
    ),
}

