"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run passes its output gates and reports exactly the metrics that
BENCHMARK.json names, with their units.  Then checks that the gates reject
broken outputs and that the tracer puts every wrapped function back.
Prints "selftest ok" and exits 0, or names the first failed check and
exits 1.  Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys

import run


class SelfTestError(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def check_runs(workloads, spec: dict) -> None:
    check(
        [(w["name"], w["why"]) for w in spec["workloads"]]
        == [(name, w.why) for name, w in workloads.WORKLOADS.items()],
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )
    for trace, group in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[group]}
        for name in workloads.WORKLOADS:
            info = {"seed": 5, "trace": int(trace)}
            with contextlib.redirect_stdout(io.StringIO()):
                line = run.run(workloads, name, 5, 0.01, trace, workloads.SIZES["tiny"][name], info)
            where = f"{name} trace={int(trace)}"
            check(line["correct"] and line["failed"] == 0, f"{where}: run not correct: {line}")
            check(line["attempted"] >= (2 if trace else 1), f"{where}: too few samples")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == units, f"{where}: metrics {sorted(got)} != BENCHMARK.json {sorted(units)}")
            for metric, entry in line["metrics"].items():
                value = entry["value"]
                check(
                    isinstance(value, (int, float)) and not isinstance(value, bool),
                    f"{where}: {metric} is not a number",
                )


def check_gates(workloads) -> None:
    [item] = workloads.serialize(
        workloads.generate_ladder(0, {"d": (3,)}), solves_per_item=2
    )
    ops = workloads.Ops([])
    star, pairwise = workloads.sample_ladder(ops, item)[0]
    check(not workloads.check_sample("ladder-baseline", item, [star, pairwise], None), "good ladder rejected")
    disconnected = dataclasses.replace(star, d2=set())
    check(
        workloads.check_sample("ladder-baseline", item, [disconnected, pairwise], None),
        "a set without its connectors passed the independent verification",
    )
    costly = dataclasses.replace(pairwise, cost_d2=pairwise.cost_d2 * 1.01)
    check(
        workloads.check_sample("ladder-baseline", item, [star, costly], None),
        "a ladder cost off its closed form passed",
    )
    row = {"violation": "total cost exceeds the bound", "ratio_total": 1.0}
    check(
        workloads.check_sample("oracle-bounds", item, [star], row),
        "a run_case bound violation passed",
    )


def check_tracer_restores() -> None:
    import tracer

    originals = [getattr(module, attr) for module, attr, _, _ in tracer.LAYER_PATCHES]
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    restored = [getattr(module, attr) for module, attr, _, _ in tracer.LAYER_PATCHES]
    check(restored == originals, "tracer left a wrapped function behind")


def main() -> int:
    try:
        run.import_program()
        import workloads

        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        check_runs(workloads, spec)
        check_gates(workloads)
        check_tracer_restores()
    except (SelfTestError, run.BenchError) as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
