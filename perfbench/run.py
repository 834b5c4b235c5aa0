"""cdsopt benchmark: one workload, one seed, a fixed run length.

    python3 perfbench/run.py --workload udg-star --seed 1 --seconds 20 --trace 0

Run from the repository root.  The solver is imported from ``src/`` of the
same checkout.  Instances are generated from ``--seed`` in the set-up and
handed to the solver as instance text.  Whole passes over the instances
run until the next one would end after ``--seconds``; the exact outputs
and counters of every pass must be identical.

``--trace 0`` times the untraced path and reports the end-to-end metrics,
with times scaled to a reference machine speed by ``speed.SpeedProbe``.
``--trace 1`` makes at least two passes with every layer function wrapped
in a span, solving each instance untraced too in the first, and reports the
per-layer metrics; the spans are written to ``perfbench/out/``.  Every metric is printed by
name with its unit, and the last line of stdout is one JSON object.  The
exit code is 0 only when every output passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_SECONDS = 1.0

# tolerance of the phase spans against SolveResult.timings: the spans sit
# inside solve's own timers, so they may fall short by the wrapper's entry
# and exit and by solve's untraced glue, never exceed them
SPAN_SLACK_S = 5e-3
SPAN_SLACK_SHARE = 0.02
PHASE_OF_SPAN = {
    "solver.greedy_dominating_set": "phase1_s",
    "solver.verify_mds": "phase1_s",
    "solver.greedy_connect": "phase2_s",
    "solver.pairwise_connect": "phase2_s",
    "solver.verify_cds": "verify_s",
    "solver.exact_minimum_cds": "oracle_s",
    "solver.exact_minimum_mds": "oracle_s",
}
SOLVE_SPANS = ("solver.solve", "bench.solve")

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "nodes_per_s": "1/s",
    "cost_total": "cost",
    "peak_rss_mb": "MB",
}
# per-layer metric -> layer key charged by the tracer (seconds per sample)
LAYER_TIMES = {
    "graph.parse_s": "graph.parse",
    "domination.greedy_s": "domination.greedy",
    "connector.star_s": "connector.star",
    "connector.pairwise_s": "connector.pairwise",
    "oracle.search_s": "oracle.search",
    "verify.verify_s": "verify.verify",
    "solver.self_s": "solver.self",
    "solver.report_s": "solver.report",
    "bench.run_case.self_s": "bench.run_case.self",
}
# per-layer counts, each a field of the pass fingerprint
LAYER_COUNTS = [
    "domination.coverage_gain.calls",
    "domination.steps",
    "connector.best_star_at.calls",
    "connector.component_neighbors.calls",
    "connector.rounds",
    "connector.initial_components",
    "oracle.nodes_explored",
]


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def import_program():
    """Import cdsopt from this checkout's ``src/``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cdsopt
    except ImportError as exc:
        raise BenchError(f"cannot import cdsopt from {src}: {exc}") from exc
    if Path(cdsopt.__file__).resolve().parent != src / "cdsopt":
        raise BenchError(f"cdsopt was imported from {cdsopt.__file__}, not from {src}")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def check_phase_spans(tracer, first_span: int, results: list) -> list[str]:
    """Compare the traced phase spans of each solve with its SolveResult.timings."""
    spans = tracer.spans
    solve_spans = [i for i in range(first_span, len(spans)) if spans[i][1] in SOLVE_SPANS]
    if len(solve_spans) != len(results):
        return [f"{len(solve_spans)} solve spans for {len(results)} results"]
    problems = []
    for index, result in zip(solve_spans, results):
        phase_s: dict[str, float] = {}
        for span in spans[index + 1:]:
            if span[4] == index and span[1] in PHASE_OF_SPAN:
                phase = PHASE_OF_SPAN[span[1]]
                phase_s[phase] = phase_s.get(phase, 0.0) + span[3] - span[2]
        if set(phase_s) != set(result.timings):
            problems.append(f"phase spans {sorted(phase_s)} != timings {sorted(result.timings)}")
            continue
        for phase, timed in result.timings.items():
            gap = timed - phase_s[phase]
            if not -1e-9 <= gap <= SPAN_SLACK_S + SPAN_SLACK_SHARE * timed:
                problems.append(f"{phase}: span {phase_s[phase]:.6f} s vs timing {timed:.6f} s")
    return problems


class Pass:
    """Samples and exact outputs of one pass over the items."""

    def __init__(self):
        self.durations: list[float] = []
        self.traced_durations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.nodes = 0  # nodes of the untraced samples
        self.digest = hashlib.sha256()
        self.fingerprint = {
            "cost_total": 0.0,
            "domination.steps": 0,
            "connector.rounds": 0,
            "connector.initial_components": 0,
            "max_ratio_to_bound": 0.0,
        }

    def add_results(self, results: list, row, golden_text) -> None:
        fp = self.fingerprint
        for result in results:
            self.digest.update(golden_text(result).encode())
            fp["cost_total"] += result.cost_total
            fp["domination.steps"] += len(result.phase1_trace.steps)
            fp["connector.rounds"] += len(result.connect_report.stars)
            fp["connector.initial_components"] += result.connect_report.initial_components
        if row is not None:
            share = row["ratio_total"] / row["bound_total"]
            fp["max_ratio_to_bound"] = max(fp["max_ratio_to_bound"], share)

    def exact(self) -> dict:
        """Everything about the pass that must repeat exactly."""
        return self.fingerprint | {"digest": self.digest.hexdigest()}


class Runner:
    """One benchmark run: the set-up, the passes, their gates and the speed probe."""

    def __init__(self, workloads, name: str, trace: bool):
        from speed import SpeedProbe
        from tracer import Tracer

        self.workloads = workloads
        self.name = name
        self.workload = workloads.WORKLOADS[name]
        self.problems: list[str] = []
        self.probe = SpeedProbe()
        self.tracer = Tracer() if trace else None
        self.captured: list = []
        self.ops = workloads.Ops(self.captured)
        self.traced_ops = workloads.Ops(self.captured, self.tracer) if trace else None

    def set_up(self, seed: int, size: dict):
        """Generate and serialize the pass several times; return the median times."""
        gen_times, setup_times = [], []
        items = None
        while len(setup_times) < MIN_SETUPS or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS
        ):
            t0 = time.perf_counter()
            generated = self.workload.generate(seed, size)
            t1 = time.perf_counter()
            fresh = self.workloads.serialize(generated, self.workload.solves_per_item)
            t2 = time.perf_counter()
            gen_times.append(t1 - t0)
            setup_times.append(t2 - t0)
            self.probe.after_work(t2 - t0)
            if items is not None and [i.text for i in fresh] != [i.text for i in items]:
                raise RuntimeError("the generators gave different instances for one seed")
            items = fresh
        return items, statistics.median(gen_times), statistics.median(setup_times)

    def sample(self, ops, item, record: Pass):
        """Time one sample and gate its outputs; returns (seconds, results, row) or None."""
        record.attempted += 1
        try:
            t0 = time.perf_counter()
            results, row = self.workload.sample(ops, item)
            elapsed = time.perf_counter() - t0
        except Exception as exc:  # any solver exception is a counted failure, and the run goes on
            traceback.print_exc()
            self.problems.append(f"{item.label}: {type(exc).__name__}: {exc}")
            record.failed += 1
            return None
        self.probe.after_work(elapsed)
        found = self.workloads.check_sample(self.name, item, results, row)
        self.problems.extend(f"{item.label}: {problem}" for problem in found)
        record.failed += bool(found)
        return None if found else (elapsed, results, row)

    def run_pass(self, items, untraced: bool) -> Pass:
        """Solve every item untraced if asked, then traced if the run is traced.

        With both, the traced outputs must be byte-identical to the untraced ones.
        """
        tracer = self.tracer
        golden_text = self.workloads.golden_text
        record = Pass()
        traced_digest = hashlib.sha256()
        for index, item in enumerate(items):
            if untraced:
                done = self.sample(self.ops, item, record)
                if done is not None:
                    elapsed, results, row = done
                    record.durations.append(elapsed)
                    record.nodes += item.nodes
                    record.add_results(results, row, golden_text)
            if tracer is None:
                continue
            tracer.instance = index
            first_span = len(tracer.spans)
            tracer.install()
            try:
                done = self.sample(self.traced_ops, item, record)
            finally:
                tracer.uninstall()
            if done is None:
                continue
            elapsed, results, row = done
            record.traced_durations.append(elapsed)
            if not untraced:
                record.add_results(results, row, golden_text)
            for result in results:
                traced_digest.update(golden_text(result).encode())
            found = check_phase_spans(tracer, first_span, results)
            self.problems.extend(f"{item.label}: tracer: {problem}" for problem in found)
            record.failed += bool(found)
        if tracer is not None:
            record.fingerprint.update(tracer.take_counts())
            if traced_digest.hexdigest() != record.digest.hexdigest():
                self.problems.append("traced outputs differ from untraced outputs")
        return record

    def measure(self, items, seconds: float) -> list[Pass]:
        """Run whole passes until the next one would end after ``seconds``.

        An untraced run makes at least one pass.  A traced run makes at least
        two, so its counters can be compared, and solves untraced only in the
        first, which gives the untraced times ``trace_overhead_s`` is taken from.
        """
        min_passes = 1 if self.tracer is None else 2
        passes: list[Pass] = []
        with self.workloads.run_case_hooks(self.captured):
            start = time.perf_counter()
            last = 0.0
            while len(passes) < min_passes or time.perf_counter() - start + last <= seconds:
                t0 = time.perf_counter()
                untraced = self.tracer is None or not passes
                passes.append(self.run_pass(items, untraced))
                last = time.perf_counter() - t0
        first = passes[0].exact()
        for number, record in enumerate(passes[1:], start=2):
            other = record.exact()
            diff = sorted(k for k in first.keys() | other.keys() if first.get(k) != other.get(k))
            if diff:
                self.problems.append(
                    f"exact outputs or counters of pass {number} differ from pass 1: {diff}"
                )
        return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s: float, scale: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, with times scaled to the probe's reference speed."""
    timed = [p for p in passes if p.durations]
    values = {
        "setup_s": setup_s * scale,
        "solve_s_p50": statistics.median(d for p in timed for d in p.durations) * scale,
        "nodes_per_s": statistics.median(p.nodes / sum(p.durations) for p in timed) / scale,
        "cost_total": passes[0].fingerprint["cost_total"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def per_layer(passes, tracer, gen_s, probe_s, attempted, failed) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; times are raw wall seconds."""
    traced = [d for p in passes for d in p.traced_durations]
    untraced = [d for p in passes for d in p.durations]
    fp = passes[0].fingerprint
    metrics = {"generators.gen_s": (gen_s, "s")}
    for metric, key in LAYER_TIMES.items():
        metrics[metric] = (tracer.layer_self.get(key, 0.0) / len(traced), "s")
    for metric in LAYER_COUNTS:
        metrics[metric] = (fp.get(metric, 0), "count")
    calls = fp.get("connector.best_star_at.calls", 0)
    hits = fp.get("connector.best_star_at.hits", 0)
    metrics["connector.best_star_at.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    metrics["trace_overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    metrics["max_ratio_to_bound"] = (fp["max_ratio_to_bound"], "ratio")
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    metrics["speed_probe_s"] = (probe_s, "s")
    return metrics


def run(workloads, name: str, seed: int, seconds: float, trace: bool, size: dict, info: dict) -> dict:
    """Set up, measure, print every metric by name and return the result line."""
    runner = Runner(workloads, name, trace)
    items, gen_s, setup_s = runner.set_up(seed, size)
    passes = runner.measure(items, seconds)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    scale = runner.probe.scale()

    print(f"# cdsopt benchmark workload={name} " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(
        f"# {len(items)} instances and {sum(i.nodes for i in items)} nodes solved per pass, "
        f"{len(passes)} passes, output sha256 {passes[0].digest.hexdigest()}"
    )
    print(
        f"# speed probe median {runner.probe.median_s():.4f} s over {len(runner.probe.times)} "
        f"probes: end-to-end times are raw times x {scale:.4f}"
    )
    samples = sum(len(p.durations) for p in passes)
    traced_samples = sum(len(p.traced_durations) for p in passes)
    metrics = end_to_end(passes, setup_s, scale) if samples else {}
    layers = {}
    if traced_samples and samples:
        layers = per_layer(passes, runner.tracer, gen_s, runner.probe.median_s(), attempted, failed)
    for metric, (value, unit) in {**metrics, **layers}.items():
        note = f"  (median of {samples} samples)" if metric == "solve_s_p50" else ""
        print(f"{metric:38s} {value!r:>24} {unit}{note}")
    if not trace:
        print(f"{'fail_ratio':38s} {failed / attempted!r:>24} ratio  ({failed} of {attempted} failed)")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        doc = {"workload": name, **info, **runner.tracer.dump(), "passes": [p.exact() for p in passes]}
        path = OUT_DIR / f"trace-{name}-s{seed}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        print(f"# spans written to {path.relative_to(ROOT)}")
    for problem in runner.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    reported = layers if trace else metrics
    return {
        "correct": not runner.problems and bool(reported),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }


def main(argv=None) -> int:
    try:
        import_program()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    # one process, no bench pool: the pool width must not leak in
    os.environ.pop("CDS_OPT_THREADS", None)
    info = {
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
    }
    size = workloads.SIZES["full"][args.workload]
    line = run(workloads, args.workload, args.seed, args.seconds, bool(args.trace), size, info)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
