"""In-memory span tracer that wraps cdsopt's public layer functions from outside.

Each wrapped call opens a span (name, start, end, parent).  A span's self
time is its duration minus the time of its child spans, and it is charged to
a layer key: the wrapped function's own key, or for the hot leaf functions
(``coverage_gain``, ``best_star_at``, ``component_neighbors``) the key of the
span that called them, so a leaf's time counts toward the phase it served.

Layer-boundary spans are kept one by one.  The leaves run up to millions of
times per instance, so their spans are folded at exit into one
(name, parent span) aggregate of calls, busy time and self time; keeping
them one by one would need hundreds of megabytes per traced instance.
Everything stays in memory and is written out once, at the end of the run.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import cdsopt.bench
import cdsopt.connector
import cdsopt.domination
import cdsopt.solver


HITS = ("connector.best_star_at.hits", lambda result: result is not None)
NODES_EXPLORED = ("oracle.nodes_explored", lambda result: result.nodes_explored)

# (module, attribute, layer key or None to inherit the caller's, optional
#  (counter name, amount taken from the result)).  Each function is patched
#  in the module where its caller looks it up.
LAYER_PATCHES = [
    (cdsopt.solver, "greedy_dominating_set", "domination.greedy", None),
    (cdsopt.solver, "greedy_connect", "connector.star", None),
    (cdsopt.solver, "pairwise_connect", "connector.pairwise", None),
    (cdsopt.solver, "verify_cds", "verify.verify", None),
    (cdsopt.solver, "verify_mds", "verify.verify", None),
    (cdsopt.solver, "exact_minimum_cds", "oracle.search", NODES_EXPLORED),
    (cdsopt.solver, "exact_minimum_mds", "oracle.search", NODES_EXPLORED),
    (cdsopt.connector, "best_star_at", None, HITS),
    (cdsopt.connector, "component_neighbors", None, None),
    (cdsopt.domination, "coverage_gain", None, None),
    (cdsopt.bench, "solve", "solver.self", None),
]


class Tracer:
    """Collects spans, per-layer self time and per-function counts."""

    def __init__(self):
        self.instance = -1
        # recorded layer spans: [instance, name, start, end, parent index]
        self.spans: list[list] = []
        # folded leaf spans: (name, parent index) -> [calls, busy_s, self_s]
        self.folded: dict[tuple[str, int], list] = {}
        self.layer_self: dict[str, float] = defaultdict(float)
        # "<name>.calls" and the observed counters
        self.counts: Counter = Counter()
        # open frames: [layer key, child time, recorded span index]
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name: str, key: str | None = None, observe=None):
        """Return fn wrapped in a span; key None folds it into its caller's layer."""
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts
        calls_key = f"{name}.calls"
        layer_self = self.layer_self
        spans = self.spans
        folded = self.folded

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[2] if parent else -1
            if key is None:
                frame = [parent[0] if parent else name, 0.0, parent_span]
            else:
                frame = [key, 0.0, len(spans)]
                record = [self.instance, name, 0.0, 0.0, parent_span]
                spans.append(record)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                layer_self[frame[0]] += own
                counts[calls_key] += 1
                if parent is not None:
                    parent[1] += duration
                if key is None:
                    agg = folded.get((name, parent_span))
                    if agg is None:
                        folded[(name, parent_span)] = [1, duration, own]
                    else:
                        agg[0] += 1
                        agg[1] += duration
                        agg[2] += own
                else:
                    record[2] = start
                    record[3] = end
            if observe is not None:
                counts[observe[0]] += observe[1](result)
            return result

        return traced

    def install(self) -> None:
        """Patch every layer function in place; undo with ``uninstall``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, key, observe in LAYER_PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            setattr(module, attr, self.wrap(original, name, key, observe))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take_counts(self) -> dict[str, int]:
        """Return and reset the call and observed counts."""
        counts = dict(self.counts)
        self.counts.clear()
        return counts

    def dump(self) -> dict:
        return {
            "span_fields": ["instance", "name", "start", "end", "parent"],
            "spans": self.spans,
            "folded_fields": ["name", "parent", "calls", "busy_s", "self_s"],
            "folded": [[name, parent, *agg] for (name, parent), agg in self.folded.items()],
            "layer_self_s": dict(self.layer_self),
        }
