"""Tracks how fast this machine runs Python right now, to steady the timings.

On a shared machine, load from other tenants changes how fast the same
Python code runs. Over a minute the speed moves by up to a third, and
that swamps the differences a benchmark is meant to show. The probe times
a fixed graph sweep. It is the benchmark's own code, so no change to cdsopt
can move it. The sweep is interleaved with the samples, and the
end-to-end times are scaled to a reference speed: ``raw * REF_S / median
probe``.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# median probe time at the reference speed (a 2-CPU x86-64 Linux VM,
# Python 3.11); scaled times read as seconds at that speed
REF_S = 0.028
# share of the sampling time spent probing
SHARE = 0.15


def _probe_graph(n: int = 3000, seed: int = 7) -> list[list[int]]:
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for u in range(1, n):
        v = rng.randrange(u)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(nbrs) for nbrs in adj]


def _sweep(adj: list[list[int]], sources: range) -> int:
    """Breadth-first depths from each source: set, dict and list work like the solver's."""
    total = 0
    for src in sources:
        seen = {src}
        depth = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            frontier = nxt
        total += sum(depth.values())
    return total


class SpeedProbe:
    """Interleaves short timed sweeps with the work and reports the speed factor."""

    def __init__(self):
        self._adj = _probe_graph()
        self._sources = range(0, len(self._adj), len(self._adj) // 12)
        self._expected = _sweep(self._adj, self._sources)
        self.times: list[float] = []
        self._probe_s = 0.0
        self._work_s = 0.0

    def probe(self) -> None:
        # the sweep makes no reference cycles; with the collector on, its
        # time would depend on how many objects the workload left alive
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            total = _sweep(self._adj, self._sources)
            elapsed = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if total != self._expected:
            raise RuntimeError("speed probe gave a different result")
        self.times.append(elapsed)
        self._probe_s += elapsed

    def after_work(self, seconds: float) -> None:
        """Record ``seconds`` of work and probe until probing is SHARE of it."""
        self._work_s += seconds
        while self._probe_s < SHARE * self._work_s:
            self.probe()

    def median_s(self) -> float:
        return statistics.median(self.times)

    def scale(self) -> float:
        """Factor that turns a raw time into seconds at the reference speed."""
        return REF_S / self.median_s()
