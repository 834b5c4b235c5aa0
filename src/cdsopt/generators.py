"""Instance generators: random connected graphs, unit-disk graphs, and the
adversarial ladder family that separates the star connector from the
pairwise baseline.

All generators are pure functions of their arguments (including the seed):
the same call produces byte-identical instances.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .graph import (
    Instance,
    InstanceError,
    WeightedGraph,
    component_labels,
    unit_disk_adjacency,
    validate_fold,
)

UDG_MAX_ATTEMPTS = 1000
# ``gen_udg`` draws at most this many points over all its attempts: one failed
# attempt at n = 10^5 draws and scans its points in about 1.3 s on a 2-CPU VM,
# so n > 1,000 gets fewer than ``UDG_MAX_ATTEMPTS`` attempts
UDG_MAX_DRAWN_POINTS = 10**6
# ``gen_random_connected`` spends one coin per pair whatever p is: n = 20,000
# (199,990,000 pairs, about 7 s on a 2-CPU VM) is the largest n it takes
RANDOM_MAX_PAIRS = 2 * 10**8
# the edge budget of the generators that store and compare in proportion to
# their edges: 4 times the 1.25M expected edges of ``gen_udg`` at n = 10^5 and
# side 111.8; ``gen_fig1`` takes d up to 1,249,999 (4d + 1 edges), and
# ``gen_random_connected`` bounds its expected edges by it too
UDG_MAX_EXPECTED_EDGES = 5 * 10**6


def _coin_bits(data: bytes, j: int) -> int:
    """The 53-bit integer behind the j-th ``random()`` in ``data``: words
    ``w0`` and ``w1`` little-endian at bytes 8j..8j+7, as
    ``(w0 >> 5) * 2**26 + (w1 >> 6)``."""
    w = int.from_bytes(data[8 * j:8 * j + 8], "little")
    return (w & 0xFFFFFFFF) >> 5 << 26 | w >> 38


def gen_random_connected(
    n: int,
    edge_prob: float,
    cost_range: tuple[float, float],
    seed: int,
    m: int = 1,
) -> Instance:
    """Random connected graph: a random spanning tree plus G(n, p) extra edges.

    Costs are uniform in ``cost_range``.  The spanning tree guarantees
    connectivity without rejection sampling, so generation always terminates.
    More than ``RANDOM_MAX_PAIRS`` pairs raises before any draw, and so does
    an expected edge count, ``(n - 1) + p*(n(n-1)/2 - (n - 1))`` (the tree
    plus a coin per other pair), above ``UDG_MAX_EXPECTED_EDGES``.

    Draw contract, which fixes every seeded corpus: after the shuffle and the
    tree draws, each pair (u, v), u < v, that is not a tree edge takes one
    ``rng.random()`` in lexicographic order and is an edge iff that value is
    below ``edge_prob``; then the n costs are drawn.

    The coins are drawn a row at a time as ``getrandbits(64 * k)``, which
    yields the same 32-bit words as k ``random()`` calls, lowest first, and
    leaves the same state.  A call's value is
    ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``, so ``random() < p`` holds
    exactly when that integer is below ``p * 2**53``.  That forces the top
    byte of ``w0`` to at most ``int(p * 256)``, and below it the coin is
    certainly an edge, so only those bytes are visited and only the ones
    equal to it are decoded.
    """
    lo, hi = cost_range
    if n < 1:
        raise InstanceError("n must be >= 1")
    if n * (n - 1) // 2 > RANDOM_MAX_PAIRS:
        raise InstanceError(f"n = {n} draws a coin for each of n(n-1)/2 pairs, more than {RANDOM_MAX_PAIRS:,}")
    if not 0 < edge_prob <= 1:
        raise InstanceError("edge_prob must be in (0, 1]")
    # the tree's n - 1 edges plus a coin per other pair, in exact arithmetic
    expected_edges = (n - 1) + Fraction(edge_prob) * (n * (n - 1) // 2 - (n - 1))
    if expected_edges > UDG_MAX_EXPECTED_EDGES:
        raise InstanceError(
            f"n = {n} at p = {edge_prob:g} makes about {math.ceil(expected_edges):,} edges,"
            f" more than {UDG_MAX_EXPECTED_EDGES:,}"
        )
    if not (math.isfinite(hi) and 0 < lo <= hi):
        raise InstanceError("cost range must be finite and satisfy 0 < lo <= hi")
    validate_fold(m)
    rng = random.Random(seed)
    tree_above: list[list[int]] = [[] for _ in range(n)]
    edges: list[tuple[int, int]] = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        u, v = min(a, b), max(a, b)
        tree_above[u].append(v)
        edges.append((u, v))
    limit = math.ceil(edge_prob * 2**53)  # integer x < limit iff x / 2**53 < edge_prob
    top = int(edge_prob * 256)  # top bytes below this are edges without decoding
    # translate table: 1 for the top bytes that can belong to an edge
    may_be_edge = b"\x01" * min(top + 1, 256) + bytes(max(255 - top, 0))
    for u, tree in enumerate(tree_above):
        tree.sort()
        k = n - 1 - u - len(tree)  # the non-tree pairs (u, v), v > u
        tree.append(n)  # sentinel: stops the skip loop below
        if k:
            data = rng.getrandbits(64 * k).to_bytes(8 * k, "little")
            tops = data[3::8]
            find = tops.translate(may_be_edge).find
            skipped = 0
            j = find(1)
            while j >= 0:
                if tops[j] < top or _coin_bits(data, j) < limit:
                    # the j-th pair of row u that is not a tree edge
                    v = u + 1 + j + skipped
                    while tree[skipped] <= v:
                        skipped += 1
                        v += 1
                    edges.append((u, v))
                j = find(1, j + 1)
    costs = [rng.uniform(lo, hi) for _ in range(n)]
    graph = WeightedGraph.from_edges(n, edges, costs)
    return Instance(graph=graph, m=m, label=f"random-n{n}-p{edge_prob:g}-m{m}-s{seed}")


def gen_udg(
    n: int,
    side: float,
    cost_range: tuple[float, float],
    seed: int,
    m: int = 1,
) -> Instance:
    """Unit-disk graph: n points uniform in [0, side]^2, edges at distance <= 1.

    Resamples the point set until the graph is connected; raises after
    ``min(UDG_MAX_ATTEMPTS, max(1, UDG_MAX_DRAWN_POINTS // n))`` failures, so
    a hopeless request draws at most about ``UDG_MAX_DRAWN_POINTS`` points.
    Coordinates are stored on the instance.
    A request whose expected edge count, ``min(n(n-1)/2, pi*n^2/(2*side^2))``,
    exceeds ``UDG_MAX_EXPECTED_EDGES`` raises before any draw, as does one
    with n - 1 above it, since a connected graph has at least n - 1 edges.

    The graph is built directly, without ``WeightedGraph.from_edges``, and
    equals the one ``parse_instance`` builds from its own text, as
    ``TestUdgGenerator.test_valid_by_construction`` checks.
    """
    lo, hi = cost_range
    if n < 1:
        raise InstanceError("n must be >= 1")
    if not (math.isfinite(side) and side > 0):
        raise InstanceError("side must be finite and positive")
    if not (math.isfinite(hi) and 0 < lo <= hi):
        raise InstanceError("cost range must be finite and satisfy 0 < lo <= hi")
    # a connected graph on n nodes has at least n - 1 edges, whatever the side
    if n - 1 > UDG_MAX_EXPECTED_EDGES:
        raise InstanceError(
            f"n = {n} connected points make at least n - 1 edges, more than {UDG_MAX_EXPECTED_EDGES:,}"
        )
    # twice the expected edge count, in exact arithmetic, so that no n or side overflows
    if min(n * (n - 1), Fraction(math.pi) * n * n / Fraction(side) ** 2) > 2 * UDG_MAX_EXPECTED_EDGES:
        raise InstanceError(
            f"n = {n} points at side {side:g} make about pi*n^2/(2*side^2) edges, more than {UDG_MAX_EXPECTED_EDGES:,}"
        )
    validate_fold(m)
    rng = random.Random(seed)
    attempts = min(UDG_MAX_ATTEMPTS, max(1, UDG_MAX_DRAWN_POINTS // n))
    for _ in range(attempts):
        pts = [(rng.uniform(0.0, side), rng.uniform(0.0, side)) for _ in range(n)]
        adjacency = unit_disk_adjacency(pts)
        # connectivity is tested before the costs are drawn, so a rejected
        # point set consumes no cost draws
        if component_labels(adjacency, range(n))[1] == 1:
            costs = [rng.uniform(lo, hi) for _ in range(n)]
            graph = WeightedGraph(adjacency=adjacency, cost=tuple(costs), coords=tuple(pts))
            return Instance(graph=graph, m=m, label=f"udg-n{n}-side{side:g}-m{m}-s{seed}")
    raise InstanceError(
        f"could not generate connected UDG after {attempts} attempts, the cap for n = {n}"
        f" (at most {UDG_MAX_ATTEMPTS:,} attempts and {UDG_MAX_DRAWN_POINTS:,} drawn points)"
    )


def gen_fig1(d: int, eps: float, m: int = 1) -> tuple[Instance, frozenset[int]]:
    """Adversarial ladder with d rungs plus a designated dominating set.

    Layout (3d+2 nodes): top node t adjacent to a hub u and to every rung top
    u_i; each u_i adjacent to its rung bottom v_i; each v_i adjacent to the
    hub u and to a private anchor b_i.  Costs: c(u_i)=1, c(v_i)=eps,
    c(u)=1+eps, c(t)=c(b_i)=1.  The designated dominating set is
    {t, b_1..b_d}, whose induced subgraph has d+1 components.  A ladder of
    more than ``UDG_MAX_EXPECTED_EDGES`` edges (4d+1) raises before any
    allocation.

    On this family the best single star {u, v_1..v_d} reconnects everything
    at cost 1+(d+1)*eps, while a connector limited to node pairs pays
    d*(1+eps) by repeatedly taking the rungs (u_i, v_i).
    """
    if d < 1:
        raise InstanceError("d must be >= 1")
    if 4 * d + 1 > UDG_MAX_EXPECTED_EDGES:
        raise InstanceError(f"d = {d} makes 4d + 1 edges, more than {UDG_MAX_EXPECTED_EDGES:,}")
    if not (math.isfinite(eps) and eps > 0):
        raise InstanceError("eps must be finite and positive")
    validate_fold(m)
    t, u = 0, 1
    u_ids = [2 + i for i in range(d)]
    v_ids = [2 + d + i for i in range(d)]
    b_ids = [2 + 2 * d + i for i in range(d)]
    n = 3 * d + 2
    costs = [0.0] * n
    costs[t] = 1.0
    costs[u] = 1.0 + eps
    for i in range(d):
        costs[u_ids[i]] = 1.0
        costs[v_ids[i]] = eps
        costs[b_ids[i]] = 1.0
    edges = [(t, u)]
    for i in range(d):
        edges.append((t, u_ids[i]))
        edges.append((u_ids[i], v_ids[i]))
        edges.append((u, v_ids[i]))
        edges.append((v_ids[i], b_ids[i]))
    graph = WeightedGraph.from_edges(n, edges, costs)
    designated = frozenset([t, *b_ids])
    return Instance(graph=graph, m=m, label=f"fig1-d{d}-eps{eps:g}"), designated


# one row per instance kind, read by ``cds-opt gen`` and batch specs: its help,
# whether it takes a seed, and its parameters (name, type, default or None if required)
Kind = NamedTuple("Kind", [("help", str), ("seeded", bool), ("params", tuple)])

_COSTS = (("cost_lo", float, 0.1), ("cost_hi", float, 10.0))
KINDS = {
    "random": Kind("random connected graph", True, (("n", int, None), ("p", float, None), *_COSTS)),
    "udg": Kind("random connected unit-disk graph", True, (("n", int, None), ("side", float, None), *_COSTS)),
    "fig1": Kind(
        "adversarial ladder with a designated dominating set", False, (("d", int, None), ("eps", float, None))
    ),
}


def generate(kind: str, params: dict) -> tuple[Instance, frozenset[int] | None]:
    """The ``kind`` instance that ``params`` describe (its ``KINDS`` parameters,
    ``m`` and, if seeded, ``seed``), with a ``fig1`` ladder's designated set or None."""
    if kind == "fig1":
        return gen_fig1(params["d"], params["eps"], m=params["m"])
    costs = (params["cost_lo"], params["cost_hi"])
    if kind == "random":
        return gen_random_connected(params["n"], params["p"], costs, params["seed"], m=params["m"]), None
    return gen_udg(params["n"], params["side"], costs, params["seed"], m=params["m"]), None
