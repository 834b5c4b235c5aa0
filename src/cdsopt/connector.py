"""Phase-2 connectors: merge the components of a dominating set into one.

The main routine repeatedly adds the most cost-efficient *star* (a free
center node plus a subset of its free neighbors).  A star's value is a
capped merge count: the number of components its center touches, minus one,
plus one for each leaf (taken in nondecreasing cost order) that touches at
least one component not already reached by the star so far.  Capping each
leaf's contribution at one is what makes the most efficient star computable
in polynomial time: it is always attained by a prefix of the cheapest
single-component leaves, one per fresh component.

A deliberately weaker baseline adds only single nodes and adjacent pairs;
on the adversarial ladder family its cost grows linearly with the rung
count while the star connector stays near the optimum.

Both connectors run through one driver that keeps a heap of *slots*.  A
slot is a ``(center, partner)`` pair: the star connector has one per free
center, with partner -1, and the baseline has one per free node (its
singleton, partner -1) and one per edge between free nodes, with
``center < partner``.  Valuing a slot (``best_star_at(idx, center)`` or
``pair_candidate(idx, center, partner)``, which read the graph as
``idx.graph``) gives the tuple ``(key, gain, leaves, total_cost)``, or None
when it merges nothing, where the key is ``domination.ratio_key`` of the
gain and total cost: the exact gain/cost order as an integer, the same key
the cover phase uses, computed once per valuation.  The heap holds flat
entries ``(-key, -gain, center, partner, round, leaves, total_cost)``,
where ``round`` counts the picks: a slot is valued at most once a round,
so no two entries of one slot share a round and entries never compare
past it.  An entry is live while both its endpoints are free and its
round is the slot's latest, and the pick pops entries until one is live
and of this round, and builds the round's one ``StarCandidate`` from it.
Adjacency lists are sorted, so on a full tie the singleton comes before
its center's pairs, a pair before the pairs of later neighbors, and a
center before larger ones: the order of ranking each center's candidates
in adjacency order and then the centers by id.

A round changes few values, and raises fewer.  ``best_star_at`` at a free
center c reads three things: c's reach entry (the labels of the components
c touches), ``single[v]`` for each neighbor v of c (-1 for a member), and
the fixed costs; a singleton or pair reads only the reach entries of its
endpoints and whether both are free.  Each add merges the components the
added node touches into one, and over a round's adds ``ComponentIndex.add``
logs R+, the free nodes whose reach entry gained a label (the free
neighbors of an added node that touched none of the components it merged),
and S+, the nodes whose ``single`` entry went from -1 to a label at some
add.  Every other free node's reach entry at the round's end is the image
of its entry before under the round's merges, and every other node whose
``single`` entry holds a label at the round's end held one when the round
began.  The *risers*, the slots whose value can rise this round, are the
slots at a center or endpoint in R+ and the stars at each free neighbor c
of a node x of S+ with ``single[x]`` a label outside ``reach[c]``, both
read at the round's end (a pair reads no ``single`` entry, so one rule
serves both connectors).

The heap keeps one rule, that of Minoux's accelerated greedy: an entry
valued in the current round is its slot's exact value, and an older live
entry ranks no later than its slot's value in the full (key, larger gain,
center, partner) order.  A round values its risers and pops: an older live
entry that reaches the top is revalued and pushed back, and the first live
entry of the round is the pick.  Every other slot's value ranks after its
entry then, so the pick is the exact best and no tie needs draining.  A
slot whose last value was None merged nothing then, and merges nothing now
unless it is a riser.  A value can rise only at a riser, by this proof
that a non-riser's value ranks no earlier after a round than before it, so
the rule, kept by each round, carries over many rounds.

- A pair: its reach union is the image of the old one, so its gain cannot
  grow, and its cost is fixed, so its key cannot rise and an equal key
  means an equal gain.
- A star at c, with reach entry ``near``, eligible leaves E and kept leaves
  ``kept`` before the round and ``near'``, E', ``kept'`` after it.  ``near'``
  is the image of ``near``, so it is no larger.  A leaf v of E' is not in
  S+, since its label lies outside ``near'`` and would make c a riser, so
  ``single[v]`` held a label L before the round.  v still touches L's
  component, so its entry holds the image of L, which is its one label, and
  L in ``near`` would put that image in ``near'``: v was in E.  Distinct new
  labels come from distinct old ones, so any j leaves of ``kept'`` are j
  leaves of E with distinct labels outside ``near``.  ``kept`` takes one
  leaf per label in (cost, id) order, the greedy basis of a partition
  matroid, so its i-th leaf costs no more than the i-th cheapest of any
  such set (Gale): ``kept'`` is no longer than ``kept``, and its i-th leaf
  costs at least ``kept``'s.  (``kept'`` need not be a subset of ``kept``:
  the cheapest leaf of a label can gain a second label and drop out.)
  Rounding is monotone, so each prefix total of ``kept'`` is at least the
  old total of the same length, and its gain ``len(near') - 1 + j`` is at
  most the old ``len(near) - 1 + j``.  So the new best prefix, of length
  j', has a key no larger than the old prefix of length j', which is no
  larger than the old best key.  At an equal key, the old prefix of length
  j' also has the best key, and the old best is the longest prefix at that
  key, so its gain is at least the new one.

A round's work is listing and valuing its risers and revaluing the older
entries that reach the top, so it is not linear in general: a hub whose
reach entry gains a label every round is revalued every round, and a node
of S+ with many free neighbors checks each of them.  The ladder has no such
round, since no round changes its hub's reach entry, so on the ladder the
baseline values its 4d+1 slots in the first round and, in each later round,
only the older entry that tops the heap.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .components import ComponentIndex
from .domination import ratio_key
from .graph import Instance, checked_ids


@dataclass(frozen=True)
class StarCandidate:
    """A center with cost-ordered leaves, its merge value, and total cost."""

    center: int
    leaves: tuple[int, ...]
    gain: int
    total_cost: float

    @property
    def nodes(self) -> tuple[int, ...]:
        return (self.center, *self.leaves)


@dataclass
class ConnectReport:
    """Trace of a connector run: chosen stars and the component counts."""

    method: str
    stars: list[StarCandidate] = field(default_factory=list)
    connectors: set[int] = field(default_factory=set)
    initial_components: int = 1
    component_trace: list[int] = field(default_factory=list)
    valuations: int = 0  # slot values computed, revaluations of older entries at the heap top included
    pops: int = 0  # heap pops: dead entries, older entries revalued at the top, and one pick a round
    dead: int = 0  # popped entries dropped as dead
    candidates: int = 0  # the valuations that returned a candidate


def component_neighbors(idx: ComponentIndex, u: int) -> set[int]:
    """Labels of the distinct components of G[D] adjacent to u (u outside D)."""
    if idx.label[u] >= 0:
        raise ValueError(f"node {u} already in the indexed set")
    return set(idx.reach[u])


def best_star_at(idx: ComponentIndex, u: int) -> tuple | None:
    """Most efficient star centered at u, or None when no star merges anything.

    The star is returned as ``(key, gain, leaves, total_cost)``, with the
    ``ratio_key`` its prefix won by.  Candidate leaves are the free neighbors touching exactly one component
    that u does not already touch: those v with ``idx.single[v]`` set and
    outside ``reach[u]``, since a leaf whose one component the center
    reaches merges nothing.  Scanning them by (cost, id) and keeping only
    those whose component is still fresh, every prefix of the kept list is
    evaluated and the best gain/cost prefix with positive gain is returned,
    ties going to the larger gain.  Some globally optimal star always has
    this one-fresh-component-per-leaf shape, so the prefix scan attains the
    optimum over all leaf subsets.  A call reads ``single`` once per
    neighbor of u and sorts only the leaves with a fresh component: O(deg u)
    reads, plus a sort of the fresh leaves.
    """
    graph = idx.graph
    if not 0 <= u < graph.node_count:
        checked_ids(graph.node_count, (u,))  # raises the range error
    cost = graph.cost
    if idx.label[u] >= 0:
        raise ValueError(f"node {u} already in the indexed set")
    single = idx.single
    near = idx.reach[u]
    shift = graph.key_shift
    eligible: list[tuple[float, int, int]] = []
    for v in graph.adjacency[u]:
        # a member's single entry is -1, so this also skips members
        comp = single[v]
        if comp >= 0 and comp not in near:
            eligible.append((cost[v], v, comp))
    eligible.sort()
    gain = len(near) - 1
    total = cost[u]
    best = (ratio_key(gain, total, shift), 0, gain, total) if gain >= 1 else None  # (key, take, gain, total)
    covered: set[int] = set()
    kept: list[int] = []
    for leaf_cost, v, comp in eligible:
        if comp in covered:
            continue
        kept.append(v)
        covered.add(comp)
        total += leaf_cost
        gain += 1
        if gain < 1:
            continue
        key = ratio_key(gain, total, shift)
        # prefixes grow in gain, so on an equal key the later one wins
        if best is None or key >= best[0]:
            best = (key, len(kept), gain, total)
    if best is None:
        return None
    key, take, gain, total = best
    return key, gain, tuple(kept[:take]), total


def pair_candidate(idx: ComponentIndex, a: int, b: int = -1) -> tuple | None:
    """The singleton a (b == -1) or the free pair (a, b), or None when it merges nothing.

    The candidate is returned as ``(key, gain, leaves, total_cost)``.  Its
    gain is the number of components it touches minus one, so it reads only
    the reach entries of a and b.
    """
    graph = idx.graph
    n = graph.node_count
    if not (0 <= a < n and -1 <= b < n):
        checked_ids(n, (a,) if b == -1 else (a, b))  # raises the range error
    label = idx.label
    reach = idx.reach
    for x in (a, b):
        if x >= 0 and label[x] >= 0:
            raise ValueError(f"node {x} already in the indexed set")
    cost = graph.cost
    if b < 0:
        gain = len(reach[a]) - 1
        leaves = ()
        total = cost[a]
    else:
        gain = len(reach[a] | reach[b]) - 1
        leaves = (b,)
        total = cost[a] + cost[b]
    if gain < 1:
        return None
    return ratio_key(gain, total, graph.key_shift), gain, leaves, total


def _star_slots(idx: ComponentIndex, nodes, singles) -> list[tuple[int, int]]:
    """The star slots at the free nodes of ``nodes`` and at the free centers ``singles`` are leaf candidates of.

    x in ``singles`` is a leaf candidate of a neighbor c when ``single[x]``
    is a label outside ``reach[c]``.
    """
    adjacency = idx.graph.adjacency
    label = idx.label
    reach = idx.reach
    single = idx.single
    centers = set(nodes)
    for x in singles:
        comp = single[x]
        if comp >= 0:
            centers.update([c for c in adjacency[x] if comp not in reach[c]])
    return [(u, -1) for u in centers if label[u] < 0]


def _pair_slots(idx: ComponentIndex, nodes, singles) -> set[tuple[int, int]]:
    """The baseline slots at each free x of ``nodes``: its singleton and its free edges.

    No pair slot reads ``single``, so ``singles`` changes nothing.
    """
    adjacency = idx.graph.adjacency
    label = idx.label
    slots = set()
    for x in nodes:
        if label[x] < 0:
            slots.add((x, -1))
            slots.update((x, y) if x < y else (y, x) for y in adjacency[x] if label[y] < 0)
    return slots


class _CandidateHeap:
    """Each live slot's value or an upper bound on it, popped in the exact ratio order.

    ``pick(slots)`` opens a round, values the given slots, distinct and with
    free endpoints, by ``value(idx, center)`` when the partner is -1 and
    ``value(idx, center, partner)`` otherwise, pushes their entries and
    pops.  ``valued`` maps each slot to the round of its latest entry, so an
    entry is live only while both endpoints are free and its round is its
    slot's latest.  An entry of the current round is its slot's value, and
    the caller keeps each older live entry an upper bound on its slot's
    value in that order.  ``pop`` drops dead entries as they reach the top,
    revalues the slot of an older live one that reaches it, and builds the
    candidate of the first live entry of the round.  Live entries have
    distinct slots, so the pick does not depend on the order of the pushes.
    ``valuations`` counts the value calls, revaluations at the top included,
    ``pops`` the heap pops, ``dead`` the popped entries dropped as dead, and
    ``candidates`` the value calls that returned a candidate.
    """

    def __init__(self, idx: ComponentIndex, value):
        self.idx = idx
        self.value = value
        self.valued: dict[tuple[int, int], int] = {}  # slot -> the round of its latest entry
        self.round = 0
        self.entries: list[tuple] = []
        self.valuations = self.pops = self.dead = self.candidates = 0

    def live(self, entry: tuple) -> bool:
        label = self.idx.label
        center, partner = entry[2], entry[3]
        return (
            label[center] < 0
            and (partner < 0 or label[partner] < 0)
            and self.valued[center, partner] == entry[4]
        )

    def refresh(self, slots) -> None:
        idx = self.idx
        valued = self.valued
        entries = self.entries
        value = self.value
        now = self.round
        count = found = 0
        for slot in slots:
            center, partner = slot
            count += 1
            valued[slot] = now
            val = value(idx, center) if partner < 0 else value(idx, center, partner)
            if val is not None:
                found += 1
                key, gain, leaves, total = val
                heapq.heappush(entries, (-key, -gain, center, partner, now, leaves, total))
        self.valuations += count
        self.candidates += found

    def pick(self, slots) -> StarCandidate | None:
        self.round += 1
        self.refresh(slots)
        return self.pop()

    def pop(self) -> StarCandidate | None:
        entries = self.entries
        while entries:
            entry = heapq.heappop(entries)
            self.pops += 1
            if not self.live(entry):
                self.dead += 1
                continue
            _, neg_gain, center, partner, valued_in, leaves, total = entry
            if valued_in < self.round:
                self.refresh(((center, partner),))
                continue
            return StarCandidate(center=center, leaves=leaves, gain=-neg_gain, total_cost=total)
        return None


def _connect(inst: Instance, dominating_set, method: str, slots_of, value) -> ConnectReport:
    """Add the most efficient candidate until the set is connected.

    ``slots_of(idx, nodes, singles)`` lists the slots with free endpoints
    that read the ``reach`` entry of a node of ``nodes`` or, for a star, the
    stars to whose center the ``single`` entry of a node of ``singles`` is a
    fresh label; ``value(idx, center)`` (partner -1) or ``value(idx, center,
    partner)`` is a slot's value, or None.  Each chosen candidate must merge
    as many components as it promises, so at most (initial components - 1)
    rounds run.  The first round values every slot; a later round values
    the risers of the last round's adds, and the heap revalues any older
    entry that reaches its top.  The input check reads the index: a free
    node with empty reach is undominated.
    """
    idx = ComponentIndex(inst.graph, dominating_set)
    for u, near in enumerate(idx.reach):
        if not near and u not in idx:
            raise ValueError(f"set is not dominating: node {u} has no neighbor inside")
    report = ConnectReport(method=method, initial_components=idx.component_count)
    heap = _CandidateHeap(idx, value)
    # the first round values every slot
    grown, opened = range(inst.graph.node_count), ()
    while idx.component_count > 1:
        best = heap.pick(slots_of(idx, grown, opened))
        if best is None:
            raise RuntimeError(f"{method} connector stalled: no candidate merges components")
        before = idx.component_count
        for node in best.nodes:
            idx.add(node)
            report.connectors.add(node)
        grown, opened = idx.take_changes()
        after = idx.component_count
        if before - after != best.gain:
            raise RuntimeError(
                f"{method} connector: selected candidate promised {best.gain} merges"
                f" but delivered {before - after}"
            )
        report.stars.append(best)
        report.component_trace.append(after)
    report.valuations, report.pops = heap.valuations, heap.pops
    report.dead, report.candidates = heap.dead, heap.candidates
    return report


def greedy_connect(inst: Instance, dominating_set) -> ConnectReport:
    """Connect a dominating set by repeatedly adding the most efficient star."""
    return _connect(inst, dominating_set, "star", _star_slots, best_star_at)


def pairwise_connect(inst: Instance, dominating_set) -> ConnectReport:
    """Baseline connector restricted to single nodes and adjacent pairs.

    Greedy on (components merged)/(cost) over all free singletons and free
    adjacent pairs.  Whenever the current set is dominating and disconnected,
    two nearest components are at most three hops apart, so some candidate
    always merges at least two of them.
    """
    return _connect(inst, dominating_set, "pairwise", _pair_slots, pair_candidate)
