"""Insertion-only component labels of an induced subgraph, for the connector.

``ComponentIndex`` starts from ``graph.component_labels``, labeling each
component by its smallest member; an ``add`` keeps the largest merged
component's label.  Label values never reach a pick: leaves sort by
``(cost, v)`` with v unique, ``single``, ``covered`` and ``reach[a] |
reach[b]`` compare labels only by identity, and the connector's stale slots
are exact whichever label survives a merge, so the start labels change no
star, pair or trace.
"""

from __future__ import annotations

from .graph import WeightedGraph, checked_ids, component_labels


class ComponentIndex:
    """Connected components of G[D] for a node set D that only ever grows.

    ``graph`` is the graph G the index was built on; the connector's
    valuations read it from here, so an index is never paired with another
    graph.

    ``label`` is a flat list over all nodes: a member holds the id of a
    representative member of its component, a non-member holds -1.  Two
    members share a label exactly when they are connected inside the
    induced subgraph.  Adding a node merges the components it touches by
    relabeling the smaller ones into the largest, so every member is
    relabeled O(log n) times over the life of the index.

    ``reach`` is a flat list of sets over all nodes: the entry of a
    non-member v is ``{label[w] for w in adjacency[v] if w in D}``, the
    labels of the components v is adjacent to, and a member's entry is
    empty.  The constructor builds both from these definitions, and an add
    updates only the free neighbors of relabeled nodes, at O(deg) each.

    ``single`` is a flat list over all nodes: a free node whose ``reach``
    entry holds exactly one label holds that label, and every other node,
    members included, holds -1.  An add recomputes it once for each node
    whose ``reach`` entry it changed and clears u's, so its upkeep is O(1)
    per changed node.

    ``changed``, ``flipped``, ``grown`` and ``opened`` log, over the adds
    since the last ``take_changes()``, the nodes whose ``reach`` entry
    changed, whose ``single`` entry changed, whose ``reach`` entry gained a
    label and whose ``single`` entry changed after being -1 when the log
    began (``add`` says which exactly).  The connector takes them once per
    round: it revalues a star only when its center's ``reach`` entry or a
    neighbor's ``single`` entry changed, and at once only when the center's
    entry gained a label or a neighbor that was no leaf of anything at the
    round's start now holds a label the center does not touch.
    """

    def __init__(self, graph: WeightedGraph, members=()):
        self.graph = graph
        members = sorted(set(members))
        # component_labels rejects an out-of-range member id
        self.label = label = component_labels(graph.adjacency, members)[0]
        self.reach: list[set[int]] = [
            set() if label[v] >= 0 else {label[w] for w in nbrs if label[w] >= 0}
            for v, nbrs in enumerate(graph.adjacency)
        ]
        self.single = [next(iter(near)) if len(near) == 1 else -1 for near in self.reach]
        self.changed: set[int] = set()
        self.flipped: set[int] = set()
        self.grown: set[int] = set()
        self.opened: set[int] = set()
        self._components: dict[int, list[int]] = {}  # label -> its members
        for u in members:
            self._components.setdefault(label[u], []).append(u)

    def __contains__(self, u: int) -> bool:
        return self.label[u] >= 0

    @property
    def component_count(self) -> int:
        return len(self._components)

    def add(self, u: int) -> None:
        """Insert u, logging what it changes into ``changed``, ``flipped``, ``grown`` and ``opened``.

        ``changed`` gains the nodes whose ``reach`` entry changed: the free
        neighbors of every member relabeled into the surviving component
        (each loses the old label) and the free neighbors of u that did not
        yet touch u's component.  A free node outside it holds the same
        ``reach`` entry as before.  ``flipped`` gains u when its ``single``
        entry was a label, and each node of ``changed`` whose ``single``
        entry differs from before the add; every other node holds the same
        ``single`` entry as before.

        ``grown`` gains the part of ``changed`` whose entry gained a label:
        the free neighbors of u that touched none of the merged components.
        Every other node of ``changed`` only had merged labels replaced by
        the surviving one, so its entry is the image of the old one under
        the merge.  ``opened`` gains each node this add puts in ``flipped``
        whose ``single`` entry was -1: so over the log, ``opened`` is the part
        of ``flipped`` whose entry was -1 when the log began, whatever it
        holds now, and a node of ``flipped`` outside it held a label then.
        """
        if not 0 <= u < self.graph.node_count:
            checked_ids(self.graph.node_count, (u,))  # raises the range error
        label = self.label
        if label[u] >= 0:
            raise ValueError(f"node {u} already in the index")
        adjacency = self.graph.adjacency
        reach = self.reach
        single = self.single
        components = self._components
        touched = reach[u]
        reach[u] = set()
        flipped = self.flipped
        grown = self.grown
        opened = self.opened
        if single[u] >= 0:
            flipped.add(u)
        single[u] = -1
        changed: set[int] = set()  # this add's, for its single updates
        if not touched:
            target = u
            label[u] = u
            components[u] = [u]
        else:
            # largest component keeps its label; ties go to the smaller label
            target = min(touched, key=lambda r: (-len(components[r]), r))
            label[u] = target
            kept = components[target]
            kept.append(u)
            for root in touched:
                if root == target:
                    continue
                absorbed = components.pop(root)
                for w in absorbed:
                    label[w] = target
                    for x in adjacency[w]:
                        if label[x] < 0:
                            near = reach[x]
                            near.discard(root)
                            near.add(target)
                            changed.add(x)
                kept.extend(absorbed)
        for x in adjacency[u]:
            if label[x] < 0 and target not in reach[x]:
                reach[x].add(target)
                changed.add(x)
                grown.add(x)
        # every changed entry holds target
        for x in changed:
            now = target if len(reach[x]) == 1 else -1
            was = single[x]
            if was != now:
                single[x] = now
                # the first change since the log began tells its value then
                if x not in flipped:
                    flipped.add(x)
                    if was < 0:
                        opened.add(x)
        if changed:
            self.changed |= changed

    def take_changes(self) -> tuple[set[int], set[int], set[int], set[int]]:
        """``(changed, flipped, grown, opened)`` over the adds since the last call, which start empty again."""
        logged = self.changed, self.flipped, self.grown, self.opened
        self.changed, self.flipped, self.grown, self.opened = set(), set(), set(), set()
        return logged
