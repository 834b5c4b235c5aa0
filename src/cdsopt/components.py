"""Insertion-only component labels of an induced subgraph, for the connector.

Static connectivity of a fixed set is ``graph.components``.
"""

from __future__ import annotations

from .graph import WeightedGraph


class ComponentIndex:
    """Connected components of G[D] for a node set D that only ever grows.

    ``label`` is a flat list over all nodes: a member holds the id of a
    representative member of its component, a non-member holds -1.  Two
    members share a label exactly when they are connected inside the
    induced subgraph.  Adding a node merges the components it touches by
    relabeling the smaller ones into the largest, so every member is
    relabeled O(log n) times over the life of the index.
    """

    def __init__(self, graph: WeightedGraph, members=()):
        self._graph = graph
        self.label = [-1] * graph.node_count
        # label -> the members carrying it
        self._components: dict[int, list[int]] = {}
        for u in members:
            self.add(u)

    def __contains__(self, u: int) -> bool:
        return self.label[u] >= 0

    @property
    def component_count(self) -> int:
        return len(self._components)

    def add(self, u: int) -> list[int]:
        """Insert u; return the nodes whose label changed, u first."""
        label = self.label
        if label[u] >= 0:
            raise ValueError(f"node {u} already in the index")
        components = self._components
        touched = {label[v] for v in self._graph.adjacency[u] if label[v] >= 0}
        if not touched:
            label[u] = u
            components[u] = [u]
            return [u]
        # largest component keeps its label; ties go to the smaller label
        target = min(touched, key=lambda r: (-len(components[r]), r))
        label[u] = target
        kept = components[target]
        kept.append(u)
        changed = [u]
        for root in touched:
            if root == target:
                continue
            absorbed = components.pop(root)
            for w in absorbed:
                label[w] = target
            kept.extend(absorbed)
            changed.extend(absorbed)
        return changed
