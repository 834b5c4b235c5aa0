r"""Weighted graph instances: data types, validation, and the text file format.

Instance file format (UTF-8, lines starting with '#' are comments):

    cds <n> <edge_count> <m>
    <n whitespace-separated positive node costs>
    coords              (optional block, only for unit-disk instances)
    <x> <y>             (n lines)
    <u> <v>             (edge_count lines, 0 <= u < v < n)

A comment of the form ``# label: <text>`` restores the instance label on
parse; all other comments are ignored.  Canonical serialization sorts edges
lexicographically and prints floats with 17 significant digits, so parse and
serialize round-trip exactly.  ``_edge_text`` is the one writer of edge
lines: ``serialize_instance`` ends its text with them, and the canonical path
below compares a file's tail with them, so every unit-disk file it writes
takes that path.  ``Instance`` checks m >= 1 through ``validate_fold``.

``edge_adjacency`` turns an edge list into sorted neighbour tuples and
rejects out-of-range endpoints, loops and duplicate edges.
``WeightedGraph.from_adjacency`` is the one checker that every graph the
program accepts passes through; ``from_edges`` is ``edge_adjacency``
followed by it.  It checks the node count, the cost values (finite and
positive), finite coordinates, connectivity through ``component_labels``
and, on unit-disk instances, that the neighbour tuples equal
``unit_disk_adjacency``'s, the one place the distance rule is written.
``component_labels`` is the one routine for static connectivity and seeds
``ComponentIndex``: a stack search of a given member set, linear too.
``cut_vertices`` finds the nodes whose removal disconnects the graph, by
one low-link search that keeps its own stack; every connected dominating
set holds them, so the exact CDS search starts with them chosen.
Construction and validation take time linear in the nodes plus the edges
(plus one sort of an unsorted edge list), whatever the degrees and wherever
the points lie.  ``unit_disk_adjacency`` buckets the points into a grid of
half-unit cells and applies the rule only to pairs of nearby cells, a
proven superset of the edges, so it runs in time linear in the points plus
the compared pairs (plus one sort of the occupied cells and of each
neighbour list).  The points of one cell are pairwise adjacent, so the W
pairs that share a cell are all edges and the compared pairs are at most
37W + 18n.  Before the scan, each caller that holds a file's E edges bounds
W by E: the checker rejects a file whose points have fewer neighbours than
cell-mates in one pass over the cells, and the canonical path below refuses
W > E, and an E whose edge lines the text has no room for, so the compared
pairs are at most 37E + 18n, with E bounded by the text's length.

A line ends only at "\n", a "\r" just before it belonging to the line
break (``unify_line_breaks``); a comment runs to the end of its line,
whatever it holds, so no row hides inside a comment.  Each line is stripped
of whitespace at both ends, and a data row that still holds a separator
other than the space and the tab is refused.

``parse_instance`` reads rows on demand, and checks the text's shape first.
It reads the header, the cost row and, on a unit-disk file, the n
coordinate rows, converting each block's values in one C-level pass.  With
finite coordinates, and room after them for the header's E edge lines of at
least four characters each, it computes the rule's adjacency and formats its
canonical edge lines with ``_edge_text``, ``u v`` for u < v in order; if
the text ends with exactly those lines and the lines between the last
coordinate row and them hold no row, only comments and blanks, the
adjacency is the file's.  That path reads the head rows and makes one
string comparison: no edge line is split or read.  Any other file resumes
the row scan where it stopped and reads the edge lines in one pass; only
when that pass fails does it rescan them line by line, to name the first
malformed line, loop or line without ``0 <= u < v < n``.  Both paths end in
``from_adjacency``, which reuses a rule adjacency the first path computed,
so every file gets the same checks in the same order, the rule is computed
at most once and every error names the same line or pair.

``gen_udg`` builds its ``WeightedGraph`` directly; that graph equals the one
``parse_instance`` builds from its text.  Every entry point that takes node
ids raises its range error through ``checked_ids``, so each names the same
bad id.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import eq, itemgetter


class InstanceError(ValueError):
    """Raised for malformed instance text or violated graph invariants."""


def fmt_float(x: float) -> str:
    """Render a float with 17 significant digits (round-trip exact)."""
    return format(x, ".17g")


def ratio_shift(costs: Sequence[float]) -> int:
    """The shift that makes ``ratio_key`` exact for these costs and their sums.

    It is 2*B + 1, where B bounds the numerator bit length of every cost and
    of every float sum of distinct costs (a star's total, in any order).  A
    float x with 0 < x < 2**e has a numerator below 2**max(53, e): below
    2**53 it is at most the 53-bit mantissa, above it x is an integer.  With
    n costs each below 2**e, the exact sum of any of them is below
    2**(e + n.bit_length()), and the rounding of a float sum of fewer than
    2**52 positive terms stays below twice that.
    """
    top = math.frexp(max(costs, default=1.0))[1]
    bound = max(53, top + len(costs).bit_length() + 1)
    return 2 * bound + 1


def left_sum(values):
    """``values`` added left to right from the int 0, as ``sum`` does before 3.12.

    From Python 3.12 ``sum`` compensates float rounding, so its result
    depends on the interpreter; every cost and ratio the reports print is
    summed here instead, so each report is the same on every version.
    """
    total = 0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected simple graph with positive node costs.

    Nodes are dense ids 0..n-1, n being ``len(adjacency)``.  ``adjacency[u]``
    is a sorted tuple of neighbor ids.  ``coords``, when present, are finite
    planar positions and the edge set must be exactly the pairs at Euclidean
    distance <= 1.
    """

    adjacency: tuple[tuple[int, ...], ...]
    cost: tuple[float, ...]
    coords: tuple[tuple[float, float], ...] | None = None

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: list[tuple[int, int]],
        costs: list[float] | tuple[float, ...],
        coords: list[tuple[float, float]] | None = None,
    ) -> "WeightedGraph":
        """Build a graph from an edge list, checking every invariant.

        ``edge_adjacency`` builds sorted, in-range, loop-free, symmetric
        neighbour tuples by construction, and ``from_adjacency`` checks the rest.
        """
        return cls.from_adjacency(edge_adjacency(node_count, edges), costs, coords)

    @classmethod
    def from_adjacency(
        cls,
        adjacency: tuple[tuple[int, ...], ...],
        costs: list[float] | tuple[float, ...],
        coords: list[tuple[float, float]] | None = None,
        rule: tuple[tuple[int, ...], ...] | None = None,
    ) -> "WeightedGraph":
        """The one graph checker: every graph the program accepts passes through it.

        ``adjacency`` holds sorted, in-range, loop-free, symmetric neighbour
        tuples, as ``edge_adjacency`` builds them; the node count is its
        length.  The rest is checked in this order, each failure raising
        InstanceError: the node count, the cost vector's size and values, the
        coordinates' size and values, connectivity and, on unit-disk
        instances, the edge rule.  ``rule``, when given, is
        ``unit_disk_adjacency`` of the coordinates, already computed, so that
        no path computes it twice; when ``adjacency`` is ``rule`` itself, the
        rule holds by construction.
        """
        node_count = len(adjacency)
        cost = tuple(map(float, costs))
        points = tuple((float(x), float(y)) for x, y in coords) if coords is not None else None
        if node_count < 1:
            raise InstanceError("node count must be >= 1")
        if len(cost) != node_count:
            raise InstanceError("cost vector size does not match node count")
        # one C-level pass each decides; the loops only name the first bad node
        if not (all(map(math.isfinite, cost)) and min(cost) > 0):
            for u, c in enumerate(cost):
                if not math.isfinite(c):
                    raise InstanceError(f"malformed cost at node {u}")
                if c <= 0:
                    raise InstanceError(f"non-positive cost at node {u}")
        if points is not None:
            if len(points) != node_count:
                raise InstanceError("coords size does not match node count")
            if not all(map(math.isfinite, chain.from_iterable(points))):
                for u, (x, y) in enumerate(points):
                    if not (math.isfinite(x) and math.isfinite(y)):
                        raise InstanceError(f"malformed coordinate at node {u}")
        if component_labels(adjacency, range(node_count))[1] != 1:
            raise InstanceError("disconnected graph")
        if points is not None and adjacency is not rule:
            cells = _half_cells(points)
            _check_cell_mates(cells, adjacency)
            if rule is None:
                rule = unit_disk_adjacency(points, cells)
            if not all(map(eq, rule, adjacency)):
                # both adjacencies are symmetric, so the smallest pair (i, j) of the
                # edge sets' symmetric difference lies at the first node whose tuples differ
                i = next(i for i, (a, b) in enumerate(zip(rule, adjacency)) if a != b)
                raise _rule_violation(i, min(set(rule[i]) ^ set(adjacency[i])))
        return cls(adjacency=adjacency, cost=cost, coords=points)

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @cached_property
    def key_shift(self) -> int:
        """``ratio_shift`` of the costs: every ``ratio_key`` on this graph uses it."""
        return ratio_shift(self.cost)

    @property
    def max_degree(self) -> int:
        return max(len(nbrs) for nbrs in self.adjacency)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


@dataclass(frozen=True)
class Instance:
    """A problem instance: graph plus the fold requirement m >= 1."""

    graph: WeightedGraph
    m: int
    label: str = ""

    def __post_init__(self) -> None:
        validate_fold(self.m)


def checked_ids(n: int, ids) -> list[int]:
    """The node ids, sorted, after checking that each lies in ``0..n-1``.

    A bad id raises ValueError naming the smallest negative id, else the
    smallest id >= n.
    """
    ids = sorted(ids)
    if ids and (ids[0] < 0 or ids[-1] >= n):
        u = ids[0] if ids[0] < 0 else ids[bisect.bisect_left(ids, n)]
        raise ValueError(f"node id {u} out of range 0..{n - 1}")
    return ids


def component_labels(adjacency, members) -> tuple[list[int], int]:
    """Components of the subgraph induced by ``members``.

    Returns ``(label, count)``.  ``label`` is a flat list over all nodes: -1
    outside the set, otherwise the smallest member of the node's component.
    ``count`` is the number of components.  ``adjacency[u]`` lists the
    neighbors of node u, so the routine also runs on an edge list's
    adjacency before any graph is built.  A member id outside
    ``0..n-1`` raises through ``checked_ids``.
    """
    unseen = -2
    n = len(adjacency)
    label = [-1] * n
    starts = checked_ids(n, members)
    for u in starts:
        label[u] = unseen
    count = 0
    for start in starts:
        if label[start] != unseen:
            continue
        count += 1
        label[start] = start
        stack = [start]
        while stack:
            for v in adjacency[stack.pop()]:
                if label[v] == unseen:
                    label[v] = start
                    stack.append(v)
    return label, count


def cut_vertices(adjacency) -> list[int]:
    """The cut vertices of a graph, in increasing id order.

    A cut vertex is a node whose removal leaves more components.  One
    depth-first search with low-links finds them all in O(n + E) (Hopcroft
    & Tarjan, CACM 1973): ``low[u]`` is the smallest discovery time that
    u's DFS subtree reaches by one edge.  A root is a cut vertex when it has
    two or more children; any other node u is one when some child c has
    ``low[c] >= disc[u]``, since then no edge leaves c's subtree above u.
    The edge back to a parent may lower ``low[c]`` only to ``disc[u]``, so
    it is not skipped.  Each DFS starts at the smallest unreached node.  The
    search keeps its own stack of neighbor iterators and never recurses,
    so its depth is not bounded by the interpreter's recursion limit.
    """
    n = len(adjacency)
    disc = [-1] * n
    low = [0] * n
    cut = [False] * n
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        children = 0
        stack = [(root, iter(adjacency[root]))]
        while stack:
            u, nbrs = stack[-1]
            for v in nbrs:
                if disc[v] < 0:
                    disc[v] = low[v] = clock
                    clock += 1
                    stack.append((v, iter(adjacency[v])))
                    break
                if disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if not stack:
                    continue
                parent = stack[-1][0]
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if parent == root:
                    children += 1
                elif low[u] >= disc[parent]:
                    cut[parent] = True
        cut[root] = children >= 2
    return [u for u in range(n) if cut[u]]


def _cell_gap(k: int) -> float:
    """A lower bound on the distance along one axis between points whose half-unit cells are k apart."""
    return max(abs(k) - 1, 0) / 2


# Half-cell offsets compared with each occupied cell besides itself: the
# forward half of the 37 offsets (dx, dy) with gap(dx)*gap(dx) + gap(dy)*gap(dy) <= 1.
# Every backward offset is the forward offset of the other cell, so each pair
# of cells is compared once.
_FORWARD_CELLS = tuple(
    (dx, dy)
    for dx in range(4)
    for dy in range(-3, 4)
    if (dx, dy) > (0, 0) and _cell_gap(dx) * _cell_gap(dx) + _cell_gap(dy) * _cell_gap(dy) <= 1
)


def _rule_violation(i: int, j: int) -> InstanceError:
    """The error naming a pair on which a file's edges and the unit-disk rule disagree."""
    return InstanceError(f"coords violate the unit-disk edge rule at pair ({min(i, j)}, {max(i, j)})")


def _half_cells(coords) -> dict[tuple[int, int], list[tuple[int, float, float]]]:
    """The points ``(i, x, y)`` grouped by half-unit cell, keyed by
    ``(floor(2x), floor(2y))``; the coordinates must be finite.

    The key is computed as ``2*floor(x) + (x - floor(x) >= 0.5)``, since
    ``2*x`` overflows near 1.7e308.  The difference is exact except for
    -0.5 < x < 0, where it and its rounding are both at least 0.5, so the
    comparison always decides as it would on the exact fractional part.

    Points in one cell are pairwise adjacent: the keys are exact, so each
    axis differs by less than 1/2, and by monotone rounding each rounded
    difference is at most 1/2, its square at most 1/4 and the sum at most
    1/2.
    """
    cells: dict[tuple[int, int], list[tuple[int, float, float]]] = {}
    # one int object per id, shared by every neighbour tuple built from the cells
    for i, (x, y) in enumerate(coords):
        fx, fy = math.floor(x), math.floor(y)
        key = (2 * fx + (x - fx >= 0.5), 2 * fy + (y - fy >= 0.5))
        if key in cells:
            cells[key].append((i, x, y))
        else:
            cells[key] = [(i, x, y)]
    return cells


def _check_cell_mates(cells, declared) -> None:
    """Reject a declared adjacency in which a point has fewer neighbours than cell-mates.

    The points of a cell are pairwise adjacent, so in a valid file every
    point has at least |cell| - 1 neighbours.  If one has fewer,
    InstanceError names the smallest such point and its smallest cell-mate
    missing from its neighbours.  This takes one pass over the cells; if it
    passes, each point has at least |cell| - 1 of the 2E declared
    half-edges, so the same-cell pairs W (see ``unit_disk_adjacency``) are
    at most the E declared edges, and the rule's scan compares at most
    37E + 18n pairs.
    """
    short = [(i, points) for points in cells.values() for i, _, _ in points if len(declared[i]) < len(points) - 1]
    if short:
        i, points = min(short, key=itemgetter(0))
        nbrs = set(declared[i])
        raise _rule_violation(i, min(j for j, _, _ in points if j != i and j not in nbrs))


def unit_disk_adjacency(coords, cells=None) -> tuple[tuple[int, ...], ...]:
    """The unit-disk graph's sorted neighbour tuples: i and j are adjacent iff
    they lie at Euclidean distance <= 1.

    A pair is an edge iff ``sx * sx + sy * sy <= 1.0`` in floats, where
    ``sx = xi - xj`` and ``sy = yi - yj``; there must be at least one point,
    and the coordinates must be finite.  ``cells``, when given, is
    ``_half_cells(coords)``, already computed.
    Each operation is correctly rounded IEEE arithmetic, so the edge set is
    the same on every conforming platform.  Points are bucketed into
    half-unit cells by ``_half_cells`` (Bentley, Stanat and Williams'
    fixed-radius near-neighbour search), and the predicate is evaluated
    only on pairs in the same cell or in cells at an offset from
    ``_FORWARD_CELLS``.  Those pairs are a superset of the edges:

    - Two points whose cells are k apart along an axis differ there by at
      least ``gap(k) = max(|k| - 1, 0) / 2`` exactly; let h = min(gap(k), 2).
      h and h*h are exact floats and rounding is monotone, so the rounded
      difference is at least h in magnitude, its square at least h*h and
      the rounded sum at least ``h(kx)*h(kx) + h(ky)*h(ky)``.  Off the
      stencil ``gap(kx)*gap(kx) + gap(ky)*gap(ky) > 1``, so that sum
      exceeds 1 (h = 2 alone gives 4) and the predicate fails.
    - The stencil needs cells 3 apart: for ``(1.5, 0.0)`` and
      ``(nextafter(0.5, 0.0), 0.0)`` the difference rounds to exactly 1.0,
      an edge whose cells are 3 apart.

    The predicate is symmetric (``fl(a - b) == -fl(b - a)``), so the order
    in which a pair is compared does not matter, and each compared pair is
    less than 2 apart per axis, so far-apart points never overflow a
    square.  Each hit appends j to i's list and i to j's, and each list is
    sorted once.  The 37 cells cover 9.25 square units around a point,
    against 21 for the 5x5 unit-cell stencil without its corners.

    The scan compares at most 37W + 18n pairs, where W = sum of
    |cell|(|cell| - 1)/2 counts the same-cell pairs: each cell meets at
    most 36 others, and |A||B| <= (|A|^2 + |B|^2)/2, so the pairs across
    cells are at most 18 * sum |A|^2 = 18(2W + n).  W can reach
    n(n - 1)/2 on co-located points, so a caller that holds a file's E
    declared edges bounds W by E first, making the scan O(n + E): the
    checker through ``_check_cell_mates``, and ``parse_instance``'s
    canonical path by refusing W > E, after refusing an E whose edge lines
    the text has no room for.
    """
    if cells is None:
        cells = _half_cells(coords)
    # number the cells column by column, leaving room for dy in -3..3 between
    # columns, so that each offset is one integer step that reaches no other cell
    low = min(ky for _, ky in cells)
    width = max(ky for _, ky in cells) - low + 4
    grid = {kx * width + ky - low: points for (kx, ky), points in cells.items()}
    steps = [dx * width + dy for dx, dy in _FORWARD_CELLS]
    neighbors: list[list[int]] = [[] for _ in range(len(coords))]
    # in key order, consecutive cells share most of their stencil, which
    # keeps the points they read in cache on large instances
    for key in sorted(grid):
        points = grid[key]
        # the cell's own points first: each point is compared with the later ones
        near = points.copy()
        for step in steps:
            other = grid.get(key + step)
            if other is not None:
                near += other
        for a, (i, xi, yi) in enumerate(points, 1):
            hits = [j for j, xj, yj in near[a:] if (sx := xi - xj) * sx + (sy := yi - yj) * sy <= 1.0]
            neighbors[i] += hits
            for j in hits:
                neighbors[j].append(i)
    return tuple([tuple(sorted(nbrs)) for nbrs in neighbors])


def _edge_text(adjacency) -> str:
    """The canonical edge lines of a sorted adjacency as one string: each line
    ``u v`` with u < v, in order, preceded by a newline, and a final newline.
    A node with one higher neighbour, as most of a ladder's, writes its line whole."""
    names = list(map(str, range(len(adjacency))))
    parts = []
    for u, nbrs in enumerate(adjacency):
        i = bisect.bisect_right(nbrs, u)
        higher = len(nbrs) - i
        if higher == 1:
            parts.append(f"\n{names[u]} {names[nbrs[i]]}")
        elif higher:
            sep = f"\n{names[u]} "
            parts.append(sep)
            parts.append(sep.join(map(names.__getitem__, nbrs[i:])))
    parts.append("\n")
    return "".join(parts)


def edge_adjacency(node_count: int, edges) -> tuple[tuple[int, ...], ...]:
    """Sorted neighbour tuples of an edge list, rejecting bad edges.

    Each edge is normalised to (min, max) and the list sorted, which is
    linear on the already-sorted edge lines of ``parse_instance``.
    Appending both ends of each pair in that order keeps every list
    sorted: node w first receives its smaller neighbours a
    from the pairs (a, w) in increasing a, then its larger ones from the
    pairs (w, b) in increasing b.  Out-of-range endpoints (named as given),
    loops and duplicate edges raise InstanceError.
    """
    pairs = sorted([e if e[0] <= e[1] else (e[1], e[0]) for e in edges])
    if pairs and (pairs[0][0] < 0 or max(map(itemgetter(1), pairs)) >= node_count):
        u, v = next((u, v) for u, v in edges if not (0 <= u < node_count and 0 <= v < node_count))
        raise InstanceError(f"edge endpoint out of range: {u} {v}")
    neighbors: list[list[int]] = [[] for _ in range(node_count)]
    previous = None
    for pair in pairs:
        if pair == previous:
            raise InstanceError(f"duplicate edge {pair[0]} {pair[1]}")
        u, v = previous = pair
        if u == v:
            raise InstanceError(f"loop edge {u} {u}")
        neighbors[u].append(v)
        neighbors[v].append(u)
    return tuple(map(tuple, neighbors))


def validate_fold(m: int) -> None:
    if m < 1:
        raise InstanceError("fold requirement m must be >= 1")


# The ASCII characters besides the space and the tab at which ``str.split``
# splits a row.  The writer writes none of them, and the line rule drops the
# "\r" of each "\r\n" first, so a "\r" left inside a row is a bare one.
_ODD_SPACES = "\v\f\r\x1c\x1d\x1e\x1f"


def _foreign(token: str) -> bool:
    """Whether a token or row holds a character the writer never writes in a row
    but ``int``, ``float`` or ``str.split`` take: a non-ASCII character (a digit
    or a space), an underscore, or an ASCII separator other than the space and
    the tab."""
    return not token.isascii() or "_" in token or any(c in token for c in _ODD_SPACES)


def unify_line_breaks(text: str) -> str:
    r"""``text`` with each "\r\n" made "\n": a line ends only at "\n", and a "\r"
    just before it belongs to the line break.  ``str.splitlines`` would also
    end a line at other characters, so that a data row could hide in a comment.
    The one-character test is a fast scan; the two-character search is not."""
    return text.replace("\r\n", "\n") if "\r" in text else text


def _take_rows(lines, rows: list[str], label: str) -> str:
    """Append the data rows among ``lines`` to ``rows``; return the label the
    last ``# label:`` comment among them sets, else ``label``.

    Each line is stripped of whitespace at both ends, as ``str.strip`` does.
    An empty line is blank, a line that starts with '#' is a comment, which
    runs to the end of its line whatever it holds, and any other line is a
    data row, in which a separator other than the space and the tab is
    refused by the row checks.
    """
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if line[0] == "#":
            body = line[1:].strip()
            if body.startswith("label:"):
                label = body[len("label:"):].strip()
            continue
        rows.append(line)
    return label


def _read_rows(text: str, start: int, count: int, rows: list[str], label: str) -> tuple[str, int]:
    """Read the lines of ``text`` from offset ``start`` until ``rows`` holds
    ``count`` more data rows or the text ends.  Return the label that the last
    ``# label:`` comment read sets, else ``label``, and the offset of the first
    unread line, past the text once every line is read.

    Each batch of lines is split off in one C-level call.  A line holds at most
    one row, so a batch of the missing count is taken whole.  After blanks or
    comments the batch at least doubles, so that a run of them costs time
    linear in its length, and it is taken a line at a time, to stop at the
    last row it needs.
    """
    target = len(rows) + count
    size = 0
    while start <= len(text) and len(rows) < target:
        missing = target - len(rows)
        size = max(missing, 2 * size)
        lines = text[start:].split("\n", size)
        if size == missing:
            label = _take_rows(lines[:size], rows, label)
            start = len(text) - len(lines[-1]) if len(lines) > size else len(text) + 1
        else:
            for line in lines[:size]:
                start += len(line) + 1
                label = _take_rows((line,), rows, label)
                if len(rows) == target:
                    break
    return label, start


def _coordinates(block: list[str], n: int, foreign: bool) -> list[tuple[float, float]]:
    """The points of a coordinate block that should hold n rows.

    One C-level pass counts each row's values, dropping each row's split as
    it goes, and one split of the joined block converts every value, so no
    per-row list stays alive for the cyclic collector to walk.  Only when a
    row is bad does the scan row by row name the first, as the checks meet
    it in each row: its value count, a foreign character, a value ``float``
    refuses.
    """
    if (
        len(block) == n
        and all(map((2).__eq__, map(len, map(str.split, block))))
        and not (foreign and any(map(_foreign, block)))
    ):
        try:
            values = list(map(float, " ".join(block).split()))
        except ValueError:
            pass
        else:
            return list(zip(values[::2], values[1::2]))
    for row in block:
        pair = row.split()
        if len(pair) != 2:
            raise InstanceError("coords line must hold exactly two values")
        if foreign and _foreign(row):
            raise InstanceError(f"malformed coordinate line {row!r}")
        try:
            float(pair[0]), float(pair[1])
        except ValueError as exc:
            raise InstanceError(f"malformed coordinate {pair!r}") from exc
    raise InstanceError("coords block truncated")


def _canonical_label(text: str, end: int, rule, edge_count: int, label: str) -> str | None:
    """The label of a unit-disk text that holds exactly the rule's edges after
    offset ``end``, where the line after its coordinates starts; else None.

    The rule must have the header's E edges, the text must end with their E
    canonical lines, each preceded by a newline, and the lines between ``end``
    and them must hold no row, only comments and blanks, whose labels count.
    Then those lines are the E rows after the coordinates, since each is a
    row as it stands.
    """
    if sum(map(len, rule)) != 2 * edge_count:
        return None
    tail = _edge_text(rule)
    # the tail's first newline ends the line before it
    start = len(text) - len(tail)
    if start < end - 1 or not text.endswith(tail):
        return None
    between: list[str] = []
    label = _take_rows(text[end:start].split("\n"), between, label)
    return None if between else label


def _reject_edge_lines(block: list[str], edge_count: int, n: int) -> None:
    """Raise the diagnostic for the first bad line of an edge block, else for its truncation."""
    for parts in map(str.split, block):
        if len(parts) != 2:
            raise InstanceError(f"malformed edge line {parts!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InstanceError(f"malformed edge line {parts!r}") from exc
        if u == v:
            raise InstanceError(f"loop edge {u} {v}")
        if not (0 <= u < v < n):
            raise InstanceError(f"edge {u} {v} must satisfy 0 <= u < v < n")
    raise InstanceError(f"expected {edge_count} edge lines, found {len(block)}")


def parse_instance(text: str) -> Instance:
    r"""Parse instance text, validating every invariant.

    Raises InstanceError with a distinct diagnostic for malformed headers,
    non-positive costs, duplicate/loop edges, disconnected graphs, and
    coordinate blocks that contradict the unit-disk edge rule.  A line ends
    only at "\n", a "\r" just before it belonging to the line break.  The
    header, cost, coordinate and edge rows may hold only ASCII, no underscore
    and no separator but the space and the tab, as the writer writes them;
    comments, and so labels, may hold any text.  A file without such a
    character, as most are, skips the row checks.

    Rows are read only as far as they are needed: the header and the cost
    row, then, on a unit-disk file, the n coordinate rows.  Such a file, if
    the text after them has room for the header's E edge lines, is first
    tried against its rule (``_canonical_label``): if the text ends
    with the rule's canonical edge lines and no row lies between the last
    coordinate row and them, the file holds exactly the rule's edges, and no
    edge line is read.  Any other file resumes the row scan where it stopped.
    """
    text = unify_line_breaks(text)
    # str.isascii is O(1) and each "in" test one C-level scan, so a file that
    # passes them, as the writer's do, takes none of the row checks below
    foreign = _foreign(text)
    rows: list[str] = []
    # the header, the cost row and the row that may open a coordinate block
    label, end = _read_rows(text, 0, 3, rows, "")
    if not rows:
        raise InstanceError("malformed header: empty instance")
    head = rows[0].split()
    if len(head) != 4 or head[0] != "cds":
        raise InstanceError("malformed header: expected 'cds <n> <edge_count> <m>'")
    if foreign and _foreign(rows[0]):
        raise InstanceError(f"malformed header: counts must be ASCII digits, found {rows[0]!r}")
    try:
        n, edge_count, m = int(head[1]), int(head[2]), int(head[3])
    except ValueError as exc:
        raise InstanceError("malformed header: counts must be integers") from exc
    if n < 1:
        raise InstanceError("malformed header: node count must be >= 1")
    if edge_count < 0:
        raise InstanceError("malformed header: edge count must be >= 0")
    if m < 1:
        raise InstanceError("malformed header: fold requirement m must be >= 1")

    if len(rows) < 2:
        raise InstanceError("missing cost line")
    cost_tokens = rows[1].split()
    if len(cost_tokens) != n:
        raise InstanceError(f"cost line must hold exactly {n} values, found {len(cost_tokens)}")
    if foreign and _foreign(rows[1]):
        bad = next(filter(_foreign, cost_tokens), None)
        if bad:
            raise InstanceError(f"malformed cost {bad!r}")
        # str.split also splits at separators the writer never writes, so the row may be foreign where no token is
        separator = "a space or a tab" if rows[1].isascii() else "ASCII"
        raise InstanceError(f"malformed cost line: a separator is not {separator}")
    try:
        costs = list(map(float, cost_tokens))
    except ValueError:
        # one C-level pass decides; the loop only names the first bad value
        for tok in cost_tokens:
            try:
                float(tok)
            except ValueError as exc:
                raise InstanceError(f"malformed cost {tok!r}") from exc
        raise

    coords: list[tuple[float, float]] | None = None
    rule = None
    if len(rows) > 2 and rows[2] == "coords":
        label, end = _read_rows(text, end, n, rows, label)
        coords = _coordinates(rows[3:], n, foreign)
        # a unit-disk file whose text ends with its rule's canonical edge lines,
        # with no row between its last coordinate row and them, holds exactly those
        # edges.  Those E lines take at least 4E + 1 characters from the newline
        # that ends the last coordinate row, so a header E that the text cannot
        # hold goes to the row scan, which counts the rows, before any pair is compared
        if len(text) - end >= 4 * edge_count and all(map(math.isfinite, chain.from_iterable(coords))):
            cells = _half_cells(coords)
            # refuse a clump (W > E) before any pair is compared, so that the scan
            # compares at most 37E + 18n pairs; the cell-mate check rejects such a file
            if sum(len(points) * (len(points) - 1) for points in cells.values()) <= 2 * edge_count:
                rule = unit_disk_adjacency(coords, cells)
                canonical = _canonical_label(text, end, rule, edge_count, label)
                if canonical is not None:
                    graph = WeightedGraph.from_adjacency(rule, costs, coords, rule)
                    return Instance(graph=graph, m=m, label=canonical)

    pos = 2 if coords is None else 3 + n
    label = _take_rows(text[end:].split("\n"), rows, label)
    block = rows[pos:pos + edge_count]
    pos += len(block)
    bad = foreign and next(filter(_foreign, block), None)
    if bad:
        raise InstanceError(f"malformed edge line {bad!r}")
    try:
        # a bad line is dropped by the filter or raises, so the count falls short
        edges = [(u, v) for a, b in map(str.split, block) for u, v in [(int(a), int(b))] if 0 <= u < v < n]
    except ValueError:
        edges = []
    if len(edges) != edge_count:
        _reject_edge_lines(block, edge_count, n)
    if pos != len(rows):
        raise InstanceError("trailing content after edge list")

    graph = WeightedGraph.from_adjacency(edge_adjacency(n, edges), costs, coords, rule)
    return Instance(graph=graph, m=m, label=label)


def serialize_instance(inst: Instance) -> str:
    """Canonical text form: label comment, header, costs, coords, and the
    sorted edge lines of ``_edge_text``, which ``parse_instance`` compares."""
    g = inst.graph
    lines: list[str] = []
    if inst.label:
        lines.append(f"# label: {inst.label}")
    lines.append(f"cds {g.node_count} {g.edge_count} {inst.m}")
    lines.append(" ".join(fmt_float(c) for c in g.cost))
    if g.coords is not None:
        lines.append("coords")
        lines.extend(f"{fmt_float(x)} {fmt_float(y)}" for x, y in g.coords)
    return "\n".join(lines) + _edge_text(g.adjacency)
