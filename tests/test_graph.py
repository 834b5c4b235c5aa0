"""Instance types, file format round-trips, and generator properties."""

import math
import random
import re
import sys
import time
from unittest import mock
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdsopt.generators
import cdsopt.graph
from cdsopt.components import ComponentIndex
from cdsopt.connector import best_star_at, greedy_connect, pair_candidate, pairwise_connect
from cdsopt.cli import main
from cdsopt.domination import DeficitState, coverage_gain
from cdsopt.generators import (
    RANDOM_MAX_PAIRS,
    UDG_MAX_ATTEMPTS,
    UDG_MAX_DRAWN_POINTS,
    UDG_MAX_EXPECTED_EDGES,
    _coin_bits,
    gen_fig1,
    gen_random_connected,
    gen_udg,
)
from cdsopt.graph import (
    Instance,
    InstanceError,
    WeightedGraph,
    component_labels,
    edge_adjacency,
    parse_instance,
    serialize_instance,
    unit_disk_adjacency,
    validate_fold,
)
from cdsopt.solver import solve
from cdsopt.verify import verify_cds, verify_mds
from helpers import (
    bfs_component_count,
    degree,
    edge_list,
    make_instance,
    path_instance,
    reference_gen_random_connected,
    reference_unit_disk_edges,
)

P3_TEXT = "cds 3 2 1\n1 1 1\n0 1\n1 2\n"
BIG = sys.float_info.max


def path_text_with(faults: dict[int, str | None], n: int = 40) -> str:
    """The n-node path's text with edge line k replaced by ``faults[k]``,
    or dropped when that is None; the header still claims n - 1 edges."""
    lines = [f"{i} {i + 1}" for i in range(n - 1)]
    for k, line in sorted(faults.items(), reverse=True):
        if line is None:
            del lines[k]
        else:
            lines[k] = line
    return f"cds {n} {n - 1} 1\n" + " ".join(["1"] * n) + "\n" + "\n".join(lines) + "\n"


# each fault of an edge line, on the first, a middle and the last of 39 lines
BAD_EDGE_LINES = [
    ("5", "malformed edge line \\['5'\\]"),
    ("5 6 7", "malformed edge line \\['5', '6', '7'\\]"),
    ("5 5", "loop edge 5 5"),
    ("6 5", "edge 6 5 must satisfy 0 <= u < v < n"),
    ("5 40", "edge 5 40 must satisfy 0 <= u < v < n"),
]
LATE_EDGE_FAULTS = [
    (path_text_with({k: line}), fragment) for k in (0, 19, 38) for line, fragment in BAD_EDGE_LINES
] + [
    (path_text_with({38: None}), "expected 39 edge lines, found 38"),
    (path_text_with({0: None, 1: None}), "expected 39 edge lines, found 37"),
    # two faults: the earlier line is named, whatever its kind
    (path_text_with({12: "13 12", 30: "x"}), "edge 13 12 must satisfy"),
    (path_text_with({12: "x", 30: "13 12"}), "malformed edge line \\['x'\\]"),
    (path_text_with({3: "7 7", 38: None}), "loop edge 7 7"),
    # a line fault is named before a graph fault on an earlier line
    (path_text_with({1: "0 1", 30: "31 31"}), "loop edge 31 31"),
]

PARSE_DIAGNOSTICS = [
    ("", "malformed header"),
    ("graph 3 2 1\n1 1 1\n0 1\n1 2\n", "malformed header"),
    ("cds 3 2\n1 1 1\n0 1\n1 2\n", "malformed header"),
    ("cds 3 2 0\n1 1 1\n0 1\n1 2\n", "m must be >= 1"),
    ("cds 3 x 1\n1 1 1\n0 1\n1 2\n", "malformed header: counts must be integers"),
    ("cds 3 -1 1\n1 1 1\n", "malformed header: edge count must be >= 0"),
    ("cds 3 2 1\n", "missing cost line"),
    ("cds 3 2 1\n1 abc 1\n0 1\n1 2\n", "malformed cost 'abc'"),
    ("cds 2 1 1\n1 1\ncoords\n0 0\n", "coords block truncated"),
    ("cds 2 1 1\n1 1\ncoords\n0 0 0\n1 0\n0 1\n", "coords line must hold exactly two values"),
    ("cds 3 2 1\n1 1 1\n0 1 2\n1 2\n", "malformed edge line \\['0', '1', '2'\\]"),
    ("cds 3 2 1\n1 1 1\n0 x\n1 2\n", "malformed edge line \\['0', 'x'\\]"),
    ("cds 0 0 1\n\n", "node count"),
    ("cds 3 2 1\n1 0 1\n0 1\n1 2\n", "non-positive cost"),
    ("cds 3 2 1\n1 -2 1\n0 1\n1 2\n", "non-positive cost"),
    ("cds 3 2 1\n1 nan 1\n0 1\n1 2\n", "malformed cost"),
    ("cds 3 2 1\n1 inf 1\n0 1\n1 2\n", "malformed cost"),
    ("cds 3 2 1\n1 1\n0 1\n1 2\n", "cost line"),
    ("cds 3 2 1\n1 1 1\n0 1\n0 1\n", "duplicate edge"),
    ("cds 3 2 1\n1 1 1\n1 1\n0 2\n", "loop edge"),
    ("cds 3 2 1\n1 1 1\n1 0\n1 2\n", "0 <= u < v < n"),
    ("cds 3 2 1\n1 1 1\n0 1\n1 3\n", "0 <= u < v < n"),
    ("cds 3 1 1\n1 1 1\n0 1\n", "disconnected graph"),
    ("cds 3 2 1\n1 1 1\n0 1\n", "expected 2 edge lines"),
    ("cds 3 2 1\n1 1 1\n0 1\n1 2\n0 2\n", "trailing content"),
    ("cds 1 0 1\n1\ncoords\nx 0\n", "malformed coordinate \\['x', '0'\\]"),
    ("cds 1 0 1\n1\ncoords\nnan 0\n", "malformed coordinate at node 0"),
    ("cds 2 1 1\n1 1\ncoords\n0 0\n0 -inf\n0 1\n", "malformed coordinate at node 1"),
    *LATE_EDGE_FAULTS,
]

COORDINATE_FILE_ORDER = [
    # each row also breaks a later check, so the earlier one must speak:
    # a malformed edge line and a bad cost
    ("cds 2 1 1\n1 -1\ncoords\n0 0\n0.5 0\n0 x\n", "malformed edge line ['0', 'x']"),
    # trailing content and a bad coordinate
    ("cds 2 1 1\n1 1\ncoords\n0 0\ninf 0\n0 1\n5 5\n", "trailing content after edge list"),
    # a duplicate edge and a bad cost
    ("cds 3 2 1\n1 -1 1\ncoords\n0 0\n0.5 0\n1 0\n0 1\n0 1\n", "duplicate edge 0 1"),
    # the rule's own edge lines, a bad cost and a disconnected graph
    ("cds 3 1 1\n1 0 1\ncoords\n0 0\n0.5 0\n5 0\n0 1\n", "non-positive cost at node 1"),
    # a bad coordinate and a disconnected graph
    ("cds 2 0 1\n1 1\ncoords\n0 0\nnan 0\n", "malformed coordinate at node 1"),
    # a disconnected graph and a wrong rule
    ("cds 3 1 1\n1 1 1\ncoords\n0 0\n2 0\n5 0\n0 1\n", "disconnected graph"),
]
# every cost and coordinate fault: an ASCII file converts each block in one
# pass, while a file with a non-ASCII comment checks the rows one by one
COST_AND_COORDINATE_FAULTS = [
    (text, fragment) for text, fragment in PARSE_DIAGNOSTICS if "cost" in fragment or "coord" in fragment
] + [(text, re.escape(message)) for text, message in COORDINATE_FILE_ORDER]


class TestParse:
    def test_p3(self):
        inst = parse_instance(P3_TEXT)
        assert inst.graph.node_count == 3
        assert inst.graph.edge_count == 2
        assert inst.m == 1
        assert inst.graph.adjacency == ((1,), (0, 2), (1,))

    def test_accepts_comments(self):
        text = "# a comment\n" + P3_TEXT
        inst = parse_instance(text)
        assert inst.graph.node_count == 3
        assert inst.label == ""

    def test_label_comment_restored(self):
        inst = parse_instance("# label: tiny path\n" + P3_TEXT)
        assert inst.label == "tiny path"

    @pytest.mark.parametrize("text,fragment", PARSE_DIAGNOSTICS)
    def test_diagnostics(self, text, fragment):
        with pytest.raises(InstanceError, match=fragment.replace("(", "\\(")):
            parse_instance(text)

    @pytest.mark.parametrize("text,fragment", COST_AND_COORDINATE_FAULTS)
    def test_cost_and_coordinate_faults_on_both_paths(self, text, fragment):
        """The bulk conversion of an ASCII file and the row checks of a file with a
        non-ASCII comment, first or after four lines (inside a coordinate block),
        give the same message, naming the same row or node."""
        assert text.isascii()
        lines = text.split("\n")
        lines.insert(min(4, len(lines) - 1), "# caf\u00e9")
        messages = []
        for variant in (text, "# r\u00e9seau\n" + text, "\n".join(lines)):
            with pytest.raises(InstanceError, match=fragment.replace("(", "\\(")) as err:
                parse_instance(variant)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == messages[2]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("cds 3 2 1_0\n1 1 1\n0 1\n1 2\n", "malformed header: counts must be ASCII digits, found 'cds 3 2 1_0'"),
            ("cds\u30003 2 1\n1 1 1\n0 1\n1 2\n", "malformed header: counts must be ASCII digits"),
            ("cds 3 2 1\n1 1 \u0661\n0 1\n1 2\n", "malformed cost '\u0661'"),
            ("cds 3 2 1\n1\u30001 1\n0 1\n1 2\n", "malformed cost line: a separator is not ASCII"),
            ("cds 2 1 1\n1 1\ncoords\n0 0\n0.5 0_0\n0 1\n", "malformed coordinate line '0.5 0_0'"),
            ("cds 3 2 1\n1 1 1\n0 1\n1 \uff12\n", "malformed edge line '1 \uff12'"),
            ("cds 3 2 1\n1 1 1\n0 1\n1 0_2\n", "malformed edge line '1 0_2'"),
        ],
        ids=["header-underscore", "header-space", "cost-digit", "cost-space", "coordinate", "edge-digit", "edge-underscore"],
    )
    def test_numbers_the_writer_never_writes(self, text, message):
        """A data row with a non-ASCII character or an underscore is refused, although int or float takes it."""
        with pytest.raises(InstanceError) as err:
            parse_instance(text)
        assert str(err.value).startswith(message)

    def test_comments_hold_any_text(self):
        inst = parse_instance("# caf\u00e9 \u2014 1_0\n# label: r\u00e9seau_1\n" + P3_TEXT)
        assert inst == parse_instance(P3_TEXT.replace("cds", "# label: r\u00e9seau_1\ncds"))
        assert inst.label == "r\u00e9seau_1"

    def test_udg_rule_enforced(self):
        # nodes 2 apart claiming an edge
        bad = "cds 2 1 1\n1 1\ncoords\n0 0\n2 0\n0 1\n"
        with pytest.raises(InstanceError, match=r"unit-disk edge rule at pair \(0, 1\)"):
            parse_instance(bad)
        # nodes within distance 1 but edge missing: also disconnected, so use 3 nodes
        bad2 = "cds 3 2 1\n1 1 1\ncoords\n0 0\n0.5 0\n1 0\n0 1\n1 2\n"
        with pytest.raises(InstanceError, match=r"unit-disk edge rule at pair \(0, 2\)"):
            parse_instance(bad2)
        # two disagreements, (0, 2) missing and (2, 3) too long: the first is named
        bad3 = "cds 4 3 1\n1 1 1 1\ncoords\n0 0\n0.5 0\n1 0\n5 0\n0 1\n1 2\n2 3\n"
        with pytest.raises(InstanceError, match=r"unit-disk edge rule at pair \(0, 2\)"):
            parse_instance(bad3)
        # points 1e200 apart: no overflow, the claimed edge is named
        far = "cds 2 1 1\n1 1\ncoords\n0 0\n1e200 0\n0 1\n"
        with pytest.raises(InstanceError, match=r"unit-disk edge rule at pair \(0, 1\)"):
            parse_instance(far)

    def test_udg_rule_accepts_exact_graph(self):
        text = "cds 3 3 1\n1 1 1\ncoords\n0 0\n0.5 0\n1 0\n0 1\n0 2\n1 2\n"
        inst = parse_instance(text)
        assert inst.graph.coords is not None
        assert parse_instance(serialize_instance(inst)) == inst


class TestSerialize:
    def test_k2_canonical_text(self):
        inst = make_instance(2, [(0, 1)], costs=[1.0, 2.0], m=1)
        assert serialize_instance(inst) == "cds 2 1 1\n1 2\n0 1\n"

    def test_roundtrip_fig1(self):
        inst, _ = gen_fig1(3, 0.01)
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_roundtrip_random_20(self):
        inst = gen_random_connected(20, 0.2, (0.5, 3.5), seed=11)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text

    def test_edge_order_does_not_matter(self):
        base = gen_random_connected(12, 0.3, (0.1, 10.0), seed=3)
        text = serialize_instance(base)
        lines = text.splitlines()
        header_end = 2 + (1 if base.label else 0)
        edges = lines[header_end:]
        rng = random.Random(0)
        rng.shuffle(edges)
        shuffled = "\n".join(lines[:header_end] + edges) + "\n"
        assert serialize_instance(parse_instance(shuffled)) == text

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 18), p=st.floats(0.1, 1.0), seed=st.integers(0, 10**6), m=st.integers(1, 3))
    def test_roundtrip_property(self, n, p, seed, m):
        inst = gen_random_connected(n, p, (0.1, 10.0), seed=seed, m=m)
        assert parse_instance(serialize_instance(inst)) == inst


# a small unit-disk file whose rows are, in order, the header, the cost row,
# "coords", three coordinate rows and two edge rows
UDG_P3_TEXT = "cds 3 2 1\n1 1 1\ncoords\n0 0\n0.75 0\n1.5 0\n0 1\n1 2\n"
# the characters at which str.splitlines ends a line besides "\n", and at which
# str.split splits a row besides the space and the tab
ODD_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\r", "\x85", "\u2028", "\u2029"]
ODD_BREAK_IDS = [f"U+{ord(c):04X}" for c in ODD_BREAKS]


class TestLineRule:
    """A line ends only at "\n", a "\r" just before it belonging to the line
    break; a comment runs to the end of its line, and a data row that holds any
    other line break or separator is refused."""

    @pytest.mark.parametrize("odd", ODD_BREAKS, ids=ODD_BREAK_IDS)
    def test_comment_hides_no_header(self, odd, tmp_path, capsys):
        # the header after the odd break is part of the comment, so "1 1 1" is read as the header
        text = f"# x{odd}cds 3 2 1\n1 1 1\n0 1\n1 2\n"
        with pytest.raises(InstanceError, match="^malformed header: expected"):
            parse_instance(text)
        path = tmp_path / "hidden.cds"
        path.write_bytes(text.encode("utf-8"))
        assert main(["solve", str(path), "--no-timing"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: malformed header")

    @pytest.mark.parametrize(
        "inst",
        [gen_udg(30, 4.0, (0.1, 10.0), seed=1), gen_random_connected(12, 0.3, (0.1, 10.0), seed=3), gen_fig1(3, 0.01)[0]],
        ids=["udg", "random", "fig1"],
    )
    def test_crlf_file_parses_as_its_lf_copy(self, inst, tmp_path, capsys):
        text = serialize_instance(inst)
        assert parse_instance(text.replace("\n", "\r\n")) == parse_instance(text) == inst
        reports = []
        for name, data in [("lf.cds", text), ("crlf.cds", text.replace("\n", "\r\n"))]:
            path = tmp_path / name
            path.write_bytes(data.encode("utf-8"))
            assert main(["solve", str(path), "--no-timing"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("odd", ODD_BREAKS, ids=ODD_BREAK_IDS)
    @pytest.mark.parametrize(
        "row, message",
        [
            (0, "malformed header: counts must be ASCII digits, found {row!r}"),
            (1, "malformed cost line: a separator is not {kind}"),
            (4, "malformed coordinate line {row!r}"),
            (7, "malformed edge line {row!r}"),
        ],
        ids=["header", "cost", "coordinate", "edge"],
    )
    def test_odd_break_in_a_data_row_is_refused(self, odd, row, message):
        lines = UDG_P3_TEXT.split("\n")
        lines[row] = lines[row].replace(" ", odd, 1)
        kind = "a space or a tab" if odd.isascii() else "ASCII"
        with pytest.raises(InstanceError) as err:
            parse_instance("\n".join(lines))
        assert str(err.value) == message.format(row=lines[row], kind=kind)

    @pytest.mark.parametrize("space", ODD_BREAKS + ["\u00a0", "\u3000"], ids=ODD_BREAK_IDS + ["U+00A0", "U+3000"])
    def test_whitespace_at_a_line_end_is_stripped(self, space):
        # a blank line of it, a comment indented with it and rows ending in it read
        # as without it, as str.strip takes it off each line
        rows = UDG_P3_TEXT.split("\n")[:-1]
        text = "\n".join([space, f"{space}# label: x", *(row + space for row in rows)]) + "\n"
        parsed = parse_instance(text)
        assert parsed.graph == parse_instance(UDG_P3_TEXT).graph
        assert parsed.label == "x"

    @pytest.mark.parametrize("odd", ODD_BREAKS, ids=ODD_BREAK_IDS)
    def test_odd_break_in_a_comment_is_part_of_it(self, odd):
        text = f"# label: a{odd}cds 9 9 9\n# {odd}1 2\n" + UDG_P3_TEXT.replace("0 1\n", f"0 1\n# {odd}0 2\n")
        inst = parse_instance(text)
        assert inst.graph == parse_instance(UDG_P3_TEXT).graph
        assert inst.label == f"a{odd}cds 9 9 9"

    def test_designated_set_is_found_by_the_line_rule(self, tmp_path, capsys):
        inst, designated = gen_fig1(2, 0.01)
        ids = " ".join(map(str, sorted(designated)))
        base = serialize_instance(inst)
        reports = []
        for text in [
            f"# designated-ds: {ids}\n" + base,
            f"# designated-ds: {ids}\r\n" + base.replace("\n", "\r\n"),
            # a comment indented with any whitespace, as the parser strips each line
            f"\u3000# designated-ds: {ids}\n" + base,
        ]:
            path = tmp_path / "ladder.cds"
            path.write_bytes(text.encode("utf-8"))
            assert main(["solve", str(path), "--given-ds", "--no-timing"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] == reports[2]
        # a designated-ds comment after a \x1c is part of the comment before it
        path.write_text(f"# x\x1c# designated-ds: {ids}\n" + base, encoding="utf-8")
        assert main(["solve", str(path), "--given-ds", "--no-timing"]) == 2
        assert "carries no '# designated-ds:' comment" in capsys.readouterr().err


def generated(kind: str, size: int, seed: int) -> Instance:
    """A small instance of a generator kind; ``size`` is 0..19."""
    if kind == "udg":
        n = size + 1
        return gen_udg(n, min(3.0, 0.7 * math.sqrt(n) + 0.5), (0.1, 10.0), seed=seed, m=1 + seed % 3)
    if kind == "random":
        return gen_random_connected(size + 1, 0.3, (0.1, 10.0), seed=seed, m=1 + seed % 3)
    return gen_fig1(1 + size % 4, 0.01)[0]


class TestCommentsAnywhere:
    """Comment, blank and label lines inserted at line boundaries of the writer's
    text leave the graph as it was, and the last label wins.  A unit-disk file
    keeps the canonical path while every insertion lies before its first edge
    line; one among or after its edge lines sends it to the resumed row scan."""

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["udg", "random", "fig1"]),
        size=st.integers(0, 19),
        seed=st.integers(0, 10**6),
        crlf=st.booleans(),
        data=st.data(),
    )
    def test_inserted_lines_keep_the_graph(self, kind, size, seed, crlf, data):
        inst = generated(kind, size, seed)
        body = serialize_instance(inst).split("\n")[:-1]
        first_edge = len(body) - inst.graph.edge_count
        spots = st.one_of(
            st.just(first_edge),  # between the coordinates (or costs) and the edges
            st.integers(first_edge, len(body)),  # among the edges, or after the last
            st.integers(0, len(body)),
        )
        filler = st.one_of(
            st.sampled_from(["", "   ", "\t", "#", "# a comment", "  # indented", "# caf\u00e9 1_0 \x1c \u2028"]),
            st.text(st.characters(blacklist_characters="\n\r"), max_size=8).map(lambda t: "# label: " + t),
        )
        inserts = data.draw(st.lists(st.tuples(spots, filler), min_size=1, max_size=4))
        lines = body.copy()
        # from the last spot back, so each spot indexes the writer's lines
        for spot, line in sorted(inserts, key=lambda pair: pair[0], reverse=True):
            lines.insert(spot, line)
        text = ("\r\n" if crlf else "\n").join(lines) + "\n"
        label = next((line[len("# label:"):].strip() for line in reversed(lines) if line.startswith("# label:")), "")
        canonical = kind == "udg" and all(spot <= first_edge for spot, _ in inserts)
        with mock.patch.object(cdsopt.graph, "edge_adjacency", wraps=cdsopt.graph.edge_adjacency) as spy:
            parsed = parse_instance(text)
        assert parsed == Instance(inst.graph, inst.m, label)
        assert spy.call_count == (0 if canonical else 1)


def edge_probs():
    """Edge probabilities, weighted towards the byte filter's edges: k/256
    and its neighbouring floats, 1.0 and tiny values."""
    cuts = st.integers(1, 256).map(lambda k: k / 256)
    return st.one_of(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        cuts,
        cuts.map(lambda q: math.nextafter(q, 0.0)),
        cuts.filter(lambda q: q < 1.0).map(lambda q: math.nextafter(q, 1.0)),
        st.sampled_from([1.0, 5e-324, 1e-300, 1e-9, 2**-53, math.nextafter(2**-53, 1.0)]),
    )


class TestRandomGenerator:
    def test_single_node(self):
        inst = gen_random_connected(1, 0.5, (1.0, 1.0), seed=0)
        assert inst.graph.node_count == 1
        assert inst.graph.edge_count == 0
        assert parse_instance(serialize_instance(inst)) == inst

    def test_deterministic(self):
        a = gen_random_connected(12, 0.3, (0.1, 10.0), seed=7)
        b = gen_random_connected(12, 0.3, (0.1, 10.0), seed=7)
        assert serialize_instance(a) == serialize_instance(b)

    def test_validator_passes(self):
        inst = gen_random_connected(12, 0.3, (0.1, 10.0), seed=7)
        assert parse_instance(serialize_instance(inst)) == inst

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 25), p=st.floats(0.05, 1.0), seed=st.integers(0, 10**6))
    def test_always_valid(self, n, p, seed):
        inst = gen_random_connected(n, p, (0.1, 10.0), seed=seed)
        assert parse_instance(serialize_instance(inst)) == inst

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 120), p=edge_probs(), seed=st.integers(0, 10**6), m=st.integers(1, 3))
    def test_matches_per_pair_reference(self, n, p, seed, m):
        inst = gen_random_connected(n, p, (0.1, 10.0), seed, m=m)
        expected = reference_gen_random_connected(n, p, (0.1, 10.0), seed, m=m)
        assert serialize_instance(inst) == serialize_instance(expected)

    @pytest.mark.parametrize("k", [1, 2, 7, 2000])
    def test_bulk_bits_are_the_random_stream(self, k):
        # the bulk coins rely on CPython's word layout: if an interpreter
        # changes it, this fails instead of the seeded corpora changing
        bulk, calls = random.Random(k), random.Random(k)
        data = bulk.getrandbits(64 * k).to_bytes(8 * k, "little")
        values = [calls.random() for _ in range(k)]
        assert [_coin_bits(data, j) / 2**53 for j in range(k)] == values
        assert [data[8 * j + 3] for j in range(k)] == [int(x * 256) for x in values]
        assert bulk.getstate() == calls.getstate()

    def test_pair_cap_boundary(self):
        # n = 20,000 is the largest n under the cap; the cap is checked before the
        # fold, so at the cap the fold check speaks, and past it no coin is drawn
        n = 20_000
        assert n * (n - 1) // 2 <= RANDOM_MAX_PAIRS < (n + 1) * n // 2
        with pytest.raises(InstanceError, match="^fold requirement m must be >= 1$"):
            gen_random_connected(n, 3 / n, (1.0, 2.0), seed=0, m=0)
        message = f"^n = {n + 1} draws a coin for each of n\\(n-1\\)/2 pairs, more than 200,000,000$"
        with pytest.raises(InstanceError, match=message):
            gen_random_connected(n + 1, 3 / n, (1.0, 2.0), seed=0)

    def test_edge_cap_boundary(self):
        # the expected edge count (n - 1) + p*(n(n-1)/2 - (n - 1)) is compared
        # exactly, before the fold and before any coin is drawn
        message = r"edges, more than 5,000,000$"
        # p = 1 makes every pair an edge: n = 3,162 is the largest complete graph under the cap
        n = 3_162
        assert n * (n - 1) // 2 <= UDG_MAX_EXPECTED_EDGES < (n + 1) * n // 2
        with pytest.raises(InstanceError, match="^fold requirement m must be >= 1$"):
            gen_random_connected(n, 1.0, (1.0, 2.0), seed=0, m=0)
        with pytest.raises(InstanceError, match=f"^n = {n + 1} at p = 1 makes about 5,000,703 " + message):
            gen_random_connected(n + 1, 1.0, (1.0, 2.0), seed=0, m=0)
        # at the pair cap's n, the floats on either side of the exact p at the cap
        n = 20_000
        extra = n * (n - 1) // 2 - (n - 1)
        exact = Fraction(UDG_MAX_EXPECTED_EDGES - (n - 1), extra)
        below = float(exact)
        if Fraction(below) > exact:
            below = math.nextafter(below, 0.0)
        above = math.nextafter(below, 1.0)
        assert Fraction(below) <= exact < Fraction(above)
        with pytest.raises(InstanceError, match="^fold requirement m must be >= 1$"):
            gen_random_connected(n, below, (1.0, 2.0), seed=0, m=0)
        for p in (above, 1.0):
            with pytest.raises(InstanceError, match=message):
                gen_random_connected(n, p, (1.0, 2.0), seed=0, m=0)

    def test_parameter_checks(self):
        with pytest.raises(InstanceError):
            gen_random_connected(0, 0.5, (1.0, 2.0), seed=0)
        with pytest.raises(InstanceError):
            gen_random_connected(5, 0.0, (1.0, 2.0), seed=0)
        with pytest.raises(InstanceError):
            gen_random_connected(5, 0.5, (0.0, 2.0), seed=0)


@st.composite
def udg_shapes(draw):
    """(n, side) pairs up to sides that often take dozens of point sets to connect."""
    n = draw(st.integers(1, 60))
    return n, draw(st.floats(0.1, 0.7 * math.sqrt(n) + 0.5))


def cost_ranges():
    """Cost ranges 0 < lo <= hi < inf, weighted towards lo == hi, the
    smallest subnormal lo and the largest finite hi."""
    ends = st.one_of(st.floats(min_value=5e-324, max_value=sys.float_info.max), st.sampled_from([5e-324, sys.float_info.max]))
    return st.one_of(ends.map(lambda c: (c, c)), st.tuples(ends, ends).map(lambda pair: tuple(sorted(pair))))


class TestUdgGenerator:
    def test_two_close_nodes_always_adjacent(self):
        for seed in range(10):
            inst = gen_udg(2, 0.5, (1.0, 1.0), seed=seed)
            assert inst.graph.edge_count == 1

    def test_edges_match_all_pairs_distance_check(self):
        inst = gen_udg(50, 6.0, (0.1, 10.0), seed=4)
        g = inst.graph
        pts = g.coords
        expected = {
            (i, j)
            for i in range(50)
            for j in range(i + 1, 50)
            if (sx := pts[i][0] - pts[j][0]) * sx + (sy := pts[i][1] - pts[j][1]) * sy <= 1.0
        }
        assert set(edge_list(g)) == expected

    def test_deterministic(self):
        a = gen_udg(30, 4.0, (0.1, 10.0), seed=1)
        b = gen_udg(30, 4.0, (0.1, 10.0), seed=1)
        assert a.graph.coords == b.graph.coords
        assert serialize_instance(a) == serialize_instance(b)

    def test_retry_budget_error(self, monkeypatch):
        # two nodes far apart with a tiny retry budget cannot connect
        monkeypatch.setattr(cdsopt.generators, "UDG_MAX_ATTEMPTS", 3)
        message = r"^could not generate connected UDG after 3 attempts, the cap for n = 12 \(at most 3 attempts and 1,000,000 drawn points\)$"
        with pytest.raises(InstanceError, match=message):
            gen_udg(12, 50.0, (1.0, 1.0), seed=0)

    def test_validator_passes(self):
        inst = gen_udg(30, 4.0, (0.1, 10.0), seed=1)
        assert parse_instance(serialize_instance(inst)) == inst

    @settings(max_examples=60, deadline=None)
    @given(shape=udg_shapes(), costs=cost_ranges(), seed=st.integers(0, 10**6), m=st.integers(1, 3))
    # seeds that need 4 and 32 point sets
    @example(shape=(30, 4.0), costs=(0.1, 10.0), seed=1, m=1)
    @example(shape=(12, 4.0), costs=(5e-324, 5e-324), seed=3, m=3)
    def test_valid_by_construction(self, shape, costs, seed, m):
        # gen_udg builds its graph without from_edges, so the graph must equal the
        # one the checker builds from its canonical text
        n, side = shape
        inst = gen_udg(n, side, costs, seed, m=m)
        assert parse_instance(serialize_instance(inst)) == inst

    @pytest.mark.parametrize("side", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_side(self, side):
        with pytest.raises(InstanceError, match="side must be finite and positive"):
            gen_udg(1, side, (1.0, 1.0), seed=0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(InstanceError, match="^n must be >= 1$"):
            gen_udg(0, 1.0, (1.0, 1.0), 0)

    def test_edge_cap_boundary(self):
        # the side at which pi * n^2 / (2 * side^2) meets the cap, for n = 10^5;
        # the cap is checked before the fold, so an admitted request meets the fold check
        n = 100_000
        side = math.sqrt(math.pi * n * n / (2 * UDG_MAX_EXPECTED_EDGES))
        admitted = [(n, side * (1 + 1e-12)), (n, 111.8), (3, 1e-300)]
        for size, width in admitted:
            with pytest.raises(InstanceError, match="^fold requirement m must be >= 1$"):
                gen_udg(size, width, (1.0, 1.0), seed=0, m=0)
        rejected = [(n, side * (1 - 1e-12)), (n, 1.0), (UDG_MAX_EXPECTED_EDGES + 1, 1e-300), (10**400, 1e-300)]
        for size, width in rejected:
            with pytest.raises(InstanceError, match=r"edges, more than 5,000,000$"):
                gen_udg(size, width, (1.0, 1.0), seed=0, m=0)

    def test_node_count_cap_boundary(self):
        # a connected graph on n points has at least n - 1 edges, so n - 1 above
        # the cap is refused however sparse the square, before any point is drawn
        cap = UDG_MAX_EXPECTED_EDGES
        with pytest.raises(InstanceError, match="^fold requirement m must be >= 1$"):
            gen_udg(cap + 1, 1e308, (1.0, 1.0), seed=0, m=0)
        for size in (cap + 2, 10**12, 10**310):
            with pytest.raises(InstanceError, match=r"at least n - 1 edges, more than 5,000,000$"):
                gen_udg(size, 1e308, (1.0, 1.0), seed=0, m=0)


def _nudge(v: float, steps: int) -> float:
    """``v`` moved ``steps`` floats up (positive) or down (negative)."""
    for _ in range(abs(steps)):
        v = math.nextafter(v, math.inf if steps > 0 else -math.inf)
    return v


# (x, y, edge): (0, 0) and (x, y) are within an ulp of distance 1, and
# x ** 2 != x * x on x86-64 Linux with glibc (Python 3.11.7), so squaring by
# pow and by multiplication decide the pair differently; edge is the
# decision of x * x + y * y <= 1.0.  Found by a seeded search (random.Random(2026),
# x uniform in [0, 1), y a few floats around sqrt(1 - x * x)).
POW_SENSITIVE_PAIRS = [
    (0.8677057107638032, 0.4970782629605555, True),
    (0.5751751233032123, 0.8180303035542966, True),
    (0.8724813330755572, 0.4886474428815715, False),
    (0.9058408730894515, 0.4236181212372062, False),
]


@st.composite
def tricky_points(draw):
    """Point sets that sit on the unit-disk rule's rounding edges.

    Base points lie within 1e-3, 1 or 4 of the origin, or on multiples of
    1/2, and may include the origin and a point of ``POW_SENSITIVE_PAIRS``;
    derived points are a base point moved by -1, -1/2, 0, +1/2 or +1 per
    axis and then a few floats either way, so distances of one ulp around 1
    (and duplicates) are common, including pairs whose half-unit cells are
    three apart.
    """
    scale = draw(st.sampled_from([1e-3, 1.0, 4.0]))
    coordinate = st.floats(-scale, scale, allow_nan=False, allow_infinity=False)
    aligned = st.integers(-6, 6).map(lambda k: k / 2)
    points = draw(
        st.lists(
            st.one_of(st.tuples(coordinate, coordinate), st.tuples(aligned, aligned)),
            min_size=1,
            max_size=15,
        )
    )
    if draw(st.booleans()):
        x, y, _ = draw(st.sampled_from(POW_SENSITIVE_PAIRS))
        points += [(0.0, 0.0), (x, y)]
    offset = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])
    for _ in range(draw(st.integers(0, 20))):
        x, y = draw(st.sampled_from(points))
        points.append(
            (
                _nudge(x + draw(offset), draw(st.integers(-2, 2))),
                _nudge(y + draw(offset), draw(st.integers(-2, 2))),
            )
        )
    return draw(st.permutations(points))


class TestUnitDiskEdges:
    @settings(max_examples=200, deadline=None)
    @given(points=tricky_points())
    def test_matches_all_pairs_reference(self, points):
        assert unit_disk_adjacency(points) == edge_adjacency(len(points), reference_unit_disk_edges(points))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 150), side=st.sampled_from([0.5, 3.0, 12.0]), seed=st.integers(0, 10**6))
    def test_matches_all_pairs_reference_on_uniform_points(self, n, side, seed):
        rng = random.Random(seed)
        points = [(rng.uniform(-side, side), rng.uniform(-side, side)) for _ in range(n)]
        assert unit_disk_adjacency(points) == edge_adjacency(len(points), reference_unit_disk_edges(points))

    @pytest.mark.parametrize(
        "points",
        [
            # x difference rounds to exactly 1.0; floor cells 2 and 0
            [(2.0, 0.0), (math.nextafter(1.0, 0.0), 0.0)],
            # 1 + 5e-324 rounds to 1.0; floor cells 1 and -1
            [(1.0, 0.5), (-5e-324, 0.5)],
            # two cells apart in x, one in y
            [(2.0, 1.0), (math.nextafter(1.0, 0.0), math.nextafter(1.0, 0.0))],
        ],
    )
    def test_edge_across_two_cells(self, points):
        assert reference_unit_disk_edges(points) == [(0, 1)]
        assert unit_disk_adjacency(points) == edge_adjacency(len(points), reference_unit_disk_edges(points))
        make_instance(2, [(0, 1)], coords=points)

    @pytest.mark.parametrize(
        "points,edges",
        [
            # the difference rounds to exactly 1.0: half-unit cells 3 and 0 in x,
            # -3 and -1 in x, 3 and 0 in y
            ([(1.5, 0.0), (math.nextafter(0.5, 0.0), 0.0)], [(0, 1)]),
            ([(-1.5, 0.25), (math.nextafter(-0.5, 0.0), 0.25)], [(0, 1)]),
            ([(0.25, 1.5), (0.25, math.nextafter(0.5, 0.0))], [(0, 1)]),
            # cells 1 apart in x and 3 in y: dx * dx is below half an ulp of 1
            ([(0.5, 1.5), (math.nextafter(0.5, 0.0), math.nextafter(0.5, 0.0))], [(0, 1)]),
            # 3 cells apart in x and 2 in y: outside the stencil and no edge
            ([(1.5, 1.0), (math.nextafter(0.5, 0.0), math.nextafter(0.5, 0.0))], []),
            # on half-integers
            (
                [(0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (-0.5, 0.5), (1.0, 1.0)],
                [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4)],
            ),
            # 0.5 - (-0.5 - ulp) rounds to 1.0 across cells 1 and -2; 1.5 + ulp - 0.5 does not
            (
                [(0.5, 0.0), (math.nextafter(1.5, 2.0), 0.0), (math.nextafter(-0.5, -1.0), 0.0),
                 (math.nextafter(0.5, 0.0), 1.0)],
                [(0, 2), (0, 3)],
            ),
            # one float either side of half-integers: 1 + 2**-53 is a tie and rounds to 1.0
            (
                [(-0.5, -0.5), (-5e-324, -0.5), (0.5, math.nextafter(-0.5, 0.0)), (math.nextafter(0.5, 1.0), -0.5)],
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
            ),
            # within one ulp of the largest float: 2*x would overflow to inf
            ([(BIG, 0.0), (BIG, 1.0), (-BIG, 0.0)], [(0, 1)]),
            (
                [(0.0, math.nextafter(BIG, 0.0)), (0.5, math.nextafter(BIG, 0.0)), (0.5, -BIG), (-0.5, -BIG)],
                [(0, 1), (2, 3)],
            ),
            ([(BIG, -BIG)] * 2 + [(-BIG, BIG)] * 2, [(0, 1), (2, 3)]),
        ],
    )
    def test_half_cell_stencil(self, points, edges):
        assert reference_unit_disk_edges(points) == edges
        assert unit_disk_adjacency(points) == edge_adjacency(len(points), reference_unit_disk_edges(points))

    @pytest.mark.parametrize("x, y, edge", POW_SENSITIVE_PAIRS)
    def test_rule_squares_by_multiplication(self, x, y, edge):
        assert (x * x + y * y <= 1.0) == edge
        edges = [(0, 1)] if edge else []
        for points in ([(0.0, 0.0), (x, y)], [(-x, 0.0), (0.0, y)]):
            assert reference_unit_disk_edges(points) == edges
            assert unit_disk_adjacency(points) == edge_adjacency(len(points), reference_unit_disk_edges(points))

    def test_stencil_proof_premises(self):
        # 37 offsets in all, and squaring is exact on the per-axis gaps the proof uses
        assert len(cdsopt.graph._FORWARD_CELLS) == 18
        assert [h * h for h in (0.0, 0.5, 1.0, 1.5, 2.0)] == [0.0, 0.25, 1.0, 2.25, 4.0]

    def test_far_apart_points_do_not_overflow(self):
        points = [(0.0, 0.0), (1e200, 0.0), (-1e308, 1e308)]
        assert reference_unit_disk_edges(points) == []
        assert unit_disk_adjacency(points) == ((), (), ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        with pytest.raises(InstanceError, match="malformed coordinate at node 0"):
            WeightedGraph.from_adjacency(edge_adjacency(1, []), [1.0], [(bad, 0.0)])
        with pytest.raises(InstanceError, match="malformed coordinate at node 1"):
            WeightedGraph.from_adjacency(edge_adjacency(2, [(0, 1)]), [1.0, 1.0], [(0.0, 0.0), (0.0, bad)])


class TestFig1Generator:
    def test_structure(self):
        for d in (1, 3, 6):
            inst, designated = gen_fig1(d, 0.01)
            g = inst.graph
            assert g.node_count == 3 * d + 2
            assert g.edge_count == 4 * d + 1
            # hub u is node 1: adjacent to the top node and every rung bottom
            assert degree(g, 1) == d + 1
            for i in range(d):
                assert degree(g, 2 + i) == 2
            assert len(designated) == d + 1
            assert bfs_component_count(g, designated) == d + 1
            idx = ComponentIndex(g, sorted(designated))
            assert idx.component_count == d + 1
            assert parse_instance(serialize_instance(inst)) == inst

    def test_designated_set_components_d1(self):
        inst, designated = gen_fig1(1, 0.5)
        assert inst.graph.node_count == 5
        assert bfs_component_count(inst.graph, designated) == 2

    def test_cost_facts(self):
        inst, _ = gen_fig1(3, 0.01)
        cost = inst.graph.cost
        hub_and_bottoms = cost[1] + cost[5] + cost[6] + cost[7]
        assert math.isclose(hub_and_bottoms, 1 + 4 * 0.01, rel_tol=0, abs_tol=1e-12)
        rungs = sum(cost[v] for v in (2, 3, 4, 5, 6, 7))
        assert math.isclose(rungs, 3 * 1.01, rel_tol=0, abs_tol=1e-12)

    def test_parameter_checks(self):
        with pytest.raises(InstanceError):
            gen_fig1(0, 0.1)
        with pytest.raises(InstanceError):
            gen_fig1(2, 0.0)

    def test_edge_cap_boundary(self):
        # d = 1,249,999 is the largest ladder whose 4d + 1 edges fit the cap; the
        # cap is checked before the fold, so at the cap the fold check speaks
        d = 1_249_999
        assert 4 * d + 1 <= UDG_MAX_EXPECTED_EDGES < 4 * (d + 1) + 1
        with pytest.raises(InstanceError, match="^fold requirement m must be >= 1$"):
            gen_fig1(d, 0.01, m=0)
        for size in (d + 1, 10**12):
            with pytest.raises(InstanceError, match=f"^d = {size} makes 4d \\+ 1 edges, more than 5,000,000$"):
                gen_fig1(size, 0.01, m=0)


class TestValidate:
    def test_rejects_m_zero(self):
        with pytest.raises(InstanceError, match="^fold requirement m must be >= 1$"):
            validate_fold(0)

    @pytest.mark.parametrize("m", [0, -1])
    @pytest.mark.parametrize("with_oracle", [False, True])
    def test_instance_rejects_m_below_one(self, m, with_oracle):
        # without the check, m = 0 solved to a CDS report, and the oracle
        # divided by the empty set's cost 0
        graph = path_instance(3).graph
        with pytest.raises(InstanceError, match="^fold requirement m must be >= 1$"):
            solve(Instance(graph, m), given_ds=[1], with_oracle=with_oracle)

    @pytest.mark.parametrize(
        "n,edges,fragment",
        [
            (3, [(0, 1), (1, 1), (1, 2)], "loop edge 1 1"),
            (0, [], "node count must be >= 1"),
            # unsorted input: the repeated pair is named smaller end first
            (4, [(2, 3), (1, 2), (0, 1), (2, 1)], "duplicate edge 1 2"),
            (3, [(1, 2), (0, 1), (1, 0)], "duplicate edge 0 1"),
            # an out-of-range endpoint is named in the order the edge was given
            (3, [(0, 1), (3, 1)], "edge endpoint out of range: 3 1"),
            (3, [(1, 2), (0, -1)], "edge endpoint out of range: 0 -1"),
        ],
    )
    def test_from_edges_rejects(self, n, edges, fragment):
        with pytest.raises(InstanceError, match=f"^{fragment}$"):
            WeightedGraph.from_edges(n, edges, [1.0] * n)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: WeightedGraph.from_edges(3, [(0, 1), (1, 2)], [1.0, 1.0]), "cost vector size does not match node count"),
            (
                lambda: WeightedGraph.from_adjacency(edge_adjacency(2, [(0, 1)]), [1.0, 1.0], [(0.0, 0.0)]),
                "coords size does not match node count",
            ),
        ],
        ids=["cost", "coords"],
    )
    def test_size_mismatch_rejected(self, build, message):
        with pytest.raises(InstanceError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize(
        "n,edges,costs,coords,message",
        [
            # each row also breaks a later check, so the earlier one must speak
            (0, [(0, 1)], [], None, "edge endpoint out of range: 0 1"),
            (3, [(0, 1)], [1.0, 1.0], None, "cost vector size does not match node count"),
            (3, [(0, 1)], [1.0, math.nan, -1.0], None, "malformed cost at node 1"),
            (3, [(0, 1), (1, 2)], [1.0, 1.0, 0.0], [(0.0, 0.0)], "non-positive cost at node 2"),
            (2, [], [1.0, 1.0], [(0.0, 0.0)], "coords size does not match node count"),
            (2, [(0, 1)], [1.0, 1.0], [(0.0, 0.0), (math.inf, 0.0)], "malformed coordinate at node 1"),
            (3, [(0, 1)], [1.0] * 3, [(0.0, 0.0), (0.5, 0.0), (0.9, 0.0)], "disconnected graph"),
            (2, [(0, 1)], [1.0, 1.0], [(0.0, 0.0), (2.0, 0.0)], "coords violate the unit-disk edge rule at pair (0, 1)"),
        ],
    )
    def test_from_edges_checks_in_order(self, n, edges, costs, coords, message):
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            WeightedGraph.from_adjacency(edge_adjacency(n, edges), costs, coords)


class TestComponentLabels:
    def test_labels_each_component_by_its_smallest_member(self):
        adjacency = parse_instance(P3_TEXT).graph.adjacency
        assert component_labels(adjacency, [2, 0]) == ([0, -1, 2], 2)
        assert component_labels(adjacency, [2, 1]) == ([-1, 1, 1], 1)
        assert component_labels(adjacency, []) == ([-1, -1, -1], 0)

    @pytest.mark.parametrize("members, bad", [([0, -1], -1), ([0, 3], 3), ([5, 1, -2, 4], -2), ([5, 0, 4], 4)])
    def test_out_of_range_member_rejected(self, members, bad):
        # a negative id would otherwise alias a node from the end of the label list
        adjacency = parse_instance(P3_TEXT).graph.adjacency
        with pytest.raises(ValueError, match=f"^node id {bad} out of range 0..2$"):
            component_labels(adjacency, members)


class TestOneIdCheck:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["path", "random"]),
        n=st.integers(1, 12),
        seed=st.integers(0, 10**6),
        data=st.data(),
    )
    def test_every_entry_point_names_the_same_bad_id(self, kind, n, seed, data):
        """Each entry point taking node ids names the smallest negative id, else the smallest id >= n."""
        inst = path_instance(n) if kind == "path" else gen_random_connected(n, 0.3, (1.0, 2.0), seed=seed)
        good = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
        bad = data.draw(st.lists(st.integers(-5, -1) | st.integers(n, n + 5), min_size=1, max_size=4))
        ids = data.draw(st.permutations(good + bad))
        negative = [u for u in ids if u < 0]
        named = min(negative) if negative else min(u for u in ids if u >= n)
        message = f"^node id {named} out of range 0..{n - 1}$"
        entry_points = [
            lambda: verify_mds(inst, ids),
            lambda: verify_cds(inst, ids),
            lambda: solve(inst, given_ds=ids),
            lambda: greedy_connect(inst, ids),
            lambda: pairwise_connect(inst, ids),
            lambda: ComponentIndex(inst.graph, ids),
        ]
        for call in entry_points:
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("bad", [-3, -2, 5])  # a partner of -1 means none
    @pytest.mark.parametrize(
        "call",
        [
            lambda inst, idx, u: best_star_at(idx, u),
            lambda inst, idx, u: pair_candidate(idx, u),
            lambda inst, idx, u: pair_candidate(idx, 2, u),
            lambda inst, idx, u: coverage_gain(DeficitState(inst), u),
            lambda inst, idx, u: DeficitState(inst).add(u),
        ],
        ids=["best_star_at", "pair_candidate", "pair_candidate-partner", "coverage_gain", "DeficitState.add"],
    )
    def test_per_node_functions_reject_bad_ids(self, call, bad):
        # a negative id would otherwise read the node counted from the end
        inst = path_instance(5)
        idx = ComponentIndex(inst.graph, [0, 4])
        with pytest.raises(ValueError, match=f"^node id {bad} out of range 0..4$"):
            call(inst, idx, bad)


class TestUnitDiskChecksRunOnce:
    """``gen_udg`` derives its edges from its own points, so it computes
    ``unit_disk_adjacency`` and ``component_labels`` once per drawn point set, while
    parsed coordinates still get the full rule check."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("unit_disk_adjacency", "component_labels"):
            original = getattr(cdsopt.graph, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cdsopt.graph, name, counted)
            monkeypatch.setattr(cdsopt.generators, name, counted)
        return counts

    @pytest.mark.parametrize("n,side,seed,attempts", [(20, 2.0, 0, 1), (30, 4.0, 1, 4), (12, 4.0, 3, 32)])
    def test_gen_udg_once_per_attempt(self, calls, monkeypatch, n, side, seed, attempts):
        inst = gen_udg(n, side, (0.1, 10.0), seed=seed)
        assert (calls["unit_disk_adjacency"], calls["component_labels"]) == (attempts, attempts)
        assert edge_list(inst.graph) == reference_unit_disk_edges(inst.graph.coords)
        # the seed needs exactly that many point sets: one fewer is not enough
        monkeypatch.setattr(cdsopt.generators, "UDG_MAX_ATTEMPTS", attempts - 1)
        calls.clear()
        with pytest.raises(InstanceError, match="could not generate connected UDG"):
            gen_udg(n, side, (0.1, 10.0), seed=seed)
        assert (calls["unit_disk_adjacency"], calls["component_labels"]) == (attempts - 1, attempts - 1)

    @pytest.mark.parametrize(
        "points,attempts",
        # 12 * 32 points allow the 32 attempts the seed needs; one point fewer, 31;
        # fewer than n points still allow one attempt
        [(12 * 32, 32), (12 * 32 - 1, 31), (11, 1)],
    )
    def test_attempt_cap_boundary(self, calls, monkeypatch, points, attempts):
        # a request of n points gets min(UDG_MAX_ATTEMPTS, max(1, UDG_MAX_DRAWN_POINTS // n))
        # attempts, so every n <= 1,000 keeps all of them
        assert UDG_MAX_DRAWN_POINTS // 1000 == UDG_MAX_ATTEMPTS == 1000
        monkeypatch.setattr(cdsopt.generators, "UDG_MAX_DRAWN_POINTS", points)
        if attempts == 32:
            gen_udg(12, 4.0, (0.1, 10.0), seed=3)
        else:
            message = (
                f"^could not generate connected UDG after {attempts} attempts, the cap for n = 12"
                f" \\(at most 1,000 attempts and {points:,} drawn points\\)$"
            )
            with pytest.raises(InstanceError, match=message):
                gen_udg(12, 4.0, (0.1, 10.0), seed=3)
        assert (calls["unit_disk_adjacency"], calls["component_labels"]) == (attempts, attempts)

    def test_parse_checks_the_rule_once(self, calls):
        text = serialize_instance(gen_udg(30, 4.0, (0.1, 10.0), seed=1))
        calls.clear()
        parse_instance(text)
        assert (calls["unit_disk_adjacency"], calls["component_labels"]) == (1, 1)

    def test_parse_checks_each_value_once(self, monkeypatch):
        """The canonical path checks each cost and coordinate for finiteness
        once, and the graph keeps the points the rule was computed from."""
        inst = gen_udg(30, 4.0, (0.1, 10.0), seed=1)
        text = serialize_instance(inst)
        checked = []
        isfinite = math.isfinite
        monkeypatch.setattr(math, "isfinite", lambda x: checked.append(x) or isfinite(x))
        parsed = parse_instance(text)
        monkeypatch.undo()
        assert len(checked) == 3 * 30
        assert parsed == inst and type(parsed.graph.coords) is tuple

    @pytest.mark.parametrize(
        "text,pair",
        [
            ("cds 4 3 1\n1 1 1 1\ncoords\n0 0\n0.5 0\n1 0\n5 0\n0 1\n1 2\n2 3\n", "(0, 2)"),
            ("cds 2 1 1\n1 1\ncoords\n0 0\n1e200 0\n0 1\n", "(0, 1)"),
        ],
    )
    def test_parse_still_rejects(self, calls, text, pair):
        with pytest.raises(InstanceError, match=re.escape(f"coords violate the unit-disk edge rule at pair {pair}")):
            parse_instance(text)
        assert (calls["unit_disk_adjacency"], calls["component_labels"]) == (1, 1)


def udg_text(coords, edges) -> str:
    """Unit-disk instance text with unit costs, holding the given points and edge lines."""
    lines = [f"cds {len(coords)} {len(edges)} 1", " ".join(["1"] * len(coords)), "coords"]
    lines += [f"{x!r} {y!r}" for x, y in coords]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def colocated_path_text(n: int) -> str:
    """n points at (0, 0) with the path 0-1-...-(n-1) as edges: connected, but far
    from the complete graph that the unit-disk rule asks for."""
    return udg_text([(0.0, 0.0)] * n, [(v, v + 1) for v in range(n - 1)])


def expected_parse_error(coords, edges) -> str | None:
    """The message ``parse_instance`` must raise on these points and edges, from
    references only: a union-find for connectivity, the half-cells' sizes for the
    clump check, and the all-pairs edge set for the smallest disagreeing pair."""
    n = len(coords)
    root = list(range(n))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for u, v in edges:
        root[find(u)] = find(v)
    if len({find(u) for u in range(n)}) > 1:
        return "disconnected graph"
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    cells = {}
    for i, (x, y) in enumerate(coords):
        cells.setdefault((math.floor(2 * x), math.floor(2 * y)), []).append(i)
    mates = {i: cell for cell in cells.values() for i in cell}
    short = [i for i in range(n) if len(nbrs[i]) < len(mates[i]) - 1]
    if short:
        i = short[0]
        j = min(j for j in mates[i] if j != i and j not in nbrs[i])
        pair = (min(i, j), max(i, j))
    else:
        diff = set(reference_unit_disk_edges(coords)) ^ set(edges)
        if not diff:
            return None
        pair = min(diff)
    return f"coords violate the unit-disk edge rule at pair ({pair[0]}, {pair[1]})"


class TestUnitDiskRuleNamesThePair:
    """A wrong unit-disk file names the smallest pair on which its edges and the
    all-pairs rule disagree, except where a half-cell shows a point short of
    neighbours: then it names that point and a missing cell-mate."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 30),
        side=st.sampled_from([0.8, 1.5, 2.5, 4.0]),
        seed=st.integers(0, 10**6),
        fault=st.sampled_from(["drop", "add", "move"]),
        data=st.data(),
    )
    def test_perturbed_instance(self, n, side, seed, fault, data):
        # bounded as udg_shapes bounds it: at n = 7-11, side 4.0 runs out of
        # point sets on about 1% of seeds (n = 9, seed = 142 among them)
        side = min(side, 0.7 * math.sqrt(n) + 0.5)
        inst = gen_udg(n, side, (1.0, 1.0), seed=seed)
        coords, edges = list(inst.graph.coords), edge_list(inst.graph)
        if fault == "add":
            # a pair the scan compares, cells at most 3 apart per axis, that is no edge
            cell = [(math.floor(2 * x), math.floor(2 * y)) for x, y in coords]
            near = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if abs(cell[i][0] - cell[j][0]) <= 3 and abs(cell[i][1] - cell[j][1]) <= 3
            ]
            candidates = sorted(set(near) - set(edges))
            fault = "add" if candidates else "drop"
        if fault == "drop" and edges:
            edges.remove(data.draw(st.sampled_from(edges)))
        elif fault == "add":
            edges = sorted(edges + [data.draw(st.sampled_from(candidates))])
        else:
            u = data.draw(st.integers(0, n - 1))
            target = data.draw(st.sampled_from(["anywhere", "near"]))
            if target == "anywhere":
                coords[u] = (data.draw(st.floats(0.0, side)), data.draw(st.floats(0.0, side)))
            else:
                x, y = coords[data.draw(st.integers(0, n - 1))]
                coords[u] = (x + data.draw(st.floats(-1.5, 1.5)), y + data.draw(st.floats(-1.5, 1.5)))
        expected = expected_parse_error(coords, edges)
        text = udg_text(coords, edges)
        if expected is None:
            assert edge_list(parse_instance(text).graph) == edges
        else:
            with pytest.raises(InstanceError, match=f"^{re.escape(expected)}$"):
                parse_instance(text)

    def test_short_point_is_named_before_a_smaller_pair(self):
        # node 0 has its two neighbours but one is wrong: the smallest disagreeing
        # pair is (0, 2), but node 1 has one neighbour for two cell-mates
        coords = [(0.0, 0.0), (0.1, 0.0), (0.2, 0.0), (5.0, 0.0)]
        edges = [(0, 1), (0, 3), (2, 3)]
        assert min(set(reference_unit_disk_edges(coords)) ^ set(edges)) == (0, 2)
        with pytest.raises(InstanceError, match=r"^coords violate the unit-disk edge rule at pair \(1, 2\)$"):
            parse_instance(udg_text(coords, edges))

    def test_colocated_4000_fails_fast(self):
        text = colocated_path_text(4000)
        start = time.perf_counter()
        with pytest.raises(InstanceError, match=r"^coords violate the unit-disk edge rule at pair \(0, 2\)$"):
            parse_instance(text)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"rejecting 4,000 co-located points took {elapsed:.2f} s"

    def test_colocated_100k_fails_in_linear_time(self):
        # the all-pairs edge set of these points has about 5e9 pairs
        text = colocated_path_text(100_000)
        start = time.perf_counter()
        with pytest.raises(InstanceError, match=r"^coords violate the unit-disk edge rule at pair \(0, 2\)$"):
            parse_instance(text)
        elapsed = time.perf_counter() - start
        assert elapsed < 15.0, f"rejecting 100,000 co-located points took {elapsed:.1f} s"


class TestCanonicalUnitDiskParse:
    """A unit-disk file whose text ends with its rule's canonical edge lines is
    parsed without reading them; any other file takes the edge-list path, which
    reuses the rule the first path computed and builds the same graph."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("edge_adjacency", "unit_disk_adjacency"):
            original = getattr(cdsopt.graph, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cdsopt.graph, name, counted)
        return counts

    @staticmethod
    def variant(kind: str) -> str:
        """The text of a 30-point unit-disk graph, its edge lines as ``kind`` says."""
        graph = gen_udg(30, 4.0, (0.1, 10.0), seed=1).graph
        lines = udg_text(graph.coords, edge_list(graph)).splitlines()
        first = 3 + graph.node_count
        if kind == "reordered":
            lines[first:] = reversed(lines[first:])
        elif kind == "doubled space":
            lines[first] = lines[first].replace(" ", "  ")
        elif kind == "comment":
            lines.insert(first + 10, "# a comment inside the block")
        elif kind == "leading zero":
            lines[first] = "0" + lines[first]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "source",
        ["canonical", (1, 1.0, 0), (800, 10.0, 1000), (30, 4.0, 1)],
        ids=["udg_text", "serialized-n1", "serialized-udg-star", "serialized-n30"],
    )
    def test_canonical_file_reads_no_edge_line(self, calls, source):
        # serialize_instance's own output takes the canonical path too: the
        # single point, the udg-star benchmark's shape, and the 30-point graph
        if source == "canonical":
            text = self.variant(source)
        else:
            n, side, seed = source
            text = serialize_instance(gen_udg(n, side, (0.1, 10.0), seed=seed))
        calls.clear()
        parse_instance(text)
        assert (calls["edge_adjacency"], calls["unit_disk_adjacency"]) == (0, 1)

    @pytest.mark.parametrize("kind", ["reordered", "doubled space", "comment", "leading zero"])
    def test_other_text_reads_the_edge_lines(self, calls, kind):
        canonical = parse_instance(self.variant("canonical"))
        text = self.variant(kind)
        calls.clear()
        assert parse_instance(text) == canonical
        assert (calls["edge_adjacency"], calls["unit_disk_adjacency"]) == (1, 1)

    @pytest.mark.parametrize(
        "header,message",
        [
            ("cds 3 3 1", "coords violate the unit-disk edge rule at pair (0, 2)"),
            ("cds 3 2 1", "trailing content after edge list"),
        ],
    )
    def test_lines_before_the_canonical_ones_are_read(self, header, message):
        # the text ends with the rule's lines "0 1" and "1 2", after one more edge line
        text = f"{header}\n1 1 1\ncoords\n0 0\n0.5 0\n1.5 0\n0 2\n0 1\n1 2\n"
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            parse_instance(text)

    def test_tail_inside_the_coordinate_block_is_no_edge_line(self, calls):
        # the rule's edges are the path 9-10-11-12; the last coordinate row "9 10"
        # spells its first edge line, and the two edge rows after it the other two,
        # which are long enough to leave room for three edge lines of four characters
        points = [f"{3 * i} 0" for i in range(9)] + ["9 13", "9 12", "9 11", "9 10"]
        text = "\n".join(["cds 13 3 1", " ".join(["1"] * 13), "coords", *points, "10 11", "11 12", ""])
        assert text.endswith("\n9 10\n10 11\n11 12\n")
        with pytest.raises(InstanceError, match="^expected 3 edge lines, found 2$"):
            parse_instance(text)
        assert (calls["edge_adjacency"], calls["unit_disk_adjacency"]) == (0, 1)

    @pytest.mark.parametrize(
        "text, edge_count",
        [
            # the last coordinate row "0 1" spells the rule's one edge line, but no edge row follows it
            ("cds 2 1 1\n1 1\ncoords\n0 0.5\n0 1\n", 1),
            # 2,000 co-located points under the complete graph's edge count, with no
            # edge row: the rule would compare about 2 million pairs
            (udg_text([(0.0, 0.0)] * 2000, []).replace("cds 2000 0 1", "cds 2000 1999000 1"), 1999000),
        ],
        ids=["one edge", "clump"],
    )
    def test_edge_count_the_text_cannot_hold_is_counted_first(self, calls, text, edge_count):
        # E edge lines take at least 4E + 1 characters after the coordinates, so
        # the row scan counts the rows before the rule is computed
        with pytest.raises(InstanceError, match=f"^expected {edge_count} edge lines, found 0$"):
            parse_instance(text)
        assert (calls["edge_adjacency"], calls["unit_disk_adjacency"]) == (0, 0)

    def test_clump_is_refused_before_any_pair_is_compared(self, calls):
        # 50 co-located points make W = 1,225 same-cell pairs against 49 edges
        with pytest.raises(InstanceError, match=r"^coords violate the unit-disk edge rule at pair \(0, 2\)$"):
            parse_instance(colocated_path_text(50))
        assert (calls["edge_adjacency"], calls["unit_disk_adjacency"]) == (1, 0)

    @pytest.mark.parametrize("text,message", COORDINATE_FILE_ORDER)
    def test_coordinate_file_checks_in_order(self, text, message):
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            parse_instance(text)


class TestLinearBuild:
    """A star puts every edge on one node, so a build or check that scans a
    neighbour tuple per half-edge is quadratic in it."""

    def test_star_100k(self):
        n = 100_000
        edges = [(0, v) for v in range(1, n)]
        text = "cds {} {} 1\n{}\n{}\n".format(n, n - 1, " ".join(["1"] * n), "\n".join(f"{u} {v}" for u, v in edges))
        start = time.perf_counter()
        built = WeightedGraph.from_edges(n, edges, [1.0] * n)
        parsed = parse_instance(text).graph
        elapsed = time.perf_counter() - start
        assert degree(built, 0) == degree(parsed, 0) == n - 1
        assert built.adjacency == parsed.adjacency
        assert elapsed < 15.0, f"building a {n}-node star twice took {elapsed:.1f} s"

    def test_comment_runs_200k(self):
        # rows are read in batches that at least double, so a run of comments
        # before the header or inside the coordinate block is read in linear
        # time (0.15 s each on 2 shared Xeon CPUs with Python 3.11); batches
        # of one line each took 6.5 s and 7.1 s on the same machine
        comments = "# c\n" * 200_000
        texts = [comments + UDG_P3_TEXT, UDG_P3_TEXT.replace("0.75 0\n", "0.75 0\n" + comments)]
        start = time.perf_counter()
        for text in texts:
            assert parse_instance(text) == parse_instance(UDG_P3_TEXT)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"parsing 200,000 comment lines twice took {elapsed:.1f} s"
