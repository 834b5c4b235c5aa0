"""Solution validation, exact search vs. unpruned enumeration and the unpruned search, cut vertices, ratios."""

import math
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsopt.cli import main
from cdsopt.generators import gen_fig1, gen_random_connected, gen_udg
from cdsopt.graph import cut_vertices, edge_adjacency, serialize_instance
from cdsopt.oracle import (
    OracleBudgetError,
    exact_minimum_cds,
    exact_minimum_mds,
    harmonic,
    ratio_report,
)
from cdsopt.solver import solve, solve_report_dict
from cdsopt.verify import verify_cds, verify_mds
from helpers import (
    bfs_component_count,
    comb_instance,
    complete_instance,
    cycle_instance,
    exhaustive_minimum,
    make_instance,
    path_instance,
    reference_exact_search,
    removal_cut_vertices,
    star_instance,
)


class TestVerify:
    def test_p3_middle_is_cds(self):
        report = verify_cds(path_instance(3), {1})
        assert report.is_cds and report.is_m_ds and report.is_connected
        assert report.violations == []
        assert report.cost == 1.0

    def test_p3_endpoint_fails_domination(self):
        report = verify_cds(path_instance(3), {0})
        assert not report.is_m_ds
        assert (2, "node 2 has 0 < 1 dominators") in report.violations
        assert not report.is_cds

    def test_whole_node_set_is_cds(self):
        for inst in (path_instance(6), cycle_instance(5), complete_instance(4)):
            n = inst.graph.node_count
            assert verify_cds(inst, set(range(n))).is_cds

    def test_disconnected_solution_reported_per_node(self):
        report = verify_cds(path_instance(5), {0, 2, 4})
        assert report.is_m_ds
        assert not report.is_connected
        nodes = {node for node, _ in report.violations}
        assert nodes == {2, 4}

    def test_empty_set(self):
        report = verify_cds(path_instance(3), set())
        assert not report.is_m_ds
        assert report.is_connected is False
        assert (-1, "solution set is empty") in report.violations

    def test_mds_only_leaves_connectivity_unset(self):
        report = verify_mds(cycle_instance(4, m=2), {0, 2})
        assert report.is_m_ds
        assert report.is_connected is None
        assert report.is_cds is None

    def test_mds_examples(self):
        assert verify_mds(cycle_instance(4, m=2), {0, 2}).is_m_ds
        assert not verify_mds(path_instance(3), set()).is_m_ds
        assert verify_mds(path_instance(3), {0, 1, 2}).is_m_ds

    def test_cost_is_summed_left_to_right(self):
        # a compensated sum (Python 3.12+ ``sum``) gives 1e16 + 2; the reports
        # print the left-to-right sum on every version
        report = verify_cds(path_instance(3, costs=[1e16, 1.0, 1.0]), {0, 1, 2})
        assert report.is_cds
        assert report.cost == 1e16

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            verify_cds(path_instance(3), {5})


class TestViolationOrder:
    """Domination failures come first, in node order; then every member
    outside the first induced component, components taken by their smallest
    member and ids ascending within each, anchored at the smallest member.

    The solution {0, 5} + {1, 9} + {2, 3} has components whose smallest
    members interleave with their other ids, and node 10 has no dominator.
    """

    # 0-5, 1-9 and 2-3 lie inside the solution; 4, 6, 7 and 8 join them
    EDGES = [(0, 5), (1, 9), (2, 3), (0, 4), (1, 4), (2, 6), (6, 9), (3, 7), (5, 7), (3, 8), (8, 10)]
    SOLUTION = [9, 3, 5, 0, 2, 1]
    VIOLATIONS = [
        (10, "node 10 has 0 < 1 dominators"),
        (1, "node 1 disconnected from node 0 in the induced subgraph"),
        (9, "node 9 disconnected from node 0 in the induced subgraph"),
        (2, "node 2 disconnected from node 0 in the induced subgraph"),
        (3, "node 3 disconnected from node 0 in the induced subgraph"),
    ]

    def test_verify_cds_order(self):
        report = verify_cds(make_instance(11, self.EDGES), self.SOLUTION)
        assert report.violations == self.VIOLATIONS
        assert (report.is_m_ds, report.is_connected, report.is_cds, report.cost) == (False, False, False, 6.0)

    def test_cli_verify_bytes(self, tmp_path, capsys):
        inst_file = tmp_path / "inst.cds"
        inst_file.write_text(serialize_instance(make_instance(11, self.EDGES)))
        sol_file = tmp_path / "sol.txt"
        sol_file.write_text(" ".join(map(str, self.SOLUTION)) + "\n")
        assert main(["verify", str(inst_file), str(sol_file)]) == 1
        pairs = ",\n".join(f'    [\n      {u},\n      "{reason}"\n    ]' for u, reason in self.VIOLATIONS)
        expected = (
            '{\n  "is_m_ds": false,\n  "is_connected": false,\n  "is_cds": false,\n'
            f'  "violations": [\n{pairs}\n  ],\n  "cost": 6.0\n}}\n'
        )
        assert capsys.readouterr().out == expected


class TestExactSearch:
    def test_p3(self):
        result = exact_minimum_cds(path_instance(3))
        assert result.opt_set == (1,)
        assert result.opt_cost == 1.0

    def test_k4_any_single_node(self):
        result = exact_minimum_cds(complete_instance(4))
        assert result.opt_cost == 1.0
        assert len(result.opt_set) == 1

    def test_fig1_d2_full_problem(self):
        inst, _ = gen_fig1(2, 0.1)
        result = exact_minimum_cds(inst)
        expected_cost, _ = exhaustive_minimum(inst, require_connected=True)
        assert result.opt_cost == expected_cost
        assert math.isclose(result.opt_cost, 1 + 3 * 0.1, rel_tol=0, abs_tol=1e-12)
        assert verify_cds(inst, result.opt_set).is_cds

    def test_star_hub_mds(self):
        result = exact_minimum_mds(star_instance(4))
        assert result.opt_set == (0,)
        assert result.opt_cost == 1.0

    def test_c4_twofold_needs_two_nodes(self):
        result = exact_minimum_mds(cycle_instance(4, m=2))
        assert result.opt_cost == 2.0
        a, b = result.opt_set
        assert b not in cycle_instance(4).graph.adjacency[a]

    def test_mds_never_exceeds_cds(self):
        rng = random.Random(2)
        for _ in range(50):
            m = rng.choice([1, 2])
            inst = gen_random_connected(9, 0.3, (0.1, 10.0), seed=rng.randrange(10**6), m=m)
            mds = exact_minimum_mds(inst)
            cds = exact_minimum_cds(inst)
            assert mds.opt_cost <= cds.opt_cost
            assert verify_mds(inst, mds.opt_set).is_m_ds
            assert verify_cds(inst, cds.opt_set).is_cds

    def test_pruned_search_matches_unpruned_enumeration(self):
        rng = random.Random(17)
        for _ in range(40):
            n = rng.randrange(4, 10)
            m = rng.choice([1, 2, 3])
            inst = gen_random_connected(n, 0.4, (0.1, 10.0), seed=rng.randrange(10**6), m=m)
            for require_connected, search in (
                (True, exact_minimum_cds),
                (False, exact_minimum_mds),
            ):
                expected_cost, _ = exhaustive_minimum(inst, require_connected)
                result = search(inst)
                assert result.opt_cost == expected_cost
                assert result.nodes_explored > 0
                # the leaves check only connectivity, so domination of the
                # returned set is checked here
                report = verify_cds(inst, result.opt_set)
                assert report.is_m_ds
                assert report.is_connected or not require_connected
                assert report.cost == result.opt_cost

    @pytest.mark.parametrize(
        "make, cds, mds",
        [
            (
                lambda: gen_random_connected(24, 0.1, (0.1, 10.0), 1),
                ((7, 10, 17, 20, 21), 26.032747969491474, 24145),
                ((2, 3, 9, 12, 13, 14, 16, 20), 20.922334582351855, 13251),
            ),
            (
                lambda: gen_random_connected(18, 0.25, (0.1, 10.0), 2, m=2),
                ((3, 4, 5, 6, 10, 12), 14.58035085526122, 2885),
                ((1, 2, 5, 6, 8, 12), 13.463731623030874, 1465),
            ),
            (
                lambda: gen_udg(18, 2.8, (0.1, 10.0), 1),
                ((1, 2, 7, 13, 15), 28.114367430676126, 1388),
                ((6, 7, 11, 13), 15.705377344260077, 1668),
            ),
            (
                # unit costs tie many partial sets with the incumbent
                lambda: gen_random_connected(20, 0.2, (1.0, 1.0), 3),
                ((3, 6, 8, 10), 4.0, 2259),
                ((0, 3, 6, 8), 4.0, 1599),
            ),
        ],
        ids=["random-n24-p0.1-s1", "random-n18-m2-s2", "udg-n18-s1", "random-n20-unit-cost-s3"],
    )
    def test_search_size_pinned(self, make, cds, mds):
        """Pins the search, not only the optimum: a change to the branching
        order or a prune moves these node counts even where the cost holds."""
        inst = make()
        n = inst.graph.node_count
        for search, expected in ((exact_minimum_cds, cds), (exact_minimum_mds, mds)):
            result = search(inst, node_budget=n)
            assert (result.opt_set, result.opt_cost, result.nodes_explored) == expected

    @pytest.mark.parametrize(
        "make, cds, mds",
        [
            (
                lambda: gen_random_connected(24, 0.1, (0.1, 10.0), 1),
                ((7, 10, 17, 20, 21), 26.032747969491474, 13970),
                ((2, 3, 9, 12, 13, 14, 16, 20), 20.922334582351855, 2830),
            ),
            (
                lambda: gen_random_connected(18, 0.25, (0.1, 10.0), 2, m=2),
                ((3, 4, 5, 6, 10, 12), 14.58035085526122, 419),
                ((1, 2, 5, 6, 8, 12), 13.463731623030874, 374),
            ),
            (
                lambda: gen_udg(18, 2.8, (0.1, 10.0), 1),
                ((1, 2, 7, 13, 15), 28.114367430676126, 701),
                ((6, 7, 11, 13), 15.705377344260077, 292),
            ),
            (
                lambda: gen_random_connected(20, 0.2, (1.0, 1.0), 3),
                ((3, 6, 8, 10), 4.0, 2023),
                ((0, 3, 6, 8), 4.0, 1359),
            ),
        ],
        ids=["random-n24-p0.1-s1", "random-n18-m2-s2", "udg-n18-s1", "random-n20-unit-cost-s3"],
    )
    def test_seeded_search_size_pinned(self, make, cds, mds):
        """The search seeded with the solver's own sets, as ``solve`` runs it:
        the optima of ``test_search_size_pinned`` in fewer nodes."""
        inst = make()
        n = inst.graph.node_count
        result = solve(inst)
        for search, incumbent, expected in (
            (exact_minimum_cds, result.dominating_and_connectors, cds),
            (exact_minimum_mds, result.d1, mds),
        ):
            seeded = search(inst, node_budget=n, incumbent=incumbent)
            assert (seeded.opt_set, seeded.opt_cost, seeded.nodes_explored) == expected

    def test_solve_keeps_both_search_sizes(self):
        """``solve`` keeps both searches' node counts, which ``ratio_report``
        drops, the cover heap's stale tops and the connector's heap counts in
        ``stats``, and its report prints none of them."""
        inst = gen_udg(18, 2.8, (0.1, 10.0), 1)
        result = solve(inst, with_oracle=True, node_budget=18)
        phases = {
            "phase1_resifts": 8,
            "phase1_dropped": 14,
            "phase2_valuations": 15,
            "phase2_pops": 2,
            "phase2_dead": 0,
            "phase2_candidates": 11,
        }
        assert result.stats == {**phases, "oracle_cds_nodes": 701, "oracle_mds_nodes": 292}
        assert solve(inst).stats == phases
        report = solve_report_dict(result)
        assert "stats" not in report and "stats" not in report["oracle"]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 11),
        m=st.integers(1, 2),
        udg=st.booleans(),
        costs=st.sampled_from(["uniform", "unit", "mixed"]),
        pick=st.randoms(use_true_random=False),
    )
    def test_incumbent_never_changes_the_answer(self, seed, n, m, udg, costs, pick):
        """Any feasible incumbent, V, the solver's sets or the optimum itself,
        gives the unseeded opt_set and opt_cost and never a larger search.
        Costs mixing 1e16 with 1.0 make float sums absorb the small terms."""
        if udg:
            inst = gen_udg(n, math.sqrt(n / 4.0), (0.1, 10.0), seed=seed, m=m)
        else:
            inst = gen_random_connected(n, 0.3, (0.1, 10.0), seed=seed, m=m)
        if costs != "uniform":
            adj = inst.graph.adjacency
            edges = [(u, w) for u in range(n) for w in adj[u] if u < w]
            weights = [1.0 if costs == "unit" else pick.choice((1e16, 1.0)) for _ in range(n)]
            inst = make_instance(n, edges, weights, m=m)
        result = solve(inst)
        for search, solver_set in (
            (exact_minimum_cds, result.dominating_and_connectors),
            (exact_minimum_mds, result.d1),
        ):
            plain = search(inst)
            whole = search(inst, incumbent=range(n))
            assert whole == plain
            for incumbent in (solver_set, plain.opt_set):
                seeded = search(inst, incumbent=incumbent)
                assert (seeded.opt_set, seeded.opt_cost) == (plain.opt_set, plain.opt_cost)
                assert seeded.nodes_explored <= plain.nodes_explored

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 14),
        m=st.integers(1, 3),
        udg=st.booleans(),
        costs=st.sampled_from(["uniform", "unit", "huge-and-one", "tenths"]),
        pick=st.randoms(use_true_random=False),
    )
    def test_prunes_keep_the_reference_answer(self, seed, n, m, udg, costs, pick):
        """The connectivity and forced-cost prunes return the reference
        search's opt_set and opt_cost, without and with the solver's sets as
        incumbents, and never explore more nodes."""
        if udg:
            inst = gen_udg(n, math.sqrt(n / 4.0), (0.1, 10.0), seed=seed, m=m)
        else:
            inst = gen_random_connected(n, 0.3, (0.1, 10.0), seed=seed, m=m)
        if costs != "uniform":
            adj = inst.graph.adjacency
            edges = [(u, w) for u in range(n) for w in adj[u] if u < w]
            choices = {"unit": (1.0,), "huge-and-one": (1e16, 1.0), "tenths": (0.1, 0.2, 0.3)}[costs]
            inst = make_instance(n, edges, [pick.choice(choices) for _ in range(n)], m=m)
        result = solve(inst)
        for search, require_connected, solver_set in (
            (exact_minimum_cds, True, result.dominating_and_connectors),
            (exact_minimum_mds, False, result.d1),
        ):
            for incumbent in (None, solver_set):
                pruned = search(inst, incumbent=incumbent)
                reference = reference_exact_search(inst, require_connected, incumbent)
                assert (pruned.opt_set, pruned.opt_cost) == (reference.opt_set, reference.opt_cost)
                assert pruned.nodes_explored <= reference.nodes_explored

    def test_udg_n30_past_the_default_budget(self):
        """Optima the reference search took 23,301,292 (CDS) and 622,431 (MDS)
        nodes to find; the CDS search takes 16,737.  Each ceiling needs its
        prune: without forcing a kept node's last neighbor the CDS search
        explores 17,239 nodes, without the cut-vertex forcing 63,590 (77,950
        without both), without the connectivity prune 87,360, and without the
        forced-cost bound 170,950 and the MDS search 622,431."""
        inst = gen_udg(30, 3.5, (0.1, 10.0), 1, m=2)
        cds = exact_minimum_cds(inst, node_budget=30)
        assert (cds.opt_set, cds.opt_cost) == (
            (5, 9, 10, 11, 14, 15, 17, 18, 19, 20, 21, 22, 23, 26, 28),
            56.696956039164874,
        )
        assert cds.nodes_explored <= 17_000
        mds = exact_minimum_mds(inst, node_budget=30)
        assert (mds.opt_set, mds.opt_cost) == ((7, 8, 11, 13, 14, 17, 18, 19, 21, 23, 26, 28), 39.42394554549159)
        assert mds.nodes_explored <= 50_000

    def test_overflowing_costs_return_the_incumbent(self):
        # every connected dominating set of P4 has two nodes, whose costs sum to inf
        inst = path_instance(4, costs=[1.7e308] * 4)
        assert exact_minimum_cds(inst) == exact_minimum_cds(inst, incumbent=range(4))
        assert exact_minimum_cds(inst).opt_set == (0, 1, 2, 3)
        seeded = exact_minimum_cds(inst, incumbent={2, 1})
        assert (seeded.opt_set, seeded.opt_cost) == ((1, 2), math.inf)

    def test_disconnected_incumbent_rejected(self):
        # {0, 2, 4} dominates the path but does not induce a connected subgraph
        with pytest.raises(ValueError, match="^incumbent is not a feasible solution: node 2 disconnected"):
            exact_minimum_cds(path_instance(5), incumbent={0, 2, 4})
        assert exact_minimum_mds(path_instance(5), incumbent={0, 2, 4}).opt_cost == 2.0

    @pytest.mark.parametrize("search", [exact_minimum_cds, exact_minimum_mds])
    def test_non_dominating_incumbent_rejected(self, search):
        with pytest.raises(ValueError, match="^incumbent is not a feasible solution: node 2 has 0 < 1 dominators"):
            search(path_instance(3), incumbent={0})
        with pytest.raises(ValueError, match="out of range"):
            search(path_instance(3), incumbent={0, 1, 5})

    def test_budget_guard(self):
        inst = gen_random_connected(17, 0.3, (1.0, 2.0), seed=0)
        with pytest.raises(OracleBudgetError, match="instance too large for oracle"):
            exact_minimum_cds(inst, node_budget=16)
        # explicit larger budget allows it
        assert verify_cds(inst, exact_minimum_cds(inst, node_budget=17).opt_set).is_cds

    def test_deep_instance_rejected_not_recursion_error(self):
        inst = path_instance(1200)
        with pytest.raises(OracleBudgetError, match="instance too deep .*: 1200 nodes"):
            exact_minimum_cds(inst, node_budget=2000)

    @pytest.mark.parametrize("search", [exact_minimum_cds, exact_minimum_mds])
    def test_depth_guard_message(self, search):
        # within the node budget, but deeper than the recursion limit
        with pytest.raises(OracleBudgetError) as caught:
            search(path_instance(1100), node_budget=1100)
        assert str(caught.value) == "instance too deep for the oracle's recursive search: 1100 nodes"

    def test_depth_limit_is_half_the_recursion_limit(self, monkeypatch):
        monkeypatch.setattr("sys.getrecursionlimit", lambda: 64)
        result = exact_minimum_cds(star_instance(31), node_budget=100)
        assert (result.opt_set, result.opt_cost) == ((0,), 1.0)
        with pytest.raises(OracleBudgetError, match="^instance too deep for the oracle's recursive search: 33 nodes$"):
            exact_minimum_cds(star_instance(32), node_budget=100)

    def test_depth_refusal_precedes_the_incumbent_check(self):
        # {0} does not dominate the path, but the instance is refused before it is read
        with pytest.raises(OracleBudgetError, match="^instance too deep"):
            exact_minimum_cds(path_instance(1100), node_budget=1100, incumbent={0})

    def test_refusals_precede_the_links_precompute(self, monkeypatch):
        def unreachable(masks_or_adjacency):
            raise AssertionError("links or cut vertices built for a refused instance")

        monkeypatch.setattr("cdsopt.oracle._links", unreachable)
        monkeypatch.setattr("cdsopt.oracle.cut_vertices", unreachable)
        with pytest.raises(OracleBudgetError, match="^instance too large"):
            exact_minimum_cds(path_instance(17))
        with pytest.raises(OracleBudgetError, match="^instance too deep"):
            exact_minimum_cds(path_instance(1100), node_budget=1100)
        with pytest.raises(ValueError, match="^incumbent is not a feasible solution"):
            exact_minimum_cds(path_instance(5), incumbent={0, 2, 4})


def connected_dominating_sets(inst):
    """Every connected m-fold dominating set, by enumeration of all node subsets."""
    g = inst.graph
    n = g.node_count
    nbr_masks = [sum(1 << v for v in nbrs) for nbrs in g.adjacency]
    for mask in range(1, 1 << n):
        if all(mask >> u & 1 or bin(nbr_masks[u] & mask).count("1") >= inst.m for u in range(n)):
            members = [u for u in range(n) if mask >> u & 1]
            if bfs_component_count(g, members) == 1:
                yield set(members)


class TestCutVertices:
    """``cut_vertices`` against the definition, and the fact that lets the
    exact CDS search force them: every connected m-fold dominating set holds
    every cut vertex of G."""

    @pytest.mark.parametrize(
        "inst, expected",
        [
            (path_instance(1), []),
            (path_instance(2), []),
            (path_instance(6), [1, 2, 3, 4]),
            (star_instance(1), []),
            (star_instance(5), [0]),
            (cycle_instance(3), []),
            (cycle_instance(7), []),
            (complete_instance(5), []),
            (comb_instance(1), [1]),
            (comb_instance(4), [0, 1, 2, 3, 4]),
        ],
        ids=["path-1", "path-2", "path-6", "star-1", "star-5", "cycle-3", "cycle-7", "complete-5", "comb-1", "comb-4"],
    )
    def test_families(self, inst, expected):
        adjacency = inst.graph.adjacency
        assert cut_vertices(adjacency) == expected == removal_cut_vertices(adjacency)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 30),
        udg=st.booleans(),
        p=st.sampled_from([0.05, 0.1, 0.2, 0.4]),
    )
    def test_matches_the_definition(self, seed, n, udg, p):
        if udg:
            inst = gen_udg(n, math.sqrt(n / 4.0), (0.1, 10.0), seed=seed)
        else:
            inst = gen_random_connected(n, p, (0.1, 10.0), seed=seed)
        adjacency = inst.graph.adjacency
        assert cut_vertices(adjacency) == removal_cut_vertices(adjacency)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 16),
        pairs=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=30),
    )
    def test_disconnected_graphs_match_the_definition(self, n, pairs):
        # each component is searched from its smallest node
        edges = {(min(u, v), max(u, v)) for u, v in pairs if u != v and max(u, v) < n}
        adjacency = edge_adjacency(n, sorted(edges))
        assert cut_vertices(adjacency) == removal_cut_vertices(adjacency)

    def test_a_path_deeper_than_the_recursion_limit(self):
        n = 4 * sys.getrecursionlimit()
        adjacency = tuple(tuple(v for v in (u - 1, u + 1) if 0 <= v < n) for u in range(n))
        assert cut_vertices(adjacency) == list(range(1, n - 1))

    @staticmethod
    def check_every_solution_holds_the_cut_vertices(inst) -> int:
        cut = set(cut_vertices(inst.graph.adjacency))
        count = 0
        for members in connected_dominating_sets(inst):
            assert cut <= members
            count += 1
        # V itself is a connected m-fold dominating set
        assert count >= 1
        return len(cut)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize(
        "inst", [path_instance(8), star_instance(6), comb_instance(3)], ids=["path-8", "star-6", "comb-3"]
    )
    def test_every_solution_holds_them_on_families(self, inst, m):
        assert self.check_every_solution_holds_the_cut_vertices(replace(inst, m=m)) >= 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 10), m=st.integers(1, 3), udg=st.booleans())
    def test_every_solution_holds_them(self, seed, n, m, udg):
        if udg:
            inst = gen_udg(n, math.sqrt(n / 4.0), (0.1, 10.0), seed=seed, m=m)
        else:
            inst = gen_random_connected(n, 0.3, (0.1, 10.0), seed=seed, m=m)
        self.check_every_solution_holds_the_cut_vertices(inst)


@st.composite
def sparse_instances(draw):
    """A path, comb, caterpillar or random tree with up to three chords,
    relabelled at random, with costs whose sums are exact in any order."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["path", "comb", "caterpillar", "tree"]))
    picks = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    if kind == "tree":
        parents = [picks[u] % u for u in range(1, n)]
    else:
        # a spine 0..spine-1, and every later node pendant on a spine node
        spine = {"path": n, "comb": (n + 1) // 2, "caterpillar": max(1, n // 3)}[kind]
        tooth = (lambda u: u - spine) if kind == "comb" else (lambda u: picks[u] % spine)
        parents = [u - 1 if u < spine else tooth(u) for u in range(1, n)]
    edges = list(zip(parents, range(1, n)))
    chords = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=3))
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    edges |= {(min(u, v), max(u, v)) for u, v in chords if u != v and max(u, v) < n}
    label = draw(st.permutations(range(n)))
    costs = draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 8.0]), min_size=n, max_size=n))
    m = draw(st.integers(1, 3))
    return make_instance(n, sorted((label[u], label[v]) for u, v in edges), costs, m=m)


class TestLastNeighborForcing:
    """A kept (chosen or forced) node with one chosen or undecided neighbor
    forces it, and one with none ends the branch, whenever every CDS has two
    nodes: every member of such a set has a neighbor in it."""

    @settings(max_examples=150, deadline=None)
    @given(inst=sparse_instances())
    def test_sparse_graphs_keep_the_reference_answer(self, inst):
        """Sparse graphs leave many nodes one neighbor short, so the rule fires
        often; the costs are multiples of 0.5, so the subset scan's sums are
        the search's bit for bit."""
        expected_cost, _ = exhaustive_minimum(inst, True)
        for incumbent in (None, solve(inst).dominating_and_connectors):
            pruned = exact_minimum_cds(inst, incumbent=incumbent)
            reference = reference_exact_search(inst, True, incumbent)
            assert (pruned.opt_set, pruned.opt_cost) == (reference.opt_set, reference.opt_cost)
            assert pruned.opt_cost == expected_cost
            assert pruned.nodes_explored <= reference.nodes_explored

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_a_star_keeps_its_single_node_optimum(self, k):
        """The center of K_{1,k} dominates alone at m = 1.  Without the
        two-node guard, the leaves after the first IN one decided OUT would
        leave the center one neighbor and force it, and (0,) would be lost."""
        result = exact_minimum_cds(star_instance(k))
        assert (result.opt_set, result.opt_cost) == ((0,), 1.0)
        assert exact_minimum_cds(complete_instance(4)).opt_set == (0,)
        assert exact_minimum_cds(path_instance(1, m=3)).opt_set == (0,)

    def test_the_in_branch_forces_the_last_neighbor(self):
        """On C4 with unit costs, {0, 1} is found first.  Then 0 OUT and 1 IN
        leave 1 a single neighbor, 2, so the bound reads cost({1, 2}) = 2, the
        incumbent's, and the branch ends at once.  Without the check in the
        IN branch the search explores 14 nodes, and without the rule 17."""
        result = exact_minimum_cds(cycle_instance(4))
        assert (result.opt_set, result.opt_cost, result.nodes_explored) == ((0, 1), 2.0, 13)
        assert reference_exact_search(cycle_instance(4), True).nodes_explored > 13


class TestHarmonic:
    def test_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(-1) == 0.0
        assert harmonic(1) == 1.0
        assert math.isclose(harmonic(3), 11 / 6, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(2 * harmonic(3), 11 / 3, rel_tol=0, abs_tol=1e-12)
        assert 2 * harmonic(3) < 3.67


class TestRatioReport:
    def test_all_ones_when_alg_matches_oracle(self):
        inst = path_instance(3)
        cds = exact_minimum_cds(inst)
        mds = exact_minimum_mds(inst)
        # {1} is both optima, so an MDS-optimal d1 with no connector is CDS-optimal
        assert cds.opt_cost == mds.opt_cost
        record = ratio_report(inst, mds.opt_cost, 0.0, cds, mds)
        assert (record.opt_set, record.opt_mds_set) == (cds.opt_set, mds.opt_set)
        assert record.ratio_d1 == 1.0
        assert record.ratio_total == 1.0
        assert record.ratio_d2 == 0.0
        # the total is the two phase costs' sum
        assert ratio_report(inst, 0.5, 0.25, cds, mds).ratio_total == 0.75 / cds.opt_cost
        assert record.bound_total == pytest.approx(harmonic(3) + 2 * harmonic(1))
        assert record.udg_bound_d2 is None

    def test_udg_bound_present_for_coordinate_instances(self):
        from cdsopt.generators import gen_udg

        inst = gen_udg(8, 2.0, (0.5, 2.0), seed=3)
        cds = exact_minimum_cds(inst)
        mds = exact_minimum_mds(inst)
        record = ratio_report(inst, mds.opt_cost, 0.0, cds, mds)
        assert record.udg_bound_d2 == pytest.approx(11 / 3)
