"""Component index, star values, best-star search, and both connectors."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cdsopt.connector
import cdsopt.domination
from cdsopt.components import ComponentIndex
from cdsopt.connector import (
    StarCandidate,
    _CandidateHeap,
    best_star_at,
    component_neighbors,
    greedy_connect,
    pair_candidate,
    pairwise_connect,
)
from cdsopt.domination import coverage_gain, greedy_dominating_set, ratio_key
from cdsopt.generators import gen_fig1, gen_random_connected, gen_udg
from cdsopt.graph import WeightedGraph, ratio_shift
from cdsopt.solver import solve
from cdsopt.verify import verify_cds
from helpers import (
    bfs_component_count,
    bfs_component_labels,
    brute_force_best_star,
    comb_instance,
    complete_instance,
    edge_list,
    formula_star_value,
    make_instance,
    merge_potential,
    path_instance,
    random_dominating_set,
    reference_best_star_at,
    reference_component_neighbors,
    reference_connect,
    reference_pick,
    simulate_star_value,
)


# a few exactly representable costs: sums and their ratios tie often
_EXACT_COSTS = (0.5, 1.0, 2.0)


def _value(cand, graph):
    """A candidate as the slot value the library returns: ``(key, gain, leaves, total_cost)``."""
    if cand is None:
        return None
    return ratio_key(cand.gain, cand.total_cost, graph.key_shift), cand.gain, cand.leaves, cand.total_cost


def _assert_single_matches_reach(idx):
    """``single[v]`` is the one label of ``reach[v]`` when it has one, else -1 (members included)."""
    assert len(idx.single) == len(idx.reach)
    for v, near in enumerate(idx.reach):
        assert idx.single[v] == (next(iter(near)) if len(near) == 1 else -1), f"node {v}"


class TestComponentIndex:
    def test_incremental_matches_bfs_labeling(self):
        rng = random.Random(1)
        for _ in range(25):
            inst = gen_random_connected(14, 0.18, (1.0, 1.0), seed=rng.randrange(10**6))
            order = list(range(14))
            rng.shuffle(order)
            members = order[: rng.randrange(1, 15)]
            idx = ComponentIndex(inst.graph)
            present = set()
            for u in members:
                idx.add(u)
                present.add(u)
                labels = bfs_component_labels(inst.graph, present)
                assert idx.component_count == len(set(labels.values()))
                for a in present:
                    assert a in idx
                    for b in present:
                        assert (idx.label[a] == idx.label[b]) == (labels[a] == labels[b])

    def test_duplicate_add_rejected(self):
        inst = path_instance(3)
        idx = ComponentIndex(inst.graph, [0])
        with pytest.raises(ValueError):
            idx.add(0)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_rejected(self, bad):
        g = path_instance(3).graph
        with pytest.raises(ValueError, match=f"^node id {bad} out of range 0..2$"):
            ComponentIndex(g, [0, bad])
        idx = ComponentIndex(g, [0])
        with pytest.raises(ValueError, match=f"^node id {bad} out of range 0..2$"):
            idx.add(bad)
        assert idx.label == [0, -1, -1] and idx.component_count == 1

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 30),
        udg=st.booleans(),
        pick=st.randoms(use_true_random=False),
    )
    def test_constructor_matches_adds(self, seed, n, udg, pick):
        """Built from ``component_labels``, the index equals one grown by ``add``."""
        if udg:
            g = gen_udg(n, math.sqrt(n / 4.0), (1.0, 1.0), seed=seed).graph
        else:
            g = gen_random_connected(n, min(1.0, 3.0 / n), (1.0, 1.0), seed=seed).graph
        members = [u for u in range(n) if pick.random() < pick.random()]
        pick.shuffle(members)
        built = ComponentIndex(g, members)
        grown = ComponentIndex(g)
        for u in members:
            grown.add(u)
            _assert_single_matches_reach(grown)
        assert built.component_count == grown.component_count
        # the same partition: labels pair off one to one on the members
        pairs = {(built.label[u], grown.label[u]) for u in members}
        assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
        assert [x < 0 for x in built.label] == [x < 0 for x in grown.label]
        # the same reach once the built labels are renamed to the grown ones
        rename = dict(pairs)
        assert [{rename[r] for r in near} for near in built.reach] == grown.reach
        _assert_single_matches_reach(built)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), pick=st.randoms(use_true_random=False))
    def test_count_property(self, seed, pick):
        inst = gen_random_connected(12, 0.25, (1.0, 1.0), seed=seed)
        members = [u for u in range(12) if pick.random() < 0.6]
        idx = ComponentIndex(inst.graph, members)
        assert idx.component_count == bfs_component_count(inst.graph, members)
        assert {u for u in range(12) if u in idx} == set(members)


    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), pick=st.randoms(use_true_random=False))
    def test_labels_match_bfs_after_every_add(self, seed, pick):
        n = 14
        g = gen_random_connected(n, 0.2, (1.0, 1.0), seed=seed).graph
        order = list(range(n))
        pick.shuffle(order)
        idx = ComponentIndex(g)
        present = set()
        for u in order[: pick.randrange(1, n + 1)]:
            before = [set(near) for near in idx.reach]
            old_members = set(present)
            idx.add(u)
            changed, _, grown, _ = idx.take_changes()
            present.add(u)
            assert changed == {v for v in range(n) if v not in idx and idx.reach[v] != before[v]}
            bfs = bfs_component_labels(g, present)
            # a reach entry gains a label only at a neighbor of u that touched none of u's component
            assert grown == {
                v
                for v in g.adjacency[u]
                if v not in idx and all(bfs[w] != bfs[u] for w in g.adjacency[v] if w in old_members)
            }
            # the same partition up to renaming: labels pair off one to one
            pairs = {(idx.label[v], bfs[v]) for v in present}
            assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})
            assert idx.component_count == len(set(bfs.values()))
            for v in range(n):
                if v in present:
                    assert v in idx
                    assert idx.label[v] in present
                else:
                    assert idx.label[v] == -1

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), udg=st.booleans(), pick=st.randoms(use_true_random=False))
    def test_reach_matches_labels_after_every_add(self, seed, udg, pick):
        n = 24
        if udg:
            g = gen_udg(n, 2.0, (1.0, 1.0), seed=seed).graph
        else:
            g = gen_random_connected(n, 0.2, (1.0, 1.0), seed=seed).graph
        order = list(range(n))
        pick.shuffle(order)
        idx = ComponentIndex(g)
        _assert_single_matches_reach(idx)
        for u in order[: pick.randrange(1, n + 1)]:
            idx.add(u)
            for v in range(n):
                if v in idx:
                    assert idx.reach[v] == set()
                else:
                    assert idx.reach[v] == {idx.label[w] for w in g.adjacency[v] if w in idx}
            _assert_single_matches_reach(idx)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), udg=st.booleans(), pick=st.randoms(use_true_random=False))
    def test_single_changes_reported_after_every_add(self, seed, udg, pick):
        """``add`` logs exactly the nodes whose ``single`` entry differs from before it, joined node
        included, and those whose entry went from -1 to a label."""
        n = 24
        if udg:
            g = gen_udg(n, 2.0, (1.0, 1.0), seed=seed).graph
        else:
            g = gen_random_connected(n, 0.2, (1.0, 1.0), seed=seed).graph
        order = list(range(n))
        pick.shuffle(order)
        start = pick.randrange(0, n)
        idx = ComponentIndex(g, order[:start])
        for u in order[start:]:
            before = list(idx.single)
            idx.add(u)
            _, flipped, _, opened = idx.take_changes()
            assert flipped == {v for v in range(n) if idx.single[v] != before[v]}
            assert opened == {v for v in range(n) if before[v] < 0 <= idx.single[v]}
            _assert_single_matches_reach(idx)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), udg=st.booleans(), pick=st.randoms(use_true_random=False))
    def test_single_changes_logged_over_several_adds(self, seed, udg, pick):
        """Over several adds, ``flipped`` holds the nodes whose ``single`` entry changed at any of them,
        and ``opened`` those of them whose entry was -1 when the log began, whatever it holds now."""
        n = 24
        if udg:
            g = gen_udg(n, 2.0, (1.0, 1.0), seed=seed).graph
        else:
            g = gen_random_connected(n, 0.2, (1.0, 1.0), seed=seed).graph
        order = list(range(n))
        pick.shuffle(order)
        start = pick.randrange(0, n)
        idx = ComponentIndex(g, order[:start])
        while start < n:
            stop = pick.randrange(start + 1, n + 1)
            began = list(idx.single)
            moved = set()
            for u in order[start:stop]:
                before = list(idx.single)
                idx.add(u)
                moved |= {v for v in range(n) if idx.single[v] != before[v]}
            _, flipped, _, opened = idx.take_changes()
            assert flipped == moved
            assert opened == {v for v in moved if began[v] < 0}
            start = stop


class TestComponentNeighbors:
    def test_fig1_hub_and_rung_bottom(self):
        inst, designated = gen_fig1(3, 0.01)
        idx = ComponentIndex(inst.graph, sorted(designated))
        # hub u (node 1) touches only the top node's component
        assert len(component_neighbors(idx, 1)) == 1
        # rung bottom v_1 (node 5) touches only its anchor's component
        nc_v1 = component_neighbors(idx, 5)
        assert 8 in idx
        assert nc_v1 == {idx.label[8]}

    def test_single_component_neighborhood(self):
        inst = path_instance(4)
        idx = ComponentIndex(inst.graph, [1, 2])
        assert len(component_neighbors(idx, 0)) == 1
        assert len(component_neighbors(idx, 3)) == 1

    def test_member_rejected(self):
        inst = path_instance(3)
        idx = ComponentIndex(inst.graph, [0])
        with pytest.raises(ValueError):
            component_neighbors(idx, 0)
        for a, b in [(0, -1), (0, 1), (1, 0)]:
            with pytest.raises(ValueError, match="^node 0 already in the indexed set$"):
                pair_candidate(idx, a, b)
        with pytest.raises(ValueError, match="^node 0 already in the indexed set$"):
            best_star_at(idx, 0)


class TestMergePotential:
    def test_singleton_star(self):
        inst = path_instance(4)
        idx = ComponentIndex(inst.graph, [0, 3])
        # node 1 touches only component {0}
        assert merge_potential(idx, inst.graph, 1, []) == 0
        inst5 = path_instance(5)
        idx5 = ComponentIndex(inst5.graph, [0, 1, 3, 4])
        # node 2 bridges both components
        assert merge_potential(idx5, inst5.graph, 2, []) == 1

    def test_fig1_full_star(self):
        inst, designated = gen_fig1(3, 0.01)
        idx = ComponentIndex(inst.graph, sorted(designated))
        assert merge_potential(idx, inst.graph, 1, [5, 6, 7]) == 3

    def test_errors(self):
        inst, designated = gen_fig1(2, 0.5)
        idx = ComponentIndex(inst.graph, sorted(designated))
        with pytest.raises(ValueError, match="already in"):
            merge_potential(idx, inst.graph, 0, [])
        with pytest.raises(ValueError, match="already in"):
            merge_potential(idx, inst.graph, 1, [0])
        with pytest.raises(ValueError, match="not adjacent"):
            merge_potential(idx, inst.graph, 1, [2])
        # node 1's free neighbors are the rung bottoms (eps) — feeding the
        # pair in decreasing-cost order must be rejected
        heavy_first = make_instance(4, [(0, 1), (0, 2), (0, 3)], costs=[1.0, 5.0, 2.0, 1.0])
        idx2 = ComponentIndex(heavy_first.graph, [3])
        with pytest.raises(ValueError, match="sorted"):
            merge_potential(idx2, heavy_first.graph, 0, [1, 2])

    def test_matches_simulation_on_random_stars(self):
        rng = random.Random(7)
        checked = 0
        while checked < 60:
            inst = gen_random_connected(10, 0.3, (0.1, 10.0), seed=rng.randrange(10**6))
            g = inst.graph
            members = {u for u in range(10) if rng.random() < 0.5}
            outside = [u for u in range(10) if u not in members]
            if not outside:
                continue
            center = rng.choice(outside)
            free = [v for v in g.adjacency[center] if v not in members]
            leaves = sorted(
                (v for v in free if rng.random() < 0.7),
                key=lambda v: (g.cost[v], v),
            )
            idx = ComponentIndex(g, sorted(members))
            value = merge_potential(idx, g, center, leaves)
            assert value == simulate_star_value(g, members, center, leaves)
            assert value == formula_star_value(g, members, center, leaves)[0]
            # evaluation must not mutate the index
            assert {u for u in range(10) if u in idx} == members
            assert idx.component_count == bfs_component_count(g, members)
            checked += 1


class TestBestStar:
    def test_fig1_best_star_takes_all_rung_bottoms(self):
        inst, designated = gen_fig1(3, 0.01)
        idx = ComponentIndex(inst.graph, sorted(designated))
        star = best_star_at(idx, 1)
        assert star is not None
        key, gain, leaves, total_cost = star
        assert set(leaves) == {5, 6, 7}
        assert gain == 3
        assert key == ratio_key(gain, total_cost, inst.graph.key_shift)
        assert math.isclose(total_cost, 1.04, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(gain / total_cost, 3 / 1.04, rel_tol=1e-12)

    def test_none_when_nothing_merges(self):
        inst = complete_instance(3)
        idx = ComponentIndex(inst.graph, [0])
        assert best_star_at(idx, 1) is None

    def test_lemma_structure_of_returned_star(self):
        rng = random.Random(3)
        for _ in range(40):
            inst = gen_random_connected(12, 0.25, (0.1, 10.0), seed=rng.randrange(10**6))
            g = inst.graph
            members = random_dominating_set(rng, g)
            if len(members) == 12:
                continue
            idx = ComponentIndex(g, sorted(members))
            for center in range(12):
                if center in members:
                    continue
                star = best_star_at(idx, center)
                if star is None:
                    continue
                seen_comps = set(component_neighbors(idx, center))
                for leaf in star[2]:
                    reached = component_neighbors(idx, leaf)
                    assert len(reached) == 1
                    comp = next(iter(reached))
                    assert comp not in seen_comps
                    seen_comps.add(comp)

    def test_matches_exhaustive_subset_search(self):
        # The one-fresh-component-per-leaf restriction is lossless globally:
        # a center whose best star needs a multi-component leaf is always
        # beaten (or tied) by that leaf acting as a center itself.  So the
        # structured search may fall short for individual centers but its
        # best over all centers equals the exhaustive best over all centers
        # and all leaf subsets.
        rng = random.Random(11)
        compared = 0
        for _ in range(30):
            inst = gen_random_connected(9, 0.35, (0.1, 10.0), seed=rng.randrange(10**6))
            g = inst.graph
            members = random_dominating_set(rng, g)
            if len(members) == 9:
                continue
            idx = ComponentIndex(g, sorted(members))
            best_lib = None
            best_brute = None
            for center in range(9):
                if center in members:
                    continue
                star = best_star_at(idx, center)
                brute = brute_force_best_star(g, members, center)
                if star is not None:
                    _, gain, _, total_cost = star
                    eff = Fraction(gain) / Fraction(total_cost)
                    # prefix stars are a subfamily of all leaf subsets
                    assert brute is not None and eff <= brute
                    if best_lib is None or eff > best_lib:
                        best_lib = eff
                if brute is not None and (best_brute is None or brute > best_brute):
                    best_brute = brute
            assert best_lib == best_brute
            compared += 1
        assert compared >= 25

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        udg=st.booleans(),
        share=st.floats(0.05, 0.9),
        pick=st.randoms(use_true_random=False),
    )
    def test_matches_label_scan_reference(self, seed, udg, share, pick):
        n = 30
        if udg:
            g = gen_udg(n, 2.5, (0.1, 10.0), seed=seed).graph
        else:
            g = gen_random_connected(n, 0.15, (0.1, 10.0), seed=seed).graph
        members = [u for u in range(n) if pick.random() < share]
        pick.shuffle(members)
        idx = ComponentIndex(g, members)
        for center in range(n):
            if center in idx:
                continue
            assert best_star_at(idx, center) == _value(reference_best_star_at(idx, g, center), g)
            assert component_neighbors(idx, center) == reference_component_neighbors(idx, g, center)


class TestGreedyConnect:
    def test_already_connected_is_noop(self):
        inst = path_instance(5)
        report = greedy_connect(inst, {1, 2, 3})
        assert report.connectors == set()
        assert report.stars == []
        assert report.initial_components == 1

    def test_fig1_designated_set(self):
        for d in (2, 3, 5):
            inst, designated = gen_fig1(d, 0.01)
            report = greedy_connect(inst, designated)
            hub = 1
            bottoms = set(range(2 + d, 2 + 2 * d))
            assert report.connectors == {hub} | bottoms
            cost = sum(inst.graph.cost[u] for u in report.connectors)
            assert math.isclose(cost, 1 + (d + 1) * 0.01, rel_tol=0, abs_tol=1e-12)
            assert len(report.stars) == 1

    def test_random_outputs_are_cds(self):
        rng = random.Random(5)
        for _ in range(50):
            m = rng.choice([1, 2])
            inst = gen_random_connected(12, 0.25, (0.1, 10.0), seed=rng.randrange(10**6), m=m)
            from cdsopt.domination import greedy_dominating_set

            d1, _ = greedy_dominating_set(inst)
            report = greedy_connect(inst, d1)
            assert verify_cds(inst, d1 | report.connectors).is_cds
            assert report.component_trace == sorted(report.component_trace, reverse=True)
            if report.component_trace:
                assert report.component_trace[-1] == 1

    def test_trace_matches_promised_merges(self):
        rng = random.Random(9)
        for _ in range(25):
            inst = gen_random_connected(14, 0.2, (0.1, 10.0), seed=rng.randrange(10**6))
            members = random_dominating_set(rng, inst.graph)
            report = greedy_connect(inst, members)
            prev = report.initial_components
            for star, after in zip(report.stars, report.component_trace):
                assert prev - after == star.gain
                assert star.gain >= 1
                prev = after

    def test_relabelled_leaf_keeps_its_centers_stale(self):
        """A leaf whose one label is merged into a component its center touches is no leaf after the round.

        Node 2 touches only component {4} and is a leaf of center 3, which touches
        only {5}.  The round adds the star 0 + (1,): adding 0 gives node 2 a second
        label, adding 1 merges {4} into {5}, so node 2 ends with one label again,
        the one center 3 touches.  Its entry changed and was a label at the round's
        start, so center 3 must be revalued before its old star (3, 2) is trusted:
        that star would now merge nothing.
        """
        edges = [(0, 5), (0, 2), (0, 1), (1, 4), (2, 4), (3, 2), (3, 5), (5, 6), (6, 7)]
        inst = make_instance(8, edges, [1.0, 1.0, 10.0, 10.0, 1.0, 1.0, 100.0, 1.0])
        report = greedy_connect(inst, {4, 5, 7})
        assert [(star.center, star.leaves) for star in report.stars] == [(0, (1,)), (6, ())]
        assert report.stars == reference_connect(inst, {4, 5, 7}, "star").stars

    def test_rejects_non_dominating_input(self):
        inst = path_instance(5)
        with pytest.raises(ValueError, match="not dominating"):
            greedy_connect(inst, {0})
        for bad in (-1, 5):
            with pytest.raises(ValueError, match="out of range"):
                greedy_connect(inst, {0, 2, 4, bad})


    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["random", "udg", "fig1"]),
        n=st.integers(5, 120),
        seed=st.integers(0, 10**6),
        costs=st.sampled_from([(0.1, 10.0), (1.0, 1.0), "exact"]),
        greedy_ds=st.booleans(),
        m=st.integers(1, 2),
        connector=st.sampled_from(["star", "pairwise"]),
    )
    def test_matches_full_rescan_reference(self, kind, n, seed, costs, greedy_ds, m, connector):
        """Every pick equals the full rescan's, also where equal keys at different gains are common.

        "exact" costs, drawn from ``_EXACT_COSTS``, make many stars tie in
        ratio, so the lazy entries' (key, gain, center) order is exercised on ties.
        """
        rng = random.Random(seed)
        drawn = (1.0, 1.0) if costs == "exact" else costs
        designated = None
        if kind == "random":
            inst = gen_random_connected(n, 3.0 / n, drawn, seed=seed, m=m)
        elif kind == "udg":
            inst = gen_udg(n, math.sqrt(n / 5.0), drawn, seed=seed, m=m)
        else:
            # a dyadic eps keeps every sum exact, so that no tie is left to the reference's float products
            inst, designated = gen_fig1(max(1, n // 3), 1 / 16, m=m)
        if costs == "exact":
            cost = tuple(rng.choice(_EXACT_COSTS) for _ in range(inst.graph.node_count))
            inst = replace(inst, graph=replace(inst.graph, cost=cost))
        if designated is not None and greedy_ds:
            members = designated
        elif greedy_ds:
            members, _ = greedy_dominating_set(inst)
        else:
            members = random_dominating_set(rng, inst.graph)
        if connector == "star":
            fast = greedy_connect(inst, members)
        else:
            fast = pairwise_connect(inst, members)
        ref = reference_connect(inst, members, connector)
        assert fast.method == ref.method == connector
        assert fast.stars == ref.stars
        assert fast.component_trace == ref.component_trace
        assert fast.connectors == ref.connectors
        assert fast.initial_components == ref.initial_components

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["random", "udg"]),
        n=st.integers(1, 40),
        seed=st.integers(0, 10**6),
        m=st.integers(1, 2),
        pick=st.randoms(use_true_random=False),
    )
    def test_names_the_reference_undominated_node(self, kind, n, seed, m, pick):
        """On a non-dominating set both connectors name the node ``verify_mds`` names first."""
        if kind == "random":
            inst = gen_random_connected(n, min(1.0, 3.0 / n), (1.0, 1.0), seed=seed, m=m)
        else:
            inst = gen_udg(n, math.sqrt(n / 5.0), (1.0, 1.0), seed=seed, m=m)
        members = {u for u in range(n) if pick.random() < 0.5}
        # leave one node and its neighbors out, so that node is undominated
        lonely = pick.randrange(n)
        members -= {lonely, *inst.graph.adjacency[lonely]}
        with pytest.raises(ValueError, match="^set is not dominating: ") as ref:
            reference_connect(inst, members, "star")
        for connect in (greedy_connect, pairwise_connect):
            with pytest.raises(ValueError) as err:
                connect(inst, members)
            assert str(err.value) == str(ref.value)


class TestCostScaling:
    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["random", "udg"]),
        n=st.integers(10, 49),
        seed=st.integers(0, 10**6),
        costs=st.sampled_from([(0.1, 10.0), (1.0, 1.0)]),
        m=st.integers(1, 3),
        connector=st.sampled_from(["star", "pairwise"]),
    )
    def test_power_of_two_scaling_keeps_every_pick(self, kind, n, seed, costs, m, connector):
        """Scaling every cost by 2**j scales every float sum exactly, and ``ratio_key`` orders exactly.

        So both phases pick the same nodes with the same gains.  Only ids
        and gains are compared: costs and ratios scale with the costs.
        """
        if kind == "random":
            inst = gen_random_connected(n, 3.0 / n, costs, seed=seed, m=m)
        else:
            inst = gen_udg(n, math.sqrt(n / 5.0), costs, seed=seed, m=m)

        def picks(scale):
            graph = replace(inst.graph, cost=tuple(c * scale for c in inst.graph.cost))
            result = solve(replace(inst, graph=graph), connector=connector)
            report = result.connect_report
            return (
                [(step.node, step.gain) for step in result.phase1_trace.steps],
                [(star.center, star.leaves, star.gain) for star in report.stars],
                report.component_trace,
            )

        base = picks(1.0)
        for j in (-3, -2, -1, 1, 2, 3):
            assert picks(2.0**j) == base, f"scale 2**{j}"


class TestRelabelling:
    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(["random", "udg"]),
        n=st.integers(10, 49),
        seed=st.integers(0, 10**6),
        m=st.integers(1, 3),
        data=st.data(),
    )
    def test_relabelling_permutes_every_pick(self, kind, n, seed, m, data):
        """Ids break only ties, and random costs leave no two keys tied but
        stars on one node set at different centers (the two orientations of
        a two-node star, or the three of a triangle), which share one cost
        and one gain.  So on the relabelled graph each pick of both phases is
        the image of the original one, a star up to its center.
        """
        if kind == "random":
            inst = gen_random_connected(n, 3.0 / n, (0.1, 10.0), seed=seed, m=m)
        else:
            inst = gen_udg(n, math.sqrt(n / 5.0), (0.1, 10.0), seed=seed, m=m)
        perm = data.draw(st.permutations(range(n)))
        old = sorted(range(n), key=perm.__getitem__)  # old[perm[u]] == u
        g = inst.graph
        coords = None if g.coords is None else [g.coords[u] for u in old]
        graph = WeightedGraph.from_edges(
            n, [(perm[u], perm[v]) for u, v in edge_list(g)], [g.cost[u] for u in old], coords=coords
        )
        relabelled = replace(inst, graph=graph)

        def picks(instance, connector, rename):
            result = solve(instance, connector=connector)
            report = result.connect_report
            stars = []
            for star in report.stars:
                nodes = [rename[u] for u in star.nodes]
                stars.append((sorted(nodes), star.gain, star.total_cost))
            steps = [(rename[step.node], *step[1:]) for step in result.phase1_trace.steps]
            return steps, stars, report.component_trace

        for connector in ("star", "pairwise"):
            assert picks(relabelled, connector, range(n)) == picks(inst, connector, perm), connector


class TestRatioNonMonotonicity:
    def test_chosen_ratios_can_decrease_despite_optimal_choices(self):
        """Cost/gain ratios of chosen stars are not monotone.

        A star's capped merge value can rise while the set grows: a freshly
        added connector node can hand a nearby center a component neighbor
        it did not have before.  Here both picks are globally optimal
        (verified against exhaustive search), yet the second is cheaper per
        merge than the first.
        """
        inst = gen_random_connected(10, 0.1, (0.1, 10.0), seed=10303, m=1)
        g = inst.graph
        from cdsopt.domination import greedy_dominating_set

        d1, _ = greedy_dominating_set(inst)
        report = greedy_connect(inst, d1)
        assert len(report.stars) == 2
        first, second = report.stars
        assert first.total_cost / first.gain > second.total_cost / second.gain

        members = set(d1)
        for star in report.stars:
            best_brute = None
            for center in range(10):
                if center in members:
                    continue
                eff = brute_force_best_star(g, members, center)
                if eff is not None and (best_brute is None or eff > best_brute):
                    best_brute = eff
            assert Fraction(star.gain) / Fraction(star.total_cost) == best_brute
            members |= set(star.nodes)
        # the value of the second star's center rose from 1 to 2 when the
        # first connector landed next to it
        idx_before = ComponentIndex(g, sorted(d1))
        assert merge_potential(idx_before, g, second.center, list(second.leaves)) == 1
        assert second.gain == 2


class TestPairwiseConnect:
    def test_fig1_designated_set_takes_rungs(self):
        for d in (2, 3):
            inst, designated = gen_fig1(d, 0.01)
            report = pairwise_connect(inst, designated)
            rung_tops = set(range(2, 2 + d))
            rung_bottoms = set(range(2 + d, 2 + 2 * d))
            assert report.connectors == rung_tops | rung_bottoms
            cost = sum(inst.graph.cost[u] for u in report.connectors)
            assert math.isclose(cost, d * 1.01, rel_tol=0, abs_tol=1e-12)

    def test_already_connected_is_noop(self):
        inst = path_instance(5)
        assert pairwise_connect(inst, {1, 2, 3}).connectors == set()

    def test_singleton_wins_float_tie_with_pair(self):
        # path 0-1-2 plus node 3 on 1 and 2: the pair (1, 3) costs 1.0 + 1e-17,
        # which rounds to 1.0, so it ties the singleton 1 in every compared key
        inst = make_instance(4, [(0, 1), (1, 2), (1, 3), (2, 3)], costs=[1.0, 1.0, 1.0, 1e-17])
        assert 1.0 + 1e-17 == 1.0
        singleton = StarCandidate(center=1, leaves=(), gain=1, total_cost=1.0)
        idx = ComponentIndex(inst.graph, [0, 2])
        assert pair_candidate(idx, 1, -1) == _value(singleton, inst.graph)
        key, gain, _, total_cost = _value(singleton, inst.graph)
        assert pair_candidate(idx, 1, 3) == (key, gain, (3,), total_cost)
        assert pairwise_connect(inst, {0, 2}).stars == [singleton]
        assert reference_connect(inst, {0, 2}, "pairwise").stars == [singleton]

    @pytest.mark.parametrize("connect", [greedy_connect, pairwise_connect], ids=["star", "pairwise"])
    def test_neighbouring_huge_costs_ordered_by_graph_shift(self, connect):
        # 1 and 2 each join 0 and 3; their costs are neighbouring floats near
        # 1e300, which a fixed 107-bit shift ties (the tie would take node 1)
        big = 1e300
        after = math.nextafter(big, math.inf)
        inst = make_instance(4, [(0, 1), (1, 3), (0, 2), (2, 3)], costs=[1.0, after, big, 1.0])
        assert inst.graph.key_shift == ratio_shift(inst.graph.cost) >= 2 * 997 + 1
        assert ratio_key(1, after, 107) == ratio_key(1, big, 107)
        assert connect(inst, {0, 3}).stars == [StarCandidate(center=2, leaves=(), gain=1, total_cost=big)]

    @pytest.mark.parametrize("connect", [greedy_connect, pairwise_connect], ids=["star", "pairwise"])
    def test_star_total_rounding_to_infinity_ranks_last(self, connect):
        # 1-2 and 4-5 both join 0 and 3; big + big rounds to inf, big + 2.0 to big
        big = 1.7e308
        edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3)]
        inst = make_instance(6, edges, costs=[1.0, big, big, 1.0, big, 2.0])
        assert big + big == math.inf
        assert connect(inst, {0, 3}).stars == [StarCandidate(center=4, leaves=(5,), gain=1, total_cost=big)]
        # with no finite way across, the infinite total is still taken
        path = path_instance(4, costs=[1.0, big, big, 1.0])
        assert connect(path, {0, 3}).stars == [StarCandidate(center=1, leaves=(2,), gain=1, total_cost=math.inf)]

    def test_best_pair_equals_full_scan(self):
        """Every slot's ``pair_candidate`` and the heap's pick order agree with a full scan."""
        rng = random.Random(17)
        for i in range(150):
            base = gen_random_connected(14, 0.3, (1.0, 1.0), seed=rng.randrange(10**6))
            if i % 2:
                costs = [float(rng.randint(1, 3)) for _ in range(14)]
            else:
                costs = [rng.randint(1, 30) / 10 for _ in range(14)]
            graph = make_instance(14, edge_list(base.graph), costs=costs).graph
            idx = ComponentIndex(graph, sorted(random_dominating_set(rng, graph)))
            slots = []
            ranked = []
            for a in range(graph.node_count):
                if a in idx:
                    continue
                reached = reference_component_neighbors(idx, graph, a)
                options = [(-1, costs[a], len(reached) - 1)]
                for b in graph.adjacency[a]:
                    if b > a and b not in idx:
                        both = reached | reference_component_neighbors(idx, graph, b)
                        options.append((b, costs[a] + costs[b], len(both) - 1))
                for b, total, gain in options:
                    cand = None
                    if gain >= 1:
                        leaves = () if b < 0 else (b,)
                        cand = StarCandidate(center=a, leaves=leaves, gain=gain, total_cost=total)
                    assert pair_candidate(idx, a, b) == _value(cand, graph)
                    slots.append((a, b))
                    if cand is not None:
                        ranked.append(((-ratio_key(gain, total, graph.key_shift), -gain), cand))
            # equal ranks keep the scan order: centers by id, the singleton, then b in adjacency order
            ranked.sort(key=lambda item: item[0])
            heap = _CandidateHeap(idx, pair_candidate)
            heap.refresh(reversed(slots))
            popped = []
            while (cand := heap.pop()) is not None:
                popped.append(cand)
            assert popped == [cand for _, cand in ranked]

    def test_both_connectors_end_connected(self):
        rng = random.Random(13)
        for _ in range(100):
            inst = gen_random_connected(11, 0.25, (0.1, 10.0), seed=rng.randrange(10**6))
            members = random_dominating_set(rng, inst.graph)
            star = greedy_connect(inst, members)
            pair = pairwise_connect(inst, members)
            assert verify_cds(inst, members | star.connectors).is_cds
            assert verify_cds(inst, members | pair.connectors).is_cds

    def test_rejects_non_dominating_input(self):
        inst = path_instance(5)
        with pytest.raises(ValueError, match="not dominating"):
            pairwise_connect(inst, {0})
        for bad in (-1, 5):
            with pytest.raises(ValueError, match="out of range"):
                pairwise_connect(inst, {0, 2, 4, bad})


_SEARCHES = pytest.mark.parametrize(
    "connect, method, search",
    [(greedy_connect, "star", "best_star_at"), (pairwise_connect, "pairwise", "pair_candidate")],
    ids=["star", "pairwise"],
)


class TestConnectorSelfChecks:
    """The connector's stall and promised-merge checks, reached through a patched slot evaluator."""

    @_SEARCHES
    def test_stall(self, monkeypatch, connect, method, search):
        monkeypatch.setattr(cdsopt.connector, search, lambda idx, graph, *slot: None)
        with pytest.raises(RuntimeError, match=f"^{method} connector stalled: no candidate merges components$"):
            connect(path_instance(5), {0, 2, 4})

    @_SEARCHES
    def test_broken_promise(self, monkeypatch, connect, method, search):
        real = getattr(cdsopt.connector, search)

        def inflated(idx, graph, *slot):
            val = real(idx, graph, *slot)
            return None if val is None else (val[0], val[1] + 1, *val[2:])

        monkeypatch.setattr(cdsopt.connector, search, inflated)
        message = f"^{method} connector: selected candidate promised 2 merges but delivered 1$"
        with pytest.raises(RuntimeError, match=message):
            connect(path_instance(5), {0, 2, 4})

    def test_unknown_connector_rejected(self):
        with pytest.raises(ValueError, match="^unknown connector 'nope'$"):
            solve(path_instance(3), connector="nope")


def _free_slots(idx, graph, method):
    """Every slot with free endpoints: each free center, and for pairwise each free edge."""
    free = [u for u in range(graph.node_count) if u not in idx]
    slots = [(u, -1) for u in free]
    if method == "pairwise":
        slots += [(a, b) for a in free for b in graph.adjacency[a] if b > a and b not in idx]
    return slots


class _CheckedHeap(_CandidateHeap):
    """A candidate heap that checks every free slot before each pick and the pick itself.

    A clean live entry is its slot's current value, a dirty one ranks no
    later than it, a slot with no live entry has no candidate, and the pick
    is the full scan's.
    """

    method = "star"
    pops = 0

    def pop(self):
        graph = self.idx.graph
        live = {}
        for entry in self.entries:
            if self.live(entry):
                slot = entry[2:4]
                assert slot not in live, f"two live entries at slot {slot}"
                live[slot] = entry
        free = _free_slots(self.idx, graph, self.method)
        assert set(live) <= set(free)
        for slot in free:
            fresh = self.value(self.idx, *(slot if slot[1] >= 0 else slot[:1]))
            entry = live.get(slot)
            if fresh is None:
                assert entry is None or slot in self.dirty, f"slot {slot}: clean live entry {entry} but no candidate"
            else:
                assert entry is not None, f"slot {slot}: no live entry for {fresh}"
                key, gain, leaves, total_cost = fresh
                assert key == ratio_key(gain, total_cost, graph.key_shift)
                rank = (-key, -gain, *slot)
                if slot in self.dirty:
                    # an upper bound: in the full (key, larger gain, center, partner) order it pops no later
                    # than the fresh value would
                    assert entry[:4] <= rank, f"dirty slot {slot}: entry {entry} ranks after {fresh}"
                else:
                    assert entry[:4] == rank, f"slot {slot}: clean entry {entry} but fresh value {fresh}"
                    assert entry[5:] == (leaves, total_cost)
        pick = super().pop()
        assert pick == reference_pick(self.idx, graph, self.method)
        type(self).pops += 1
        return pick


def _checked_connect(connect, connector, inst, members):
    """``connect(inst, members)`` through a ``_CheckedHeap``, which checks each of its picks."""
    _CheckedHeap.pops = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_CheckedHeap, "method", connector)
        mp.setattr(cdsopt.connector, "_CandidateHeap", _CheckedHeap)
        report = connect(inst, members)
    assert _CheckedHeap.pops == len(report.stars)
    assert bfs_component_count(inst.graph, set(members) | report.connectors) == 1
    return report


_GOLDEN_CASES = {
    "udg-n150-s1": ("udg", 150, 4.3, (0.1, 10.0), 1),
    "udg-n180-s2": ("udg", 180, 4.7, (0.1, 10.0), 2),
    "udg-n200-s3": ("udg", 200, 5.0, (0.1, 10.0), 3),
    # the first udg-star benchmark instance at seed 1
    "udg-n800-s1000": ("udg", 800, 10.0, (0.1, 10.0), 1000),
    "random-n200-m2-s1": ("random", 200, 3 / 200, (0.1, 10.0), 1, 2),
    "random-n200-m2-s2": ("random", 200, 3 / 200, (0.1, 10.0), 2, 2),
    "udg-n12-s1": ("udg", 12, 2.2, (0.1, 10.0), 1),
    "random-n14-m2-s1": ("random", 14, 3 / 14, (0.1, 10.0), 1, 2),
    "fig1-d30": ("fig1", 30, 0.01),
    "fig1-d4": ("fig1", 4, 0.01),
}


def _golden_case(name):
    """The instance of a golden report (``tests/test_golden.py``) and the set its phase 2 connects."""
    kind, *args = _GOLDEN_CASES[name]
    if kind == "fig1":
        return gen_fig1(*args)
    inst = gen_udg(*args) if kind == "udg" else gen_random_connected(*args)
    return inst, greedy_dominating_set(inst)[0]


class TestCandidateHeap:
    @pytest.mark.parametrize("connector", ["star", "pairwise"])
    @pytest.mark.parametrize("name", sorted(_GOLDEN_CASES))
    def test_golden_instances_checked(self, name, connector):
        """On each golden instance, every pick of either connector passes the ``_CheckedHeap`` checks."""
        inst, members = _golden_case(name)
        connect = greedy_connect if connector == "star" else pairwise_connect
        _checked_connect(connect, connector, inst, members)

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["random", "udg", "fig1"]),
        n=st.integers(5, 40),
        seed=st.integers(0, 10**6),
        costs=st.sampled_from([(0.1, 10.0), (1.0, 1.0)]),
        greedy_ds=st.booleans(),
        m=st.integers(1, 3),
        connector=st.sampled_from(["star", "pairwise"]),
    )
    def test_live_entries_equal_fresh_candidates(self, kind, n, seed, costs, greedy_ds, m, connector):
        """Before every pick each free slot's live entry is its current value, or a bound if the slot is dirty, and the pick is the full scan's."""
        if kind == "random":
            inst = gen_random_connected(n, 3.0 / n, costs, seed=seed, m=m)
        elif kind == "udg":
            inst = gen_udg(n, math.sqrt(n / 5.0), costs, seed=seed, m=m)
        else:
            inst, designated = gen_fig1(max(1, n // 4), costs[0] / 10, m=m)
        if kind == "fig1" and greedy_ds:
            members = designated
        elif greedy_ds:
            members, _ = greedy_dominating_set(inst)
        else:
            members = random_dominating_set(random.Random(seed), inst.graph)
        connect = greedy_connect if connector == "star" else pairwise_connect
        _checked_connect(connect, connector, inst, members)

    @pytest.mark.parametrize("connect", [greedy_connect, pairwise_connect], ids=["star", "pairwise"])
    def test_one_candidate_per_round(self, monkeypatch, connect):
        """Slots are valued as tuples; a run builds one ``StarCandidate`` per round, from the popped entry."""
        inst = gen_udg(800, 10.0, (0.1, 10.0), 1000)
        members, _ = greedy_dominating_set(inst)
        built = 0

        def counted(*args, **kwargs):
            nonlocal built
            built += 1
            return StarCandidate(*args, **kwargs)

        monkeypatch.setattr(cdsopt.connector, "StarCandidate", counted)
        report = connect(inst, members)
        assert len(report.stars) > 1
        assert built == len(report.stars)


class TestLadderWork:
    """The connectors' work on the ladder from its designated set, pinned."""

    @pytest.mark.parametrize("d", [50, 200])
    def test_pairwise_slot_evaluations_linear(self, d):
        # the first round values the 2d+1 singletons and 2d edges of the free
        # nodes, and no later round changes a reach entry (a rescan of the
        # hub's d pairs each round made O(d^2) pair unions)
        inst, designated = gen_fig1(d, 0.01)
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return pair_candidate(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdsopt.connector, "pair_candidate", counted)
            report = pairwise_connect(inst, designated)
        assert calls == report.valuations <= 5 * d
        assert len(report.stars) == d
        cost = sum(inst.graph.cost[u] for u in report.connectors)
        assert math.isclose(cost, d * 1.01, rel_tol=1e-12)

    @pytest.mark.parametrize("d", [50, 200])
    def test_star_one_round_closed_form(self, d):
        inst, designated = gen_fig1(d, 0.01)
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return best_star_at(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdsopt.connector, "best_star_at", counted)
            report = greedy_connect(inst, designated)
        assert calls == report.valuations <= 4 * d
        assert len(report.stars) == 1
        assert report.connectors == {1} | set(range(2 + d, 2 + 2 * d))
        cost = sum(inst.graph.cost[u] for u in report.connectors)
        assert math.isclose(cost, 1 + (d + 1) * 0.01, rel_tol=1e-12)


class TestUdgStarWork:
    """The star connector's work on the first udg-star benchmark instance, pinned."""

    def test_star_calls_rounds_components(self):
        inst = gen_udg(800, 10.0, (0.1, 10.0), 1000)
        members, _ = greedy_dominating_set(inst)
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return best_star_at(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdsopt.connector, "best_star_at", counted)
            report = greedy_connect(inst, members)
        # a stale center whose value cannot rise keeps its entry until it tops the heap, and a neighbor
        # whose new label the center touches leaves it alone (3,136 calls when every stale center was
        # revalued each round, 2,093 when every neighbor of a newly single node was revalued)
        assert calls == report.valuations == 1074
        assert len(report.stars) == 29
        assert report.initial_components == 36


class TestCoverWork:
    """Phase 1's work on a hub and on the first random-cover benchmark instance, pinned."""

    @staticmethod
    def counted_cover(inst):
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return coverage_gain(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cdsopt.domination, "coverage_gain", counted)
            _, trace = greedy_dominating_set(inst)
        return trace, calls

    def test_comb_hub_costs_no_rescan(self):
        # the hub's stale key tops the heap after every helper pick; a
        # coverage_gain rescan there made O(k^2) neighbour visits
        k = 2000
        trace, calls = self.counted_cover(comb_instance(k))
        assert calls == 0
        assert [(s.node, s.gain) for s in trace.steps] == [(k + 1 + i, 2) for i in range(k)] + [(0, 1)]

    def test_random_cover_steps(self):
        trace, calls = self.counted_cover(gen_random_connected(2000, 3 / 2000, (0.1, 10.0), 1000, m=4))
        assert calls == 0
        assert len(trace.steps) == 1473
