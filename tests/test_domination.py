"""Coverage potential, incremental state, and the greedy dominating set."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdsopt.domination import (
    DeficitState,
    coverage_gain,
    greedy_dominating_set,
)
from cdsopt.generators import gen_fig1, gen_random_connected, gen_udg
from cdsopt.verify import verify_mds
from helpers import (
    complete_instance,
    coverage_value,
    make_instance,
    path_instance,
    reference_greedy_dominating_set,
)


def with_costs(inst, costs):
    return replace(inst, graph=replace(inst.graph, cost=tuple(costs)))


class TestCoverageValue:
    def test_empty_set_is_zero(self):
        for inst in (path_instance(3), complete_instance(5, m=2), path_instance(7, m=3)):
            assert coverage_value(inst, set()) == 0

    def test_full_set_is_target(self):
        for inst in (path_instance(3), complete_instance(5, m=2)):
            n = inst.graph.node_count
            assert coverage_value(inst, set(range(n))) == inst.m * n

    def test_p3_middle(self):
        assert coverage_value(path_instance(3), {1}) == 3


class TestCoverageGain:
    def test_empty_set_gain_is_m_plus_degree(self):
        for m in (1, 2, 3):
            inst = gen_random_connected(10, 0.4, (0.1, 10.0), seed=5, m=m)
            state = DeficitState(inst)
            for u in range(10):
                assert coverage_gain(state, u) == m + inst.graph.degree(u)

    def test_zero_once_set_dominates(self):
        inst = path_instance(5)
        state = DeficitState(inst)
        for u in (1, 3):
            state.add(u)
        for u in (0, 2, 4):
            assert coverage_gain(state, u) == 0

    def test_member_rejected(self):
        inst = path_instance(3)
        state = DeficitState(inst)
        state.add(1)
        with pytest.raises(ValueError):
            coverage_gain(state, 1)
        with pytest.raises(ValueError):
            state.add(1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), m=st.integers(1, 3), pick=st.randoms(use_true_random=False))
    def test_matches_from_scratch_recomputation(self, seed, m, pick):
        inst = gen_random_connected(10, 0.35, (0.1, 10.0), seed=seed, m=m)
        members = {u for u in range(10) if pick.random() < 0.4}
        state = DeficitState(inst)
        for u in sorted(members):
            state.add(u)
        base = coverage_value(inst, members)
        assert inst.m * 10 - sum(state.deficit) == base
        for u in range(10):
            if u in members:
                continue
            assert coverage_gain(state, u) == coverage_value(inst, members | {u}) - base


class TestPolymatroidProperties:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), m=st.integers(1, 3), pick=st.randoms(use_true_random=False))
    def test_monotone_and_submodular(self, seed, m, pick):
        inst = gen_random_connected(9, 0.4, (0.1, 10.0), seed=seed, m=m)
        small = {u for u in range(9) if pick.random() < 0.3}
        large = small | {u for u in range(9) if pick.random() < 0.3}
        assert coverage_value(inst, small) <= coverage_value(inst, large)
        outside = [u for u in range(9) if u not in large]
        if outside:
            u = pick.choice(outside)
            gain_small = coverage_value(inst, small | {u}) - coverage_value(inst, small)
            gain_large = coverage_value(inst, large | {u}) - coverage_value(inst, large)
            assert gain_small >= gain_large


class TestGreedy:
    def test_p3_picks_middle(self):
        inst = path_instance(3)
        chosen, trace = greedy_dominating_set(inst)
        assert chosen == {1}
        assert [s.node for s in trace.steps] == [1]
        assert trace.steps[0].gain == 3

    def test_k5_picks_cheapest(self):
        inst = complete_instance(5, costs=[5.0, 4.0, 3.0, 2.0, 1.0])
        chosen, _ = greedy_dominating_set(inst)
        assert chosen == {4}

    def test_fig1_output_is_mds(self):
        inst, _ = gen_fig1(3, 0.01)
        chosen, _ = greedy_dominating_set(inst)
        assert verify_mds(inst, chosen).is_m_ds

    def test_terminates_at_full_coverage(self):
        for seed in range(20):
            m = 1 + seed % 3
            inst = gen_random_connected(12, 0.3, (0.1, 10.0), seed=seed, m=m)
            chosen, trace = greedy_dominating_set(inst)
            assert coverage_value(inst, chosen) == m * 12
            assert verify_mds(inst, chosen).is_m_ds
            assert all(s.gain > 0 for s in trace.steps)

    def test_incremental_state_matches_oracle_along_run(self):
        inst = gen_random_connected(14, 0.25, (0.1, 10.0), seed=3, m=2)
        chosen, trace = greedy_dominating_set(inst)
        state = DeficitState(inst)
        members = set()
        for step in trace.steps:
            state.add(step.node)
            members.add(step.node)
            assert inst.m * 14 - sum(state.deficit) == coverage_value(inst, members)
        assert members == chosen

    def test_trace_ratios_and_running_cost(self):
        inst = gen_random_connected(10, 0.4, (0.5, 4.0), seed=9)
        _, trace = greedy_dominating_set(inst)
        total = 0.0
        for step in trace.steps:
            node_cost = inst.graph.cost[step.node]
            total += node_cost
            assert step.running_cost == pytest.approx(total, rel=1e-12)
            assert step.ratio == pytest.approx(step.gain / node_cost, rel=1e-12)

    def test_low_degree_node_joins_when_m_exceeds_degree(self):
        # pendant node 0 has degree 1 < m=2, so it can never be dominated
        # twice from outside and must end up inside the set
        inst = make_instance(4, [(0, 1), (1, 2), (1, 3), (2, 3)], m=2)
        chosen, _ = greedy_dominating_set(inst)
        assert 0 in chosen
        assert verify_mds(inst, chosen).is_m_ds

    def test_deterministic(self):
        inst = gen_random_connected(15, 0.3, (0.1, 10.0), seed=21, m=2)
        a, ta = greedy_dominating_set(inst)
        b, tb = greedy_dominating_set(inst)
        assert a == b
        assert [s.node for s in ta.steps] == [s.node for s in tb.steps]

    def test_tie_breaks_prefer_gain_then_id(self):
        # unit costs on a 4-cycle: all gains equal at first, smallest id wins
        inst = make_instance(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        chosen, trace = greedy_dominating_set(inst)
        assert trace.steps[0].node == 0

    def test_tie_predicate_is_cross_multiplied(self):
        # 2 * 2.1 > 3 * 1.4 in floats (4.2 > 4.199999999999999), so node 2
        # goes first; a heap keyed on the float ratio sees 3/2.1 == 2/1.4
        # and would take node 0 for its larger gain, finishing at once
        inst = make_instance(3, [(0, 1), (0, 2)], costs=[2.1, 5.0, 1.4])
        chosen, trace = greedy_dominating_set(inst)
        assert [s.node for s in trace.steps] == [2, 0]
        ref_chosen, ref_trace = reference_greedy_dominating_set(inst)
        assert chosen == ref_chosen
        assert trace.steps == ref_trace.steps

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["random", "udg"]),
        n=st.integers(2, 60),
        seed=st.integers(0, 10**6),
        cost_kind=st.sampled_from(["uniform", "equal", "integer", "dyadic"]),
        m=st.integers(1, 4),
    )
    def test_matches_full_scan_reference(self, kind, n, seed, cost_kind, m):
        if kind == "random":
            inst = gen_random_connected(n, min(1.0, 3.0 / n), (0.1, 10.0), seed=seed, m=m)
        else:
            inst = gen_udg(n, math.sqrt(n / 5.0), (0.1, 10.0), seed=seed, m=m)
        rng = random.Random(seed)
        if cost_kind == "uniform":
            costs = [rng.uniform(0.1, 10.0) for _ in range(n)]
        elif cost_kind == "equal":
            costs = [rng.uniform(0.1, 10.0)] * n
        elif cost_kind == "integer":
            costs = [float(rng.randint(1, 5)) for _ in range(n)]
        else:
            costs = [rng.randint(1, 40) / 8 for _ in range(n)]
        inst = with_costs(inst, costs)
        chosen, trace = greedy_dominating_set(inst)
        ref_chosen, ref_trace = reference_greedy_dominating_set(inst)
        assert [(s.node, s.gain, s.ratio, s.running_cost) for s in trace.steps] == [
            (s.node, s.gain, s.ratio, s.running_cost) for s in ref_trace.steps
        ]
        assert chosen == ref_chosen

    def test_every_pick_optimal_on_decimal_costs(self):
        """Each pick's exact gain/cost is the exact best over free nodes.

        Costs in steps of 0.1 make decimal ties round apart, so the pick
        may differ from a full scan; it must still be optimal up to the
        rounding of one cross-multiplied comparison.
        """
        rng = random.Random(11)
        worst = Fraction(0)
        steps_checked = 0
        for i in range(120):
            n = 10 + i % 31
            inst = gen_random_connected(n, 3.0 / n, (0.1, 10.0), seed=70_000 + i, m=1 + i % 4)
            inst = with_costs(inst, [rng.randint(1, 30) / 10 for _ in range(n)])
            cost = inst.graph.cost
            _, trace = greedy_dominating_set(inst)
            members: set[int] = set()
            for step in trace.steps:
                base = coverage_value(inst, members)
                best = max(
                    Fraction(coverage_value(inst, members | {u}) - base) / Fraction(cost[u])
                    for u in range(n)
                    if u not in members
                )
                chosen = Fraction(step.gain) / Fraction(cost[step.node])
                assert step.gain == coverage_value(inst, members | {step.node}) - base
                worst = max(worst, (best - chosen) / best)
                members.add(step.node)
                steps_checked += 1
            assert coverage_value(inst, members) == inst.m * n
        assert steps_checked > 1000
        assert worst <= Fraction(1, 2**50), float(worst)


def test_random_seeded_corpus_state_agreement():
    rng = random.Random(0)
    for _ in range(30):
        seed = rng.randrange(10**6)
        inst = gen_random_connected(10, 0.35, (0.1, 10.0), seed=seed, m=rng.choice([1, 2]))
        members = {u for u in range(10) if rng.random() < 0.5}
        state = DeficitState(inst)
        for u in sorted(members):
            state.add(u)
        assert inst.m * 10 - sum(state.deficit) == coverage_value(inst, members)
        for u in range(10):
            if u not in members:
                expected = coverage_value(inst, members | {u}) - coverage_value(inst, members)
                assert coverage_gain(state, u) == expected
