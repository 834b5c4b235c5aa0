"""Coverage potential, incremental state, and the greedy dominating set."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdsopt.domination import (
    DeficitState,
    coverage_gain,
    greedy_dominating_set,
    ratio_key,
)
from cdsopt.generators import gen_fig1, gen_random_connected, gen_udg
from cdsopt.graph import ratio_shift
from cdsopt.verify import verify_mds
from helpers import (
    complete_instance,
    coverage_value,
    degree,
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
                assert coverage_gain(state, u) == m + degree(inst.graph, u)

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

    @settings(max_examples=80, deadline=None)
    @given(
        udg=st.booleans(),
        n=st.integers(1, 60),
        density=st.sampled_from([0.05, 0.2, 0.6]),
        seed=st.integers(0, 10**6),
        m=st.integers(1, 4),
        order=st.randoms(use_true_random=False),
    )
    def test_gain_list_matches_scan_after_every_add(self, udg, n, density, seed, m, order):
        # density is p for a random graph, and sets 9, 18 or 42 points per unit^2 for a UDG
        if udg:
            inst = gen_udg(n, math.sqrt(n / (6 + 60 * density)) + 0.5, (0.1, 10.0), seed, m=m)
        else:
            inst = gen_random_connected(n, density, (0.1, 10.0), seed, m=m)
        state = DeficitState(inst)
        assert state.gain == [coverage_gain(state, u) for u in range(n)]
        nodes = list(range(n))
        order.shuffle(nodes)
        for u in nodes:
            state.add(u)
            for v in range(n):
                assert state.gain[v] == (0 if state.in_set[v] else coverage_gain(state, v))


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

        Costs in steps of 0.1 make many decimal ties whose binary values
        differ; phase 1 orders by the exact ratio of those values, so no
        pick falls short of the best by any amount.
        """
        rng = random.Random(11)
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
                assert chosen == best, (i, step.node, float(best - chosen))
                members.add(step.node)
                steps_checked += 1
            assert coverage_value(inst, members) == inst.m * n
        assert steps_checked > 1000


TINY = 5e-324
positive_floats = st.floats(min_value=TINY, allow_nan=False, allow_infinity=False)


def exact_order(a, b):
    return (a > b) - (a < b)


class TestRatioKey:
    @settings(max_examples=400, deadline=None)
    @given(
        g1=st.integers(1, 10**6),
        g2=st.integers(1, 10**6),
        c1=positive_floats,
        other=positive_floats,
        step=st.sampled_from(["same", "up", "down", "double", "free"]),
    )
    def test_key_order_equals_fraction_order(self, g1, g2, c1, other, step):
        if step == "same":
            c2 = c1
        elif step == "up":
            c2 = math.nextafter(c1, math.inf)
        elif step == "down":
            c2 = math.nextafter(c1, 0.0)
        elif step == "double":
            # an equal ratio: twice the gain at twice the cost
            c2, g2 = c1 * 2, g1 * 2
        else:
            c2 = other
        assume(0 < c2 < math.inf)
        shift = ratio_shift([c1, c2])
        keys = ratio_key(g1, c1, shift), ratio_key(g2, c2, shift)
        exact = Fraction(g1) / Fraction(c1), Fraction(g2) / Fraction(c2)
        assert exact_order(*keys) == exact_order(*exact)

    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(
            st.one_of(
                positive_floats,
                st.floats(min_value=TINY, max_value=1e-300),
                st.floats(min_value=1e299, max_value=1e301),
                st.integers(1, 30).map(lambda k: k / 10),
            ),
            min_size=2,
            max_size=8,
        ),
        data=st.data(),
    )
    def test_key_order_exact_on_float_sums(self, costs, data):
        """The shift of a cost list also separates float sums of its costs."""
        shift = ratio_shift(costs)
        picks = st.lists(st.sampled_from(range(len(costs))), min_size=1, unique=True)
        totals = []
        for _ in range(2):
            total = 0.0
            for i in data.draw(picks):
                total += costs[i]
            assume(total < math.inf)
            totals.append((data.draw(st.integers(1, 1000)), total))
        keys = [ratio_key(g, total, shift) for g, total in totals]
        exact = [Fraction(g) / Fraction(total) for g, total in totals]
        assert exact_order(*keys) == exact_order(*exact)

    def test_shift_near_smallest_and_largest_costs(self):
        big = 1e300
        pairs = [
            (TINY, math.nextafter(TINY, 1.0)),
            (big, math.nextafter(big, math.inf)),
            (math.nextafter(big, 0.0), big),
            (TINY, big),
        ]
        for c1, c2 in pairs:
            shift = ratio_shift([c1, c2])
            for g1, g2 in [(1, 1), (1, 2), (2, 1), (3, 3), (10**6, 10**6 - 1)]:
                keys = ratio_key(g1, c1, shift), ratio_key(g2, c2, shift)
                exact = Fraction(g1) / Fraction(c1), Fraction(g2) / Fraction(c2)
                assert exact_order(*keys) == exact_order(*exact), (c1, c2, g1, g2)
        # a star total that rounds up to infinity ranks below every finite one
        shift = ratio_shift([1.7e308, 1.7e308])
        assert ratio_key(10**6, math.inf, shift) == 0 < ratio_key(1, 1.7e308, shift)
        # 1e-323 is exactly twice 5e-324: gain 2 there ties gain 1 here
        shift = ratio_shift([TINY, 2 * TINY])
        assert ratio_key(2, 2 * TINY, shift) == ratio_key(1, TINY, shift)
        # 1e300's numerator has 997 bits, so a fixed 107-bit shift cannot
        # tell it from its neighbour, while the derived one can
        after = math.nextafter(big, math.inf)
        assert big.as_integer_ratio()[0].bit_length() == 997
        assert ratio_key(1, big, 107) == ratio_key(1, after, 107)
        shift = ratio_shift([big, after])
        assert shift >= 2 * 997 + 1
        assert ratio_key(1, big, shift) > ratio_key(1, after, shift)
        # and the derived shift orders star totals of such costs
        costs = [big, after, 3e299]
        shift = ratio_shift(costs)
        for g, total in [(2, big + after), (2, big + 3e299), (3, big + after + 3e299)]:
            keys = ratio_key(g, total, shift), ratio_key(1, big, shift)
            exact = Fraction(g) / Fraction(total), Fraction(1) / Fraction(big)
            assert exact_order(*keys) == exact_order(*exact)

    def test_decimal_tie_takes_exact_larger_ratio(self):
        """11/1.1 against 9/0.9: equal in decimal, not in binary.

        Node 0 (cost 1.1) has gain 11 and node 1 (cost 0.9) gain 9.  The
        rounded products 11 * 0.9 and 9 * 1.1 are equal, so the float order
        calls the ratios equal and takes the larger gain; the exact order
        sees 9/0.9 > 11/1.1 and takes node 1.
        """
        # 0 and 1 share node 2; 0 has 9 more leaves, 1 has 7
        edges = [(0, 2), (1, 2)]
        edges += [(0, 3 + i) for i in range(9)]
        edges += [(1, 12 + i) for i in range(7)]
        costs = [1.1, 0.9] + [100.0] * 17
        inst = make_instance(19, edges, costs=costs)
        assert 11 * 0.9 == 9 * 1.1
        assert Fraction(9) / Fraction(0.9) > Fraction(11) / Fraction(1.1)
        _, trace = greedy_dominating_set(inst)
        assert [(s.node, s.gain) for s in trace.steps[:2]] == [(1, 9), (0, 10)]
        _, float_trace = reference_greedy_dominating_set(inst)
        assert [(s.node, s.gain) for s in float_trace.steps[:2]] == [(0, 11), (1, 8)]


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
