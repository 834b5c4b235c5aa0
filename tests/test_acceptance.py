"""Acceptance suite: one test per criterion, each printing a PASS line.

``python3 -m pytest tests/test_acceptance.py -v -s`` shows the PASS lines.
Corpora are frozen by construction: every instance comes from a seeded
generator, so reruns are bit-identical.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import lru_cache

from cdsopt.connector import greedy_connect, pairwise_connect
from cdsopt.generators import gen_fig1, gen_random_connected, gen_udg
from cdsopt.oracle import harmonic
from cdsopt.solver import solve
from cdsopt.verify import verify_cds, verify_mds

from helpers import (
    brute_force_best_star,
    coverage_value,
    degree_capped_instance,
    formula_star_value,
    random_dominating_set,
)


# ---------------------------------------------------------------------------
# shared corpora (cached so the criteria that read one corpus solve it once)


@lru_cache(maxsize=1)
def ratio_corpus():
    """210 random connected instances (n <= 12, m in {1,2,3}, costs in [0.1, 10])
    solved with both oracles.  Returns (rows, elapsed_seconds)."""
    t0 = time.perf_counter()
    rows = []
    densities = (0.1, 0.2, 0.35)
    for i in range(70):
        n = 4 + i % 9
        p = densities[i % 3]
        for m in (1, 2, 3):
            inst = gen_random_connected(n, p, (0.1, 10.0), seed=9000 + 31 * i + m, m=m)
            result = solve(inst, with_oracle=True)
            rows.append((inst, result))
    return rows, time.perf_counter() - t0


@lru_cache(maxsize=1)
def udg_corpus():
    """54 connected UDG instances (n <= 12) solved with the exact oracle."""
    rows = []
    for i in range(27):
        n = 7 + i % 6
        side = 1.6 + 0.2 * (i % 4)
        for m in (1, 2):
            inst = gen_udg(n, side, (0.1, 10.0), seed=400 + 17 * i + m, m=m)
            result = solve(inst, with_oracle=True)
            rows.append((inst, result))
    return rows


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_fig1_regression():
    """Star connector reproduces the analytic optimum on the ladder family
    while the pairwise baseline pays d*(1+eps); both in under a second."""
    eps = 0.01
    t0 = time.perf_counter()
    for d in (3, 5, 10):
        inst, designated = gen_fig1(d, eps)
        hub = 1
        rung_bottoms = set(range(2 + d, 2 + 2 * d))
        star = greedy_connect(inst, designated)
        assert star.connectors == {hub} | rung_bottoms, f"d={d}: unexpected star connectors"
        star_cost = sum(inst.graph.cost[u] for u in star.connectors)
        expected = 1 + (d + 1) * eps
        assert abs(star_cost - expected) <= 1e-12, f"d={d}: star cost {star_cost} != {expected}"
        pair = pairwise_connect(inst, designated)
        pair_cost = sum(inst.graph.cost[u] for u in pair.connectors)
        expected_pair = d * (1 + eps)
        assert abs(pair_cost - expected_pair) <= 1e-12, (
            f"d={d}: pairwise cost {pair_cost} != {expected_pair}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"fig1 regression took {elapsed:.3f}s"
    print(f"ACCEPTANCE 1 (fig1 regression): PASS ({elapsed:.3f}s)")


def test_criterion_2_overall_ratio_bound():
    """c(D_G)/opt <= H(delta+m) + 2H(delta-1) on every corpus instance."""
    rows, elapsed = ratio_corpus()
    assert len(rows) >= 200
    worst = 0.0
    for inst, result in rows:
        delta = inst.graph.max_degree
        bound = harmonic(delta + inst.m) + 2 * harmonic(delta - 1)
        ratio = result.cost_total / result.ratios.opt_cost
        assert ratio <= bound, (
            f"{inst.label}: ratio {ratio} exceeds bound {bound} (delta={delta}, m={inst.m})"
        )
        worst = max(worst, ratio / bound)
    assert elapsed < 600.0, f"corpus took {elapsed:.1f}s"
    print(
        f"ACCEPTANCE 2 (overall ratio bound): PASS "
        f"({len(rows)} instances, worst ratio/bound {worst:.3f}, corpus {elapsed:.1f}s)"
    )


def test_criterion_3_phase1_bound():
    """c(D1) <= H(m+delta) * opt' with opt' the exact unconstrained optimum."""
    rows, _ = ratio_corpus()
    for inst, result in rows:
        delta = inst.graph.max_degree
        bound = harmonic(inst.m + delta) * result.ratios.opt_mds_cost
        assert result.cost_d1 <= bound, (
            f"{inst.label}: c(D1)={result.cost_d1} exceeds H(m+delta)*opt'={bound}"
        )
    print(f"ACCEPTANCE 3 (phase-1 bound): PASS ({len(rows)} instances)")


def test_criterion_4_udg_connector_bound():
    """c(D2) <= (11/3) * opt on connected unit-disk instances."""
    rows = udg_corpus()
    assert len(rows) >= 50
    for inst, result in rows:
        bound = (11 / 3) * result.ratios.opt_cost
        assert result.cost_d2 <= bound, (
            f"{inst.label}: c(D2)={result.cost_d2} exceeds (11/3)*opt={bound}"
        )
    print(f"ACCEPTANCE 4 (UDG connector bound): PASS ({len(rows)} instances)")


def test_criterion_5_polymatroid_properties():
    """10,000 nested-set triples: monotone, diminishing gains, zero at empty."""
    rng = random.Random(5150)
    triples = 0
    while triples < 10_000:
        n = 6 + triples % 5
        m = 1 + triples % 3
        inst = gen_random_connected(n, 0.35, (0.1, 10.0), seed=rng.randrange(10**9), m=m)
        assert coverage_value(inst, set()) == 0
        for _ in range(20):
            small = {u for u in range(n) if rng.random() < 0.3}
            large = small | {u for u in range(n) if rng.random() < 0.3}
            outside = [u for u in range(n) if u not in large]
            if not outside:
                continue
            u = rng.choice(outside)
            v_small = coverage_value(inst, small)
            v_large = coverage_value(inst, large)
            assert v_small <= v_large, f"monotonicity violated on {inst.label}"
            gain_small = coverage_value(inst, small | {u}) - v_small
            gain_large = coverage_value(inst, large | {u}) - v_large
            assert gain_small >= gain_large, f"submodularity violated on {inst.label}"
            triples += 1
    print(f"ACCEPTANCE 5 (polymatroid properties): PASS ({triples} triples)")


def test_criterion_6_star_search_vs_brute_force():
    """Structured star search attains the exhaustive best efficiency.

    The restriction to single-fresh-component leaves is lossless for the
    best star over all centers (a multi-component leaf always does at least
    as well recast as a center), so the comparison is per instance: best
    structured star over all centers vs. brute force over all centers and
    all leaf subsets.  Per center the structured value never exceeds the
    exhaustive one.
    """
    from cdsopt.components import ComponentIndex
    from cdsopt.connector import best_star_at

    rng = random.Random(606)
    instances = 0
    centers_checked = 0
    while instances < 100:
        n = 8 + instances % 6
        inst = degree_capped_instance(seed=rng.randrange(10**9), n=n, cap=10)
        g = inst.graph
        members = random_dominating_set(rng, g)
        if len(members) == n:
            continue
        idx = ComponentIndex(g, sorted(members))
        best_lib = None
        best_brute = None
        for center in range(n):
            if center in members:
                continue
            star = best_star_at(idx, center)
            brute = brute_force_best_star(g, members, center)
            if star is not None:
                _, gain, _, total_cost = star
                eff = Fraction(gain) / Fraction(total_cost)
                assert brute is not None and eff <= brute, (
                    f"{inst.label} center {center}: structured star beats exhaustive search"
                )
                if best_lib is None or eff > best_lib:
                    best_lib = eff
            if brute is not None and (best_brute is None or brute > best_brute):
                best_brute = brute
            centers_checked += 1
        assert best_lib == best_brute, (
            f"{inst.label}: structured best {best_lib} != exhaustive best {best_brute}"
        )
        instances += 1
    print(
        f"ACCEPTANCE 6 (star search vs brute force): PASS "
        f"({instances} instances, {centers_checked} centers)"
    )


def _best_efficiency(graph, members):
    """Exhaustive best star efficiency over every free center, or None."""
    best = None
    for center in range(graph.node_count):
        if center in members:
            continue
        eff = brute_force_best_star(graph, members, center)
        if eff is not None and (best is None or eff > best):
            best = eff
    return best


def _check_trace(label, graph, members, report, violations) -> tuple[int, int]:
    """Check one connector trace that starts from ``members``.

    Returns (steps checked, ratio decreases seen).  Efficiencies and ratios
    are exact Fractions of the float costs, so no clause needs a tolerance.
    """
    members = frozenset(members)
    prev_count = report.initial_components
    prev_star = prev_members = None
    steps = 0
    decreases = 0
    for star, after in zip(report.stars, report.component_trace):
        if star.gain < 1:
            violations["progress"].append(f"{label}: selected star with no merge value")
        if prev_count - after != star.gain:
            violations["exactness"].append(
                f"{label}: star promised {star.gain}, delivered {prev_count - after}"
            )
        eff = Fraction(star.gain) / Fraction(star.total_cost)
        best = _best_efficiency(graph, members)
        if eff != best:
            violations["greedy-optimality"].append(
                f"{label} step {steps}: chosen efficiency {float(eff):.6f} "
                f"!= exhaustive best {float(best) if best is not None else None}"
            )
        if prev_star is not None:
            ratio = Fraction(star.total_cost) / star.gain
            prev_ratio = Fraction(prev_star.total_cost) / prev_star.gain
            if ratio < prev_ratio:
                decreases += 1
                value_then, _ = formula_star_value(graph, prev_members, star.center, star.leaves)
                if value_then >= star.gain:
                    violations["decrease-explained"].append(
                        f"{label} step {steps}: ratio decreased "
                        f"{float(prev_ratio):.4f} -> {float(ratio):.4f} but the star "
                        f"was already worth {value_then} >= {star.gain} a step earlier"
                    )
        prev_star, prev_members = star, members
        members = members | set(star.nodes)
        prev_count = after
        steps += 1
    # the loop only stops at one component, so a merging star existed
    # whenever the set was disconnected
    final = report.component_trace[-1] if report.component_trace else report.initial_components
    if final != 1:
        violations["progress"].append(f"{label}: connector finished disconnected")
    return steps, decreases


def test_criterion_7_selected_star_exactness_and_progress():
    """Traces: promised merges delivered, every pick optimal, no stalls.

    Four clauses, checked on every step of every trace:

    - exactness: each chosen star merges exactly as many components as its
      value promised;
    - greedy-optimality: each chosen star's efficiency gain/cost equals the
      exhaustive best over all free centers and all leaf subsets for the
      member set at that step (``helpers.brute_force_best_star``);
    - decrease-explained: the chosen cost/gain ratios are *not* monotone (a
      freshly added connector node can hand a nearby center a component
      neighbor it did not have before, raising its capped merge value -- see
      TestRatioNonMonotonicity in test_connector.py).  Wherever the ratio
      drops from one star to the next, the later star's value against the
      member set before the earlier star must be strictly below its gain,
      i.e. its value really rose;
    - progress: every chosen star merges something and the run ends with
      one component.

    Checked on the oracle corpus (traces start from D1) and on a heavily
    fragmented supplement: random dominating sets on sparse 15..40-node
    graphs, whose traces chain several stars.
    """
    rows, _ = ratio_corpus()
    violations: dict[str, list[str]] = {
        "exactness": [],
        "greedy-optimality": [],
        "decrease-explained": [],
        "progress": [],
    }
    traces = [(inst.label, inst.graph, result.d1, result.connect_report) for inst, result in rows]
    rng = random.Random(77)
    for i in range(150):
        n = 15 + i % 26
        inst = gen_random_connected(n, 2.2 / n, (0.1, 10.0), seed=50_000 + i)
        members = random_dominating_set(rng, inst.graph)
        traces.append((inst.label, inst.graph, members, greedy_connect(inst, members)))
    steps_checked = 0
    decreases = 0
    for trace in traces:
        steps, drops = _check_trace(*trace, violations)
        steps_checked += steps
        decreases += drops
    summary = ", ".join(f"{k}: {len(v)}" for k, v in violations.items())
    examples = "; ".join(v[0] for v in violations.values() if v)
    assert not any(violations.values()), (
        f"violations over {len(traces)} traces / {steps_checked} steps ({summary}) e.g. {examples}"
    )
    print(
        f"ACCEPTANCE 7 (selected-star exactness/progress): PASS "
        f"({len(traces)} traces, {steps_checked} steps, "
        f"{decreases} ratio decreases seen and explained)"
    )


def test_criterion_8_validity_corpus():
    """1,000 solves at n <= 60: output is a connected m-fold dominating set."""
    t0 = time.perf_counter()
    densities = (0.06, 0.1, 0.18, 0.3)
    count = 1_000
    for i in range(count):
        n = 10 + i % 51
        p = densities[i % 4]
        m = 1 + i % 3
        inst = gen_random_connected(n, p, (0.1, 10.0), seed=70_000 + i, m=m)
        result = solve(inst)
        assert result.verify_report.is_cds, f"{inst.label}: output failed verification"
        assert verify_mds(inst, result.d1).is_m_ds, f"{inst.label}: phase-1 output not an m-DS"
        assert verify_cds(inst, result.dominating_and_connectors).is_cds
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"validity corpus took {elapsed:.1f}s"
    print(f"ACCEPTANCE 8 (validity corpus): PASS ({count} instances, {elapsed:.1f}s)")
