"""End-to-end acceptance suite.

Each test checks one headline property of the solver at full strength and
prints a single PASS/FAIL line (run with `pytest -s` to see them live).
The reference values all come from independent oracles (exhaustive
enumeration, full-state DP, naive pairwise pruning, from-scratch
recomputation); no expected number is hard-coded.
"""

import math

import numpy as np
import pytest

from helpers import edge_set, naive_pareto, naive_single_best, random_candidate_groups
from routedp import (Policy, ProblemKind, SolverConfig, SparseGraph,
                     brute_force, exact_dp, generate_tsp, generate_tsptw,
                     generate_vrp, initial_potential, replay, solve,
                     visit_update)
from routedp.heatmaps import Heatmap, sparsify_threshold
from routedp.instances import Instance
from routedp.policy import build_policy_tables
from routedp.pruning import prune_pareto_front
from routedp.solver import build_graph, effective_heatmap

ALL_POLICIES = list(Policy)


def report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


def random_heatmap(rng, n):
    v = rng.random((n, n)) * 0.999
    v = np.triu(v) + np.triu(v, 1).T
    np.fill_diagonal(v, 0.0)
    return Heatmap(v)


def random_tables(rng, kind=ProblemKind.TSP):
    n = int(rng.integers(5, 16))
    coords = rng.random((n, 2))
    from routedp import euclidean_cost_matrix
    return build_policy_tables(random_heatmap(rng, n),
                               euclidean_cost_matrix(coords), kind), n


def perturbed_tsptw(n, seed, max_window, shrink):
    base = generate_tsptw(n, seed=seed, max_window=max_window)
    tw = base.time_windows.copy()
    tw[1:, 1] *= shrink
    tw[1:, 0] = np.minimum(tw[1:, 0], tw[1:, 1])
    return Instance(ProblemKind.TSPTW, base.coords, time_windows=tw)


@pytest.mark.slow
def test_01_full_beam_tsp_exactness():
    """B = n * 2^n explores every DP state: the beam must be exact."""
    mismatches, solves = 0, 0
    for seed in range(200):
        n = 5 + seed % 6
        inst = generate_tsp(n, seed=seed)
        ref = brute_force(inst).optimal_cost
        for policy in ALL_POLICIES:
            cfg = SolverConfig(beam_size=n * 2**n, policy=policy, threshold=0.0)
            res = solve(inst, cfg)
            solves += 1
            if not res.found or abs(res.solution.cost - ref) > 1e-9:
                mismatches += 1
    report("full-beam TSP exactness", mismatches == 0,
           f"{solves - mismatches}/{solves} optimal across "
           f"{len(ALL_POLICIES)} policies, 200 instances, n in 5..10")


def test_02_full_beam_vrp_exactness():
    mismatches = 0
    for seed in range(50):
        n = 4 + seed % 4
        inst = generate_vrp(n, seed=seed)
        ref = brute_force(inst).optimal_cost
        res = solve(inst, SolverConfig(beam_size=10**6, threshold=0.0,
                                       policy=Policy.COST_HEAT_POTENTIAL))
        if not res.found or abs(res.solution.cost - ref) > 1e-9:
            mismatches += 1
    report("full-beam VRP exactness", mismatches == 0,
           f"{50 - mismatches}/50 optimal, n in 4..7")


def test_03_tsptw_exactness_and_infeasibility_agreement():
    mismatches, n_infeasible = 0, 0
    for seed in range(100):
        n = 5 + seed % 5
        mw = 100.0 if seed % 2 else 1000.0
        if seed % 3 == 0:
            inst = perturbed_tsptw(n, seed, mw, shrink=0.85)
        else:
            inst = generate_tsptw(n, seed=seed, max_window=mw)
        ref = brute_force(inst)
        res = solve(inst, SolverConfig(beam_size=10**6, threshold=0.0,
                                       policy=Policy.COST_HEAT_POTENTIAL))
        if not ref.feasible:
            n_infeasible += 1
            if res.found:
                mismatches += 1
        elif not res.found or abs(res.solution.cost - ref.optimal_cost) > 1e-9:
            mismatches += 1
    report("TSPTW exactness + infeasibility agreement",
           mismatches == 0 and n_infeasible > 0,
           f"{100 - mismatches}/100 agree ({n_infeasible} infeasible cases)")


def test_04_dominance_pruning_matches_naive_oracle():
    rng = np.random.default_rng(42)
    groups_checked, bad = 0, 0
    for batch in range(50):
        # TSP-style: single minimum-cost survivor per state
        s, c, _, _, slot, score, _ = random_candidate_groups(rng, 20)
        got = prune_pareto_front(s, c, tie_keys=(slot, -score))
        if not np.array_equal(got, naive_single_best(s, c, slot, score)):
            bad += 1
        # VRP-style: cost/capacity Pareto front, via-depot preferred on ties
        s, c, obj, act, slot, score, via = random_candidate_groups(rng, 20)
        got = prune_pareto_front(s, c, obj, tie_keys=(act, slot, -score, via))
        if not np.array_equal(got, naive_pareto(s, c, obj, act, slot, score, via)):
            bad += 1
        # TSPTW-style: cost/time Pareto front (time negated, maximized)
        s, c, obj, act, slot, score, _ = random_candidate_groups(rng, 20)
        got = prune_pareto_front(s, c, -obj, tie_keys=(act, slot, -score))
        if not np.array_equal(got, naive_pareto(s, c, -obj, act, slot, score)):
            bad += 1
        groups_checked += 60
    report("dominance pruning equals naive pairwise oracle", bad == 0,
           f"{groups_checked} candidate groups per problem family, "
           f"{bad} batch mismatches")


@pytest.mark.slow
def test_05_beam_monotonicity():
    """Mean cost over 100 TSP50 instances non-increasing in beam size.

    A full beam is exact and larger beams lower the cost on average; that
    mean is what this test asserts, at each consecutive pair of beam sizes.
    The per-instance form is reported but not asserted, because the method
    does not promise it, for two reasons:

    - dominance keeps only the cheapest solution of a DP state, and a wider
      beam can swap in a cheaper copy that scores lower, whose extension
      then misses the top-B cut that the narrower beam's copy passed;
    - top-B sets are not nested as B grows, so even plain beam search
      (dominance off) can end worse on a single instance with a larger B.
    """
    beams = (10, 100, 1000, 10**4)
    costs = np.empty((100, len(beams)))
    for seed in range(100):
        inst = generate_tsp(50, seed=seed)
        for j, b in enumerate(beams):
            cfg = SolverConfig(beam_size=b, policy=Policy.COST_HEAT_POTENTIAL)
            costs[seed, j] = solve(inst, cfg).solution.cost
    means = costs.mean(axis=0)
    rises = [f"B={beams[j]}->{beams[j + 1]}" for j in range(len(beams) - 1)
             if means[j + 1] - means[j] > 1e-9]
    jumps = np.diff(costs, axis=1)
    broken = [seed for seed in range(100) if np.any(jumps[seed] > 1e-9)]
    report("beam monotonicity (mean cost)", not rises,
           f"mean cost over B={beams}: "
           + " -> ".join(f"{m:.4f}" for m in means)
           + (f"; mean rose at {', '.join(rises)}" if rises else "")
           + f"; {100 - len(broken)}/100 instances non-increasing"
           + (f", seeds {broken} rise (largest increase {jumps.max():.6f})"
              if broken else ""))


@pytest.mark.slow
def test_06_dominance_improves_over_plain_beam_search():
    on, off = [], []
    for seed in range(100):
        inst = generate_tsp(50, seed=seed)
        for dom, out in ((True, on), (False, off)):
            cfg = SolverConfig(beam_size=1000, policy=Policy.COST_HEAT_POTENTIAL,
                               dominance_enabled=dom)
            out.append(solve(inst, cfg).solution.cost)
    mean_on, mean_off = np.mean(on), np.mean(off)
    report("dominance pruning beats plain beam search (mean cost)",
           mean_on <= mean_off,
           f"mean cost {mean_on:.6f} (on) vs {mean_off:.6f} (off), B=1000")


def test_07_incremental_score_consistency():
    rng = np.random.default_rng(7)
    partials, bad = 0, 0
    while partials < 10**4:
        kind = [ProblemKind.TSP, ProblemKind.VRP, ProblemKind.TSPTW][partials % 3]
        tables, n = random_tables(rng, kind)
        start = set() if kind == ProblemKind.VRP else {0}
        pot = initial_potential(tables, start)
        heat, visited, chain = 0.0, set(start), [0]
        for v in rng.permutation(np.arange(1, n)):
            v = int(v)
            heat += float(tables.heat[chain[-1], v])
            pot = visit_update(pot, tables, v)
            visited.add(v)
            chain.append(v)
            scratch = initial_potential(tables, visited)
            scratch_heat = sum(float(tables.heat[a, b])
                               for a, b in zip(chain, chain[1:]))
            if abs(pot.total - scratch.total) > 1e-9 \
                    or abs(heat - scratch_heat) > 1e-9 \
                    or abs((heat + pot.total) - (scratch_heat + scratch.total)) > 1e-9:
                bad += 1
            elif np.max(np.abs(pot.p[pot.counted] - scratch.p[scratch.counted])) > 1e-9:
                bad += 1
            partials += 1
    report("incremental score equals from-scratch recomputation", bad == 0,
           f"{partials} partial solutions, {bad} mismatches beyond 1e-9")


def test_08_potential_monotonicity():
    rng = np.random.default_rng(8)
    steps, violations = 0, 0
    while steps < 10**4:
        tables, n = random_tables(rng)
        pot = initial_potential(tables, {0})
        for v in rng.permutation(np.arange(1, n)):
            nxt = visit_update(pot, tables, int(v))
            if nxt.total > pot.total + 1e-12:
                violations += 1
            pot = nxt
            steps += 1
    report("potential monotone non-increasing along expansions",
           violations == 0, f"{steps} expansion steps, {violations} increases")


def test_09_returned_solutions_survive_resimulation():
    rng = np.random.default_rng(9)
    checked, bad = 0, 0
    cases = []
    for seed in range(12):
        cases.append((generate_tsp(25, seed=seed), None))
        cases.append((generate_vrp(15, seed=seed), None))
        cases.append((generate_tsptw(15, seed=seed), None))
    configs = [
        SolverConfig(beam_size=50, policy=Policy.HEAT_POTENTIAL),
        SolverConfig(beam_size=50, policy=Policy.COST_HEAT, threshold=0.0),
        SolverConfig(beam_size=50, policy=Policy.COST, dominance_enabled=False),
        SolverConfig(beam_size=50, policy=Policy.COST_HEAT_POTENTIAL),
    ]
    for inst, _ in cases:
        for cfg in configs:
            heatmap = None
            if not cfg.policy.uses_cost_heat:
                v = rng.random((inst.n, inst.n)) * 0.999
                if inst.kind != ProblemKind.TSPTW:
                    v = np.maximum(v, v.T)
                np.fill_diagonal(v, 0.0)
                heatmap = Heatmap(v, directed=inst.kind == ProblemKind.TSPTW)
            res = solve(inst, cfg, heatmap=heatmap)
            if not res.found:
                continue  # beam death is a legal outcome, not a solution
            checked += 1
            g = build_graph(inst, heatmap, cfg)
            sim = replay(inst, res.solution.actions, graph=g)
            if not sim.feasible or abs(sim.cost - res.solution.cost) > 1e-9:
                bad += 1
    report("independent re-simulation of returned solutions",
           bad == 0 and checked > 100,
           f"{checked - bad}/{checked} solutions feasible with matching cost")


def test_10_small_window_tsptw_near_trivial_beams():
    hits = {10: 0, 1000: 0}
    for seed in range(50):
        inst = generate_tsptw(12, seed=seed, max_window=100.0)
        ref = exact_dp(inst)
        for b in hits:
            res = solve(inst, SolverConfig(beam_size=b, threshold=0.0,
                                           policy=Policy.COST_HEAT_POTENTIAL))
            if ref.feasible and res.found and \
                    abs(res.solution.cost - ref.optimal_cost) <= 1e-9:
                hits[b] += 1
            elif not ref.feasible and not res.found:
                hits[b] += 1
    report("small-window TSPTW solved at near-trivial beams",
           hits[10] >= 0.95 * 50 and hits[1000] == 50,
           f"B=10: {hits[10]}/50 optimal (need >=95%), B=1000: {hits[1000]}/50")


def test_11_sparsification_sanity():
    rng = np.random.default_rng(11)
    mismatches = 0
    for seed in range(10):
        inst = generate_tsp(15, seed=seed)
        n = inst.n
        complete = SparseGraph.from_adjacency(~np.eye(n, dtype=bool))
        base_cfg = SolverConfig(beam_size=128, policy=Policy.COST_HEAT_POTENTIAL,
                                threshold=0.0)
        ref = solve(inst, base_cfg, graph=complete).solution.cost
        thr = solve(inst, base_cfg).solution.cost
        knn = solve(inst, SolverConfig(beam_size=128, knn=n - 1, threshold=None,
                                       policy=Policy.COST_HEAT_POTENTIAL)).solution.cost
        if thr != ref or knn != ref:
            mismatches += 1
    nested = 0
    for trial in range(100):
        h = random_heatmap(rng, 10)
        t1, t2 = sorted(rng.random(2) * 0.9)
        if edge_set(sparsify_threshold(h, t2)) <= edge_set(sparsify_threshold(h, t1)):
            nested += 1
    report("sparsification sanity", mismatches == 0 and nested == 100,
           f"complete-graph cost reproduced on 10/10 instances "
           f"(threshold 0 and knn = n-1); threshold monotone on {nested}/100 heatmaps")
