import math

import numpy as np
import pytest

from helpers import naive_pareto
from routedp import (DEPOT, Heatmap, Policy, ProblemKind, SolverConfig,
                     SparseGraph, brute_force, generate_tsp, generate_tsptw,
                     generate_vrp, replay, solve)
from routedp import solver
from routedp.instances import Instance
from routedp.solver import (Beam, Candidates, _Context, _init_beam, expand_tsp,
                            expand_vrp, group_by_visited, pack_visited,
                            prune_capacity_time, prune_tsp, select_top_b,
                            build_graph, effective_heatmap)
from routedp.policy import build_policy_tables, initial_potential
from routedp.heatmaps import cost_heatmap, symmetrize


def make_context(instance, config=None):
    config = config or SolverConfig(beam_size=16, policy=Policy.COST_HEAT_POTENTIAL,
                                    threshold=0.0)
    costs = instance.cost_matrix()
    eff = effective_heatmap(instance, None, config)
    graph = build_graph(instance, None, config)
    tables = build_policy_tables(eff, costs, instance.kind,
                                 use_potential=config.policy.uses_potential)
    return _Context(instance, costs, graph.adj, tables, config)


def beam_from_rows(ctx, rows):
    """Build a beam from (visited_set, current, cost) tuples for tests."""
    n = ctx.n
    m = len(rows)
    visited = np.zeros((m, n), dtype=bool)
    current = np.zeros(m, dtype=np.int64)
    cost = np.zeros(m)
    for i, (vis, cur, c) in enumerate(rows):
        visited[i, sorted(vis)] = True
        current[i], cost[i] = cur, c
    pot = [initial_potential(ctx.tables, vis) for vis, _, _ in rows]
    return Beam(cost, current, np.array([p.total for p in pot]), visited, None,
                np.arange(m, dtype=np.int64))


class TestGrouping:
    def test_distinct_sets_stay_separate(self):
        inst = generate_tsp(6, seed=0)
        ctx = make_context(inst)
        rows = [({0, i}, i, float(i)) for i in range(1, 6)]
        beam, groups = group_by_visited(beam_from_rows(ctx, rows))
        assert len(set(groups.tolist())) == 5

    def test_identical_sets_merge(self):
        inst = generate_tsp(6, seed=0)
        ctx = make_context(inst)
        rows = [({0, 1, 2}, cur, float(cur)) for cur in (1, 2, 1, 2)]
        beam, groups = group_by_visited(beam_from_rows(ctx, rows))
        assert set(groups.tolist()) == {0}

    def test_matches_hash_grouping_oracle(self):
        rng = np.random.default_rng(0)
        inst = generate_tsp(9, seed=1)
        ctx = make_context(inst)
        rows = []
        for _ in range(40):
            size = int(rng.integers(1, 8))
            vis = {0} | set(rng.choice(np.arange(1, 9), size=size,
                                       replace=False).tolist())
            rows.append((vis, int(min(v for v in vis if v != 0) if len(vis) > 1 else 0),
                         float(rng.random())))
        beam, groups = group_by_visited(beam_from_rows(ctx, rows))
        seen = {}
        for row in range(beam.width):
            key = frozenset(np.flatnonzero(beam.visited[row]).tolist())
            g = int(groups[row])
            if key in seen:
                assert seen[key] == g
            else:
                assert g not in seen.values()
                seen[key] = g

    def test_word_sort_matches_six_key_lexsort(self, monkeypatch):
        # A beam in global order (score desc, cost, current, slot == row)
        # groups like the full tie-break lexsort, on real beams and on a
        # synthetic one with many exact ties.
        seen, group = [], solver.group_by_visited

        def record(beam):
            out = group(beam)
            seen.append((beam, out[0]))
            return out
        monkeypatch.setattr(solver, "group_by_visited", record)
        for inst in (generate_tsp(70, seed=2), generate_vrp(70, seed=2)):
            solve(inst, SolverConfig(beam_size=64, policy=Policy.COST_HEAT_POTENTIAL))
        monkeypatch.undo()

        rng = np.random.default_rng(2)
        ctx = make_context(generate_tsp(70, seed=2))
        sets = [{0} | set(rng.choice(np.arange(1, 70), size=4, replace=False).tolist())
                for _ in range(5)]
        rows = []
        for k in rng.integers(0, 5, size=200):
            vis = sets[k]
            rows.append((vis, int(rng.choice(sorted(vis))), float(rng.integers(0, 3))))
        beam = beam_from_rows(ctx, rows)
        beam.score = rng.integers(0, 3, size=beam.width) / 2.0
        beam = beam.permuted(np.lexsort((beam.current, beam.cost, -beam.score)))
        beam.slots = np.arange(beam.width, dtype=np.int64)
        seen.append((beam, group_by_visited(beam)[0]))

        assert len(seen) > 100
        for beam, out in seen:
            packed = pack_visited(beam.visited)
            words = [packed[:, w] for w in range(packed.shape[1])]
            old = np.lexsort((beam.slots, beam.current, beam.cost, -beam.score, *words))
            assert np.array_equal(out.slots, beam.slots[old])
            assert np.array_equal(out.visited, beam.visited[old])

    def test_pack_visited_is_injective_beyond_64_nodes(self):
        rng = np.random.default_rng(1)
        mask = rng.random((50, 130)) < 0.5
        packed = pack_visited(mask)
        assert packed.shape == (50, 3)
        as_tuples = {tuple(r) for r in packed.tolist()}
        as_sets = {tuple(np.flatnonzero(r).tolist()) for r in mask}
        assert len(as_tuples) == len(as_sets)


class TestExpansion:
    def test_complete_graph_expands_to_all_unvisited(self):
        inst = generate_tsp(4, seed=2)
        ctx = make_context(inst)
        beam, groups = group_by_visited(_init_beam(ctx))
        cand = expand_tsp(beam, groups, ctx)
        assert len(cand) == 3
        assert sorted(cand.target.tolist()) == [1, 2, 3]
        for i in range(3):
            assert cand.cost[i] == pytest.approx(
                ctx.costs[DEPOT, cand.target[i]], abs=1e-12)

    def test_shared_state_keeps_min_cost(self):
        inst = generate_tsp(5, seed=3)
        ctx = make_context(inst)
        rows = [({0, 1, 2}, 1, 5.0), ({0, 1, 2}, 1, 7.0)]
        beam, groups = group_by_visited(beam_from_rows(ctx, rows))
        cand = prune_tsp(expand_tsp(beam, groups, ctx), groups)
        # states (visited + target) coincide pairwise: half survive
        assert len(cand) == 2
        per_target = {int(t): float(c) for t, c in zip(cand.target, cand.cost)}
        assert per_target[3] == pytest.approx(5.0 + ctx.costs[1, 3], abs=1e-12)
        assert per_target[4] == pytest.approx(5.0 + ctx.costs[1, 4], abs=1e-12)

    def test_dead_end_parent_yields_nothing(self):
        inst = generate_tsp(4, seed=4)
        config = SolverConfig(beam_size=4, policy=Policy.COST_HEAT_POTENTIAL,
                              threshold=0.0)
        ctx = make_context(inst, config)
        ctx.adj = ctx.adj.copy()  # the graph's own adjacency is read-only
        ctx.adj[1, :] = False  # node 1 has no outgoing edges
        rows = [({0, 1}, 1, 1.0)]
        beam, groups = group_by_visited(beam_from_rows(ctx, rows))
        assert len(expand_tsp(beam, groups, ctx)) == 0

    def test_vrp_via_depot_ties_pruned_to_pairwise_front(self):
        # Parents at nodes 1 and 2 share a visited set and return to the
        # depot at exactly equal cost, so their via-depot moves to each target
        # tie in cost and capacity; direct moves reach the same states.  The
        # prune layer alone must leave the pairwise front.
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [3.0, 0.0]])
        inst = Instance(ProblemKind.VRP, coords,
                        demands=np.array([0.0, 2.0, 2.0, 3.0, 1.0]), capacity=10.0)
        ctx = make_context(inst)
        assert ctx.costs[1, DEPOT] == ctx.costs[2, DEPOT]
        beam = beam_from_rows(ctx, [({1, 2}, 1, 5.0), ({1, 2}, 2, 5.0), ({1}, 1, 1.0)])
        beam.extra = np.array([6.0, 4.0, 8.0])
        beam, groups = group_by_visited(beam)
        cand = expand_vrp(beam, groups, ctx, step=2)
        via = cand.action >= inst.n
        via_states = cand.state_id[via]
        assert len(set(via_states.tolist())) < via_states.size
        shared = set(via_states.tolist()) & set(cand.state_id[~via].tolist())
        assert shared

        kept = prune_capacity_time(cand, cand.extra)
        want = naive_pareto(cand.state_id, cand.cost, cand.extra, cand.action,
                            cand.parent_slot, cand.score, (~via).astype(np.int8))
        assert (sorted(zip(kept.parent_slot.tolist(), kept.action.tolist()))
                == sorted(zip(cand.parent_slot[want].tolist(), cand.action[want].tolist())))
        kept_via = kept.state_id[kept.action >= inst.n]
        assert sorted(kept_via.tolist()) == sorted(set(via_states.tolist()))


class TestExactScore:
    @pytest.mark.parametrize("generate", [generate_tsp, generate_vrp, generate_tsptw])
    def test_selected_score_equals_replay(self, generate, monkeypatch):
        # Every row a full beam selects carries, bit for bit, the score that
        # replay recomputes from scratch for its backtracked action prefix.
        selected, tables = [], []
        next_beam, build_tables = solver._next_beam, solver.build_policy_tables
        monkeypatch.setattr(solver, "_next_beam",
                            lambda beam, cand: selected.append(cand) or next_beam(beam, cand))
        monkeypatch.setattr(solver, "build_policy_tables",
                            lambda *a, **k: tables.append(build_tables(*a, **k)) or tables[-1])
        rows, differ = 0, []
        for policy in (Policy.COST_HEAT_POTENTIAL, Policy.COST_HEAT):
            for seed in range(3):
                selected.clear()
                tables.clear()
                inst = generate(8, seed=seed)
                config = SolverConfig(beam_size=10**6, policy=policy, threshold=0.0)
                assert solve(inst, config).found
                prefixes = [()]
                for cand in selected:
                    prefixes = [prefixes[s] + (int(a),)
                                for s, a in zip(cand.parent_slot, cand.action)]
                    for prefix, score in zip(prefixes, cand.score):
                        rows += 1
                        if score != replay(inst, prefix, tables=tables[0]).score:
                            differ.append((policy.value, seed, prefix))
        assert rows > 1000
        assert not differ, f"{len(differ)} of {rows} rows differ, first {differ[0]}"


class TestScoreGrid:
    @pytest.mark.parametrize("generate", [generate_tsp, generate_vrp])
    def test_tables_on_grid(self, generate):
        ctx = make_context(generate(100, seed=0))
        step = 2.0 ** -43  # q = 53 - ceil(log2(800))
        t = ctx.tables
        grids = [t.heat, t.w, t.delta, ctx.start_potential.p]
        if t.via_depot_heat is not None:
            grids.append(t.via_depot_heat)
        for a in grids:
            assert np.array_equal(np.rint(a / step) * step, a)
            assert a.any()

    def test_regain_independent_of_summation_order(self):
        ctx = make_context(generate_tsp(100, seed=1))
        rng = np.random.default_rng(0)
        sets = rng.random((40, ctx.n)) < rng.random((40, 1))
        visited = sets[rng.integers(0, 40, size=300)]
        rows = visited[:, 1:].astype(float) @ ctx.pot_regain
        per_row = np.array([v[1:].astype(float) @ ctx.pot_regain for v in visited])
        uniq, inverse = np.unique(visited, axis=0, return_inverse=True)
        per_group = (uniq[:, 1:].astype(float) @ ctx.pot_regain)[inverse.ravel()]
        reversed_cols = visited[:, :0:-1].astype(float) @ ctx.pot_regain[::-1]
        shuffled = np.array([sum((ctx.pot_regain[u] for u in
                                  rng.permutation(np.flatnonzero(v[1:]))),
                                 np.zeros(ctx.n)) for v in visited[:20]])
        for other in (per_row, per_group, reversed_cols):
            assert np.array_equal(rows, other)
        assert np.array_equal(rows[:20], shuffled)


class TestSelection:
    def make(self, scores, costs=None):
        m = len(scores)
        z = np.zeros(m)
        ids = np.arange(m, dtype=np.int64)
        return Candidates(ids, ids.copy(), ids.copy(), ids.copy(), ids.copy(),
                          np.array(costs if costs is not None else z, dtype=float),
                          np.array(scores, dtype=float))

    def test_top_k_by_score(self):
        out = select_top_b(self.make([3.0, 1.0, 2.0]), 2)
        assert sorted(out.score.tolist()) == [2.0, 3.0]

    def test_large_b_is_identity_up_to_order(self):
        out = select_top_b(self.make([3.0, 1.0, 2.0]), 10)
        assert out.score.tolist() == [3.0, 2.0, 1.0]

    def test_equal_scores_lower_cost_first(self):
        out = select_top_b(self.make([1.0, 1.0, 1.0], costs=[5.0, 3.0, 4.0]), 3)
        assert out.cost.tolist() == [3.0, 4.0, 5.0]

    def test_boundary_ties_resolved_deterministically(self):
        out = select_top_b(self.make([2.0, 1.0, 1.0, 1.0], costs=[0., 7., 5., 6.]), 2)
        assert out.score.tolist() == [2.0, 1.0]
        assert out.cost.tolist() == [0.0, 5.0]


class TestSolveTSP:
    def test_triangle_perimeter_any_beam(self):
        inst = Instance(ProblemKind.TSP,
                        np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
        for b in (1, 2, 8):
            res = solve(inst, SolverConfig(beam_size=b, threshold=0.0,
                                           policy=Policy.COST_HEAT_POTENTIAL))
            assert res.found
            assert res.solution.cost == pytest.approx(12.0, abs=1e-12)

    def test_full_beam_matches_brute_force(self):
        for seed in range(3):
            inst = generate_tsp(8, seed=seed)
            cfg = SolverConfig(beam_size=8 * 2**8, threshold=0.0,
                               policy=Policy.HEAT_POTENTIAL)
            res = solve(inst, cfg)
            assert res.solution.cost == pytest.approx(
                brute_force(inst).optimal_cost, abs=1e-9)

    def test_deterministic(self):
        inst = generate_tsp(20, seed=5)
        cfg = SolverConfig(beam_size=50, policy=Policy.COST_HEAT_POTENTIAL)
        a, b = solve(inst, cfg), solve(inst, cfg)
        assert a.solution.actions == b.solution.actions
        assert a.solution.cost == b.solution.cost

    def test_reported_cost_survives_resimulation(self):
        inst = generate_tsp(15, seed=6)
        res = solve(inst, SolverConfig(beam_size=32, policy=Policy.COST_HEAT))
        sim = replay(inst, res.solution.actions)
        assert sim.feasible
        assert sim.cost == pytest.approx(res.solution.cost, abs=1e-9)

    def test_greedy_action_count(self):
        inst = generate_tsp(10, seed=7)
        res = solve(inst, SolverConfig(beam_size=1, policy=Policy.COST))
        assert len(res.solution.actions) == 10  # 9 visits plus the return

    def test_provided_heatmap_is_used(self):
        inst = generate_tsp(8, seed=8)
        rng = np.random.default_rng(0)
        v = rng.random((8, 8)) * 0.99
        v = np.maximum(v, v.T)
        np.fill_diagonal(v, 0.0)
        res = solve(inst, SolverConfig(beam_size=16, policy=Policy.HEAT_POTENTIAL),
                    heatmap=Heatmap(v))
        assert res.found
        sim = replay(inst, res.solution.actions)
        assert sim.feasible

    def test_heatmap_dimension_mismatch(self):
        inst = generate_tsp(8, seed=9)
        v = np.zeros((5, 5))
        with pytest.raises(ValueError, match="dimension"):
            solve(inst, SolverConfig(beam_size=4, policy=Policy.HEAT_POTENTIAL),
                  heatmap=Heatmap(v))

    @pytest.mark.parametrize("graph_n", [5, 12])
    def test_graph_size_mismatch(self, graph_n):
        inst = generate_tsp(8, seed=9)
        graph = SparseGraph.from_adjacency(np.ones((graph_n, graph_n), dtype=bool))
        with pytest.raises(ValueError, match=f"graph has {graph_n} nodes but the instance has 8"):
            solve(inst, SolverConfig(beam_size=4), graph=graph)

    def test_disconnected_graph_reports_failed_step(self):
        inst = generate_tsp(8, seed=10)
        v = np.zeros((8, 8))  # heatmap with no edges above threshold
        res = solve(inst, SolverConfig(beam_size=8, policy=Policy.HEAT_POTENTIAL,
                                       threshold=0.5), heatmap=Heatmap(v))
        assert not res.found
        assert res.failed_at_step == 0

    def test_knn_graph_solves(self):
        # the uninverted cost heuristic favors long edges and can strand a
        # beam on a sparse graph, so drive this run with the inverted variant
        inst = generate_tsp(30, seed=11)
        cfg = SolverConfig(beam_size=64, knn=8,
                           policy=Policy.COST_HEAT_POTENTIAL, invert_cost_heat=True)
        res = solve(inst, cfg)
        assert res.found
        g = build_graph(inst, None, cfg)
        sim = replay(inst, res.solution.actions, graph=g)
        assert sim.feasible

    def test_dominance_off_still_valid(self):
        inst = generate_tsp(12, seed=12)
        res = solve(inst, SolverConfig(beam_size=32, dominance_enabled=False,
                                       policy=Policy.COST_HEAT_POTENTIAL))
        assert res.found
        assert replay(inst, res.solution.actions).feasible


class TestSolveVRP:
    def test_routes_respect_capacity_and_depot(self):
        inst = generate_vrp(12, seed=0)
        res = solve(inst, SolverConfig(beam_size=64, policy=Policy.COST_HEAT_POTENTIAL))
        assert res.found
        for route in res.solution.routes:
            assert route[0] == DEPOT and route[-1] == DEPOT
            assert inst.demands[list(route[1:-1])].sum() <= inst.capacity + 1e-12
        covered = [v for route in res.solution.routes for v in route[1:-1]]
        assert sorted(covered) == list(range(1, 12))

    def test_full_beam_matches_brute_force(self):
        for seed in range(3):
            inst = generate_vrp(6, seed=seed)
            res = solve(inst, SolverConfig(beam_size=10**6, threshold=0.0,
                                           policy=Policy.HEAT_POTENTIAL))
            assert res.solution.cost == pytest.approx(
                brute_force(inst).optimal_cost, abs=1e-9)

    def test_forced_single_customer_routes(self):
        inst = Instance(ProblemKind.VRP,
                        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                        demands=np.array([0.0, 4.0, 4.0]), capacity=4.0)
        res = solve(inst, SolverConfig(beam_size=16, threshold=0.0,
                                       policy=Policy.COST_HEAT_POTENTIAL))
        assert res.solution.cost == pytest.approx(4.0, abs=1e-12)
        assert len(res.solution.routes) == 2


class TestSolveTSPTW:
    def test_order_forcing_windows_greedy(self):
        # disjoint windows admit exactly one visiting order even at B = 1
        coords = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [30.0, 0.0]])
        tw = np.array([[0.0, math.inf], [200.0, 220.0],
                       [100.0, 120.0], [0.0, 40.0]])
        inst = Instance(ProblemKind.TSPTW, coords, time_windows=tw)
        res = solve(inst, SolverConfig(beam_size=1, threshold=0.0,
                                       policy=Policy.COST_HEAT_POTENTIAL))
        assert res.found
        assert res.solution.routes == ((0, 3, 2, 1, 0),)

    def test_windows_verified_on_resimulation(self):
        inst = generate_tsptw(15, seed=1)
        res = solve(inst, SolverConfig(beam_size=128, policy=Policy.COST_HEAT_POTENTIAL))
        assert res.found
        sim = replay(inst, res.solution.actions)
        assert sim.feasible

    def test_infeasible_instance_returns_nothing(self):
        coords = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
        tw = np.array([[0.0, math.inf], [0.0, 5.0], [0.0, 5.0]])
        inst = Instance(ProblemKind.TSPTW, coords, time_windows=tw)
        res = solve(inst, SolverConfig(beam_size=10**4, threshold=0.0,
                                       policy=Policy.COST_HEAT_POTENTIAL))
        assert not res.found


class TestConfig:
    def test_beam_size_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(beam_size=0)

    def test_threshold_and_knn_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            SolverConfig(beam_size=4, threshold=0.1, knn=3)

    def test_knn_alone_leaves_threshold_unset(self):
        cfg = SolverConfig(beam_size=64, knn=8)
        assert (cfg.threshold, cfg.knn) == (None, 8)

    def test_default_threshold_restored_when_both_unset(self):
        cfg = SolverConfig(beam_size=4, threshold=None, knn=None)
        assert cfg.threshold == 1e-5
        assert SolverConfig(beam_size=4).threshold == 1e-5
