import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import knn_heat, lexsort_top_b, naive_pareto
from routedp import (DEPOT, Heatmap, Policy, ProblemKind, SolverConfig,
                     SparseGraph, brute_force, exact_dp, generate_tsp, generate_tsptw,
                     generate_vrp, replay, solve)
from routedp import solver
from routedp.instances import Instance
from routedp.solver import (Beam, Candidates, _Context, _init_beam, expand_tsp, expand_tsptw,
                            expand_vrp, group_by_visited, prune_capacity_time, select_top_b,
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


def set_keys(ctx, visited):
    """Beam.key of each visited row, from the solve's own set_key table."""
    return (ctx.set_key * visited).sum(axis=1)


def row_groups(beam):
    """Each row's visited-set group, derived from group_by_visited as solve does."""
    order, ordinals = group_by_visited(beam)
    groups = np.empty_like(ordinals)
    groups[order] = ordinals
    return groups


def beam_from_rows(ctx, rows):
    """Build a beam from (visited_set, current, cost) tuples for tests.

    Each row comes from its own parent group by a move to node 0, so the
    parents' regain table holds the row's own visited @ pot_regain."""
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
                set_keys(ctx, visited), origin=np.arange(m, dtype=np.int64) * n,
                regain=visited.astype(float) @ ctx.pot_regain)


def with_cost(parent_pos, target, action, state_id, cost, score, extra=None, regain=None):
    """Candidates whose cost_at is the given per-row cost: row i reads entry i
    of cost as its step cost, over parents of zero cost."""
    steps = (np.zeros(parent_pos.max(initial=-1) + 1), np.asarray(cost, dtype=float))
    return Candidates(parent_pos, target, action, state_id, np.arange(len(parent_pos)),
                      score, steps, extra, regain)


class TestGrouping:
    def test_distinct_sets_stay_separate(self):
        inst = generate_tsp(6, seed=0)
        ctx = make_context(inst)
        rows = [({0, i}, i, float(i)) for i in range(1, 6)]
        groups = row_groups(beam_from_rows(ctx, rows))
        assert len(set(groups.tolist())) == 5

    def test_identical_sets_merge(self):
        inst = generate_tsp(6, seed=0)
        ctx = make_context(inst)
        rows = [({0, 1, 2}, cur, float(cur)) for cur in (1, 2, 1, 2)]
        groups = row_groups(beam_from_rows(ctx, rows))
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
        beam = beam_from_rows(ctx, rows)
        groups = row_groups(beam)
        seen = {}
        for row in range(beam.width):
            key = frozenset(np.flatnonzero(beam.visited[row]).tolist())
            g = int(groups[row])
            if key in seen:
                assert seen[key] == g
            else:
                assert g not in seen.values()
                seen[key] = g

    def test_zero_keys_still_split_distinct_sets(self):
        # Every key collides, so the grouping falls back to the exact set ranks.
        ctx = make_context(generate_tsp(6, seed=0))
        rows = [({0, 1, 2}, 1, 1.0), ({0, 3}, 3, 2.0), ({0, 1, 2}, 2, 3.0), ({0, 4}, 4, 4.0)]
        beam = beam_from_rows(ctx, rows)
        beam.key = np.zeros(beam.width, dtype=np.uint64)
        groups = row_groups(beam)
        assert groups[0] == groups[2]
        assert len({groups[0], groups[1], groups[3]}) == 3


@st.composite
def bool_beams(draw):
    """Visited rows drawn from a small pool of sets on n nodes, so sets repeat,
    with keys from the set_key table or all zero (every key colliding)."""
    n = draw(st.sampled_from([5, 64, 65, 130]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.random((draw(st.integers(1, 8)), n)) < rng.random()
    visited = pool[rng.integers(0, len(pool), size=draw(st.integers(1, 40)))]
    m = len(visited)
    key = np.zeros(m, dtype=np.uint64) if draw(st.booleans()) else set_keys(key_context(n), visited)
    return Beam(np.zeros(m), np.zeros(m, dtype=np.int64), np.zeros(m), visited, None, key)


@functools.cache
def key_context(n):
    return make_context(generate_tsp(n, seed=0), SolverConfig(beam_size=4, policy=Policy.COST))


@settings(max_examples=300, deadline=None)
@given(beam=bool_beams())
def test_grouping_partitions_rows_by_visited_set(beam):
    order, ordinals = group_by_visited(beam)
    assert np.array_equal(np.sort(order), np.arange(beam.width))
    assert ordinals[0] == 0 and np.all(np.diff(ordinals) >= 0)
    groups = np.empty_like(ordinals)
    groups[order] = ordinals
    same_set = (beam.visited[:, None, :] == beam.visited[None, :, :]).all(axis=2)
    assert np.array_equal(groups[:, None] == groups[None, :], same_set)
    assert ordinals[-1] + 1 == len({tuple(row) for row in beam.visited.tolist()})


@pytest.mark.parametrize("collide", ["zeros", "two equal", "mod 3"])
@pytest.mark.parametrize("generate", [generate_tsp, generate_vrp, generate_tsptw])
@pytest.mark.parametrize("n", [12, 30])
def test_key_collisions_leave_actions_unchanged(collide, generate, n, monkeypatch):
    # Colliding set keys send group_by_visited to its exact fallback, which
    # must give the solve the same actions as the real keys.
    inst = generate(n, seed=1)
    config = SolverConfig(beam_size=200, policy=Policy.COST_HEAT_POTENTIAL)
    want = solve(inst, config).solution.actions
    real = _Context.set_key.func

    def patched(ctx):
        key = real(ctx)
        if collide == "zeros":
            return np.zeros_like(key)
        if collide == "two equal":
            key = key.copy()
            key[2] = key[1]
            return key
        return (np.arange(ctx.n) % 3).astype(np.uint64)
    collided, group = [], solver.group_by_visited

    def record(beam):
        distinct = len(np.unique(beam.visited, axis=0))
        collided.append(len(np.unique(beam.key)) < distinct)
        return group(beam)
    monkeypatch.setattr(_Context, "set_key", property(patched))
    monkeypatch.setattr(solver, "group_by_visited", record)
    assert solve(inst, config).solution.actions == want
    assert any(collided)


class TestExpansion:
    def test_complete_graph_expands_to_all_unvisited(self):
        inst = generate_tsp(4, seed=2)
        ctx = make_context(inst)
        beam = _init_beam(ctx)
        cand = expand_tsp(beam, row_groups(beam), ctx)
        assert len(cand) == 3
        assert sorted(cand.target.tolist()) == [1, 2, 3]
        for i in range(3):
            assert cand.cost_at()[i] == pytest.approx(
                ctx.costs[DEPOT, cand.target[i]], abs=1e-12)

    def test_shared_state_keeps_min_cost(self):
        inst = generate_tsp(5, seed=3)
        ctx = make_context(inst)
        rows = [({0, 1, 2}, 1, 5.0), ({0, 1, 2}, 1, 7.0)]
        beam = beam_from_rows(ctx, rows)
        groups = row_groups(beam)
        cand = prune_capacity_time(expand_tsp(beam, groups, ctx), None, groups)
        # states (visited + target) coincide pairwise: half survive
        assert len(cand) == 2
        per_target = {int(t): float(c) for t, c in zip(cand.target, cand.cost_at())}
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
        beam = beam_from_rows(ctx, rows)
        assert len(expand_tsp(beam, row_groups(beam), ctx)) == 0

    def test_vrp_first_step_leaves_via_the_depot(self):
        inst = generate_vrp(6, seed=0)
        ctx = make_context(inst)
        beam = _init_beam(ctx)
        cand = expand_vrp(beam, row_groups(beam), ctx)
        assert sorted(cand.action.tolist()) == [inst.n + j for j in range(1, inst.n)]

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
        cand = expand_vrp(beam, row_groups(beam), ctx)
        via = cand.action >= inst.n
        via_states = cand.state_id[via]
        assert len(set(via_states.tolist())) < via_states.size
        shared = set(via_states.tolist()) & set(cand.state_id[~via].tolist())
        assert shared

        kept = prune_capacity_time(cand, cand.extra)
        want = naive_pareto(cand.state_id, cand.cost_at(), cand.extra, cand.action,
                            cand.parent_pos, cand.score, (~via).astype(np.int8))
        assert (sorted(zip(kept.parent_pos.tolist(), kept.action.tolist()))
                == sorted(zip(cand.parent_pos[want].tolist(), cand.action[want].tolist())))
        kept_via = kept.state_id[kept.action >= inst.n]
        assert sorted(kept_via.tolist()) == sorted(set(via_states.tolist()))


@st.composite
def vrp_beams(draw):
    """A VRP context on 3-7 nodes with a random graph and a hand-built beam of
    1-8 rows: visited customer sets (the empty set at the depot), costs and
    remaining capacities.  Coordinates and costs lie on coarse or fine grids,
    so via-depot moves tie exactly or differ by rounding only."""
    n = draw(st.integers(3, 7))
    top = draw(st.sampled_from([3, 997]))
    coords = np.array(draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)),
                                    min_size=n, max_size=n)), dtype=float) / top
    demands = np.array([0] + draw(st.lists(st.integers(1, 9), min_size=n - 1,
                                           max_size=n - 1)), dtype=float)
    capacity = float(draw(st.integers(int(demands.max()), int(demands.sum()))))
    ctx = make_context(Instance(ProblemKind.VRP, coords, demands=demands, capacity=capacity))
    adj = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    ctx.adj = adj & ~np.eye(n, dtype=bool)
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        vis = draw(st.sets(st.integers(1, n - 1), max_size=n - 2))
        cur = draw(st.sampled_from(sorted(vis))) if vis else DEPOT
        rows.append((vis, cur, draw(st.integers(0, 12)) / draw(st.sampled_from([7.0, 3.1]))))
    beam = beam_from_rows(ctx, rows)
    beam.extra = np.array(draw(st.lists(st.integers(0, int(capacity)), min_size=len(rows),
                                        max_size=len(rows))), dtype=float)
    return ctx, beam


def via_rounding_case():
    """Parents at nodes 1 and 2 share a visited set; node 1 has the cheaper
    return to the depot, but node 2 the cheaper via-depot move to node 3, as
    cost + (c(i, 0) + c(0, 3)) rounds the other way."""
    coords = np.array([[798, 187], [395, 443], [856, 967], [456, 556]]) / 997
    inst = Instance(ProblemKind.VRP, coords, demands=np.array([0.0, 1, 1, 1]), capacity=3.0)
    ctx = make_context(inst)
    beam = beam_from_rows(ctx, [({1, 2}, 1, 0.4484916243674612), ({1, 2}, 2, 1 / 7)])
    beam.extra = np.array([1.0, 1.0])
    c = ctx.costs
    assert beam.cost[0] + c[1, 0] < beam.cost[1] + c[2, 0]
    assert beam.cost[0] + (c[1, 0] + c[0, 3]) > beam.cost[1] + (c[2, 0] + c[0, 3])
    return ctx, beam


@settings(max_examples=200, deadline=None)
@given(case=vrp_beams())
@example(case=via_rounding_case())
def test_vrp_expansion_prunes_like_every_feasible_move(case):
    # expand_vrp lists every feasible move, via-depot moves from every parent
    # that can return to the depot included, and leaves all dominance to the
    # prune layer.
    ctx, beam = case
    groups = row_groups(beam)
    n, d = ctx.n, ctx.instance.demands
    pairs = []
    for r, cur in enumerate(beam.current):
        for j in range(1, n):
            if beam.visited[r, j]:
                continue
            if cur != DEPOT and ctx.adj[cur, j] and d[j] <= beam.extra[r]:
                pairs.append((r, j, beam.extra[r] - d[j]))
            if (cur == DEPOT or ctx.adj[cur, DEPOT]) and ctx.adj[DEPOT, j]:
                pairs.append((r, n + j, ctx.instance.capacity - d[j]))
    ppos, col, extra = (np.array(v) for v in zip(*pairs)) if pairs else [np.zeros(0, int)] * 3
    every = solver._build_candidates(ctx, beam, groups, ppos.astype(np.int64),
                                     col.astype(np.int64),
                                     col.astype(np.int64) % n, extra.astype(float))

    def survivors(cand):
        kept = prune_capacity_time(cand, cand.extra) if len(cand) else cand
        return sorted(zip(kept.parent_pos.tolist(), kept.action.tolist(),
                          kept.cost_at().tolist(), kept.extra.tolist()))

    cand = expand_vrp(beam, groups, ctx)
    assert survivors(cand) == survivors(every)
    assert (sorted(zip(cand.parent_pos.tolist(), cand.action.tolist()))
            == sorted(zip(every.parent_pos.tolist(), every.action.tolist())))


@settings(max_examples=100, deadline=None)
@given(generate=st.sampled_from([generate_tsp, generate_vrp, generate_tsptw]),
       n=st.integers(5, 12), seed=st.integers(0, 999), beam_size=st.integers(1, 50))
def test_cost_policy_scores_are_exactly_minus_cost(generate, n, seed, beam_size):
    # Policy.COST scores through the tables with step_score = -step_cost and
    # no potential, so every beam's score is its negated cost, bit for bit.
    widths, next_beam = [], solver._next_beam

    def check(beam, cand, ctx):
        child = next_beam(beam, cand, ctx)
        for b in (beam, child):
            assert np.array_equal(b.score, -b.cost)
        widths.append(child.width)
        return child
    with mock.patch.object(solver, "_next_beam", check):
        solve(generate(n, seed=seed), SolverConfig(beam_size=beam_size, policy=Policy.COST))
    assert widths


class TestExactScore:
    @pytest.mark.parametrize("generate", [generate_tsp, generate_vrp, generate_tsptw])
    def test_selected_score_equals_replay(self, generate, monkeypatch):
        # Every row a full beam selects carries, bit for bit, the score and
        # the cost that replay recomputes from scratch for its backtracked
        # action prefix.
        selected, tables = [], []
        next_beam, build_tables = solver._next_beam, solver.build_policy_tables
        monkeypatch.setattr(solver, "_next_beam", lambda beam, cand, ctx:
                            selected.append(cand) or next_beam(beam, cand, ctx))
        monkeypatch.setattr(solver, "build_policy_tables",
                            lambda *a, **k: tables.append(build_tables(*a, **k)) or tables[-1])
        rows, differ, cost_differ = 0, [], []
        for policy in (Policy.COST_HEAT_POTENTIAL, Policy.COST_HEAT):
            for seed in range(3):
                selected.clear()
                tables.clear()
                inst = generate(8, seed=seed)
                config = SolverConfig(beam_size=10**6, policy=policy, threshold=0.0)
                assert solve(inst, config).found
                prefixes = [()]
                for cand in selected:
                    prefixes = [prefixes[p] + (int(a),)
                                for p, a in zip(cand.parent_pos, cand.action)]
                    for prefix, score, cost in zip(prefixes, cand.score, cand.cost_at()):
                        rows += 1
                        sim = replay(inst, prefix, tables=tables[0])
                        if score != sim.score:
                            differ.append((policy.value, seed, prefix))
                        if cost != sim.cost:
                            cost_differ.append((policy.value, seed, prefix))
        assert rows > 1000
        assert not differ, f"{len(differ)} of {rows} scores differ, first {differ[0]}"
        assert not cost_differ, \
            f"{len(cost_differ)} of {rows} costs differ, first {cost_differ[0]}"


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
        rows = visited.astype(float) @ ctx.pot_regain
        per_row = np.array([v.astype(float) @ ctx.pot_regain for v in visited])
        uniq, inverse = np.unique(visited, axis=0, return_inverse=True)
        per_group = (uniq.astype(float) @ ctx.pot_regain)[inverse.ravel()]
        reversed_cols = visited[:, ::-1].astype(float) @ ctx.pot_regain[::-1]
        shuffled = np.array([sum((ctx.pot_regain[u] for u in
                                  rng.permutation(np.flatnonzero(v))),
                                 np.zeros(ctx.n)) for v in visited[:20]])
        for other in (per_row, per_group, reversed_cols):
            assert np.array_equal(rows, other)
        assert np.array_equal(rows[:20], shuffled)


class TestGroupedRegain:
    # Real grouped beams of a solve whose visited sets repeat: the regain
    # carried per group from step to step, the root's zero table included,
    # gives, bit for bit, the scores of the per-row visited @ pot_regain product.
    def check_scores(self, monkeypatch, inst, config, heatmap=None):
        calls, build = [], solver._build_candidates

        def record(ctx, beam, *args, **kwargs):
            carried = beam.regain is not None
            calls.append((ctx, beam, build(ctx, beam, *args, **kwargs), carried))
            return calls[-1][2]
        monkeypatch.setattr(solver, "_build_candidates", record)
        assert solve(inst, config, heatmap=heatmap).found
        shared = 0
        for ctx, beam, cand, _ in calls:
            regain = beam.visited.astype(float) @ ctx.pot_regain
            ppos = cand.parent_pos
            want = (beam.score[ppos] + ctx.step_score[beam.current[ppos], cand.action]
                    + regain[ppos, cand.target])
            assert np.array_equal(cand.score, want)
            shared += len(np.unique(beam.visited, axis=0)) < beam.width
        assert shared > 10
        assert len(calls) == inst.n - 1
        assert all(carried for *_, carried in calls)   # every step, step 0 included

    @pytest.mark.parametrize("generate", [generate_tsp, generate_vrp, generate_tsptw])
    def test_scores_equal_per_row_matmul(self, generate, monkeypatch):
        self.check_scores(monkeypatch, generate(30, seed=3), SolverConfig(
            beam_size=200, policy=Policy.COST_HEAT_POTENTIAL, threshold=0.0))

    def test_sparse_heat_scores_equal_per_row_matmul(self, monkeypatch):
        # The paper's mode: a sparse 10-NN heatmap, on which expand_tsp scans
        # the neighbour lists.
        inst = generate_tsp(100, seed=4)
        self.check_scores(monkeypatch, inst, SolverConfig(
            beam_size=200, policy=Policy.HEAT_POTENTIAL, threshold=1e-5),
            heatmap=Heatmap(knn_heat(inst.coords)))

    @pytest.mark.parametrize("generate", [generate_tsp, generate_vrp, generate_tsptw])
    def test_scores_without_dominance_equal_per_row_matmul(self, generate, monkeypatch):
        self.check_scores(monkeypatch, generate(20, seed=5), SolverConfig(
            beam_size=200, policy=Policy.COST_HEAT_POTENTIAL, threshold=0.0,
            dominance_enabled=False))


@st.composite
def scan_cases(draw):
    """A directed graph and a TSP beam on it.  Sparse graphs have 17-40
    nodes, each isolated, joined only to the depot, or with up to 4 other
    neighbours; otherwise the graph is complete.  Rows may sit at the depot."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complete = draw(st.booleans())
    n = draw(st.integers(2, 12) if complete else st.integers(17, 40))
    if complete:
        adj = ~np.eye(n, dtype=bool)
    else:
        adj = np.zeros((n, n), dtype=bool)
        kinds = draw(st.lists(st.sampled_from(["isolated", "depot only", "neighbours"]),
                              min_size=n, max_size=n))
        for i, kind in enumerate(kinds):
            if kind != "isolated":
                adj[i, DEPOT] = True
            if kind == "neighbours":
                adj[i, rng.integers(1, n, size=rng.integers(1, 5))] = True
        np.fill_diagonal(adj, False)
    m = draw(st.integers(1, 30))
    visited = rng.random((m, n)) < rng.random((m, 1))
    visited[:, DEPOT] = True
    current = np.array([rng.choice(np.flatnonzero(row)) for row in visited])
    current[rng.random(m) < 0.2] = DEPOT
    return adj, visited, current


class TestNeighbourScan:
    @settings(max_examples=300, deadline=None)
    @given(case=scan_cases())
    def test_pairs_equal_dense_mask(self, case):
        adj, visited, current = case
        n = adj.shape[0]
        ctx = make_context(generate_tsp(n, seed=0),
                           SolverConfig(beam_size=4, policy=Policy.COST, threshold=0.0))
        ctx.adj = adj
        m = len(current)
        beam = Beam(np.zeros(m), current, np.zeros(m), visited, None, set_keys(ctx, visited),
                    origin=np.arange(m) * n, regain=np.zeros((m, n)))
        cand = expand_tsp(beam, row_groups(beam), ctx)
        rows, targets = np.nonzero(adj[beam.current] & ~beam.visited)
        assert np.array_equal(cand.parent_pos, rows)
        assert np.array_equal(cand.target, targets)
        if n > 12:   # every sparse graph takes the neighbour lists
            assert 4 * ctx.neighbours[1][beam.current].max() < n


@st.composite
def tsptw_beams(draw):
    """A TSPTW context on 4-8 nodes with generated windows and a random graph,
    and a beam of 1-10 rows whose visited sets, all of one size as in a solve,
    come from a pool of 1-3, so groups repeat; costs and arrival times lie on
    coarse grids."""
    n = draw(st.integers(4, 8))
    ctx = make_context(generate_tsptw(n, seed=draw(st.integers(0, 99))))
    adj = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    ctx.adj = adj & ~np.eye(n, dtype=bool)
    size = draw(st.integers(0, n - 2))
    pool = draw(st.lists(st.sets(st.integers(1, n - 1), min_size=size, max_size=size),
                         min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        vis = draw(st.sampled_from(pool))
        cur = draw(st.sampled_from(sorted(vis))) if vis else DEPOT
        rows.append(({DEPOT} | vis, cur, draw(st.integers(0, 12)) / 7))
    beam = beam_from_rows(ctx, rows)
    beam.extra = 40.0 * np.array(draw(st.lists(st.integers(0, 8), min_size=len(rows),
                                               max_size=len(rows))))
    return ctx, beam


@st.composite
def scan_beams(draw):
    """scan_cases' graph and TSP beam, with a scoring context and costs."""
    adj, visited, current = draw(scan_cases())
    ctx = make_context(generate_tsp(adj.shape[0], seed=0))
    ctx.adj = adj
    costs = draw(st.lists(st.integers(0, 12), min_size=len(current), max_size=len(current)))
    return ctx, beam_from_rows(ctx, [(set(np.flatnonzero(v).tolist()), cur, c / 7)
                                     for v, cur, c in zip(visited, current, costs)])


class TestLateCost:
    """Expansion leaves the cost to be built for the rows read; that cost, and
    what prune and select make of it, must equal one given explicitly per row."""

    # problem -> (expander, dominance objective, whether pruning takes the groups)
    PROBLEMS = {ProblemKind.TSP: (expand_tsp, lambda c: None, True),
                ProblemKind.VRP: (expand_vrp, lambda c: c.extra, False),
                ProblemKind.TSPTW: (expand_tsptw, lambda c: -c.extra, True)}

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(scan_beams(), vrp_beams(), tsptw_beams()), st.integers(1, 12),
           st.randoms(use_true_random=False))
    def test_late_cost_equals_eager(self, case, beam_size, rnd):
        ctx, beam = case
        expand, objective, by_group = self.PROBLEMS[ctx.instance.kind]
        groups = row_groups(beam)
        cand = expand(beam, groups, ctx)
        ppos = cand.parent_pos
        want = beam.cost[ppos] + ctx.step_cost[beam.current[ppos], cand.action]
        rows = np.array(rnd.sample(range(len(cand)), rnd.randint(0, len(cand))), dtype=np.int64)
        assert np.array_equal(cand.cost_at(rows), want[rows])
        assert np.array_equal(cand.take(rows).cost_at(), want[rows])
        assert np.array_equal(cand.cost_at(), want)
        eager = with_cost(ppos, cand.target, cand.action, cand.state_id, want, cand.score,
                          cand.extra, cand.regain)
        obj, pgroups = objective(cand), groups if by_group else None
        assert_same_candidates(
            select_top_b(prune_capacity_time(cand, obj, pgroups, beam_size), beam_size),
            select_top_b(prune_capacity_time(eager, obj, pgroups, beam_size), beam_size))
        assert_same_candidates(select_top_b(cand, beam_size), select_top_b(eager, beam_size))


@st.composite
def selection_rows(draw):
    """Candidates with heavy score and cost ties, and a beam size below, at
    or above their count; (parent row, action) names each row."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 9)),
                          max_size=40, unique=True))
    m = len(pairs)
    grid = lambda *v: np.array(draw(st.lists(st.sampled_from(v), min_size=m, max_size=m)))
    score = grid(-1.0, -0.0, 0.0, 0.25, 1.0)
    cost = grid(0.0, 0.5, 1.0)
    slot = np.array([p for p, _ in pairs], dtype=np.int64)
    action = np.array([a for _, a in pairs], dtype=np.int64)
    return score, cost, slot, action, draw(st.integers(1, m + 2))


class TestSelection:
    def make(self, scores, costs=None):
        m = len(scores)
        z = np.zeros(m)
        ids = np.arange(m, dtype=np.int64)
        return with_cost(ids, ids.copy(), ids.copy(), ids.copy(),
                         costs if costs is not None else z, np.array(scores, dtype=float))

    def test_top_k_by_score(self):
        out = select_top_b(self.make([3.0, 1.0, 2.0]), 2)
        assert sorted(out.score.tolist()) == [2.0, 3.0]

    def test_large_b_is_identity_up_to_order(self):
        out = select_top_b(self.make([3.0, 1.0, 2.0]), 10)
        assert out.score.tolist() == [3.0, 2.0, 1.0]

    def test_equal_scores_lower_cost_first(self):
        out = select_top_b(self.make([1.0, 1.0, 1.0], costs=[5.0, 3.0, 4.0]), 3)
        assert out.cost_at().tolist() == [3.0, 4.0, 5.0]

    def test_boundary_ties_resolved_deterministically(self):
        out = select_top_b(self.make([2.0, 1.0, 1.0, 1.0], costs=[0., 7., 5., 6.]), 2)
        assert out.score.tolist() == [2.0, 1.0]
        assert out.cost_at().tolist() == [0.0, 5.0]

    @settings(max_examples=400, deadline=None)
    @given(selection_rows())
    @example((np.array([0.0, -0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.5, 1.0]),
              np.array([0, 1, 2, 3]), np.array([4, 4, 4, 4]), 2))
    def test_matches_five_key_lexsort(self, rows):
        score, cost, slot, action, beam_size = rows
        target = action % 4
        cand = with_cost(slot, target, action, target.copy(), cost, score)
        want = lexsort_top_b(score, cost, target, slot, action, beam_size)
        out = select_top_b(cand, beam_size)
        assert np.array_equal(out.parent_pos, slot[want])
        assert np.array_equal(out.action, action[want])


@st.composite
def pruning_candidates(draw):
    """Engine-shaped candidates: parents in visited-set groups, few DP states
    with many rows each, scores and costs on tiny grids so exact ties abound.
    (parent row, action) names each row; rows come in (group, action) order,
    and the parent rows of a group need not be adjacent.  Returns each row's
    group too."""
    n, via = 3, draw(st.booleans())
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    groups = np.repeat(np.arange(len(sizes)), sizes)
    pairs = sorted(draw(st.lists(st.tuples(st.integers(0, groups.size - 1),
                                           st.integers(0, (2 if via else 1) * n - 1)),
                                 min_size=1, max_size=40, unique=True)))
    m = len(pairs)
    grid = lambda *v: np.array(draw(st.lists(st.sampled_from(v), min_size=m, max_size=m)))
    ppos = np.array([p for p, _ in pairs], dtype=np.int64)
    action = np.array([a for _, a in pairs], dtype=np.int64)
    rows = np.array(draw(st.permutations(range(groups.size))), dtype=np.int64)
    cand = with_cost(rows[ppos], action % n, action, groups[ppos] * n + action % n,
                     grid(0.0, 0.5, 1.0), grid(-1.0, 0.0, 0.25, 1.0), grid(0.0, 1.0, 2.0))
    row_group = np.empty_like(groups)
    row_group[rows] = groups
    return cand, row_group


def assert_same_candidates(got, want):
    """Equal per-row fields and cost; the flat index and steps may differ."""
    for name, value in vars(want).items():
        if name not in ("flat", "steps"):
            np.testing.assert_array_equal(getattr(got, name), value, err_msg=name)
    np.testing.assert_array_equal(got.cost_at(), want.cost_at(), err_msg="cost")


def prune_both(cand, groups, beam_size=None):
    """Survivors with no objective (with and without parent groups), with
    capacity and with negated time."""
    return [prune_capacity_time(cand, None, groups, beam_size),
            prune_capacity_time(cand, None, None, beam_size),
            prune_capacity_time(cand, cand.extra, None, beam_size),
            prune_capacity_time(cand, -cand.extra, groups, beam_size)]


class TestScoreCut:
    """With a beam_size, pruning only the DP states that hold the best scores
    must leave select_top_b's result unchanged."""

    @settings(max_examples=300, deadline=None)
    @given(pruning_candidates())
    def test_top_b_unchanged_for_every_beam_size(self, case):
        cand, groups = case
        full = prune_both(cand, groups)
        for beam_size in range(1, len(cand) + 1):
            for got, want in zip(prune_both(cand, groups, beam_size), full):
                assert_same_candidates(select_top_b(got, beam_size),
                                       select_top_b(want, beam_size))

    @staticmethod
    def dominated_top(singletons, filler):
        """State 0 holds the two best scores, both dominated by its cheap,
        low-scoring third row, plus filler rows that score 0; every other
        state is one row scoring 2 to 6.75."""
        state = np.concatenate((np.zeros(3 + filler, dtype=np.int64),
                                np.arange(1, singletons + 1)))
        score = np.concatenate(([10.0, 9.0, 1.0], np.zeros(filler),
                                2.0 + 0.25 * np.arange(singletons)))
        cost = np.concatenate(([5.0, 5.0, 1.0], np.full(filler, 5.0), np.ones(singletons)))
        extra = np.concatenate(([0.0, 0.0, 1.0], np.zeros(filler + singletons)))
        ids = np.arange(state.size, dtype=np.int64)
        return with_cost(ids, state.copy(), ids.copy(), state, cost, score, extra)

    @pytest.mark.parametrize("singletons, filler, kernel_sizes", [
        (20, 0, [3, 9]),    # k = 2 marks state 0 alone; k = 8 adds six states
        (10, 0, [3, 13]),   # 2k = 16 reaches the 13 candidates: every state
        (20, 20, [43]),     # state 0 holds over half the candidates: every state
    ])
    @pytest.mark.parametrize("pareto", [False, True])
    def test_dominated_top_scores_widen_the_cut(self, singletons, filler, kernel_sizes,
                                                pareto, monkeypatch):
        cand = self.dominated_top(singletons, filler)
        kernel, sizes = solver.prune_pareto_front, []
        monkeypatch.setattr(solver, "prune_pareto_front", lambda state, *a, **k: (
            sizes.append(len(state)), kernel(state, *a, **k))[1])
        prune = lambda c, b=None: prune_capacity_time(c, c.extra if pareto else None,
                                                      beam_size=b)
        got = select_top_b(prune(cand, 1), 1)
        assert sizes == kernel_sizes
        assert_same_candidates(got, select_top_b(prune(cand), 1))
        assert got.score.tolist() == [2.0 + 0.25 * (singletons - 1)]

    @pytest.mark.parametrize("generate", [generate_tsp, generate_vrp, generate_tsptw])
    def test_solves_equal_without_the_cut(self, generate, monkeypatch):
        def solve_all():
            return [solve(generate(n, seed=seed), SolverConfig(beam_size=b, threshold=0.0,
                                                               policy=policy))
                    for n in range(7, 11) for seed in range(2) for b in (1, 3, 8, 40)
                    for policy in (Policy.COST_HEAT_POTENTIAL, Policy.COST)]

        with_cut = solve_all()
        pareto = solver.prune_capacity_time
        monkeypatch.setattr(solver, "prune_capacity_time",
                            lambda cand, obj, groups=None, beam_size=None:
                            pareto(cand, obj, groups))
        for got, want in zip(with_cut, solve_all()):
            assert got.found == want.found and got.failed_at_step == want.failed_at_step
            if want.found:
                assert got.solution.actions == want.solution.actions
                assert got.solution.cost == want.solution.cost


class TestSingletonGroupSkip:
    """Two candidates share a DP state only if their parents share a visited
    set, so given the parent groups, no row of a parent alone in its group
    may reach the kernel; without them (VRP), every row of the pruned
    states must, as direct and via-depot moves of one parent share states."""

    @staticmethod
    def kernel_rows(cand, objective, groups, beam_size):
        """The (parent row, action) pairs that reach the kernel."""
        kernel, seen = solver.prune_pareto_front, set()

        def spy(state, cost, objective=None, tie_keys=()):
            seen.update(zip(tie_keys[0].tolist(), (-tie_keys[2]).tolist()))
            return kernel(state, cost, objective, tie_keys=tie_keys)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "prune_pareto_front", spy)
            prune_capacity_time(cand, objective, groups, beam_size)
        return seen

    @settings(max_examples=200, deadline=None)
    @given(pruning_candidates(), st.sampled_from([None, 1, 2, 3]))
    def test_kernel_sees_no_singleton_row_with_groups_and_every_hot_row_without(
            self, case, beam_size):
        cand, groups = case
        rows = set(zip(cand.parent_pos.tolist(), cand.action.tolist()))
        shared = {(p, a) for p, a in rows if np.count_nonzero(groups == groups[p]) > 1}
        hot = rows
        k = 2 * beam_size if beam_size else len(cand)
        if 2 * k < len(cand):   # the rows of the states holding one of the k best scores
            top = np.isin(cand.state_id, cand.state_id[cand.score >= np.sort(cand.score)[-k]])
            hot = set(zip(cand.parent_pos[top].tolist(), cand.action[top].tolist()))
        for objective in (None, -cand.extra):
            seen = self.kernel_rows(cand, objective, groups, beam_size)
            assert seen <= shared
            assert hot & shared <= seen
            if beam_size is None:
                assert seen == shared
        for objective in (None, cand.extra):
            seen = self.kernel_rows(cand, objective, None, beam_size)
            assert hot <= seen
            if beam_size is None:
                assert seen == rows


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


@st.composite
def small_instances(draw, kind):
    """TSP or VRP with 3-8 nodes on a coarse grid, so points and distances
    coincide (all of them, at times); VRP demands 1-9 and a capacity from the
    largest demand to the total."""
    n = draw(st.integers(3, 8))
    coords = np.array(draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                    min_size=n, max_size=n)), dtype=float) / 3.0
    if kind == ProblemKind.TSP:
        return Instance(kind, coords)
    demands = np.array([0] + draw(st.lists(st.integers(1, 9), min_size=n - 1,
                                           max_size=n - 1)), dtype=float)
    capacity = draw(st.integers(int(demands.max()), int(demands.sum())))
    return Instance(kind, coords, demands=demands, capacity=float(capacity))


@settings(max_examples=60, deadline=None)
@given(inst=small_instances(ProblemKind.TSP), policy=st.sampled_from(list(Policy)))
def test_full_beam_tsp_matches_exact_dp(inst, policy):
    res = solve(inst, SolverConfig(beam_size=inst.n * 2**inst.n, threshold=0.0,
                                   policy=policy))
    assert res.found
    assert abs(res.solution.cost - exact_dp(inst).optimal_cost) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(inst=small_instances(ProblemKind.VRP), policy=st.sampled_from(list(Policy)))
def test_full_beam_vrp_matches_exact_dp(inst, policy):
    res = solve(inst, SolverConfig(beam_size=10**6, threshold=0.0, policy=policy))
    assert res.found
    assert abs(res.solution.cost - exact_dp(inst).optimal_cost) <= 1e-9


@st.composite
def any_solve(draw):
    """A small instance of any problem (TSPTW windows random, often
    infeasible), a config with any policy, threshold or knn and beam size,
    and a random heatmap or none."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    n = draw(st.integers(2, 8))
    top = draw(st.sampled_from([3, 997]))
    coords = np.array(draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)),
                                    min_size=n, max_size=n)), dtype=float) / top
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extra = {}
    if kind == ProblemKind.VRP:
        demands = np.concatenate([[0.0], rng.integers(1, 10, size=n - 1)])
        extra = dict(demands=demands, capacity=float(rng.integers(demands.max(),
                                                                  demands.sum() + 1)))
    elif kind == ProblemKind.TSPTW:
        lo = rng.random(n) * 2
        width = draw(st.sampled_from([0.5, 2.0, np.inf]))
        tw = np.stack([lo, lo + (rng.random(n) * width if width < np.inf else width)], 1)
        tw[DEPOT] = [0.0, np.inf]
        extra = dict(time_windows=tw)
    inst = Instance(kind, coords, **extra)
    sparsify = draw(st.one_of(st.builds(dict, threshold=st.sampled_from([0.0, 1e-5, 0.3, 0.9])),
                              st.builds(dict, knn=st.integers(1, n - 1))))
    config = SolverConfig(beam_size=draw(st.sampled_from([1, 2, 5, 64])),
                          policy=draw(st.sampled_from(list(Policy))),
                          dominance_enabled=draw(st.booleans()), **sparsify)
    heatmap = None
    if draw(st.booleans()):
        v = rng.random((n, n)) * 0.999
        if kind != ProblemKind.TSPTW:
            v = np.maximum(v, v.T)
        np.fill_diagonal(v, 0.0)
        heatmap = Heatmap(v, directed=kind == ProblemKind.TSPTW)
    return inst, config, heatmap


@settings(max_examples=300, deadline=None)
@given(case=any_solve())
def test_any_solve_is_feasible_or_fails_cleanly(case):
    inst, config, heatmap = case
    res = solve(inst, config, heatmap=heatmap)
    if res.found:
        sim = replay(inst, res.solution.actions, graph=build_graph(inst, heatmap, config))
        assert sim.feasible and sim.cost == res.solution.cost
    else:
        assert 0 <= res.failed_at_step <= inst.n - 1


@pytest.mark.parametrize("generate", [generate_tsp, generate_vrp, generate_tsptw])
def test_full_beam_memory_not_sized_by_beam_size(generate):
    # A full beam on 8 nodes holds a few hundred rows, so B = 10^6 (as in the
    # benchmark's exactness smoke) must not reserve room for 10^6 of them.
    config = SolverConfig(beam_size=10**6, policy=Policy.COST_HEAT_POTENTIAL, threshold=0.0)
    inst = generate(8, seed=900)
    tracemalloc.start()
    try:
        solve(inst, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


class TestCoincidentPoints:
    @staticmethod
    def instance(kind, n=5):
        extra = {ProblemKind.VRP: dict(demands=np.array([0.0] + [1.0] * (n - 1)), capacity=2.0),
                 ProblemKind.TSPTW: dict(time_windows=np.array([[0.0, math.inf]] * n))}
        return Instance(kind, np.full((n, 2), 0.25), **extra.get(kind, {}))

    @pytest.mark.parametrize("kind", list(ProblemKind))
    @pytest.mark.parametrize("policy", [Policy.COST, Policy.HEAT_POTENTIAL])
    def test_zero_cost_at_threshold_zero(self, kind, policy):
        inst = self.instance(kind)
        res = solve(inst, SolverConfig(beam_size=8, policy=policy, threshold=0.0))
        assert res.found and res.solution.cost == 0.0 == exact_dp(inst).optimal_cost

    @pytest.mark.parametrize("threshold", [1e-5, 0.5])
    def test_no_exception_at_any_threshold(self, threshold):
        # Every cost heat entry is 0, so a positive threshold leaves no edge.
        for kind in ProblemKind:
            for policy in Policy:
                res = solve(self.instance(kind), SolverConfig(beam_size=8, policy=policy,
                                                             threshold=threshold))
                assert res.found or res.failed_at_step is not None


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

    @pytest.mark.parametrize("knn", [0, -3])
    def test_knn_below_one_rejected(self, knn):
        with pytest.raises(ValueError, match="knn must be >= 1"):
            SolverConfig(beam_size=4, knn=knn)

    @pytest.mark.parametrize("threshold", [-1.0, -1e-9, 1.0, 2.0, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"threshold must lie in \[0, 1\)"):
            SolverConfig(beam_size=4, threshold=threshold)

    def test_knn_at_or_above_n_stays_a_solve_error(self):
        cfg = SolverConfig(beam_size=4, knn=8)
        with pytest.raises(ValueError, match="k must lie"):
            solve(generate_tsp(8, seed=0), cfg)

    @pytest.mark.parametrize("kwargs, match", [
        ({"policy": "cost"}, "policy must be a Policy"),
        ({"beam_size": 2.5}, "beam_size must be an integer"),
        ({"beam_size": np.float64(10.0)}, "beam_size must be an integer"),
        ({"beam_size": "10"}, "beam_size must be an integer"),
        ({"knn": 2.5}, "knn must be an integer"),
        ({"dominance_enabled": "off"}, "dominance_enabled must be a bool"),
        ({"dominance_enabled": 0}, "dominance_enabled must be a bool"),
        ({"invert_cost_heat": 1}, "invert_cost_heat must be a bool"),
        ({"invert_cost_heat": None}, "invert_cost_heat must be a bool"),
        ({"beam_size": True}, "beam_size must be an integer"),
        ({"knn": True}, "knn must be an integer"),
        ({"threshold": False}, "threshold must be a number"),
        ({"threshold": True}, "threshold must be a number"),
        ({"threshold": "0.1"}, "threshold must be a number"),
        ({"threshold": np.bool_(False)}, "threshold must be a number"),
        ({"threshold": [0.1]}, "threshold must be a number"),
    ])
    def test_wrong_types_rejected(self, kwargs, match):
        with pytest.raises(TypeError, match=match):
            SolverConfig(**{"beam_size": 10, **kwargs})

    def test_numpy_integers_accepted(self):
        cfg = SolverConfig(beam_size=np.int64(10), knn=np.int32(3))
        assert (cfg.beam_size, cfg.knn) == (10, 3)

    @pytest.mark.parametrize("threshold", [0, 0.5, np.float32(0.25), np.float64(0.0)])
    def test_real_thresholds_accepted(self, threshold):
        assert SolverConfig(beam_size=4, threshold=threshold).threshold == threshold

    def test_numpy_bools_accepted(self):
        cfg = SolverConfig(beam_size=4, dominance_enabled=np.bool_(False),
                           invert_cost_heat=np.bool_(True))
        assert (cfg.dominance_enabled, cfg.invert_cost_heat) == (False, True)

    def test_default_threshold_restored_when_both_unset(self):
        cfg = SolverConfig(beam_size=4, threshold=None, knn=None)
        assert cfg.threshold == 1e-5
        assert SolverConfig(beam_size=4).threshold == 1e-5
