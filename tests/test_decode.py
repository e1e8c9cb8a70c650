import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from routedp import (DEPOT, ProblemKind, SparseGraph, build_solution, generate_tsp,
                     generate_tsptw, generate_vrp, replay)
from routedp.instances import Instance


def square_tsp():
    return Instance(ProblemKind.TSP,
                    np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


class TestReplay:
    def test_tsp_tour_cost(self):
        sim = replay(square_tsp(), [1, 2, 3, 0])
        assert sim.feasible
        assert sim.cost == pytest.approx(4.0, abs=1e-12)
        assert sim.current == 0
        assert sim.visited == {0, 1, 2, 3}

    def test_repeated_node_flagged(self):
        sim = replay(square_tsp(), [1, 1, 2, 3, 0])
        assert not sim.feasible
        assert any("repeated" in v for v in sim.violations)

    def test_missing_edge_flagged(self):
        g = SparseGraph.from_adjacency(np.array([
            [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], dtype=bool))
        ok = replay(square_tsp(), [1, 2, 3, 0], graph=g)
        assert ok.feasible
        bad = replay(square_tsp(), [2, 1, 3, 0], graph=g)  # 0-2 is a diagonal
        assert not bad.feasible
        assert any("edge (0, 2)" in v for v in bad.violations)

    def test_vrp_capacity_violation_flagged(self):
        inst = Instance(ProblemKind.VRP, np.random.default_rng(0).random((3, 2)),
                        demands=np.array([0.0, 3.0, 3.0]), capacity=4.0)
        n = inst.n
        good = replay(inst, [n + 1, n + 2, 0])   # via depot between customers
        assert good.feasible
        bad = replay(inst, [n + 1, 2, 0])        # direct move overloads
        assert not bad.feasible
        assert any("capacity" in v for v in bad.violations)

    def test_vrp_must_start_via_depot(self):
        inst = generate_vrp(5, seed=0)
        sim = replay(inst, [1, 2, 3, 4, 0])
        assert not sim.feasible
        assert any("depot" in v for v in sim.violations)

    def test_tsptw_late_arrival_flagged(self):
        inst = generate_tsptw(6, seed=0, max_window=100.0)
        # visiting in reverse of a feasible order is very likely late; build
        # the violation deterministically instead: shrink one deadline to 0.
        tw = inst.time_windows.copy()
        tw[1, 0] = 0.0
        tw[1, 1] = 0.0
        tight = Instance(ProblemKind.TSPTW, inst.coords, time_windows=tw)
        sim = replay(tight, [1, 2, 3, 4, 5, 0])
        assert not sim.feasible
        assert any("deadline" in v for v in sim.violations)

    def test_heat_and_potential_accumulate(self):
        from routedp import build_policy_tables, cost_heatmap, symmetrize
        inst = square_tsp()
        tables = build_policy_tables(symmetrize(cost_heatmap(inst.cost_matrix())),
                                     inst.cost_matrix(), inst.kind)
        sim = replay(inst, [1, 2, 3, 0], tables=tables)
        want = (tables.heat[0, 1] + tables.heat[1, 2]
                + tables.heat[2, 3] + tables.heat[3, 0])
        assert sim.heat == pytest.approx(want, abs=1e-12)
        assert sim.potential is not None
        assert sim.score == pytest.approx(sim.heat + sim.potential.total, abs=1e-12)

    def test_vrp_heat_counts_direct_and_via_moves(self):
        from routedp import build_policy_tables, cost_heatmap, symmetrize
        inst = generate_vrp(8, seed=0)
        n = inst.n
        tables = build_policy_tables(symmetrize(cost_heatmap(inst.cost_matrix())),
                                     inst.cost_matrix(), inst.kind)
        # via the depot to 7, direct to 4, via the depot to 2, direct to 5
        sim = replay(inst, [n + 7, 4, n + 2, 5], tables=tables)
        assert sim.feasible
        want = (tables.via_depot_heat[0, 7] + tables.heat[7, 4]
                + tables.via_depot_heat[4, 2] + tables.heat[2, 5])
        assert tables.heat[7, 4] > 0.5
        assert sim.heat == pytest.approx(want, abs=1e-12)


class TestDecodeRoutes:
    def test_tsp_single_route(self):
        assert replay(square_tsp(), [1, 2, 3, 0]).routes == ((0, 1, 2, 3, 0),)

    def test_vrp_splits_at_via_depot(self):
        inst = generate_vrp(5, seed=1)
        n = inst.n
        routes = replay(inst, [n + 1, 2, n + 3, 4, 0]).routes
        assert routes == ((0, 1, 2, 0), (0, 3, 4, 0))


class TestBuildSolution:
    def test_complete_tour_is_feasible(self):
        sol = build_solution(square_tsp(), [1, 2, 3, 0])
        assert sol.feasible
        assert sol.cost == pytest.approx(4.0, abs=1e-12)
        assert sol.routes == ((0, 1, 2, 3, 0),)

    def test_incomplete_tour_is_infeasible(self):
        sol = build_solution(square_tsp(), [1, 2, 0])
        assert not sol.feasible

    def test_vrp_direct_first_move_is_infeasible_not_an_error(self):
        sol = build_solution(generate_vrp(5, seed=0), [1, 2, 3, 4, 0])
        assert not sol.feasible
        assert sol.routes == ((0, 1, 2, 3, 4, 0),)

    def test_tsp_prefix_leaves_its_route_open(self):
        sol = build_solution(generate_tsp(4, seed=0), [1, 2, 3])
        assert not sol.feasible
        assert sol.routes == ((0, 1, 2, 3),)

    def test_vrp_direct_move_from_depot_flagged_at_any_step(self):
        inst = generate_vrp(5, seed=0)
        sim = replay(inst, [2 * inst.n + 1, 1, inst.n + 2, 3, 4, 0])
        assert sum("depot" in v for v in sim.violations) == 1
        assert sim.routes == ((0, 1, 0), (0, 2, 3, 4, 0))


@st.composite
def walks(draw):
    """A random customer order, for a VRP with random via-depot moves, that
    is either left intact or corrupted in one way."""
    kind = draw(st.sampled_from(list(ProblemKind)))
    n = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2**16))
    if kind == ProblemKind.TSP:
        inst = generate_tsp(n, seed)
    elif kind == ProblemKind.VRP:
        inst = generate_vrp(n, seed)
    else:
        inst = generate_tsptw(n, seed, max_window=draw(st.sampled_from([100.0, 1e5])))
    vrp = kind == ProblemKind.VRP
    actions = [n + j if vrp and (i == 0 or draw(st.booleans())) else j
               for i, j in enumerate(draw(st.permutations(range(1, n))))] + [DEPOT]
    fault = draw(st.sampled_from(["none", "repeat", "out_of_range", "direct_first",
                                  "no_return", "early_return"]))
    at = draw(st.integers(0, len(actions) - 1))
    if fault == "repeat":
        actions.insert(at, actions[draw(st.integers(0, len(actions) - 2))])
    elif fault == "out_of_range":
        actions.insert(at, draw(st.sampled_from([-1, 2 * n if vrp else n, 3 * n])))
    elif fault == "direct_first" and vrp:
        actions[0] -= n
    elif fault == "no_return":
        actions.pop()
    elif fault == "early_return":
        actions.insert(at, DEPOT)
    return inst, actions


def valid_visits(inst, actions):
    """Customers the walk accepts, in action order: in range and new."""
    n, seen = inst.n, []
    for a in actions:
        node = a - n if inst.kind == ProblemKind.VRP and a >= n else a
        if 0 < node < n and node not in seen:
            seen.append(node)
    return seen


@settings(max_examples=300, deadline=None)
@given(case=walks())
def test_routes_record_the_walk(case):
    inst, actions = case
    sol = build_solution(inst, actions)
    visits = [v for r in sol.routes for v in r[1:] if v != DEPOT]
    assert visits == valid_visits(inst, actions)
    assert all(r[0] == DEPOT for r in sol.routes)
    assert all(r[-1] == DEPOT for r in sol.routes[:-1])
    if sol.feasible:
        assert sorted(visits) == list(range(1, inst.n))
        assert sol.routes[-1][-1] == DEPOT
        length = sum(math.dist(inst.coords[i], inst.coords[j])
                     for r in sol.routes for i, j in zip(r, r[1:]))
        assert length == pytest.approx(sol.cost, abs=1e-9)
