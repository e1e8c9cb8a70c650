import numpy as np
import pytest

from routedp import (ProblemKind, SparseGraph, build_solution, decode_routes,
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
        assert decode_routes(square_tsp(), [1, 2, 3, 0]) == ((0, 1, 2, 3, 0),)

    def test_vrp_splits_at_via_depot(self):
        inst = generate_vrp(5, seed=1)
        n = inst.n
        routes = decode_routes(inst, [n + 1, 2, n + 3, 4, 0])
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
