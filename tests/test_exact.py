import math

import numpy as np
import pytest

from routedp import (ProblemKind, brute_force, exact_dp, generate_tsp,
                     generate_tsptw, generate_vrp, replay)
from routedp.instances import Instance


def perturbed_tsptw(n, seed, shrink=0.85):
    """A TSPTW instance with deadlines shrunk so it may become infeasible."""
    base = generate_tsptw(n, seed=seed, max_window=200.0)
    tw = base.time_windows.copy()
    tw[1:, 1] *= shrink
    tw[1:, 0] = np.minimum(tw[1:, 0], tw[1:, 1])
    return Instance(ProblemKind.TSPTW, base.coords, time_windows=tw)


class TestBruteForceBasics:
    def test_tsp_triangle_perimeter(self):
        inst = Instance(ProblemKind.TSP,
                        np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
        res = brute_force(inst)
        assert res.optimal_cost == pytest.approx(12.0, abs=1e-12)
        assert res.optimal_routes == ((0, 1, 2, 0),)

    def test_tsptw_unreachable_window_infeasible(self):
        coords = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 1.0]])
        tw = np.array([[0.0, math.inf], [0.0, 50.0], [0.0, 500.0]])
        inst = Instance(ProblemKind.TSPTW, coords, time_windows=tw)
        res = brute_force(inst)
        assert not res.feasible
        assert math.isinf(res.optimal_cost)
        assert res.optimal_routes is None

    def test_vrp_forced_single_customer_routes(self):
        inst = Instance(ProblemKind.VRP,
                        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]]),
                        demands=np.array([0.0, 5.0, 5.0]), capacity=5.0)
        res = brute_force(inst)
        assert res.optimal_cost == pytest.approx(2.0 + 4.0, abs=1e-12)
        assert res.optimal_routes == ((0, 1, 0), (0, 2, 0))

    def test_routes_resimulate_to_reported_cost(self):
        inst = generate_tsp(7, seed=0)
        res = brute_force(inst)
        actions = list(res.optimal_routes[0][1:])
        sim = replay(inst, actions)
        assert sim.feasible
        assert sim.cost == pytest.approx(res.optimal_cost, abs=1e-9)

    @pytest.mark.slow
    def test_size_cap_refusal(self):
        with pytest.raises(ValueError, match="limit"):
            brute_force(generate_tsp(12, seed=0))
        with pytest.raises(ValueError, match="limit"):
            brute_force(generate_vrp(10, seed=0))
        # explicit override lifts the cap
        brute_force(generate_tsp(12, seed=0), max_n=12)


class TestExactDPBasics:
    def test_tsp_triangle_perimeter(self):
        inst = Instance(ProblemKind.TSP,
                        np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]))
        assert exact_dp(inst).optimal_cost == pytest.approx(12.0, abs=1e-12)

    def test_size_cap_refusal(self):
        with pytest.raises(ValueError, match="limit"):
            exact_dp(generate_tsp(17, seed=0))
        with pytest.raises(ValueError, match="limit"):
            exact_dp(generate_vrp(14, seed=0))

    def test_vrp_routes_cover_customers(self):
        inst = generate_vrp(8, seed=3)
        res = exact_dp(inst)
        covered = sorted(v for route in res.optimal_routes for v in route[1:-1])
        assert covered == list(range(1, 8))
        for route in res.optimal_routes:
            assert inst.demands[list(route[1:-1])].sum() <= inst.capacity + 1e-12

    def test_tsptw_route_respects_windows(self):
        inst = generate_tsptw(9, seed=4)
        res = exact_dp(inst)
        actions = list(res.optimal_routes[0][1:])
        sim = replay(inst, actions)
        assert sim.feasible


class TestOracleAgreement:
    def test_tsp(self):
        for seed in range(20):
            n = 5 + seed % 5
            inst = generate_tsp(n, seed=seed)
            a, b = brute_force(inst), exact_dp(inst)
            assert a.optimal_cost == pytest.approx(b.optimal_cost, abs=1e-9)

    def test_vrp(self):
        for seed in range(12):
            n = 4 + seed % 3
            inst = generate_vrp(n, seed=seed)
            a, b = brute_force(inst), exact_dp(inst)
            assert a.optimal_cost == pytest.approx(b.optimal_cost, abs=1e-9)

    def test_tsptw_including_infeasible(self):
        verdicts = set()
        for seed in range(20):
            n = 5 + seed % 4
            inst = perturbed_tsptw(n, seed)
            a, b = brute_force(inst), exact_dp(inst)
            assert a.feasible == b.feasible
            verdicts.add(a.feasible)
            if a.feasible:
                assert a.optimal_cost == pytest.approx(b.optimal_cost, abs=1e-9)
        assert verdicts == {True, False}  # the mix exercises both branches
