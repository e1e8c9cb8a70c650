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

    def test_size_cap_refusal(self):
        with pytest.raises(ValueError, match="limit"):
            brute_force(generate_tsp(12, seed=0))
        with pytest.raises(ValueError, match="limit"):
            brute_force(generate_vrp(10, seed=0))


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


def coincident(kind, n=5):
    """All points at one spot, so every cost is 0 and every order ties."""
    extra = {ProblemKind.VRP: dict(demands=np.array([0.0] + [1.0] * (n - 1)), capacity=2.0)}
    return Instance(kind, np.full((n, 2), 0.25), **extra.get(kind, {}))


# (optimal_cost.hex(), optimal_routes, node_count_searched), recorded from the
# three per-problem DPs that exact_dp replaced.
PINNED = {
    "tsp6_s0": (lambda: generate_tsp(6, seed=0), "0x1.935369dcd163ep+1",
                ((0, 5, 1, 4, 2, 3, 0),), 80),
    "tsp9_s7": (lambda: generate_tsp(9, seed=7), "0x1.835656712f537p+1",
                ((0, 2, 3, 6, 5, 7, 1, 4, 8, 0),), 1024),
    "vrp6_s1": (lambda: generate_vrp(6, seed=1), "0x1.6e0c478768650p+1",
                ((0, 1, 0), (0, 5, 3, 4, 2, 0)), 80),
    "vrp9_s5": (lambda: generate_vrp(9, seed=5), "0x1.4080578b0c648p+2",
                ((0, 1, 3, 5, 7, 0), (0, 6, 0), (0, 8, 2, 4, 0)), 1024),
    "tsptw7_s2": (lambda: generate_tsptw(7, seed=2), "0x1.e2fc42935943ep+7",
                  ((0, 4, 6, 2, 5, 1, 3, 0),), 154),
    "tsptw9_s3": (lambda: generate_tsptw(9, seed=3), "0x1.2dc1c2a6f6874p+8",
                  ((0, 5, 3, 4, 1, 7, 6, 8, 2, 0),), 840),
    "tsptw8_s4_x085": (lambda: perturbed_tsptw(8, 4, shrink=0.85), "0x1.28cc7afc4b073p+8",
                       ((0, 5, 1, 3, 4, 6, 7, 2, 0),), 136),
    "tsptw8_s0_x06": (lambda: perturbed_tsptw(8, 0, shrink=0.6), "inf", None, 30),
    "tsp5_coincident": (lambda: coincident(ProblemKind.TSP), "0x0.0p+0",
                        ((0, 4, 3, 2, 1, 0),), 32),
    "vrp5_coincident": (lambda: coincident(ProblemKind.VRP), "0x0.0p+0",
                        ((0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0)), 32),
}


@pytest.mark.parametrize("name", PINNED)
def test_exact_dp_pinned(name):
    make, cost_hex, routes, searched = PINNED[name]
    res = exact_dp(make())
    assert (res.optimal_cost.hex(), res.optimal_routes, res.node_count_searched) == \
        (cost_hex, routes, searched)
