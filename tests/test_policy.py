import numpy as np
import pytest

from routedp import (Heatmap, Policy, ProblemKind, build_policy_tables,
                     euclidean_cost_matrix, initial_potential, visit_update)
from routedp.policy import VIA_DEPOT_HEAT_PENALTY


def uniform_heatmap(n, value=0.5):
    v = np.full((n, n), value)
    np.fill_diagonal(v, 0.0)
    return Heatmap(v)


def random_setup(rng, n, kind=ProblemKind.TSP, use_potential=True):
    coords = rng.random((n, 2))
    v = rng.random((n, n)) * 0.999
    v = np.triu(v) + np.triu(v, 1).T
    np.fill_diagonal(v, 0.0)
    h = Heatmap(v)
    return build_policy_tables(h, euclidean_cost_matrix(coords), kind,
                               use_potential=use_potential)


class TestPolicyEnum:
    def test_variant_properties(self):
        assert Policy.HEAT_POTENTIAL.uses_potential
        assert Policy.COST_HEAT_POTENTIAL.uses_potential
        assert not Policy.HEAT.uses_potential
        assert Policy.COST_HEAT.uses_cost_heat
        assert Policy.COST.uses_cost_heat
        assert not Policy.HEAT_POTENTIAL.uses_cost_heat

    def test_values_round_trip(self):
        for p in Policy:
            assert Policy(p.value) is p


class TestNodeWeights:
    def test_farthest_node_weight(self):
        # max incoming heat 0.8 at the node farthest from the start:
        # weight = 0.8 * (1 - 0.1 * (1 - 0.5)) = 0.8 * 0.95.
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        v = np.zeros((3, 3))
        v[0, 2] = v[2, 0] = 0.8
        v[0, 1] = v[1, 0] = 0.3
        v[1, 2] = v[2, 1] = 0.2
        t = build_policy_tables(Heatmap(v), euclidean_cost_matrix(coords),
                                ProblemKind.TSP)
        assert t.w[2] == pytest.approx(0.8 * 0.95, abs=1e-12)

    def test_start_node_weight(self):
        # the start node itself has distance 0: weight = 1.05 * max heat.
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        v = np.zeros((3, 3))
        v[0, 1] = v[1, 0] = 0.6
        v[1, 2] = v[2, 1] = 0.2
        t = build_policy_tables(Heatmap(v), euclidean_cost_matrix(coords),
                                ProblemKind.TSP)
        assert t.w[0] == pytest.approx(0.6 * 1.05, abs=1e-12)

    def test_weights_zeroed_without_potential(self):
        t = random_setup(np.random.default_rng(0), 6, use_potential=False)
        assert np.all(t.w == 0)
        assert np.all(t.delta == 0)

    def test_via_depot_heat_product(self):
        coords = np.random.default_rng(1).random((3, 2))
        v = np.zeros((3, 3))
        v[1, 0] = v[0, 1] = 0.5
        v[0, 2] = v[2, 0] = 0.4
        t = build_policy_tables(Heatmap(v), euclidean_cost_matrix(coords),
                                ProblemKind.VRP)
        assert VIA_DEPOT_HEAT_PENALTY == 0.1
        assert t.via_depot_heat[1, 2] == pytest.approx(0.5 * 0.4 * 0.1, abs=1e-15)
        assert np.all(np.diag(t.via_depot_heat) == 0)

    def test_via_depot_heat_absent_outside_vrp(self):
        t = random_setup(np.random.default_rng(2), 5, kind=ProblemKind.TSP)
        assert t.via_depot_heat is None


class TestInitialPotential:
    def test_uniform_heatmap_share(self):
        # n = 5, h_ji = 0.5 everywhere, start visited: each other node keeps
        # heat from 3 of its 4 in-edges, so p_i = w_i * 3/4.
        coords = np.random.default_rng(3).random((5, 2))
        t = build_policy_tables(uniform_heatmap(5), euclidean_cost_matrix(coords),
                                ProblemKind.TSP)
        pot = initial_potential(t, {0})
        for i in range(1, 5):
            assert pot.p[i] == pytest.approx(t.w[i] * 0.75, abs=1e-12)

    def test_vrp_nothing_visited_gives_full_weight(self):
        t = random_setup(np.random.default_rng(4), 6, kind=ProblemKind.VRP)
        pot = initial_potential(t, set())
        np.testing.assert_allclose(pot.p, t.w, atol=1e-12)
        assert pot.total == pytest.approx(t.w.sum(), abs=1e-12)

    def test_zero_normalizer_gives_zero_potential(self):
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        v = np.zeros((3, 3))
        v[0, 1] = v[1, 0] = 0.5  # node 2 has no incoming heat at all
        t = build_policy_tables(Heatmap(v), euclidean_cost_matrix(coords),
                                ProblemKind.TSP)
        pot = initial_potential(t, {0})
        assert pot.p[2] == 0.0

    def test_total_counts_unvisited_plus_start(self):
        t = random_setup(np.random.default_rng(5), 7)
        pot = initial_potential(t, {0})
        assert pot.counted.sum() == 7  # start stays counted
        assert pot.total == pytest.approx(pot.p[pot.counted].sum(), abs=1e-12)


class TestVisitUpdate:
    def test_zero_heat_visit_leaves_others_unchanged(self):
        coords = np.random.default_rng(6).random((4, 2))
        v = np.zeros((4, 4))
        v[0, 1] = v[1, 0] = 0.5
        v[0, 2] = v[2, 0] = 0.3  # node 3 has zero heat on every edge
        t = build_policy_tables(Heatmap(v), euclidean_cost_matrix(coords),
                                ProblemKind.TSP)
        pot = initial_potential(t, {0})
        after = visit_update(pot, t, 3)
        np.testing.assert_array_equal(after.p, pot.p)
        assert after.total == pytest.approx(pot.total - pot.p[3], abs=1e-12)

    def test_incremental_matches_from_scratch(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(5, 14))
            t = random_setup(rng, n)
            pot = initial_potential(t, {0})
            visited = {0}
            order = rng.permutation(np.arange(1, n))[: min(10, n - 1)]
            for v in order:
                pot = visit_update(pot, t, int(v))
                visited.add(int(v))
            scratch = initial_potential(t, visited)
            np.testing.assert_allclose(pot.p[pot.counted], scratch.p[scratch.counted],
                                       atol=1e-9)
            assert pot.total == pytest.approx(scratch.total, abs=1e-9)

    def test_exhausted_neighbors_zero_potential(self):
        rng = np.random.default_rng(8)
        t = random_setup(rng, 6)
        pot = initial_potential(t, {0})
        for v in range(1, 5):  # visit everyone except node 5
            pot = visit_update(pot, t, v)
        # every in-edge heat source of node 5 is spent (the diagonal is 0),
        # so its remaining potential collapses to zero
        assert abs(pot.p[5]) <= 1e-12

    def test_total_is_monotone_non_increasing(self):
        rng = np.random.default_rng(9)
        t = random_setup(rng, 10)
        pot = initial_potential(t, {0})
        for v in rng.permutation(np.arange(1, 10)):
            nxt = visit_update(pot, t, int(v))
            assert nxt.total <= pot.total + 1e-12
            pot = nxt

    def test_double_visit_rejected(self):
        t = random_setup(np.random.default_rng(10), 5)
        pot = visit_update(initial_potential(t, {0}), t, 2)
        with pytest.raises(ValueError, match="already visited"):
            visit_update(pot, t, 2)

    def test_input_state_not_mutated(self):
        t = random_setup(np.random.default_rng(11), 5)
        pot = initial_potential(t, {0})
        before = pot.p.copy()
        visit_update(pot, t, 1)
        np.testing.assert_array_equal(pot.p, before)
