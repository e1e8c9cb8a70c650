"""Pinned action sequences of small default-config solves.

A refactor of the engine that is meant to be bit-identical must leave
these sequences unchanged; one that changes behaviour on purpose records
the new sequences here and says why.  Each entry is one solve of the
seeded generator instance with n = 20 and SolverConfig(beam_size=200), with
the default policy (GOLDEN) or Policy.COST (COST_GOLDEN).  COST is the one
policy whose score is -cost, so its score ties are cost ties.
"""

import pytest

from routedp import Policy, SolverConfig, generate_tsp, generate_tsptw, generate_vrp, solve

GENERATORS = {"tsp": generate_tsp, "vrp": generate_vrp, "tsptw": generate_tsptw}

GOLDEN = {
    ("tsp", 0): [16, 7, 4, 5, 2, 17, 13, 15, 10, 11, 1, 3, 6, 12, 18, 9, 14, 8, 19, 0],
    ("tsp", 1): [4, 17, 19, 1, 13, 14, 2, 12, 8, 5, 18, 3, 6, 15, 16, 10, 9, 7, 11, 0],
    ("tsp", 2): [16, 3, 18, 14, 7, 1, 4, 8, 10, 11, 9, 15, 5, 12, 17, 19, 2, 13, 6, 0],
    ("vrp", 0): [37, 13, 12, 1, 4, 6, 16, 7, 31, 10, 3, 5, 2, 15, 39, 9, 18, 14, 8, 0],
    ("vrp", 1): [37, 4, 16, 18, 5, 8, 12, 7, 39, 14, 13, 11, 23, 1, 9, 6, 30, 15, 2, 0],
    ("vrp", 2): [30, 8, 4, 19, 15, 17, 12, 9, 11, 27, 3, 18, 1, 6, 14, 33, 16, 2, 5, 0],
    ("tsptw", 0): [16, 1, 7, 2, 9, 8, 17, 13, 11, 10, 3, 12, 19, 6, 5, 15, 14, 4, 18, 0],
    ("tsptw", 1): [17, 16, 4, 15, 1, 6, 12, 3, 9, 14, 18, 8, 5, 19, 10, 13, 7, 2, 11, 0],
    ("tsptw", 2): [5, 2, 18, 3, 6, 14, 17, 15, 10, 9, 11, 8, 16, 12, 4, 7, 13, 19, 1, 0],
}

COST_GOLDEN = {
    ("tsp", 0): [17, 12, 15, 19, 8, 14, 11, 3, 2, 13, 4, 18, 16, 9, 10, 1, 5, 6, 7, 0],
    ("tsp", 1): [11, 14, 1, 18, 8, 9, 2, 7, 13, 15, 19, 4, 10, 3, 5, 12, 16, 17, 6, 0],
    ("tsp", 2): [10, 18, 13, 6, 7, 4, 15, 12, 2, 16, 11, 8, 19, 17, 1, 5, 9, 3, 14, 0],
    ("vrp", 0): [32, 17, 27, 5, 6, 19, 15, 34, 3, 4, 2, 13, 8, 31, 18, 16, 9, 10, 1, 0],
    ("vrp", 1): [37, 16, 7, 2, 9, 8, 18, 31, 14, 1, 6, 33, 15, 19, 4, 10, 32, 3, 5, 0],
    ("vrp", 2): [27, 6, 13, 2, 16, 11, 8, 19, 17, 30, 4, 15, 12, 18, 9, 34, 3, 1, 5, 0],
    ("tsptw", 0): [15, 16, 11, 2, 8, 19, 6, 5, 7, 17, 9, 1, 10, 3, 18, 4, 13, 14, 12, 0],
    ("tsptw", 1): [17, 12, 16, 6, 14, 1, 7, 15, 4, 9, 5, 3, 10, 19, 13, 2, 8, 18, 11, 0],
    ("tsptw", 2): [14, 3, 5, 18, 7, 6, 12, 15, 4, 10, 9, 17, 11, 8, 16, 2, 13, 19, 1, 0],
}

NO_DOMINANCE_GOLDEN = {
    ("tsp", 0): [13, 12, 2, 7, 4, 6, 16, 19, 10, 11, 1, 15, 18, 5, 9, 8, 17, 3, 14, 0],
    ("tsp", 1): [19, 6, 4, 16, 9, 12, 18, 5, 14, 3, 1, 13, 11, 15, 17, 8, 10, 2, 7, 0],
    ("tsp", 2): [11, 10, 8, 4, 1, 13, 3, 18, 14, 19, 15, 17, 12, 9, 2, 5, 16, 6, 7, 0],
    ("vrp", 0): [37, 13, 7, 16, 6, 4, 5, 3, 31, 1, 15, 10, 2, 12, 39, 9, 8, 18, 14, 0],
    ("vrp", 1): [33, 14, 19, 16, 4, 17, 7, 22, 12, 8, 5, 18, 31, 15, 1, 3, 26, 9, 10, 0],
    ("vrp", 2): [24, 1, 6, 3, 2, 14, 19, 15, 17, 36, 9, 11, 10, 8, 7, 25, 12, 18, 13, 0],
    ("tsptw", 0): [16, 7, 2, 9, 8, 1, 11, 5, 3, 6, 17, 10, 15, 19, 12, 4, 13, 18, 14, 0],
    ("tsptw", 1): [16, 4, 17, 6, 15, 14, 3, 9, 12, 7, 1, 19, 11, 18, 13, 10, 5, 8, 2, 0],
    ("tsptw", 2): [2, 3, 6, 5, 11, 18, 15, 9, 8, 17, 12, 10, 7, 14, 13, 1, 19, 16, 4, 0],
}


@pytest.mark.parametrize("problem,seed", sorted(GOLDEN))
def test_actions_unchanged(problem, seed):
    result = solve(GENERATORS[problem](20, seed=seed), SolverConfig(beam_size=200))
    assert result.found
    assert list(result.solution.actions) == GOLDEN[problem, seed]


@pytest.mark.parametrize("problem,seed", sorted(COST_GOLDEN))
def test_cost_policy_actions_unchanged(problem, seed):
    config = SolverConfig(beam_size=200, policy=Policy.COST)
    result = solve(GENERATORS[problem](20, seed=seed), config)
    assert result.found
    assert list(result.solution.actions) == COST_GOLDEN[problem, seed]


@pytest.mark.parametrize("problem,seed", sorted(NO_DOMINANCE_GOLDEN))
def test_no_dominance_actions_unchanged(problem, seed):
    config = SolverConfig(beam_size=200, dominance_enabled=False)
    result = solve(GENERATORS[problem](20, seed=seed), config)
    assert result.found
    assert list(result.solution.actions) == NO_DOMINANCE_GOLDEN[problem, seed]
