"""Heatmap-guided beam-restricted dynamic programming for routing problems.

Solves TSP, capacitated VRP and TSPTW by iterating a beam of partial
solutions over the DP state space: expansions are scored by edge heat plus
a heat-to-go potential, dominated same-state solutions are pruned, and the
top-B survivors form the next beam.  Exact oracles for small instances and
a CLI are included.
"""

from .decode import Replay, build_solution, replay
from .exact import OracleResult, brute_force, exact_dp
from .heatmaps import (Heatmap, SparseGraph, cost_heatmap, read_heatmap,
                       sparsify_knn, sparsify_threshold, symmetrize, write_heatmap)
from .instances import (DEPOT, Instance, ProblemKind, Solution,
                        euclidean_cost_matrix, generate_tsp, generate_tsptw,
                        generate_vrp, read_instance, write_instance)
from .policy import (Policy, PolicyTables, PotentialState, build_policy_tables,
                     initial_potential, visit_update)
from .solver import SolveResult, SolverConfig, backtrack, solve

__all__ = [
    "DEPOT", "Heatmap", "Instance", "OracleResult", "Policy", "PolicyTables",
    "PotentialState", "ProblemKind", "Replay", "SolveResult", "Solution",
    "SolverConfig", "SparseGraph", "backtrack", "brute_force", "build_policy_tables",
    "build_solution", "cost_heatmap", "euclidean_cost_matrix",
    "exact_dp", "generate_tsp", "generate_tsptw", "generate_vrp",
    "initial_potential", "read_heatmap", "read_instance", "replay",
    "solve", "sparsify_knn", "sparsify_threshold", "symmetrize", "visit_update",
    "write_heatmap", "write_instance",
]

__version__ = "0.1.0"
