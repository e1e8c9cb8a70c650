"""Output checks that do not trust the solver's own verification.

check_solution re-derives feasibility and cost of one returned solution
from the instance alone; exactness_smoke compares full-beam solves of tiny
instances with the exact DP oracle, so a change that breaks dominance
cannot post a benchmark number.
"""

from __future__ import annotations

import hashlib
import math

from routedp import (DEPOT, Policy, ProblemKind, SolveResult, SolverConfig,
                     SparseGraph, exact_dp, generate_tsp, generate_tsptw,
                     generate_vrp, replay, solve)
from routedp.instances import Instance

from workloads import SEED_STRIDE

COST_TOL = 1e-9


def check_solution(inst: Instance, result: SolveResult, graph: SparseGraph) -> list[str]:
    """Reasons the result is wrong; empty when it passes every check."""
    if not result.found:
        return [f"no solution (beam died at step {result.failed_at_step})"]
    sol = result.solution
    errors: list[str] = []

    sim = replay(inst, list(sol.actions), graph=graph)
    if not sim.feasible:
        errors.append("replay: " + "; ".join(sim.violations[:3]))

    if any(r[0] != DEPOT or r[-1] != DEPOT for r in sol.routes):
        errors.append("a route does not start and end at the depot")
    visits = sorted(v for r in sol.routes for v in r[1:-1])
    if visits != list(range(1, inst.n)):
        errors.append("customers are not visited exactly once")

    xy = inst.coords.tolist()
    cost = sum(math.dist(xy[a], xy[b]) for r in sol.routes for a, b in zip(r, r[1:]))
    if abs(cost - sol.cost) > COST_TOL:
        errors.append(f"reported cost {sol.cost!r} != recomputed {cost!r}")

    if inst.kind == ProblemKind.VRP:
        for r in sol.routes:
            load = sum(float(inst.demands[v]) for v in r)
            if load > inst.capacity + COST_TOL:
                errors.append(f"route load {load} exceeds capacity {inst.capacity}")
    elif inst.kind == ProblemKind.TSPTW:
        lo, hi = inst.time_windows[:, 0].tolist(), inst.time_windows[:, 1].tolist()
        t = 0.0
        for a, b in zip(sol.routes[0], sol.routes[0][1:]):
            t = max(t + math.dist(xy[a], xy[b]), lo[b])
            if t > hi[b] + COST_TOL:
                errors.append(f"arrival {t} at node {b} after its deadline {hi[b]}")
    return errors


def action_hash(actions: list[tuple[int, ...]]) -> str:
    """sha256 over the action sequences, in instance order."""
    h = hashlib.sha256()
    for seq in actions:
        h.update((",".join(map(str, seq)) + ";").encode())
    return h.hexdigest()


# (generator, n, beam size): each beam holds every DP state of its instance.
SMOKE_CASES = (
    (generate_tsp, 8, 8 * 2**8),
    (generate_vrp, 7, 10**6),
    (generate_tsptw, 8, 10**6),
)
SMOKE_INSTANCES = 3
SMOKE_OFFSET = 900   # instance seeds apart from the workloads' own


def exactness_smoke(seed: int) -> tuple[int, list[str]]:
    """Full-beam solves against exact_dp; returns (solves, mismatches)."""
    errors: list[str] = []
    solves = 0
    for gen, n, beam in SMOKE_CASES:
        cfg = SolverConfig(beam_size=beam, policy=Policy.COST_HEAT_POTENTIAL, threshold=0.0)
        for i in range(SMOKE_INSTANCES):
            inst_seed = seed * SEED_STRIDE + SMOKE_OFFSET + i
            inst = gen(n, inst_seed)
            ref = exact_dp(inst)
            res = solve(inst, cfg)
            solves += 1
            got = res.solution.cost if res.found else math.inf
            if res.found != ref.feasible or (ref.feasible and abs(got - ref.optimal_cost) > COST_TOL):
                errors.append(f"{inst.kind.value} n={n} seed={inst_seed}: "
                              f"beam {got!r} != exact {ref.optimal_cost!r}")
    return solves, errors
