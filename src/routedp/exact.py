"""Independent exact solvers for small instances.

brute_force enumerates solutions directly (permutations, and for VRP set
partitions with per-route permutations); exact_dp runs one full
state-space DP over (visited set, current node) for all three problems,
with a Pareto front per state over cost and a resource (remaining capacity,
or arrival time; a TSP is a TSPTW with open windows).  Both are pure
functions of the instance and exist to cross-check the beam solver, so
they share no code with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .instances import DEPOT, Instance, ProblemKind

BRUTE_FORCE_MAX_NODES = 11       # TSP / TSPTW
BRUTE_FORCE_MAX_CUSTOMERS = 8    # VRP
EXACT_DP_MAX_NODES_TSP = 16
EXACT_DP_MAX_NODES = 13          # VRP / TSPTW

_PERM_CHUNK = 200_000


@dataclass(frozen=True)
class OracleResult:
    optimal_cost: float                       # math.inf when infeasible
    optimal_routes: tuple[tuple[int, ...], ...] | None
    node_count_searched: int

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.optimal_cost)


def _perm_batches(items: list[int]):
    it = itertools.permutations(items)
    while True:
        batch = list(itertools.islice(it, _PERM_CHUNK))
        if not batch:
            return
        yield np.array(batch, dtype=np.int64)


def _tour_costs(c: np.ndarray, perms: np.ndarray) -> np.ndarray:
    cost = c[DEPOT, perms[:, 0]] + c[perms[:, -1], DEPOT]
    for i in range(perms.shape[1] - 1):
        cost = cost + c[perms[:, i], perms[:, i + 1]]
    return cost


def brute_force(instance: Instance) -> OracleResult:
    """Exhaustive enumeration; refuses instances above the size cap."""
    if instance.kind == ProblemKind.VRP:
        if instance.n - 1 > BRUTE_FORCE_MAX_CUSTOMERS:
            raise ValueError(f"brute force refuses VRP with {instance.n - 1} customers "
                             f"(limit {BRUTE_FORCE_MAX_CUSTOMERS})")
        return _brute_vrp(instance)
    if instance.n > BRUTE_FORCE_MAX_NODES:
        raise ValueError(f"brute force refuses n = {instance.n} (limit {BRUTE_FORCE_MAX_NODES})")
    return _brute_tour(instance)


def _brute_tour(instance: Instance) -> OracleResult:
    """TSP, or TSPTW with every arrival checked against its window."""
    c = instance.cost_matrix()
    best_cost, best_seq, searched = math.inf, None, 0
    for perms in _perm_batches(list(range(1, instance.n))):
        searched += len(perms)
        costs = _tour_costs(c, perms)
        if instance.kind == ProblemKind.TSPTW:
            lo, hi = instance.time_windows.T
            t = np.maximum(c[DEPOT, perms[:, 0]], lo[perms[:, 0]])
            feas = t <= hi[perms[:, 0]]
            for i in range(perms.shape[1] - 1):
                nxt = perms[:, i + 1]
                t = np.maximum(t + c[perms[:, i], nxt], lo[nxt])
                feas &= t <= hi[nxt]
            costs[~(feas & (t + c[perms[:, -1], DEPOT] <= hi[DEPOT]))] = math.inf
        i = int(np.argmin(costs))
        # Permutations come in lexicographic order, so the first optimum
        # seen is the lexicographically smallest one.
        if costs[i] < best_cost:
            best_cost, best_seq = float(costs[i]), tuple(int(v) for v in perms[i])
    if best_seq is None:
        return OracleResult(math.inf, None, searched)
    return OracleResult(best_cost, ((DEPOT, *best_seq, DEPOT),), searched)


def _brute_vrp(instance: Instance) -> OracleResult:
    c = instance.cost_matrix()
    demands = instance.demands
    customers = list(range(1, instance.n))
    searched = 0

    # Best open-ended depot-to-depot route per capacity-feasible subset.
    best_route: dict[frozenset[int], tuple[float, tuple[int, ...]]] = {}
    for r in range(1, len(customers) + 1):
        for combo in itertools.combinations(customers, r):
            if demands[list(combo)].sum() > instance.capacity:
                continue
            best = (math.inf, combo)
            for perm in itertools.permutations(combo):
                searched += 1
                cost = c[DEPOT, perm[0]] + c[perm[-1], DEPOT]
                for a, b in zip(perm, perm[1:]):
                    cost += c[a, b]
                if cost < best[0]:
                    best = (float(cost), perm)
            best_route[frozenset(combo)] = best

    remaining = frozenset(customers)
    memo: dict[frozenset[int], tuple[float, tuple[tuple[int, ...], ...]]] = {}

    def cover(rem: frozenset[int]) -> tuple[float, tuple[tuple[int, ...], ...]]:
        if not rem:
            return 0.0, ()
        if rem in memo:
            return memo[rem]
        anchor = min(rem)
        others = sorted(rem - {anchor})
        best = (math.inf, ())
        for r in range(len(others) + 1):
            for extra in itertools.combinations(others, r):
                block = frozenset((anchor, *extra))
                if block not in best_route:
                    continue
                bcost, bperm = best_route[block]
                rest_cost, rest_routes = cover(rem - block)
                total = bcost + rest_cost
                if total < best[0]:
                    best = (total, ((bperm), *rest_routes))
        memo[rem] = best
        return best

    total, perms = cover(remaining)
    routes = tuple(sorted((DEPOT, *p, DEPOT) for p in perms))
    return OracleResult(float(total), routes, searched)


def exact_dp(instance: Instance) -> OracleResult:
    """Full-state DP over (visited set, current node) with a Pareto front per
    state: cost is minimised and aux maximised, the remaining capacity for VRP
    and minus the arrival time for TSP and TSPTW.  A TSP is a TSPTW with
    windows [0, inf), so its time equals its cost and each front holds the
    first cheapest entry."""
    n = instance.n
    vrp = instance.kind == ProblemKind.VRP
    cap = EXACT_DP_MAX_NODES_TSP if instance.kind == ProblemKind.TSP else EXACT_DP_MAX_NODES
    if n > cap:
        raise ValueError(f"exact DP refuses n = {n} (limit {cap})")
    c = instance.cost_matrix()
    d, capacity = instance.demands, instance.capacity
    windows = instance.time_windows
    lo, hi = (np.tile([0.0, math.inf], (n, 1)) if windows is None else windows).T
    full = (1 << (n - 1)) - 1  # bit k - 1 = customer k
    # entry: [cost, aux, parent entry, node, whether the move leaves the depot]
    root = [0.0, float(capacity) if vrp else 0.0, None, DEPOT, True]
    fronts: dict[tuple[int, int], list[list]] = {(0, DEPOT): [root]}
    for mask in range(full):
        for j in range(n):
            for entry in fronts.get((mask, j), ()):
                cost, aux = entry[0], entry[1]
                for k in range(1, n):
                    bit = 1 << (k - 1)
                    if mask & bit:
                        continue
                    if not vrp:
                        t = max(-aux + c[j, k], lo[k])
                        moves = [(cost + c[j, k], -t, j == DEPOT)] if t <= hi[k] else []
                    else:   # direct, then via the depot
                        moves = [(cost + c[j, k], aux - d[k], False)] \
                            if j != DEPOT and d[k] <= aux else []
                        moves.append((cost + c[j, DEPOT] + c[DEPOT, k], capacity - d[k], True))
                    for new_cost, new_aux, via in moves:
                        _front_insert(fronts.setdefault((mask | bit, k), []), new_cost, new_aux,
                                      [new_cost, new_aux, entry, k, via])
    best_total, best = math.inf, None
    for j in range(1, n):
        for entry in fronts.get((full, j), ()):
            if not vrp and -entry[1] + c[j, DEPOT] > hi[DEPOT]:
                continue
            total = entry[0] + c[j, DEPOT]
            if total < best_total:
                best_total, best = total, entry
    if best is None:
        return OracleResult(math.inf, None, len(fronts) - 1)
    chain: list[list] = []
    while best is not root:
        chain.append(best)
        best = best[2]
    routes: list[list[int]] = []
    for entry in reversed(chain):
        if entry[4]:
            routes.append([DEPOT])
        routes[-1].append(entry[3])
    decoded = tuple(sorted((*route, DEPOT) for route in routes))
    return OracleResult(float(best_total), decoded, len(fronts) - 1)


def _front_insert(front: list[list], cost: float, aux: float, entry: list) -> None:
    # aux is maximized (remaining capacity; negated time for TSP/TSPTW).
    for e in front:
        if e[0] <= cost and e[1] >= aux:
            return
    front[:] = [e for e in front if not (cost <= e[0] and aux >= e[1])]
    front.append(entry)
