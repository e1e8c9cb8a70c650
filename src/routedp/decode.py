"""Action semantics, forward re-simulation and solution verification.

Action encoding (n = node count including the depot, node 0):
  TSP / TSPTW: action j visits node j; the final action is 0 (return).
  VRP: action j in [1, n) is a direct move to customer j, action n + j
       moves to customer j via the depot, and the final action 0 returns
       to the depot.

Replay recomputes every tracked quantity from scratch, independently of
the beam engine's incremental bookkeeping, so it doubles as the
verification oracle for solver output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .heatmaps import SparseGraph
from .instances import DEPOT, Instance, ProblemKind, Solution
from .policy import PolicyTables, PotentialState, initial_potential, visit_update


@dataclass
class Replay:
    """Outcome of re-simulating an action sequence from the initial state."""

    cost: float
    current: int
    visited: set[int]
    remaining_capacity: float | None
    time: float | None
    heat: float
    potential: PotentialState | None
    feasible: bool
    violations: list[str] = field(default_factory=list)

    @property
    def score(self) -> float:
        return self.heat + (self.potential.total if self.potential else 0.0)


def initial_visited(kind: ProblemKind) -> set[int]:
    return set() if kind == ProblemKind.VRP else {DEPOT}


def replay(
    instance: Instance,
    actions: list[int] | tuple[int, ...],
    graph: SparseGraph | None = None,
    tables: PolicyTables | None = None,
) -> Replay:
    """Re-simulate actions, collecting any constraint violations."""
    n = instance.n
    costs = instance.cost_matrix()
    kind = instance.kind
    adj = graph.adj if graph is not None else None

    visited = initial_visited(kind)
    current = DEPOT
    cost = 0.0
    heat = 0.0
    remcap = float(instance.capacity) if kind == ProblemKind.VRP else None
    time = 0.0 if kind == ProblemKind.TSPTW else None
    pot = initial_potential(tables, visited) if tables is not None else None
    bad: list[str] = []

    def check_edge(i: int, j: int) -> None:
        if adj is not None and i != j and not adj[i, j]:
            bad.append(f"edge ({i}, {j}) not in sparse graph")

    customers = n - 1
    for step, a in enumerate(actions):
        is_last = step == len(actions) - 1
        if kind == ProblemKind.VRP:
            via = a >= n
            node = a - n if via else a
            if is_last and a == DEPOT:
                if len(visited) != customers:
                    bad.append("return to depot before all customers visited")
                check_edge(current, DEPOT)
                cost += costs[current, DEPOT]
                current = DEPOT
                continue
            if node in visited or node == DEPOT or not 0 < node < n:
                bad.append(f"step {step}: invalid or repeated customer {node}")
                continue
            if step == 0 and not via:
                bad.append("first move must go through the depot")
            d = instance.demands[node]
            if via:
                check_edge(current, DEPOT)
                check_edge(DEPOT, node)
                cost += costs[current, DEPOT] + costs[DEPOT, node]
                remcap = instance.capacity - d
                if tables is not None:
                    heat += tables.via_depot_heat[current, node]
            else:
                check_edge(current, node)
                if d > remcap + 1e-12:
                    bad.append(f"step {step}: demand {d} exceeds remaining capacity {remcap}")
                cost += costs[current, node]
                remcap -= d
                if tables is not None:
                    heat += tables.heat[current, node]
            visited.add(node)
            if pot is not None:
                pot = visit_update(pot, tables, node)
            current = node
        else:
            if is_last and a == DEPOT and DEPOT in visited:
                if len(visited) != n:
                    bad.append("return to start before all nodes visited")
                check_edge(current, DEPOT)
                cost += costs[current, DEPOT]
                if tables is not None:
                    heat += tables.heat[current, DEPOT]
                if kind == ProblemKind.TSPTW:
                    time = max(time + costs[current, DEPOT], instance.time_windows[DEPOT, 0])
                    if time > instance.time_windows[DEPOT, 1]:
                        bad.append("late return to depot")
                current = DEPOT
                continue
            if a in visited or not 0 <= a < n:
                bad.append(f"step {step}: invalid or repeated node {a}")
                continue
            check_edge(current, a)
            cost += costs[current, a]
            if tables is not None:
                heat += tables.heat[current, a]
            if kind == ProblemKind.TSPTW:
                time = max(time + costs[current, a], instance.time_windows[a, 0])
                if time > instance.time_windows[a, 1]:
                    bad.append(f"step {step}: arrival {time} after deadline "
                               f"{instance.time_windows[a, 1]} at node {a}")
            visited.add(a)
            if pot is not None:
                pot = visit_update(pot, tables, a)
            current = a

    return Replay(cost, current, visited, remcap, time, heat, pot, not bad, bad)


def decode_routes(instance: Instance, actions: list[int] | tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Depot-to-depot node sequences implied by an action sequence."""
    n = instance.n
    if instance.kind != ProblemKind.VRP:
        return ((DEPOT, *(a for a in actions[:-1]), DEPOT),)
    routes: list[list[int]] = []
    for step, a in enumerate(actions):
        if step == len(actions) - 1 and a == DEPOT:
            break
        if a >= n:
            routes.append([DEPOT, a - n])
        else:
            routes[-1].append(a)
    return tuple(tuple(r) + (DEPOT,) for r in routes)


def build_solution(
    instance: Instance,
    actions: list[int] | tuple[int, ...],
    graph: SparseGraph | None = None,
) -> Solution:
    """Decode and independently verify an action sequence."""
    sim = replay(instance, actions, graph=graph)
    complete = (len(sim.visited) == (instance.n - 1 if instance.kind == ProblemKind.VRP
                                     else instance.n)
                and sim.current == DEPOT)
    return Solution(tuple(int(a) for a in actions),
                    decode_routes(instance, actions),
                    float(sim.cost),
                    sim.feasible and complete)
