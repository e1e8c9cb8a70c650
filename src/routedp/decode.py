"""Action semantics, forward re-simulation and solution verification.

Action encoding (n = node count including the depot, node 0):
  action j in [1, n) moves to customer j; in a VRP, action n + j moves to
  customer j via the depot; a final action 0 returns to the depot.

`replay` makes one walk for all three problems.  Each move adds its edge
cost (a via-depot move adds c[i, 0] + c[0, j] as one term) and advances
the clock; the resource check is the capacity for a VRP and the time
window for a TSPTW.  A TSP (and a VRP's clock) has windows [0, inf), so
its deadline check never fires.  The same walk records the routes: a
route starts each time the walk leaves the depot, and a sequence without
the final return leaves its last route open.

Replay recomputes every tracked quantity from scratch, independently of
the beam engine's incremental bookkeeping, so it doubles as the
verification oracle for solver output.
"""

from __future__ import annotations

import math
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
    routes: tuple[tuple[int, ...], ...]
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
    """Re-simulate actions in one walk, collecting any constraint violations."""
    n = instance.n
    costs = instance.cost_matrix()
    vrp = instance.kind == ProblemKind.VRP
    tsptw = instance.kind == ProblemKind.TSPTW
    adj = graph.adj if graph is not None else None
    capacity = float(instance.capacity) if vrp else math.inf
    demands = instance.demands if vrp else np.zeros(n)
    windows = instance.time_windows if tsptw else np.full((n, 2), [0.0, math.inf])
    customers = set(range(1, n))

    visited = initial_visited(instance.kind)
    current = DEPOT
    cost = heat = time = 0.0
    remcap = capacity
    pot = initial_potential(tables, visited) if tables is not None else None
    routes: list[list[int]] = []
    bad: list[str] = []

    def check_edge(i: int, j: int) -> None:
        if adj is not None and i != j and not adj[i, j]:
            bad.append(f"edge ({i}, {j}) not in sparse graph")

    for step, a in enumerate(actions):
        back = step == len(actions) - 1 and a == DEPOT
        via = vrp and a >= n
        node = a - n if via else a
        if back:
            if not customers <= visited:
                bad.append("return to depot before all customers visited")
        elif node in visited or not 0 < node < n:
            bad.append(f"step {step}: invalid or repeated node {node}")
            continue
        elif vrp and not via and current == DEPOT:
            bad.append(f"step {step}: a route must leave the depot by a via-depot move")
        if via:
            check_edge(current, DEPOT)
            check_edge(DEPOT, node)
            move = costs[current, DEPOT] + costs[DEPOT, node]
        else:
            check_edge(current, node)
            move = costs[current, node]
        cost += move
        if tables is not None and not (vrp and back):   # a VRP return scores no heat
            heat += (tables.via_depot_heat if via else tables.heat)[current, node]
        time = max(time + move, windows[node, 0])
        if time > windows[node, 1]:
            bad.append(f"step {step}: arrival {time} after deadline "
                       f"{windows[node, 1]} at node {node}")
        if via and current != DEPOT:
            routes[-1].append(DEPOT)
        if via or current == DEPOT:   # the walk leaves the depot: a new route
            routes.append([DEPOT])
        routes[-1].append(int(node))
        if not back:
            load = capacity if via else remcap
            if demands[node] > load + 1e-12:
                bad.append(f"step {step}: demand {demands[node]} exceeds remaining capacity {load}")
            remcap = load - demands[node]
            visited.add(node)
            if pot is not None:
                pot = visit_update(pot, tables, node)
        current = node

    return Replay(cost, current, visited, tuple(map(tuple, routes)),
                  remcap if vrp else None, time if tsptw else None,
                  heat, pot, not bad, bad)


def build_solution(
    instance: Instance,
    actions: list[int] | tuple[int, ...],
    graph: SparseGraph | None = None,
) -> Solution:
    """Decode and independently verify an action sequence.

    The solution is feasible when the walk breaks no rule, visits every
    customer and ends at the depot.
    """
    sim = replay(instance, actions, graph=graph)
    complete = set(range(1, instance.n)) <= sim.visited and sim.current == DEPOT
    return Solution(tuple(int(a) for a in actions), sim.routes, float(sim.cost),
                    sim.feasible and complete)
