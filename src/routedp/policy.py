"""Scoring policy: node potential weights and incremental heat-to-go state.

The beam ranks partial solutions by score = accumulated edge heat plus a
"potential": for each node still to be visited (and the start/depot node),
the weighted share of its incoming heat that is still realizable.  Tables
are immutable and shared; the solver adds their entries per step, and only
decode.replay's re-simulation carries a per-solution PotentialState.

heat, w, delta, via-depot heat and start potentials lie on the score grid,
multiples of 2^-q with q = 53 - ceil(log2(8n)).  Scores stay below 8n in
magnitude, so every partial sum of grid values is exact, in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .heatmaps import Heatmap
from .instances import DEPOT, ProblemKind


class Policy(str, Enum):
    """Ranking variants for beam selection.

    HEAT_POTENTIAL / HEAT use a supplied heatmap; COST_HEAT_POTENTIAL /
    COST_HEAT use the cost-based heuristic heat instead.  The *_POTENTIAL
    variants add the heat-to-go estimate (the others zero all node weights).
    COST ranks by negated solution cost: classic restricted DP.
    """

    HEAT_POTENTIAL = "heat-potential"
    HEAT = "heat"
    COST_HEAT_POTENTIAL = "cost-heat-potential"
    COST_HEAT = "cost-heat"
    COST = "cost"

    @property
    def uses_cost_heat(self) -> bool:
        return self in (Policy.COST_HEAT_POTENTIAL, Policy.COST_HEAT, Policy.COST)

    @property
    def uses_potential(self) -> bool:
        return self in (Policy.HEAT_POTENTIAL, Policy.COST_HEAT_POTENTIAL)


def _on_grid(a: np.ndarray, n: int) -> np.ndarray:
    """a rounded to the score grid of an n-node instance (module docstring)."""
    scale = 2.0 ** (53 - (8 * n - 1).bit_length())
    return np.rint(a * scale) / scale


# Penalty factor applied to the product heat of the two depot legs of a
# via-depot move, discouraging unnecessary routes.
VIA_DEPOT_HEAT_PENALTY = 0.1


@dataclass(frozen=True)
class PolicyTables:
    """Immutable per-instance scoring tables.

    heat: effective (symmetrized where applicable) heat matrix.
    w: per-node potential weight.
    incoming_norm: Z_i, total incoming heat of node i.
    delta: delta[v, i] = w_i * heat[v, i] / Z_i, the potential lost by node
        i when v is visited (0 where Z_i = 0).
    via_depot_heat: penalized product heat of depot legs (VRP only).
    """

    heat: np.ndarray
    w: np.ndarray
    incoming_norm: np.ndarray
    delta: np.ndarray
    via_depot_heat: np.ndarray | None

    @property
    def n(self) -> int:
        return self.heat.shape[0]


def build_policy_tables(
    h: Heatmap,
    costs: np.ndarray,
    problem_kind: ProblemKind,
    use_potential: bool = True,
) -> PolicyTables:
    """Compute weights, normalizers and (VRP) via-depot heat for a heatmap.

    The node weight is the maximum incoming heat, scaled by a factor in
    [0.95, 1.05] that favors nodes close to the start node.  With
    use_potential=False all weights are zeroed, which reduces the score to
    pure accumulated heat.
    """
    hm = np.asarray(h.values, dtype=float)
    costs = np.asarray(costs, dtype=float)
    n = hm.shape[0]
    if costs.shape != (n, n):
        raise ValueError("heatmap and cost matrix dimensions differ")

    z = hm.sum(axis=0)
    if use_potential:
        to_start = costs[:, DEPOT]
        max_to_start = to_start.max()
        ratio = to_start / max_to_start if max_to_start > 0 else np.zeros(n)
        w = _on_grid(hm.max(axis=0) * (1.0 - 0.1 * (ratio - 0.5)), n)
    else:
        w = np.zeros(n)

    with np.errstate(divide="ignore", invalid="ignore"):
        delta = _on_grid(np.where(z > 0, w * hm / z, 0.0), n)

    via = None
    if problem_kind == ProblemKind.VRP:
        via = _on_grid(np.outer(hm[:, DEPOT], hm[DEPOT, :]) * VIA_DEPOT_HEAT_PENALTY, n)
        np.fill_diagonal(via, 0.0)

    hm = _on_grid(hm, n)
    for a in (hm, w, z, delta) + (() if via is None else (via,)):
        a.flags.writeable = False
    return PolicyTables(hm, w, z, delta, via)


@dataclass
class PotentialState:
    """Per-solution remaining potential, updated incrementally per visit.

    p[i] is node i's remaining potential; nodes counted toward the total
    are the unvisited ones plus the start node (which never leaves).
    """

    p: np.ndarray
    counted: np.ndarray
    total: float

    def copy(self) -> "PotentialState":
        return PotentialState(self.p.copy(), self.counted.copy(), self.total)


def initial_potential(tables: PolicyTables, initial_visited: set[int]) -> PotentialState:
    """Potential with only initial_visited seen ({0} for TSP/TSPTW, {} for VRP)."""
    n = tables.n
    unvisited = np.ones(n, dtype=bool)
    unvisited[list(initial_visited)] = False
    with np.errstate(divide="ignore", invalid="ignore"):
        numer = tables.heat[unvisited, :].sum(axis=0)
        p = _on_grid(np.where(tables.incoming_norm > 0,
                              tables.w * numer / tables.incoming_norm, 0.0), n)
    counted = unvisited.copy()
    counted[DEPOT] = True
    return PotentialState(p, counted, float(p[counted].sum()))


def visit_update(state: PotentialState, tables: PolicyTables, newly_visited: int) -> PotentialState:
    """State after visiting one more node (the input state is not mutated)."""
    if not state.counted[newly_visited] and newly_visited != DEPOT:
        raise ValueError(f"node {newly_visited} already visited")
    new = state.copy()
    d = tables.delta[newly_visited]
    lost = float(d[new.counted].sum())
    new.p -= d
    if newly_visited != DEPOT:
        lost += float(new.p[newly_visited])
        new.counted[newly_visited] = False
    new.total = state.total - lost
    return new
