"""Beam-restricted dynamic programming over routing state spaces.

One solve runs single-threaded: the beam for step t+1 is built from the
top-B scoring non-dominated expansions of the beam at step t.  A step
groups the beam by visited set, expands every entry along the sparse graph
(feasibility only), prunes dominated candidates per DP state, selects the
top B and builds the next beam; a candidate's score is its parent's plus
terms read from per-solve tables and the parent's visited set.  Per-step
(parent, action) records go to a trace from which the winning solution is
backtracked and independently re-simulated before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .decode import build_solution, initial_visited
from .heatmaps import Heatmap, SparseGraph, cost_heatmap, sparsify_knn, sparsify_threshold, symmetrize
from .instances import DEPOT, Instance, ProblemKind, Solution
from .policy import Policy, PolicyTables, PotentialState, build_policy_tables, initial_potential
from .pruning import prune_pareto_front, prune_single_best

WORD_BITS = 64


@dataclass(frozen=True)
class SolverConfig:
    beam_size: int
    policy: Policy = Policy.HEAT_POTENTIAL
    threshold: float | None = None   # 1e-5 unless knn is set
    knn: int | None = None
    dominance_enabled: bool = True
    invert_cost_heat: bool = False

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.threshold is not None and self.knn is not None:
            raise ValueError("threshold and knn are mutually exclusive")
        if self.threshold is None and self.knn is None:
            object.__setattr__(self, "threshold", 1e-5)


@dataclass
class SolveResult:
    solution: Solution | None
    failed_at_step: int | None = None
    steps: int = 0
    max_beam_width: int = 0

    @property
    def found(self) -> bool:
        return self.solution is not None


def pack_visited(mask: np.ndarray) -> np.ndarray:
    """Pack boolean visited rows into canonical little-endian 64-bit words."""
    m, n = mask.shape
    words = (n + WORD_BITS - 1) // WORD_BITS
    bytes_ = np.packbits(mask, axis=1, bitorder="little")
    pad = words * 8 - bytes_.shape[1]
    if pad:
        bytes_ = np.concatenate([bytes_, np.zeros((m, pad), dtype=np.uint8)], axis=1)
    return bytes_.view("<u8")


@dataclass
class Beam:
    """Struct-of-arrays beam state; row order is the trace slot order.

    Children's scores follow from the visited rows (_Context.step_score)."""

    cost: np.ndarray
    current: np.ndarray
    score: np.ndarray
    visited: np.ndarray        # (m, n) bool
    extra: np.ndarray | None   # remcap (VRP) / time (TSPTW)
    slots: np.ndarray          # trace slot of each row

    @property
    def width(self) -> int:
        return self.cost.shape[0]

    def permuted(self, perm: np.ndarray) -> "Beam":
        return Beam(self.cost[perm], self.current[perm], self.score[perm], self.visited[perm],
                    None if self.extra is None else self.extra[perm],
                    self.slots[perm])


def group_by_visited(beam: Beam) -> tuple[Beam, np.ndarray]:
    """Reorder the beam so equal visited sets are contiguous.

    Returns the permuted beam and a non-decreasing group ordinal per row.
    The beam arrives in select_top_b order with slot == row, i.e. already
    in the global tie-break order (score desc, cost asc, current asc, slot
    asc), so a stable sort on the packed visited words alone keeps that
    order within each group.
    """
    packed = pack_visited(beam.visited)
    perm = np.lexsort(packed.T)
    packed = packed[perm]
    first = np.empty(beam.width, dtype=bool)
    first[0] = True
    first[1:] = (packed[1:] != packed[:-1]).any(axis=1)
    return beam.permuted(perm), np.cumsum(first) - 1


@dataclass
class Candidates:
    """Flat candidate arrays of one expansion step (see _build_candidates)."""

    parent_pos: np.ndarray    # row in the (grouped) parent beam
    parent_slot: np.ndarray   # trace slot of the parent
    target: np.ndarray        # node being visited
    action: np.ndarray        # action code (decode.py)
    state_id: np.ndarray
    cost: np.ndarray
    score: np.ndarray
    extra: np.ndarray | None = None   # remcap (VRP) / time (TSPTW)

    def __len__(self) -> int:
        return self.cost.shape[0]

    def take(self, idx: np.ndarray) -> "Candidates":
        return Candidates(self.parent_pos[idx], self.parent_slot[idx],
                          self.target[idx], self.action[idx], self.state_id[idx],
                          self.cost[idx], self.score[idx],
                          None if self.extra is None else self.extra[idx])


@dataclass
class _Context:
    instance: Instance
    costs: np.ndarray
    adj: np.ndarray
    tables: PolicyTables
    config: SolverConfig

    @property
    def n(self) -> int:
        return self.instance.n

    @cached_property
    def start_potential(self) -> PotentialState:
        return initial_potential(self.tables, initial_visited(self.instance.kind))

    # Let V be a parent's visited nodes other than node 0 (never a target).  Its
    # remaining potential of t is start_potential.p[t] - sum_{u in V} delta[u, t],
    # and visiting t removes that and the delta[t, v] of every node v not in
    # V.  So action a at node i, a move to t = a % n (see decode), gives
    #   child score = parent score + step_score[i, a] + sum_{u in V} pot_regain[u, t],
    # step_score[i, a] = heat of a - (start_potential.p[t] + sum_v delta[t, v]).
    # The tables lie on the score grid (policy.py), so every sum is exact.
    @cached_property
    def step_score(self) -> np.ndarray:
        t = self.tables
        heat = t.heat if t.via_depot_heat is None else np.hstack([t.heat, t.via_depot_heat])
        drop = self.start_potential.p + t.delta.sum(axis=1)
        return heat - np.tile(drop, heat.shape[1] // self.n)

    @cached_property
    def pot_regain(self) -> np.ndarray:
        d = self.tables.delta
        return (d + d.T)[1:]

    # TSPTW lookahead tables: nodes in deadline order, slack_to[j, v] = u_j - c_vj.
    @cached_property
    def by_deadline(self) -> np.ndarray:
        return np.argsort(self.instance.time_windows[:, 1], kind="stable")

    @cached_property
    def slack_to(self) -> np.ndarray:
        return self.instance.time_windows[:, 1:] - self.costs.T


def _build_candidates(ctx: _Context, beam: Beam, groups: np.ndarray, ppos: np.ndarray,
                      col: np.ndarray, extra: np.ndarray | None = None) -> Candidates:
    """Candidates for the feasible edges (ppos[k], col[k]).

    The column is the action code: a move to node col % n, via the depot
    when col >= n (VRP only).  VRP candidates get their remaining capacity
    as extra; the other problems pass theirs in.
    """
    n = ctx.n
    cur = beam.current[ppos]
    tgt, start, src = col, beam.cost[ppos], cur
    if ctx.instance.kind == ProblemKind.VRP:
        via = col >= n
        tgt = col % n
        start = np.where(via, start + ctx.costs[cur, DEPOT], start)
        src = np.where(via, DEPOT, cur)
        remcap = np.where(via, float(ctx.instance.capacity), beam.extra[ppos])
        extra = remcap - ctx.instance.demands[tgt]
    cost = start + ctx.costs[src, tgt]
    if ctx.config.policy.ranks_by_cost:
        score = -cost
    else:
        regain = beam.visited[:, 1:].astype(float) @ ctx.pot_regain
        score = beam.score[ppos] + ctx.step_score[cur, col] + regain[ppos, tgt]
    return Candidates(ppos, beam.slots[ppos], tgt, col, groups[ppos] * np.int64(n) + tgt,
                      cost, score, extra)


def expand_tsp(beam: Beam, groups: np.ndarray, ctx: _Context) -> Candidates:
    ppos, tgt = np.nonzero(ctx.adj[beam.current] & ~beam.visited)
    return _build_candidates(ctx, beam, groups, ppos, tgt)


def expand_vrp(beam: Beam, groups: np.ndarray, ctx: _Context, step: int) -> Candidates:
    """Direct moves to customer j in column j, moves via the depot in n + j."""
    n = ctx.n
    unvisited = ~beam.visited
    unvisited[:, DEPOT] = False
    feas = np.zeros((beam.width, 2 * n), dtype=bool)
    if step > 0:  # the first move leaves the depot, so it counts as via the depot
        fits = ctx.instance.demands[None, :] <= beam.extra[:, None]
        feas[:, :n] = ctx.adj[beam.current] & unvisited & fits

    # Per visited-set group, only parents with the cheapest return to the
    # depot can yield non-dominated via-depot moves: all of them then share
    # the state's remaining capacity.  This filter applies whatever
    # dominance_enabled is set to.
    has_ret = (beam.current == DEPOT) | ctx.adj[beam.current, DEPOT]
    ret = np.where(has_ret, beam.cost + ctx.costs[beam.current, DEPOT], np.inf)
    group_starts = np.searchsorted(groups, np.arange(groups[-1] + 1))
    group_min = np.minimum.reduceat(ret, group_starts)
    eligible = has_ret & (ret == group_min[groups])
    feas[eligible, n:] = ctx.adj[DEPOT] & unvisited[eligible]
    ppos, col = np.nonzero(feas)
    return _build_candidates(ctx, beam, groups, ppos, col)


def expand_tsptw(beam: Beam, groups: np.ndarray, ctx: _Context) -> Candidates:
    lo, hi = ctx.instance.time_windows.T
    arrive = np.maximum(beam.extra[:, None] + ctx.costs[beam.current], lo)
    # Arriving at v must keep every unvisited node reachable by its deadline:
    # arrive <= latest[g, v] = min_{j in U_g} (u_j - c_vj), where j = v gives v's
    # own deadline (c_vv = 0).  As c >= 0 and rounding is monotone, the earliest
    # deadline u(1) in U_g bounds latest[g, v], so no j with fl(u_j - max c) > u(1)
    # is the minimum (+inf deadlines too).  Groups all have the same number of
    # unvisited nodes: fold the longest such prefix in deadline order, exactly.
    first = np.searchsorted(groups, np.arange(groups[-1] + 1))
    order = np.nonzero(~beam.visited[first][:, ctx.by_deadline])[1]
    nodes = ctx.by_deadline[order.reshape(first.size, -1)]
    prefix = (hi[nodes] - ctx.costs.max() <= hi[nodes[:, :1]]).sum(axis=1).max(initial=0)
    latest = np.full((first.size, ctx.n), np.inf)
    for j in nodes[:, :prefix].T:
        np.minimum(latest, ctx.slack_to[j], out=latest)
    ppos, tgt = np.nonzero(ctx.adj[beam.current] & ~beam.visited & (arrive <= latest[groups]))
    return _build_candidates(ctx, beam, groups, ppos, tgt, extra=arrive[ppos, tgt])


def _prune_contested(cand: Candidates, groups: np.ndarray | None, kernel) -> Candidates:
    """Survivors of kernel, a keep-mask function of candidate indices.

    Two candidates share a DP state only if their parents share a visited
    set, so when groups are given, candidates from singleton groups survive
    without reaching the kernel.
    """
    if groups is None:
        return cand.take(np.flatnonzero(kernel(slice(None))))
    idx = np.flatnonzero(np.bincount(groups)[groups[cand.parent_pos]] > 1)
    if idx.size == 0:
        return cand
    keep = np.ones(len(cand), dtype=bool)
    keep[idx] = kernel(idx)
    return cand.take(np.flatnonzero(keep))


def _tie_keys(cand: Candidates, i) -> tuple[np.ndarray, ...]:
    # Minor to major, so ties go to the higher action, score, then lower slot.  In
    # one DP state the action is the target, or n + target for a VRP via-depot move.
    return (cand.parent_slot[i], -cand.score[i], -cand.action[i])


def prune_tsp(cand: Candidates, groups: np.ndarray | None = None) -> Candidates:
    """One minimum-cost candidate per DP state; exact ties go to the higher
    score, then the lower parent slot."""
    return _prune_contested(cand, groups, lambda i: prune_single_best(
        cand.state_id[i], cand.cost[i], tie_keys=_tie_keys(cand, i)))


def prune_capacity_time(cand: Candidates, objective: np.ndarray,
                        groups: np.ndarray | None = None) -> Candidates:
    """Exact Pareto front per DP state over cost (min) and objective (max).

    For VRP pass the remaining capacity and no groups: direct and via-depot
    moves from one parent share states.  For TSPTW pass negated time and the
    parent groups.  Exact ties go to via-depot moves first, then the higher
    score, then the lower parent slot.
    """
    return _prune_contested(cand, groups, lambda i: prune_pareto_front(
        cand.state_id[i], cand.cost[i], objective[i], tie_keys=_tie_keys(cand, i)))


def select_top_b(cand: Candidates, beam_size: int) -> Candidates:
    """Best beam_size candidates under the global total order.

    The order is score desc, cost asc, current (target) asc, parent slot
    asc, action asc; survivors are returned in that order.
    """
    sel = np.arange(len(cand))
    if len(cand) > beam_size:
        neg = -cand.score
        kth = np.partition(neg, beam_size - 1)[beam_size - 1]
        # At most beam_size - 1 scores beat the kth; ties at kth fill the rest.
        sure = np.flatnonzero(neg < kth)
        ties = np.flatnonzero(neg == kth)
        t_order = np.lexsort((cand.action[ties], cand.parent_slot[ties],
                              cand.target[ties], cand.cost[ties]))
        sel = np.concatenate([sure, ties[t_order[:beam_size - sure.size]]])
    order = np.lexsort((cand.action[sel], cand.parent_slot[sel], cand.target[sel],
                        cand.cost[sel], -cand.score[sel]))
    return cand.take(sel[order])


def backtrack(trace: list[tuple[np.ndarray, np.ndarray]], winning_slot: int) -> list[int]:
    """Recover the action sequence ending at winning_slot of the last record."""
    actions: list[int] = []
    slot = winning_slot
    for parents, acts in reversed(trace):
        if not 0 <= slot < len(parents):
            raise RuntimeError(f"corrupt trace: slot {slot} out of range")
        actions.append(int(acts[slot]))
        slot = int(parents[slot])
    actions.reverse()
    return actions


def _init_beam(ctx: _Context) -> Beam:
    kind = ctx.instance.kind
    visited = np.zeros((1, ctx.n), dtype=bool)
    visited[0, list(initial_visited(kind))] = True
    extra: np.ndarray | None = None
    if kind == ProblemKind.VRP:
        extra = np.array([float(ctx.instance.capacity)])
    elif kind == ProblemKind.TSPTW:
        extra = np.array([0.0])
    score = -0.0 if ctx.config.policy.ranks_by_cost else ctx.start_potential.total
    return Beam(np.zeros(1), np.full(1, DEPOT, dtype=np.int64), np.array([score]),
                visited, extra, np.zeros(1, dtype=np.int64))


def _next_beam(beam: Beam, cand: Candidates) -> Beam:
    # cand holds fresh arrays from select_top_b, so the beam takes them over.
    visited = beam.visited[cand.parent_pos]
    visited[np.arange(len(cand)), cand.target] = True
    return Beam(cand.cost, cand.target, cand.score, visited, cand.extra,
                np.arange(len(cand), dtype=np.int64))


def effective_heatmap(instance: Instance, heatmap: Heatmap | None,
                      config: SolverConfig) -> Heatmap:
    """Heatmap the policy runs on: the supplied one, or the cost heuristic;
    symmetrized for the undirected problems."""
    if heatmap is None or config.policy.uses_cost_heat:
        heatmap = cost_heatmap(instance.cost_matrix(), invert=config.invert_cost_heat)
    if heatmap.n != instance.n:
        raise ValueError(f"heatmap dimension {heatmap.n} != instance size {instance.n}")
    if instance.kind != ProblemKind.TSPTW and heatmap.directed:
        heatmap = symmetrize(heatmap)
    return heatmap


def build_graph(instance: Instance, heatmap: Heatmap | None,
                config: SolverConfig) -> SparseGraph:
    """Sparse expansion graph per config (threshold on the supplied heatmap
    when available, otherwise on the cost-heuristic heat)."""
    vrp = instance.kind == ProblemKind.VRP
    if config.knn is not None:
        return sparsify_knn(instance.cost_matrix(), config.knn, vrp=vrp)
    h = effective_heatmap(instance, heatmap, replace(config, policy=Policy.HEAT_POTENTIAL)
                          if heatmap is not None else config)
    return sparsify_threshold(h, config.threshold, vrp=vrp)


def solve(
    instance: Instance,
    config: SolverConfig,
    heatmap: Heatmap | None = None,
    graph: SparseGraph | None = None,
) -> SolveResult:
    """Run the beam DP and return the best completed solution found.

    Deterministic in (instance, heatmap, config).  The returned solution is
    verified by independent re-simulation; if the beam dies before any
    solution completes, the result records the failing step instead.
    """
    kind = instance.kind
    n = instance.n
    costs = instance.cost_matrix()
    eff = effective_heatmap(instance, heatmap, config)
    if graph is None:
        graph = build_graph(instance, heatmap, config)
    elif graph.n != n:
        raise ValueError(f"graph has {graph.n} nodes but the instance has {n}")
    tables = build_policy_tables(eff, costs, kind,
                                 use_potential=config.policy.uses_potential)
    ctx = _Context(instance, costs, graph.adj, tables, config)

    beam = _init_beam(ctx)
    trace: list[tuple[np.ndarray, np.ndarray]] = []
    visit_steps = n - 1
    max_width = 1

    for step in range(visit_steps):
        beam, groups = group_by_visited(beam)
        if kind == ProblemKind.TSP:
            cand = expand_tsp(beam, groups, ctx)
        elif kind == ProblemKind.VRP:
            cand = expand_vrp(beam, groups, ctx, step)
        else:
            cand = expand_tsptw(beam, groups, ctx)
        if len(cand) == 0:
            return SolveResult(None, failed_at_step=step, steps=step,
                               max_beam_width=max_width)

        if config.dominance_enabled:
            if kind == ProblemKind.TSP:
                cand = prune_tsp(cand, groups)
            elif kind == ProblemKind.VRP:
                cand = prune_capacity_time(cand, cand.extra)
            else:
                cand = prune_capacity_time(cand, -cand.extra, groups)

        cand = select_top_b(cand, config.beam_size)
        trace.append((cand.parent_slot, cand.action))
        beam = _next_beam(beam, cand)
        max_width = max(max_width, beam.width)

    # Return step: close the tour / final route at the depot.
    final_cost = beam.cost + costs[beam.current, DEPOT]
    feas = (beam.current == DEPOT) | ctx.adj[beam.current, DEPOT]
    if kind == ProblemKind.TSPTW:
        u0 = instance.time_windows[DEPOT, 1]
        feas &= beam.extra + costs[beam.current, DEPOT] <= u0
    ok = np.flatnonzero(feas)
    if ok.size == 0:
        return SolveResult(None, failed_at_step=visit_steps, steps=visit_steps,
                           max_beam_width=max_width)
    order = np.lexsort((beam.slots[ok], -beam.score[ok], final_cost[ok]))
    win = ok[order[0]]
    trace.append((np.array([beam.slots[win]]), np.array([DEPOT])))

    actions = backtrack(trace, 0)
    solution = build_solution(instance, actions, graph=graph)
    if not solution.feasible:
        raise RuntimeError("internal error: backtracked solution failed re-simulation")
    if abs(solution.cost - float(final_cost[win])) > 1e-9:
        raise RuntimeError("internal error: re-simulated cost differs from beam cost")
    return SolveResult(solution, steps=visit_steps + 1, max_beam_width=max_width)
