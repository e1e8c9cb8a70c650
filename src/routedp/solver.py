"""Beam-restricted dynamic programming over routing state spaces.

One solve runs single-threaded: the beam for step t+1 is built from the
top-B scoring non-dominated expansions of the beam at step t.  A step
groups the beam's rows by visited set (by a set key each row carries from
its parent; rows never move), expands every row along the sparse graph
(feasibility only), prunes dominated candidates in the DP states that can
reach the top B, selects the top B and builds the next beam; a candidate's
cost and score are its parent's plus entries of per-solve (node, action)
tables, and the score also adds a regain row per visited-set group, carried
from step to step.  Per-step (parent row, action) records go to a trace from
which the winning solution is backtracked and independently re-simulated.
Rows are picked with np.compress and np.flatnonzero, not a boolean mask or
2-D np.nonzero, which took 3-4x and 2.4x as long on the step's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from numbers import Integral, Real

import numpy as np

from .decode import build_solution, initial_visited
from .heatmaps import Heatmap, SparseGraph, cost_heatmap, sparsify_knn, sparsify_threshold, symmetrize
from .instances import DEPOT, Instance, ProblemKind, Solution
from .policy import Policy, PolicyTables, PotentialState, build_policy_tables, initial_potential
from .pruning import argsort_ties, prune_pareto_front


@dataclass(frozen=True)
class SolverConfig:
    beam_size: int
    policy: Policy = Policy.HEAT_POTENTIAL
    threshold: float | None = None   # 1e-5 unless knn is set
    knn: int | None = None
    dominance_enabled: bool = True
    invert_cost_heat: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.policy, Policy):
            raise TypeError(f"policy must be a Policy, got {self.policy!r}")
        for name, kind, what in (("beam_size", Integral, "an integer"),
                                 ("knn", Integral, "an integer"), ("threshold", Real, "a number")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (kind, type(None))):
                raise TypeError(f"{name} must be {what}, got {value!r}")
        for name in ("dominance_enabled", "invert_cost_heat"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise TypeError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.threshold is not None and self.knn is not None:
            raise ValueError("threshold and knn are mutually exclusive")
        if self.knn is not None and self.knn < 1 or not 0 <= (self.threshold or 0) < 1:
            raise ValueError("knn must be >= 1 and threshold must lie in [0, 1)")
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


@dataclass
class Beam:
    """Struct-of-arrays beam state; row i is trace slot i (select_top_b order).

    Children's scores follow from the visited rows (_Context.step_score)."""

    cost: np.ndarray
    current: np.ndarray
    score: np.ndarray
    visited: np.ndarray        # (m, n) bool
    extra: np.ndarray | None   # remcap (VRP) / time (TSPTW)
    key: np.ndarray            # wrapping uint64 sum of _Context.set_key over visited
    origin: np.ndarray | None = None   # state_id of the candidate that made the row
    regain: np.ndarray | None = None   # table of its parents' groups (_regain_table)

    @property
    def width(self) -> int:
        return self.cost.shape[0]


def group_by_visited(beam: Beam) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows by visited set, without moving them.

    Returns an order of the rows in which equal visited sets are contiguous,
    and each row's group ordinal along it (non-decreasing from 0).  The order
    sorts the set keys; rows with equal keys must hold equal sets, and if two
    do not (a key collision), it sorts the exact ranks of the visited rows.
    No step reads the order of the rows within a group.
    """
    order = np.argsort(beam.key)
    key = beam.key[order]
    tie = np.flatnonzero(key[1:] == key[:-1])
    if not np.array_equal(beam.visited[order[tie]], beam.visited[order[tie + 1]]):
        rank = np.unique(beam.visited, axis=0, return_inverse=True)[1].reshape(-1)
        return np.argsort(rank), np.sort(rank)
    return order, np.cumsum(np.concatenate(([0], key[1:] != key[:-1])))


@dataclass
class Candidates:
    """Flat candidate arrays of one expansion step (see _build_candidates).  The
    cost is not held per row: cost_at builds it for the rows read."""

    parent_pos: np.ndarray    # parent row, which is its trace slot
    target: np.ndarray        # node being visited
    action: np.ndarray        # action code (decode.py)
    state_id: np.ndarray      # group * n + target, so >= 0
    flat: np.ndarray          # (node, action) index into the raveled step tables
    score: np.ndarray
    steps: tuple[np.ndarray, np.ndarray]   # parents' cost, raveled step cost
    extra: np.ndarray | None = None   # remcap (VRP) / time (TSPTW)
    regain: np.ndarray | None = None  # table of the parents' groups (_regain_table)

    def cost_at(self, rows: np.ndarray | slice = slice(None)) -> np.ndarray:
        """The rows' cost: each parent's plus its step cost at the flat index."""
        parent_cost, step_cost = self.steps
        return parent_cost[self.parent_pos[rows]] + step_cost[self.flat[rows]]

    def take(self, idx: np.ndarray) -> Candidates:
        # Every per-row array indexed by idx; all rows share the steps and one regain table.
        return replace(self, **{k: v[idx] for k, v in vars(self).items()
                                if v is not None and k not in ("steps", "regain")})

    def __len__(self) -> int:
        return self.parent_pos.shape[0]


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
    def set_key(self) -> np.ndarray:
        return np.random.default_rng(0).integers(2**64, size=self.n, dtype=np.uint64)

    @cached_property
    def start_potential(self) -> PotentialState:
        return initial_potential(self.tables, initial_visited(self.instance.kind))

    # Action a at node i moves to t = a % n, via the depot when a >= n (VRP
    # only; see decode), at cost step_cost[i, a].  Let V be a parent's visited
    # nodes.  Its remaining potential of t is start_potential.p[t] - sum_{u in V,
    # u != 0} delta[u, t], and visiting t removes that and the delta[t, v] of
    # every node v not in V.  So, as node 0's pot_regain row is zero,
    #   child score = parent score + step_score[i, a] + sum_{u in V} pot_regain[u, t],
    # step_score[i, a] = heat of a - (start_potential.p[t] + sum_v delta[t, v]).
    # The regain sum depends on V only, so it is kept per visited-set group and
    # carried to the children; the tables lie on the score grid (policy.py), so
    # every sum is exact in any order.  Policy.COST has no potential (zero regain
    # and start) and step_score = -step_cost, so as fl(-a - b) = -fl(a + b) its
    # score is exactly -cost by negation, off the grid.
    @cached_property
    def step_cost(self) -> np.ndarray:
        c = self.costs   # c(i, 0) + c(0, j) in column n + j, summed as replay sums it
        return np.hstack([c, c[:, :1] + c[DEPOT]]) if self.instance.kind == ProblemKind.VRP else c

    @cached_property
    def step_score(self) -> np.ndarray:
        if self.config.policy is Policy.COST:   # no potential, so score = -cost
            return -self.step_cost
        t = self.tables
        heat = t.heat if t.via_depot_heat is None else np.hstack([t.heat, t.via_depot_heat])
        drop = self.start_potential.p + t.delta.sum(axis=1)
        return heat - np.tile(drop, heat.shape[1] // self.n)

    @cached_property
    def pot_regain(self) -> np.ndarray:
        d = self.tables.delta
        return np.vstack([np.zeros(self.n), (d + d.T)[1:]])

    # TSP scan: each node's neighbours other than node 0 in ascending order,
    # padded with node 0, which a TSP beam has always visited; and their count.
    @cached_property
    def neighbours(self) -> tuple[np.ndarray, np.ndarray]:
        adj = self.adj & (np.arange(self.n) != DEPOT)
        order = np.argsort(~adj, axis=1, kind="stable")
        return np.where(np.take_along_axis(adj, order, axis=1), order, DEPOT), adj.sum(axis=1)

    # TSPTW lookahead tables: nodes in deadline order, slack_to[j, v] = u_j - c_vj (read flat).
    @cached_property
    def by_deadline(self) -> np.ndarray:
        return np.argsort(self.instance.time_windows[:, 1], kind="stable")

    @cached_property
    def slack_to(self) -> np.ndarray:
        return np.ascontiguousarray(self.instance.time_windows[:, 1:] - self.costs.T)


def _build_candidates(ctx: _Context, beam: Beam, groups: np.ndarray, ppos: np.ndarray,
                      col: np.ndarray, tgt: np.ndarray,
                      extra: np.ndarray | None = None) -> Candidates:
    """Candidates for the feasible actions col[k], moves to tgt[k] = col[k] % n,
    of parent rows ppos[k], with the expander's extra (remaining capacity or
    time).  Cost and score add the (node, action) entries of ctx.step_cost and
    ctx.step_score, both read at one flat index; the score also adds the regain
    of the parent's group.  The cost is built late, for the rows read."""
    flat = beam.current[ppos] * ctx.step_cost.shape[1] + col
    state_id = groups[ppos] * np.int64(ctx.n) + tgt
    # Row g of the table belongs to group g, so its entry (g, t) sits at state_id.
    table = _regain_table(ctx, beam, groups)
    score = beam.score[ppos] + ctx.step_score.ravel()[flat] + table.ravel()[state_id]
    return Candidates(ppos, tgt, col, state_id, flat, score,
                      (beam.cost, ctx.step_cost.ravel()), extra, table)


def _regain_table(ctx: _Context, beam: Beam, groups: np.ndarray) -> np.ndarray:
    """Per group, the regain sum over its visited set (see _Context): a row made
    by state_id = g * n + t has group g's set plus t, so its group's row is row
    g of the parents' table plus t's pot_regain row (see _init_beam for the root).
    The sums are exact, so any row of a group gives its table row."""
    origin = np.empty(groups.max() + 1, dtype=np.int64)
    origin[groups] = beam.origin
    parent, target = np.divmod(origin, ctx.n)
    table = np.take(beam.regain, parent, axis=0)
    for i in range(0, len(table), 1024):   # in slices, to keep temporaries small
        table[i:i + 1024] += ctx.pot_regain[target[i:i + 1024]]
    return table


def expand_tsp(beam: Beam, groups: np.ndarray, ctx: _Context) -> Candidates:
    table, degree = ctx.neighbours
    width = degree[beam.current].max()
    if 4 * width < ctx.n:   # a sparse graph: scan the neighbour lists, not every node
        cells = table[beam.current, :width]   # indices into beam.visited.ravel()
        cells += np.arange(0, beam.visited.size, ctx.n)[:, None]
        open_cells = np.compress(~beam.visited.ravel()[cells].ravel(), cells)
    else:
        open_cells = np.flatnonzero(ctx.adj[beam.current] & ~beam.visited)
    ppos, tgt = np.divmod(open_cells, ctx.n)
    return _build_candidates(ctx, beam, groups, ppos, tgt, tgt)


def expand_vrp(beam: Beam, groups: np.ndarray, ctx: _Context) -> Candidates:
    """Every feasible move: direct to customer j in column j, via the depot in
    n + j from each row that can return to it.  Dominance is left to the
    prune layer."""
    n = ctx.n
    unvisited = ~beam.visited
    unvisited[:, DEPOT] = False
    feas = np.zeros((beam.width, 2 * n), dtype=bool)
    # Only the first step's row sits at the depot; its moves leave the depot,
    # so they count as via the depot.
    away = (beam.current != DEPOT)[:, None]
    fits = ctx.instance.demands[None, :] <= beam.extra[:, None]
    feas[:, :n] = ctx.adj[beam.current] & unvisited & fits & away
    has_ret = (beam.current == DEPOT) | ctx.adj[beam.current, DEPOT]
    feas[has_ret, n:] = ctx.adj[DEPOT] & unvisited[has_ret]
    ppos, col = np.divmod(np.flatnonzero(feas), 2 * n)
    tgt = col % n
    remcap = np.where(col >= n, float(ctx.instance.capacity), beam.extra[ppos])
    return _build_candidates(ctx, beam, groups, ppos, col, tgt,
                             extra=remcap - ctx.instance.demands[tgt])


def expand_tsptw(beam: Beam, groups: np.ndarray, ctx: _Context) -> Candidates:
    lo, hi = ctx.instance.time_windows.T
    # Arriving at v must keep every unvisited node reachable by its deadline:
    # arrive <= latest[g, v] = min_{j in U_g} (u_j - c_vj), where j = v gives v's
    # own deadline (c_vv = 0).  As c >= 0 and rounding is monotone, the earliest
    # deadline u(1) in U_g bounds latest[g, v], so no j with fl(u_j - max c) > u(1)
    # is the minimum (+inf deadlines too).  Groups all have the same number of
    # unvisited nodes: fold the longest such prefix in deadline order, exactly.
    unvisited = np.empty((groups.max() + 1, ctx.n), dtype=bool)
    unvisited[groups] = ~beam.visited   # a group's rows share one set
    cells = np.flatnonzero(unvisited[:, ctx.by_deadline]).reshape(len(unvisited), -1)
    nodes = ctx.by_deadline[cells - np.arange(0, unvisited.size, ctx.n)[:, None]]
    prefix = (hi[nodes] - ctx.costs.max() <= hi[nodes[:, :1]]).sum(axis=1).max(initial=0)
    # The fold takes u(1)'s node j1, so latest[g, v] <= fl(u(1) - c_v,j1) <= u(1),
    # and arrive = max(fl(t + c), l_v) >= l_v: only v released by u(1) can pass.
    # Test the deadline-order prefix of U_g holding them (all if u(1) = inf), in node order.
    width = ((lo[nodes] <= hi[nodes[:, :1]]) * np.arange(1, nodes.shape[1] + 1)).max(initial=0)
    cols = np.sort(nodes[:, :width], axis=1)
    latest = np.full(cols.shape, np.inf)
    for j in nodes[:, :prefix].T:
        np.minimum(latest, ctx.slack_to.ravel()[(j * ctx.n)[:, None] + cols], out=latest)
    tgt = cols[groups]   # flat (node, target) cells, as 2-D fancy reads took twice as long
    cell = beam.current[:, None] * ctx.n + tgt
    arrive = ctx.costs.ravel()[cell]   # one B x width array, summed in place
    np.maximum(np.add(arrive, beam.extra[:, None], out=arrive), lo[tgt], out=arrive)
    ok = np.flatnonzero(ctx.adj.ravel()[cell] & (arrive <= latest[groups]))
    tgt = tgt.ravel()[ok]
    return _build_candidates(ctx, beam, groups, ok // width, tgt, tgt, extra=arrive.ravel()[ok])


def prune_capacity_time(cand: Candidates, objective: np.ndarray | None,
                        groups: np.ndarray | None = None,
                        beam_size: int | None = None) -> Candidates:
    """Exact Pareto front per DP state over cost (min) and objective (max).

    For TSP pass no objective (one minimum-cost candidate per state) and
    for TSPTW negated time, each with the parent groups.  For VRP pass the
    remaining capacity and no groups: direct and via-depot moves from one
    parent share states.  Exact ties go to via-depot moves first, then the
    higher score, then the lower parent row.

    Two candidates share a DP state only if their parents share a visited
    set, so given the groups, rows from singleton groups survive without
    reaching the kernel.  Given beam_size B, only the rows of the states
    holding one of the k best scores (k = 2B, 8B, ...) are pruned; once B of
    their survivors reach the k-th score they are returned: dominance is
    decided per state, so they are exact and hold the top B overall.  Every
    row is pruned once 2k reaches the candidate count or the marked rows
    pass half.
    """
    shared = None if groups is None else (np.bincount(groups) > 1)[groups]   # per parent
    k = 2 * beam_size if beam_size else len(cand)
    while True:
        rows = slice(None)   # the rows this try prunes: every row, or the marked ones
        if 2 * k < len(cand):
            bound = np.partition(cand.score, -k)[-k]
            hot = np.zeros(cand.state_id.max() + 1, dtype=bool)
            hot[np.compress(cand.score >= bound, cand.state_id)] = True
            rows = np.flatnonzero(hot[cand.state_id])
            if 2 * rows.size > len(cand):
                rows = slice(None)
        every = isinstance(rows, slice)
        keep = np.ones(len(cand) if every else rows.size, dtype=bool)   # per entry of rows
        # j: the entries of rows that reach the kernel; i: their candidate rows.
        j = slice(None) if shared is None else np.flatnonzero(shared[cand.parent_pos[rows]])
        i = j if every else rows[j]
        if shared is None or j.size:   # tie keys minor to major; a via move's action is higher
            keep[j] = prune_pareto_front(
                cand.state_id[i], cand.cost_at(i), None if objective is None else objective[i],
                tie_keys=(cand.parent_pos[i], -cand.score[i], -cand.action[i]))
        kept = np.flatnonzero(keep) if every else np.compress(keep, rows)
        if every or np.count_nonzero(cand.score[kept] >= bound) >= beam_size:
            return cand if kept.size == len(cand) else cand.take(kept)
        k *= 4


def select_top_b(cand: Candidates, beam_size: int) -> Candidates:
    """Best beam_size candidates under the global total order.

    The order is score desc, cost asc, current (target) asc, parent row asc,
    action asc; it is strict, as (parent row, action) names a candidate.
    Survivors are returned in that order, found by one argsort of the scores
    that reach the beam_size-th best and a lexsort of exact ties.
    """
    neg = -cand.score
    sel = np.arange(len(cand))
    if len(cand) > beam_size:
        sel = np.flatnonzero(neg <= np.partition(neg, beam_size - 1)[beam_size - 1])

    def tie_keys(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:   # of tied rows only
        # One (target, parent row, action) name: < 2**63 while n * (max p + 1) * (max a + 1) is.
        rows = sel[rows]
        p, a = cand.parent_pos[rows], cand.action[rows]
        name = (cand.target[rows] * (p.max() + 1) + p) * (a.max() + 1) + a
        return name, cand.cost_at(rows)
    return cand.take(sel[argsort_ties(neg[sel], tie_keys)[:beam_size]])


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
    # The root row's regain table is one zero row, its origin group 0 and node 0.
    return Beam(np.zeros(1), np.full(1, DEPOT, dtype=np.int64),
                np.array([ctx.start_potential.total]),
                visited, extra, (ctx.set_key * visited).sum(axis=1),
                origin=np.zeros(1, dtype=np.int64), regain=np.zeros((1, ctx.n)))


def _next_beam(beam: Beam, cand: Candidates, ctx: _Context) -> Beam:
    # cand holds fresh arrays from select_top_b, so the beam takes them over.
    visited = beam.visited[cand.parent_pos]
    visited[np.arange(len(cand)), cand.target] = True
    key = beam.key[cand.parent_pos] + ctx.set_key[cand.target]   # wraps
    return Beam(cand.cost_at(), cand.target, cand.score, visited, cand.extra, key,
                cand.state_id, cand.regain)


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

    # Per problem: the expander, the objective of the dominance front and
    # whether pruning may skip singleton groups (see prune_capacity_time).
    # Looked up per call, so that wrappers installed on this module are seen.
    expand, objective, by_group = {
        ProblemKind.TSP: (expand_tsp, lambda cand: None, True),
        ProblemKind.VRP: (expand_vrp, lambda cand: cand.extra, False),
        ProblemKind.TSPTW: (expand_tsptw, lambda cand: -cand.extra, True)}[kind]

    beam = _init_beam(ctx)
    trace: list[tuple[np.ndarray, np.ndarray]] = []
    visit_steps = n - 1
    max_width = 1

    for step in range(visit_steps):
        order, ordinals = group_by_visited(beam)
        groups = np.empty_like(ordinals)
        groups[order] = ordinals   # each row's group
        cand = expand(beam, groups, ctx)
        beam.regain = None   # cand holds this step's table; free the parents'
        if len(cand) == 0:
            return SolveResult(None, failed_at_step=step, steps=step,
                               max_beam_width=max_width)

        if config.dominance_enabled:
            cand = prune_capacity_time(cand, objective(cand), groups if by_group else None,
                                       config.beam_size)

        cand = select_top_b(cand, config.beam_size)
        trace.append((cand.parent_pos.astype(np.int32), cand.action.astype(np.int32)))
        beam = _next_beam(beam, cand, ctx)
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
    win = ok[np.lexsort((ok, -beam.score[ok], final_cost[ok]))[0]]

    actions = backtrack(trace, int(win)) + [DEPOT]
    solution = build_solution(instance, actions, graph=graph)
    if not solution.feasible:
        raise RuntimeError("internal error: backtracked solution failed re-simulation")
    if solution.cost != float(final_cost[win]):
        raise RuntimeError("internal error: re-simulated cost differs from beam cost")
    return SolveResult(solution, steps=visit_steps + 1, max_beam_width=max_width)
