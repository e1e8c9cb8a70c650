"""Slow, independent reference implementations used to cross-check the
vectorized code paths.  Everything here is deliberately naive (pairwise
loops, from-scratch recomputation) and shares no code with the package
internals it checks."""

from __future__ import annotations

import numpy as np


def edge_set(graph):
    """The graph's directed edges (i, j) as a set of int pairs."""
    return {(int(i), int(j)) for i, j in np.argwhere(graph.adj)}


def naive_single_best(state_id, cost, parent_slot, score):
    """Expected survivor mask: one minimum-cost candidate per state.

    Ties resolved by the canonical order (higher score first, then lower
    parent slot), matching the engine's tie keys.
    """
    m = len(state_id)
    keep = np.zeros(m, dtype=bool)
    for s in set(state_id.tolist()):
        members = [i for i in range(m) if state_id[i] == s]
        best = min(members, key=lambda i: (cost[i], -score[i], parent_slot[i]))
        keep[best] = True
    return keep


def naive_pareto(state_id, cost, obj, action, parent_slot, score, is_direct=None):
    """Expected Pareto survivor mask (cost minimized, obj maximized).

    A candidate is dropped iff some other candidate in the same state is at
    least as good in both dimensions and strictly better in one, or exactly
    ties both and precedes it in the canonical order (via-depot moves first
    where applicable, then higher score, lower parent slot, lower action).
    """
    m = len(state_id)

    def key(i):
        head = () if is_direct is None else (is_direct[i],)
        return head + (-score[i], parent_slot[i], action[i])

    keep = np.ones(m, dtype=bool)
    for i in range(m):
        for j in range(m):
            if i == j or state_id[i] != state_id[j]:
                continue
            if cost[j] == cost[i] and obj[j] == obj[i]:
                if key(j) < key(i):
                    keep[i] = False
                    break
            elif cost[j] <= cost[i] and obj[j] >= obj[i]:
                keep[i] = False
                break
    return keep


def random_candidate_groups(rng, n_states, with_ties=True):
    """Random flat candidate arrays spanning n_states DP states.

    Costs and objectives are drawn from a tiny integer grid (then scaled)
    so exact ties actually occur and exercise the tie-break rules.
    """
    sizes = rng.integers(1, 8, size=n_states)
    m = int(sizes.sum())
    state_id = np.repeat(np.arange(n_states, dtype=np.int64), sizes)
    grid = 4 if with_ties else 10**6
    cost = rng.integers(0, grid, size=m) / 3.0
    obj = rng.integers(0, grid, size=m) / 7.0
    action = rng.integers(0, 50, size=m).astype(np.int64)
    parent_slot = rng.integers(0, 50, size=m).astype(np.int64)
    score = rng.integers(0, grid, size=m) / 5.0
    is_direct = rng.integers(0, 2, size=m).astype(np.int8)
    return state_id, cost, obj, action, parent_slot, score, is_direct


def lexsort_top_b(score, cost, target, parent_slot, action, beam_size):
    """Rows of the beam_size best candidates in the global order (score desc,
    cost, target, parent slot, action), from one 5-key lexsort of every row."""
    return np.lexsort((action, parent_slot, target, cost, -score))[:beam_size]


def naive_latest(visited, deadlines, costs):
    """Latest arrival at each node v that keeps every other unvisited node
    reachable in time, one visited-set row at a time:
    latest[r, v] = min over unvisited j != v of (u_j - c_vj), +inf if none."""
    slack = deadlines[None, :] - costs            # slack[v, j] = u_j - c_vj
    latest = np.full(visited.shape, np.inf)
    for r, row in enumerate(visited):
        cols = np.flatnonzero(~row)
        if cols.size == 0:
            continue
        sub = slack[:, cols].copy()
        sub[cols, np.arange(cols.size)] = np.inf   # exclude the target itself
        latest[r] = sub.min(axis=1)
    return latest


def naive_tsptw_kept(visited, current, time, adj, costs, time_windows):
    """(row, target, arrival) of every TSPTW move that meets the target's
    window and the one-step lookahead of naive_latest, in row-major order."""
    lo, hi = time_windows[:, 0], time_windows[:, 1]
    latest = naive_latest(visited, hi, costs)
    kept = []
    for r in range(len(current)):
        for t in range(visited.shape[1]):
            if visited[r, t] or not adj[current[r], t]:
                continue
            arrive = max(float(time[r] + costs[current[r], t]), float(lo[t]))
            if arrive <= hi[t] and arrive <= latest[r, t]:
                kept.append((r, t, arrive))
    return kept


def knn_heat(coords, k=10, top=0.9, decay=0.6, depot=1e-4):
    """Synthetic sparse heat like a trained model's: each node gives heat
    top * decay**r to its r-th nearest neighbour (r < k), symmetrized by max,
    and every node keeps a faint depot edge so that a tour can always close."""
    dist = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    h = np.zeros(dist.shape)
    h[np.arange(len(h))[:, None], nearest] = top * decay ** np.arange(k)
    h[1:, 0] = np.maximum(h[1:, 0], depot)
    return np.maximum(h, h.T)
