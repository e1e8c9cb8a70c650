"""Vectorized per-state dominance pruning for expansion candidates.

Candidates are flat numpy arrays; state_id identifies the DP state (set of
visited nodes plus new current node).  Ties in all compared objectives are
broken by a caller-supplied canonical ordering (tie_keys, minor to major),
so the surviving set is fully deterministic and matches a naive pairwise
oracle that uses the same tie rule.  The solver calls these kernels from its
prune layer only; expansion enumerates feasible moves and never prunes.
"""

from __future__ import annotations

import numpy as np


def _sort(state_id: np.ndarray, majors: tuple[np.ndarray, ...],
          tie_keys: tuple[np.ndarray, ...]) -> np.ndarray:
    # np.lexsort: last key is the primary one.
    return np.lexsort(tuple(tie_keys) + tuple(reversed(majors)) + (state_id,))


def prune_single_best(
    state_id: np.ndarray,
    cost: np.ndarray,
    tie_keys: tuple[np.ndarray, ...] = (),
) -> np.ndarray:
    """Keep exactly one minimum-cost candidate per state (TSP dominance).

    Returns a boolean keep-mask over the candidates.
    """
    m = state_id.shape[0]
    keep = np.zeros(m, dtype=bool)
    if m == 0:
        return keep
    # Fast path: sort on (state, cost) only; the canonical tie keys matter
    # only when a state's minimum cost is attained more than once.
    order = np.lexsort((cost, state_id))
    s = state_id[order]
    first = np.empty(m, dtype=bool)
    first[0] = True
    first[1:] = s[1:] != s[:-1]
    winners = np.flatnonzero(first)
    runner_up = winners[winners < m - 1] + 1
    c = cost[order]
    tied = (s[runner_up] == s[runner_up - 1]) & (c[runner_up] == c[runner_up - 1])
    if tied.any() and tie_keys:
        order = _sort(state_id, (cost,), tie_keys)
        s = state_id[order]
        first[1:] = s[1:] != s[:-1]
    keep[order[first]] = True
    return keep


def prune_pareto_front(
    state_id: np.ndarray,
    cost: np.ndarray,
    objective: np.ndarray,
    tie_keys: tuple[np.ndarray, ...] = (),
) -> np.ndarray:
    """Exact Pareto front per state over (cost minimized, objective maximized).

    For VRP the objective is remaining capacity; for TSPTW pass negated
    time.  Implemented as a cost-sorted sweep keeping a candidate iff its
    objective strictly exceeds the running per-state maximum (the segmented
    cumulative-max formulation), which with the canonical tie order yields
    exactly the pairwise non-dominated set with one survivor per exact tie.
    """
    m = state_id.shape[0]
    keep = np.zeros(m, dtype=bool)
    if m == 0:
        return keep
    order = _sort(state_id, (cost, -objective), tie_keys)
    s = state_id[order]
    obj = objective[order]

    # Dense-rank objective values so equal values share a rank, then fold the
    # state ordinal into one integer key: a running maximum over the combined
    # key restarts automatically at each state boundary.
    uniq = np.unique(obj)
    obj_rank = np.searchsorted(uniq, obj)
    first = np.empty(m, dtype=bool)
    first[0] = True
    first[1:] = s[1:] != s[:-1]
    group_ord = np.cumsum(first) - 1
    key = group_ord * np.int64(len(uniq) + 1) + obj_rank

    running = np.maximum.accumulate(key)
    kept_sorted = np.empty(m, dtype=bool)
    kept_sorted[0] = True
    kept_sorted[1:] = key[1:] > running[:-1]
    keep[order[kept_sorted]] = True
    return keep
