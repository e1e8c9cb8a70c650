"""Vectorized per-state dominance pruning for expansion candidates.

Candidates are flat numpy arrays; state_id identifies the DP state (set of
visited nodes plus new current node).  The one kernel, prune_pareto_front,
orders its candidates with one argsort over an int64 key that folds the dense
rank of each major key (cost, then -objective if given) into the state id.
Only rows whose keys tie exactly are then reordered by a caller-supplied
canonical ordering (tie_keys, minor to major; the earliest row first on a
full tie), so the surviving set is fully deterministic and matches a naive
pairwise oracle that uses the same tie rule.  The solver calls the kernel
from its prune layer only.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

# Folded keys stay below this bound, so key * k + rank never overflows int64.
_KEY_LIMIT = 1 << 62


def _dense_rank(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Ranks 0..k-1 with equal values sharing a rank, and k."""
    o = np.argsort(x)
    xs = x[o]
    step = np.cumsum(np.concatenate(([0], xs[1:] != xs[:-1])), dtype=np.int64)
    rank = np.empty_like(step)
    rank[o] = step
    return rank, int(step[-1]) + 1


def argsort_ties(key: np.ndarray, tie_keys: Callable[..., tuple[np.ndarray, ...]]) -> np.ndarray:
    """Row order by (key, *reversed(tie_keys(rows)), row index): one argsort, then a
    lexsort of only the rows whose keys tie exactly, handed to tie_keys in row order."""
    order = np.argsort(key)
    ks = key[order]
    eq = np.concatenate(([False], ks[1:] == ks[:-1], [False]))
    tied = np.flatnonzero(eq[1:] | eq[:-1])   # positions equal to a neighbour
    if tied.size:
        rows = np.sort(order[tied])
        order[tied] = rows[np.lexsort(tuple(tie_keys(rows)) + (key[rows],))]
    return order


def _order(state_id: np.ndarray, majors: tuple[np.ndarray, ...],
           tie_keys: tuple[np.ndarray, ...]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Row order by (state, *majors, *reversed(tie_keys), row index) and the
    dense ranks of the majors."""
    key = np.asarray(state_id, dtype=np.int64)
    ranks = []
    for x in majors:
        rank, k = _dense_rank(x)
        if key.min() < 0 or key.max() >= _KEY_LIMIT // k:
            key = _dense_rank(key)[0]
        key = key * k + rank
        ranks.append(rank)
    return argsort_ties(key, lambda rows: tuple(t[rows] for t in tie_keys)), ranks


def prune_pareto_front(
    state_id: np.ndarray,
    cost: np.ndarray,
    objective: np.ndarray | None = None,
    tie_keys: tuple[np.ndarray, ...] = (),
) -> np.ndarray:
    """Exact Pareto front per state over (cost minimized, objective maximized).

    Returns a boolean keep-mask over the candidates.  For VRP the objective
    is remaining capacity; for TSPTW pass negated time; with no objective
    (TSP) the front is one minimum-cost candidate per state.  Implemented
    as a cost-sorted sweep keeping a candidate iff its objective strictly
    exceeds the running per-state maximum (the segmented cumulative-max
    formulation), which with the canonical tie order yields exactly the
    pairwise non-dominated set with one survivor per exact tie.
    """
    keep = np.zeros(state_id.shape[0], dtype=bool)
    if keep.size == 0:
        return keep
    majors = (cost,) if objective is None else (cost, -objective)
    order, ranks = _order(state_id, majors, tie_keys)
    states = state_id[order]
    kept = np.concatenate(([True], states[1:] != states[:-1]))   # each state's first row
    if objective is not None:
        # The objective's rank sits below the state ordinal, so a running
        # maximum over the combined key restarts at each state boundary.
        neg_rank = ranks[1][order]
        k = int(neg_rank.max()) + 1
        key = (np.cumsum(kept) - 1) * k + (k - 1 - neg_rank)
        kept = np.concatenate(([True], key[1:] > np.maximum.accumulate(key)[:-1]))
    keep[np.compress(kept, order)] = True
    return keep
