"""Per-layer spans around the solver's layer entry points.

The wrappers are installed only for a traced solve, by replacing module
attributes (mostly on ``routedp.solver``, whose ``solve`` looks its stages
up by global name), and removed afterwards, so untraced solves run the
unmodified code.  Each wrapped function is looked up by name; a layer whose
functions are all gone, or that recorded no span in a traced run, is
reported as missing instead of failing the run.

Spans nest: a span's self time is its duration minus that of the spans
opened inside it.  So the via-depot ``prune_single_best`` call inside
``expand_vrp`` is charged to ``pruning.kernel`` and not to
``solver.expand``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

SOLVE = "solver.solve"

# layer -> (module, function names) wrapped for it.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "solver.group": ("routedp.solver", ("group_by_visited",)),
    "solver.expand": ("routedp.solver", ("expand_tsp", "expand_vrp", "expand_tsptw")),
    "solver.prune": ("routedp.solver", ("prune_tsp", "prune_capacity_time")),
    "solver.select": ("routedp.solver", ("select_top_b",)),
    "solver.next_beam": ("routedp.solver", ("_next_beam",)),
    "solver.backtrack": ("routedp.solver", ("backtrack",)),
    "pruning.kernel": ("routedp.solver", ("prune_single_best", "prune_pareto_front")),
    "decode.verify": ("routedp.solver", ("build_solution",)),
    "policy.tables": ("routedp.solver", ("build_policy_tables", "initial_potential")),
    "heatmaps.graph": ("routedp.solver", ("cost_heatmap", "symmetrize",
                                          "sparsify_threshold", "sparsify_knn")),
    "instances.cost_matrix": ("routedp.instances", ("euclidean_cost_matrix",)),
}


def _groups(args, out):
    groups = out[1]
    return {"groups": int(groups[-1]) + 1 if len(groups) else 0}


def _in_out(args, out):
    return {"in": len(args[0]), "out": len(out)}


def _in_kept(args, out):
    return {"in": len(args[0]), "out": int(out.sum())}


# layer -> counts taken from a call's arguments and result.
COUNTERS = {
    "solver.group": _groups,
    "solver.expand": lambda args, out: {"candidates": len(out)},
    "solver.prune": _in_out,
    "solver.select": _in_out,
    "pruning.kernel": _in_kept,
}


@dataclass
class Recorder:
    """Flat span list plus the stack of currently open spans."""

    layer: list[str] = field(default_factory=list)
    start: list[float] = field(default_factory=list)
    end: list[float] = field(default_factory=list)
    parent: list[int] = field(default_factory=list)
    solve_index: list[int] = field(default_factory=list)
    counts: dict[tuple[int, str, str], int] = field(default_factory=dict)
    broken_counters: set[str] = field(default_factory=set)
    stack: list[int] = field(default_factory=list)
    current_solve: int = -1

    def open(self, layer: str) -> int:
        i = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.solve_index.append(self.current_solve)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def count(self, layer: str, values: dict[str, int]) -> None:
        for key, v in values.items():
            k = (self.current_solve, layer, key)
            self.counts[k] = self.counts.get(k, 0) + v


def _wrap(rec: Recorder, layer: str, fn):
    counter = COUNTERS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = rec.open(layer)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if counter is not None and layer not in rec.broken_counters:
            try:
                rec.count(layer, counter(args, out))
            except (TypeError, AttributeError, IndexError):
                rec.broken_counters.add(layer)
        return out
    return wrapper


class Tracer:
    """Installs and removes the wrappers; owns the recorder."""

    def __init__(self) -> None:
        self.rec = Recorder()
        self.targets: list[tuple[str, object, str, object]] = []
        self.missing: list[str] = []
        for layer, (modname, names) in LAYERS.items():
            mod = importlib.import_module(modname)
            found = [(layer, mod, name, getattr(mod, name)) for name in names
                     if callable(getattr(mod, name, None))]
            if not found:
                self.missing.append(layer)
            self.targets.extend(found)

    def install(self) -> None:
        for layer, mod, name, fn in self.targets:
            setattr(mod, name, _wrap(self.rec, layer, fn))

    def remove(self) -> None:
        for _, mod, name, fn in self.targets:
            setattr(mod, name, fn)

    def traced_solve(self, solve, *args, **kwargs):
        self.rec.current_solve += 1
        self.install()
        i = self.rec.open(SOLVE)
        try:
            return solve(*args, **kwargs)
        finally:
            self.rec.close(i)
            self.remove()


def layer_totals(rec: Recorder, solves: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-solve self time by layer, and per-solve counts, over the first
    `solves` traced solves.  A layer whose counter broke has no counts."""
    child = [0.0] * len(rec.layer)
    for i, p in enumerate(rec.parent):
        if p >= 0:
            child[p] += rec.end[i] - rec.start[i]
    self_s: dict[str, float] = {}
    for i, layer in enumerate(rec.layer):
        if rec.solve_index[i] < solves:
            d = rec.end[i] - rec.start[i]
            key = layer if layer != SOLVE else "solver.other"
            self_s[key] = self_s.get(key, 0.0) + d - child[i]
            if layer == SOLVE:
                self_s[SOLVE] = self_s.get(SOLVE, 0.0) + d
    counts: dict[str, float] = {}
    for (s, layer, key), v in rec.counts.items():
        if s < solves and layer not in rec.broken_counters:
            name = f"{layer}.{key}"
            counts[name] = counts.get(name, 0) + v
    return ({k: v / solves for k, v in self_s.items()},
            {k: v / solves for k, v in counts.items()})


def spans_json(rec: Recorder) -> dict:
    return {"fields": ["layer", "start", "end", "parent", "solve"],
            "spans": [[l, s, e, p, k] for l, s, e, p, k in
                      zip(rec.layer, rec.start, rec.end, rec.parent, rec.solve_index)]}
