"""Beam-DP benchmark: end-to-end metrics, or per-layer spans with --trace 1.

Usage (from the repository root):

    python3 benchmarks/run.py --workload tsp100-dense --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py            # every workload, one process each

One client solves the workload's fixed instance list back to back (a
closed loop) through the library API, starting from ``src/`` of this
checkout.  Every timed solve is checked by benchmarks/checks.py.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for people, plus the environment and the bench hash
(a sha256 of the action sequences, reported but never gated on).  The exit
code is 1 when an output check or the exactness smoke fails, and 2 when
the library cannot be found.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads: multi-threaded BLAS made solves slower and
# noisier on a 2-core box.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

# Traced layer -> name of its per-solve self-time metric.
TIME_METRICS = {
    "solver.group": "solver.group.self_s",
    "solver.expand": "solver.expand.self_s",
    "solver.prune": "solver.prune.self_s",
    "pruning.kernel": "pruning.kernel_s",
    "solver.select": "solver.select.self_s",
    "solver.next_beam": "solver.next_beam.self_s",
    "solver.backtrack": "solver.backtrack_s",
    "decode.verify": "decode.verify_s",
    "policy.tables": "policy.tables_s",
    "heatmaps.graph": "heatmaps.graph_s",
    "instances.cost_matrix": "instances.cost_matrix_s",
    "solver.other": "solver.other_s",
}
# Ratio metric -> (numerator count, denominator count).
RATIOS = {
    "solver.prune.kept_ratio": ("solver.prune.out", "solver.prune.in"),
    "solver.select.kept_ratio": ("solver.select.out", "solver.select.in"),
    "pruning.kernel.kept_ratio": ("pruning.kernel.out", "pruning.kernel.in"),
}
COUNTS = ("solver.group.groups", "solver.expand.candidates", "solver.prune.in",
          "solver.select.in", "pruning.kernel.in")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all",
                   help="workload name, or 'all' to run each in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library() -> float:
    """Import NumPy and routedp from this checkout; returns the import time."""
    if not (SRC / "routedp" / "__init__.py").is_file():
        print(f"error: routedp sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import routedp
    import_s = time.perf_counter() - t0
    if Path(routedp.__file__).resolve().parent != SRC / "routedp":
        print(f"error: imported routedp from {routedp.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return import_s


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def metric(value: float | None, unit: str) -> dict:
    return {"value": value, "unit": unit}


def actions(out) -> tuple[int, ...] | None:
    """Action sequence of a solve outcome; None if it raised or found nothing."""
    if isinstance(out, Exception) or not out.found:
        return None
    return out.solution.actions


def run_workload(args: argparse.Namespace, import_s: float) -> tuple[dict, dict]:
    from routedp.solver import build_graph, solve

    from checks import action_hash, check_solution, exactness_smoke
    from tracing import Tracer, spans_json
    from workloads import WORKLOADS, make_cases

    w = WORKLOADS[args.workload]
    info: dict = {"workload": w.name, "seed": args.seed, "env": environment()}

    # Untimed: a beam that holds every state must match the exact DP, or
    # the run posts no numbers at all.
    smoke_solves, smoke_errors = exactness_smoke(args.seed)
    if smoke_errors:
        print("exactness smoke failed:\n  " + "\n  ".join(smoke_errors), file=sys.stderr)
        sys.exit(1)
    info["exactness_smoke_solves"] = smoke_solves

    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases, warm = make_cases(w, args.seed)
        gen_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    solve(warm.instance, w.config, heatmap=warm.heatmap)
    warmup_s = time.perf_counter() - t0
    setup = {"import_s": import_s, "generate_s": statistics.median(gen_s), "warmup_s": warmup_s}

    tracer = Tracer() if args.trace else None
    runs: list[tuple[int, object, float]] = []   # (case index, result or error, seconds)
    traced_runs: list[tuple[int, object, float]] = []

    def timed(i: int, traced: bool) -> tuple[int, object, float]:
        c = cases[i]
        t0 = time.perf_counter()
        try:
            if traced:
                out = tracer.traced_solve(solve, c.instance, w.config, heatmap=c.heatmap)
            else:
                out = solve(c.instance, w.config, heatmap=c.heatmap)
        except Exception as exc:  # a failed solve is counted, not fatal
            out = exc
        return i, out, time.perf_counter() - t0

    # Whole passes over the list until --seconds have passed, so every run
    # times the same instance mix.  A traced run's list is the first half of
    # the workload's, each instance solved untraced and then traced.
    size = w.instances if tracer is None else math.ceil(w.instances / 2)
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        for i in range(size):
            runs.append(timed(i, traced=False))
            if tracer is not None:
                traced_runs.append(timed(i, traced=True))
    wall = time.perf_counter() - start

    graphs = [build_graph(c.instance, c.heatmap, w.config) for c in cases]
    failures = []
    for k, (i, out, _) in enumerate(runs + traced_runs):
        if isinstance(out, Exception):
            errs = [f"raised {out!r}"]
        else:
            errs = check_solution(cases[i].instance, out, graphs[i])
        if k >= len(runs) and actions(out) != actions(runs[k - len(runs)][1]):
            errs.append("traced solve returned other actions than the untraced one")
        if errs:
            failures.append({"instance": i, "errors": errs})
    attempted = len(runs) + len(traced_runs)
    found = [out.solution for _, out, _ in runs[:size] if actions(out) is not None]
    info["bench_hash"] = action_hash([s.actions for s in found])
    info["solves_timed"] = len(runs)
    info["solve_s"] = [round(t, 4) for _, _, t in runs]
    info["failures"] = failures
    info["setup"] = setup

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures)}
    if tracer is None:
        times = [t for _, _, t in runs]
        result["metrics"] = {
            "solves_per_s": metric(len(runs) / wall, "1/s"),
            "solve_s_p50": metric(statistics.median(times), "s"),
            "mean_cost": metric(statistics.fmean(s.cost for s in found) if found else 0.0, "cost"),
            "ok_frac": metric(1.0 - len(failures) / attempted, "fraction"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": metric(sum(setup.values()), "s"),
        }
    else:
        result["metrics"], info["missing_layers"] = layer_metrics(
            tracer, size, runs, traced_runs, setup)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"spans-{w.name}-seed{args.seed}.json").write_text(
            json.dumps(spans_json(tracer.rec)))
    return info, result


def layer_metrics(tracer, solves: int, runs, traced_runs, setup: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced run, and the layers found missing."""
    from tracing import layer_totals

    self_s, counts = layer_totals(tracer.rec, solves)
    solve_s = self_s.get("solver.solve", 0.0)
    missing = set(tracer.missing) | {layer for layer in TIME_METRICS if layer not in self_s}
    out = {"solver.solve_s": metric(solve_s, "s")}
    for layer, name in TIME_METRICS.items():
        present = layer not in missing
        out[name] = metric(self_s[layer] if present else None, "s")
        out[f"{layer}.share"] = metric(self_s[layer] / solve_s if present else None, "fraction")
    for name in COUNTS:
        out[name] = metric(counts.get(name), "count")
    for name, (num, den) in RATIOS.items():
        ok = num in counts and counts.get(den)
        out[name] = metric(counts[num] / counts[den] if ok else None, "ratio")
    untraced = sum(t for _, _, t in runs)
    traced = sum(t for _, _, t in traced_runs)
    out["trace_overhead_frac"] = metric(1.0 - untraced / traced, "fraction")
    for key, v in setup.items():
        out[f"setup.{key}"] = metric(v, "s")
    return out, sorted(missing)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode
    print(json.dumps({"workloads": results}))
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    info, result = run_workload(args, import_s)
    print(json.dumps(info))
    for name, m in result["metrics"].items():
        value = "missing" if m["value"] is None else repr(m["value"])
        print(f"{info['workload']:<20} {name:<28} {value} {m['unit']}")
    print(f"{info['workload']:<20} solves timed {info['solves_timed']}, attempted "
          f"{result['attempted']}, failed {result['failed']}, failed_frac "
          f"{result['failed'] / result['attempted']!r}, bench hash {info['bench_hash'][:16]}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
