"""The benchmark's --trace 1 mode finds every solver layer it wraps by name,
and its workloads still solve to the pinned bench hashes and traced counts.

benchmarks/tracing.py replaces routedp.solver attributes by name, so a
renamed layer function would only show up as a missing layer in a traced
benchmark run.  These tests import the benchmark modules without changing
them and trace one small solve per problem.  A speed-up that drifts the
returned actions would otherwise show only in a benchmark run's hash.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from routedp import Policy, SolverConfig, generate_tsp, generate_tsptw, generate_vrp, solve

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name, **imports):
    """benchmarks/<name>.py as a module; imports names the benchmark modules
    it imports by their plain names."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # run.py pins BLAS threads in os.environ; dataclasses look their module up.
    with mock.patch.dict(os.environ), mock.patch.dict(sys.modules, {spec.name: module, **imports}):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load("tracing"), load("run")


def test_every_layer_is_found(bench):
    tracing, _ = bench
    assert tracing.Tracer().missing == []


@pytest.mark.parametrize("generate", [generate_tsp, generate_vrp, generate_tsptw])
def test_traced_solve_records_every_layer_and_count(bench, generate):
    tracing, run = bench
    config = SolverConfig(beam_size=100, policy=Policy.COST_HEAT_POTENTIAL)
    tracer = tracing.Tracer()
    traced = tracer.traced_solve(solve, generate(12, seed=0), config)
    untraced = solve(generate(12, seed=0), config)
    assert traced.solution.actions == untraced.solution.actions
    self_s, counts = tracing.layer_totals(tracer.rec, 1)
    assert sorted(set(tracing.LAYERS) - set(self_s)) == []
    assert sorted(set(run.COUNTS) - set(counts)) == []
    assert not tracer.rec.broken_counters
    # Candidates whose cost is built late still count every row.
    assert counts["solver.expand.candidates"] == counts["solver.prune.in"] > 0
    assert counts["pruning.kernel.in"] <= counts["solver.prune.in"]


# Leading 16 hex digits of each workload's seed-0 bench hash (benchmarks/run.py).
BENCH_HASHES = {"tsp100-heat-sparse": "a5da2064b58eb9df", "tsp100-dense": "7459b03e8bb8eac0",
                "vrp100-pareto": "15a52288d8e01300", "tsptw100-windows": "87cd669bd3d63bed"}

# The traced counts (run.COUNTS) summed over each workload's seed-0 list, so
# that a refactor meant to do the same work cannot move work between layers.
BENCH_COUNTS = {
    "tsp100-heat-sparse": (2110056, 21821740, 21821740, 5777355, 6529768),
    "tsp100-dense": (1272344, 76105358, 76105358, 3559284, 2970174),
    "vrp100-pareto": (199127, 19123439, 19123439, 1120650, 1733476),
    "tsptw100-windows": (432075, 6933490, 6933490, 2837627, 6601365),
}


@pytest.mark.slow
@pytest.mark.parametrize("name", BENCH_HASHES)
def test_seed_0_bench_hash_is_pinned(bench, name):
    tracing, run = bench
    workloads = load("workloads")
    checks = load("checks", workloads=workloads)
    w = workloads.WORKLOADS[name]
    cases, _ = workloads.make_cases(w, 0)
    tracer = tracing.Tracer()
    found = [tracer.traced_solve(solve, c.instance, w.config, heatmap=c.heatmap).solution
             for c in cases]
    assert checks.action_hash([s.actions for s in found])[:16] == BENCH_HASHES[name]
    _, counts = tracing.layer_totals(tracer.rec, len(cases))
    assert not tracer.rec.broken_counters
    assert tuple(round(counts[k] * len(cases)) for k in run.COUNTS) == BENCH_COUNTS[name]
