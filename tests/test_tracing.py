"""The benchmark's --trace 1 mode finds every solver layer it wraps by name.

benchmarks/tracing.py replaces routedp.solver attributes by name, so a
renamed layer function would only show up as a missing layer in a traced
benchmark run.  These tests import the benchmark modules without changing
them and trace one small solve per problem.
"""

import importlib.util
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from routedp import Policy, SolverConfig, generate_tsp, generate_tsptw, generate_vrp, solve

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # run.py pins BLAS threads in os.environ; dataclasses look their module up.
    with mock.patch.dict(os.environ), mock.patch.dict(sys.modules, {spec.name: module}):
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
