"""The four fixed benchmark workloads and the inputs they are built from.

Every input is a pure function of the benchmark seed: instance i of a run
with seed s is generated from seed ``s * SEED_STRIDE + i``, the warm-up
instance from ``s * SEED_STRIDE + WARMUP_INDEX``.  The program receives
only the generated instances (and, for the heatmap workload, a synthetic
heatmap), never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from routedp import (DEPOT, Heatmap, Instance, Policy, SolverConfig, generate_tsp,
                     generate_tsptw, generate_vrp)

SEED_STRIDE = 1000
WARMUP_INDEX = 999

# Synthetic heatmap: each node gives heat 0.9 * 0.6**r to its r-th nearest
# neighbour (r < 10), symmetrized by max.  This stands in for the paper's
# trained-GNN heatmaps: at threshold 1e-5 it leaves about 12 edges per
# node, the sparse graphs the paper runs on.  Every node also keeps a faint
# edge to the depot, so a tour can always close: without it the beam finds
# no closing edge on some instances (e.g. instance seed 1000).
HEAT_NEIGHBOURS = 10
HEAT_TOP = 0.9
HEAT_DECAY = 0.6
HEAT_DEPOT = 1e-4

GENERATORS = {"tsp": generate_tsp, "vrp": generate_vrp, "tsptw": generate_tsptw}


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    n: int
    config: SolverConfig
    synthetic_heat: bool
    # Instances solved per pass: one pass takes 20-30 s on a 2-core x86
    # box, enough that the spread between seeds stays inside the bounds.
    instances: int


WORKLOADS = {w.name: w for w in (
    Workload("tsp100-heat-sparse", "tsp", 100,
             SolverConfig(beam_size=10_000, policy=Policy.HEAT_POTENTIAL, threshold=1e-5),
             synthetic_heat=True, instances=4),
    Workload("tsp100-dense", "tsp", 100,
             SolverConfig(beam_size=2000, policy=Policy.COST_HEAT_POTENTIAL),
             synthetic_heat=False, instances=8),
    Workload("vrp100-pareto", "vrp", 100,
             SolverConfig(beam_size=500, policy=Policy.COST_HEAT_POTENTIAL),
             synthetic_heat=False, instances=5),
    Workload("tsptw100-windows", "tsptw", 100,
             SolverConfig(beam_size=2000, policy=Policy.COST_HEAT_POTENTIAL),
             synthetic_heat=False, instances=14),
)}


@dataclass(frozen=True)
class Case:
    """One solver input: the instance and the heatmap handed to solve."""

    instance: Instance
    heatmap: Heatmap | None


def synthetic_heatmap(coords: np.ndarray) -> Heatmap:
    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :HEAT_NEIGHBOURS]
    h = np.zeros((n, n))
    h[np.arange(n)[:, None], nearest] = HEAT_TOP * HEAT_DECAY ** np.arange(HEAT_NEIGHBOURS)
    h[1:, DEPOT] = np.maximum(h[1:, DEPOT], HEAT_DEPOT)
    return Heatmap(np.maximum(h, h.T))


def make_case(w: Workload, instance_seed: int) -> Case:
    inst = GENERATORS[w.problem](w.n, instance_seed)
    return Case(inst, synthetic_heatmap(inst.coords) if w.synthetic_heat else None)


def make_cases(w: Workload, seed: int) -> tuple[list[Case], Case]:
    """The timed instance list and the separate warm-up instance."""
    base = seed * SEED_STRIDE
    return ([make_case(w, base + i) for i in range(w.instances)],
            make_case(w, base + WARMUP_INDEX))
