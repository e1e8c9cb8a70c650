"""Problem instances: types, Euclidean costs, random generators and JSON I/O.

Node 0 is always the depot / start node. Coordinates are arbitrary real
units; distances are exact double-precision Euclidean (never rounded).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

DEPOT = 0

# Vehicle capacity by instance size (nodes incl. depot), linearly
# interpolated and rounded for sizes between the anchors, clamped outside.
_CAPACITY_ANCHORS = [(10, 20.0), (20, 30.0), (50, 40.0), (100, 50.0)]


class ProblemKind(str, Enum):
    TSP = "tsp"
    VRP = "vrp"
    TSPTW = "tsptw"


class InstanceFormatError(ValueError):
    """Raised when an instance file is malformed or inconsistent."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Instance:
    """Immutable problem definition.

    coords has shape (n, 2) with node 0 the depot.  demands/capacity are
    present only for VRP (depot demand 0), time_windows only for TSPTW
    (depot window (0, inf) unless given).
    """

    kind: ProblemKind
    coords: np.ndarray
    demands: np.ndarray | None = None
    capacity: float | None = None
    time_windows: np.ndarray | None = None

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != 2 or coords.shape[0] < 2:
            raise ValueError("coords must have shape (n, 2) with n >= 2")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite")
        object.__setattr__(self, "coords", _readonly(coords))
        n = coords.shape[0]

        if self.kind == ProblemKind.VRP:
            if self.demands is None or self.capacity is None:
                raise ValueError("VRP instance requires demands and capacity")
            demands = np.asarray(self.demands, dtype=float)
            if demands.shape != (n,):
                raise ValueError(f"demands must have length {n}, got {demands.shape}")
            if demands[DEPOT] != 0:
                raise ValueError("depot demand must be 0")
            if not np.all(np.isfinite(demands)):
                raise ValueError("demands must be finite")
            if not (math.isfinite(self.capacity) and self.capacity > 0):
                raise ValueError("capacity must be finite and positive")
            if np.any(demands[1:] <= 0) or np.any(demands[1:] > self.capacity):
                raise ValueError("customer demands must satisfy 0 < d_i <= capacity")
            object.__setattr__(self, "demands", _readonly(demands))
        elif self.demands is not None or self.capacity is not None:
            raise ValueError(f"demands/capacity only valid for VRP, not {self.kind.value}")

        if self.kind == ProblemKind.TSPTW:
            if self.time_windows is None:
                tw = np.full((n, 2), [0.0, math.inf])
            else:
                tw = np.asarray(self.time_windows, dtype=float)
            if tw.shape != (n, 2):
                raise ValueError(f"time_windows must have shape ({n}, 2)")
            bad = np.isnan(tw[:, 1]) | ~np.isfinite(tw[:, 0])
            if np.any(bad):
                raise ValueError(f"time window of node {int(np.argmax(bad))} has a non-finite "
                                 "lower bound or a NaN upper bound")
            if np.any(tw[:, 0] > tw[:, 1]):
                bad = int(np.argmax(tw[:, 0] > tw[:, 1]))
                raise ValueError(f"time window of node {bad} has l > u")
            if tw[DEPOT, 0] != 0:
                raise ValueError("depot window must open at 0")
            object.__setattr__(self, "time_windows", _readonly(tw))
        elif self.time_windows is not None:
            raise ValueError(f"time_windows only valid for TSPTW, not {self.kind.value}")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    def cost_matrix(self) -> np.ndarray:
        return euclidean_cost_matrix(self.coords)


@dataclass(frozen=True)
class Solution:
    """A decoded solution: action sequence, depot-to-depot routes and cost."""

    actions: tuple[int, ...]
    routes: tuple[tuple[int, ...], ...]
    cost: float
    feasible: bool


def euclidean_cost_matrix(coords: np.ndarray) -> np.ndarray:
    """Full double-precision pairwise Euclidean distance matrix."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[0] < 2:
        raise ValueError("need at least 2 coordinate pairs")
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def capacity_for_size(n: int) -> float:
    """Vehicle capacity for an instance with n nodes (interpolated table)."""
    sizes = [s for s, _ in _CAPACITY_ANCHORS]
    caps = [c for _, c in _CAPACITY_ANCHORS]
    return float(round(np.interp(n, sizes, caps)))


def generate_tsp(n: int, seed: int) -> Instance:
    """Random TSP: n nodes i.i.d. uniform on the unit square."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    return Instance(ProblemKind.TSP, rng.random((n, 2)))


def generate_vrp(n: int, seed: int) -> Instance:
    """Random VRP: uniform coords, integer demands in {1..9}, table capacity."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2))
    demands = rng.integers(1, 10, size=n).astype(float)
    demands[DEPOT] = 0.0
    return Instance(ProblemKind.VRP, coords, demands=demands,
                    capacity=capacity_for_size(n))


def generate_tsptw(n: int, seed: int, max_window: float = 1000.0) -> Instance:
    """Random TSPTW on the [0, 100]^2 grid.

    A random visiting order is drawn and arrival times are accumulated with
    zero waiting; each node's window is sampled around its arrival time
    (half-widths uniform on (0, max_window/2), lower end clamped at 0), so
    the generating order is always feasible.  Depot window is (0, inf).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (math.isfinite(max_window) and max_window > 0):
        raise ValueError("max_window must be finite and positive")
    rng = np.random.default_rng(seed)
    coords = rng.random((n, 2)) * 100.0
    order = rng.permutation(np.arange(1, n))
    costs = euclidean_cost_matrix(coords)

    arrival = np.zeros(n)
    t, prev = 0.0, DEPOT
    for node in order:
        t += costs[prev, node]
        arrival[node] = t
        prev = node

    eps_l = rng.uniform(0.0, max_window / 2.0, size=n)
    eps_u = rng.uniform(0.0, max_window / 2.0, size=n)
    tw = np.empty((n, 2))
    tw[:, 0] = np.maximum(0.0, arrival - eps_l)
    tw[:, 1] = arrival + eps_u
    tw[DEPOT] = [0.0, math.inf]
    return Instance(ProblemKind.TSPTW, coords, time_windows=tw)


def write_instance(instance: Instance, path: str | Path) -> None:
    obj: dict = {
        "problem": instance.kind.value,
        "coords": instance.coords.tolist(),
    }
    if instance.kind == ProblemKind.VRP:
        obj["demands"] = instance.demands.tolist()
        obj["capacity"] = instance.capacity
    if instance.kind == ProblemKind.TSPTW:
        obj["time_windows"] = [
            [l, u if math.isfinite(u) else None] for l, u in instance.time_windows
        ]
    Path(path).write_text(json.dumps(obj), encoding="utf-8")


def _require_numbers(path: Path, key: str, value) -> None:
    """Raise unless value is a JSON number or nested lists of them, naming
    the first value that is not (without recursion, so any depth is fine)."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, list):
            stack.extend(reversed(value))
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InstanceFormatError(f"{path}: '{key}' holds {value!r}, which is not a number")


def read_instance(path: str | Path) -> Instance:
    path = Path(path)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise InstanceFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except RecursionError:
        raise InstanceFormatError(f"{path}: JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{path}: expected a JSON object")

    try:
        kind = ProblemKind(obj["problem"])
    except KeyError:
        raise InstanceFormatError(f"{path}: missing field 'problem'") from None
    except ValueError:
        raise InstanceFormatError(f"{path}: unknown problem {obj['problem']!r}") from None
    # The fields of each problem, which must be there; no other problem's may.
    own = ("coords",) + {ProblemKind.VRP: ("demands", "capacity"),
                         ProblemKind.TSPTW: ("time_windows",)}.get(kind, ())
    for key in ("coords", "demands", "capacity", "time_windows"):
        if (key in obj) != (key in own):
            raise InstanceFormatError(f"{path}: {'unexpected' if key in obj else 'missing'} "
                                      f"field '{key}' for problem '{kind.value}'")

    demands = capacity = tw = None
    if kind == ProblemKind.VRP:
        demands, capacity = obj["demands"], obj["capacity"]
        if isinstance(capacity, bool) or not isinstance(capacity, (int, float)):
            raise InstanceFormatError(f"{path}: 'capacity' {capacity!r} is not a number")
    if kind == ProblemKind.TSPTW:
        try:
            tw = [[l, math.inf if u is None else u] for l, u in obj["time_windows"]]
        except (TypeError, ValueError):
            raise InstanceFormatError(f"{path}: 'time_windows' must be a list of "
                                      "two-number lists") from None

    for key, value in (("coords", obj["coords"]), ("demands", demands), ("time_windows", tw)):
        if value is not None:
            _require_numbers(path, key, value)
    try:
        return Instance(kind, np.asarray(obj["coords"], dtype=float),
                        demands=None if demands is None else np.asarray(demands, dtype=float),
                        capacity=capacity,
                        time_windows=None if tw is None else np.asarray(tw, dtype=float))
    except (TypeError, ValueError, OverflowError) as exc:   # an integer past float range
        raise InstanceFormatError(f"{path}: {exc}") from exc
