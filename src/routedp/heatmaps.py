"""Edge-heat matrices, the cost-based heuristic heat, sparsification and I/O.

Heat values live in [0, 1) with a zero diagonal.  Symmetric heatmaps store
identical (i,j)/(j,i) entries; directed ones (TSPTW) may differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .instances import DEPOT, _readonly

# Values of exactly 1 are clamped just inside the open upper bound.
_ONE_CLAMP = 1.0 - 1e-9


class HeatmapFormatError(ValueError):
    """Raised when a heatmap file is malformed."""


@dataclass(frozen=True)
class Heatmap:
    values: np.ndarray
    directed: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("heatmap must be a square matrix")
        if not np.all((v >= 0) & (v < 1)):
            raise ValueError("heat values must be finite and lie in [0, 1)")
        if np.any(np.diag(v) != 0):
            raise ValueError("heatmap diagonal must be zero")
        if not self.directed and not np.array_equal(v, v.T):
            raise ValueError("undirected heatmap must be exactly symmetric")
        object.__setattr__(self, "values", _readonly(v))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SparseGraph:
    """Expansion graph: read-only boolean adjacency, adj[i, j] allows the
    move i -> j (no self-loops)."""

    adj: np.ndarray

    def __post_init__(self) -> None:
        adj = np.array(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        if adj.diagonal().any():
            raise ValueError(f"self-loop at node {int(np.argmax(adj.diagonal()))}")
        object.__setattr__(self, "adj", _readonly(adj))

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @classmethod
    def from_adjacency(cls, adj: np.ndarray) -> "SparseGraph":
        """Graph of adj with any self-loops dropped."""
        adj = np.array(adj, dtype=bool)
        np.fill_diagonal(adj, False)
        return cls(adj)


def symmetrize(raw: Heatmap) -> Heatmap:
    """Entry-wise max of (i,j) and (j,i); output is undirected."""
    return Heatmap(np.maximum(raw.values, raw.values.T), directed=False)


def cost_heatmap(costs: np.ndarray, invert: bool = False) -> Heatmap:
    """Heuristic heat h_ij = c_ij / max_k c_ik (row-normalized distances).

    With invert=True each entry becomes 1 - h_ij instead, so short edges get
    high heat.  Entries equal to 1 are clamped below the open upper bound
    and the diagonal is forced to zero.  Directed, since row maxima differ.
    A row of zeros (every point coincides with its node) gets h = 0.
    """
    costs = np.asarray(costs, dtype=float)
    row_max = costs.max(axis=1)
    h = np.minimum(costs / np.where(row_max > 0, row_max, 1.0)[:, None], _ONE_CLAMP)
    if invert:
        h = np.minimum(1.0 - h, _ONE_CLAMP)
    np.fill_diagonal(h, 0.0)
    return Heatmap(h, directed=True)


def _force_depot_edges(adj: np.ndarray) -> None:
    adj[:, DEPOT] = True
    adj[DEPOT, :] = True


def sparsify_threshold(h: Heatmap, threshold: float, vrp: bool = False) -> SparseGraph:
    """Keep edge (i,j) iff h_ij >= threshold; VRP forces all depot edges."""
    if not 0 <= threshold < 1:
        raise ValueError("threshold must lie in [0, 1)")
    adj = h.values >= threshold
    if vrp:
        _force_depot_edges(adj)
    return SparseGraph.from_adjacency(adj)


def sparsify_knn(costs: np.ndarray, k: int, vrp: bool = False) -> SparseGraph:
    """Each node's k nearest neighbors (ties to the lower index), added in
    both directions; VRP forces all depot edges."""
    costs = np.asarray(costs, dtype=float)
    n = costs.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError("k must lie in [1, n - 1]")
    order = np.argsort(costs, axis=1, kind="stable")   # ties in index order
    nearest = order[order != np.arange(n)[:, None]].reshape(n, n - 1)[:, :k]
    adj = np.zeros((n, n), dtype=bool)
    np.put_along_axis(adj, nearest, True, axis=1)
    adj |= adj.T
    if vrp:
        _force_depot_edges(adj)
    return SparseGraph.from_adjacency(adj)


def read_heatmap(path: str | Path, n: int) -> Heatmap:
    """Load a heatmap file (dense or sparse format, see write_heatmap); content
    after a dense file's rows and a repeated sparse entry are errors."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise HeatmapFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    if not lines:
        raise HeatmapFormatError(f"{path}: empty file")
    header = lines[0].split()
    if (len(header) < 2 or header[0] not in ("dense", "sparse")
            or header[2:] not in ([], ["directed"])):
        raise HeatmapFormatError(f"{path}: line 1: expected 'dense|sparse n [directed]'")
    try:
        file_n = int(header[1])
    except ValueError:
        raise HeatmapFormatError(f"{path}: line 1: bad dimension {header[1]!r}") from None
    if file_n != n:
        raise HeatmapFormatError(f"{path}: dimension {file_n} does not match expected {n}")
    directed = len(header) == 3

    values = np.zeros((n, n))
    if header[0] == "dense":
        if len(lines) < n + 1:
            raise HeatmapFormatError(f"{path}: expected {n} rows, found {len(lines) - 1}")
        for r in range(n):
            parts = lines[r + 1].split()
            if len(parts) != n:
                raise HeatmapFormatError(
                    f"{path}: line {r + 2}: expected {n} values, found {len(parts)}")
            try:
                values[r] = [float(p) for p in parts]
            except ValueError:
                raise HeatmapFormatError(f"{path}: line {r + 2}: non-numeric value") from None
        extra = next((k for k in range(n + 1, len(lines)) if lines[k].strip()), None)
        if extra is not None:
            raise HeatmapFormatError(f"{path}: line {extra + 1}: content after the {n} rows")
    else:
        seen: dict[tuple[int, int], int] = {}   # entry -> line that set it
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise HeatmapFormatError(f"{path}: line {lineno}: expected 'i j h'")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise HeatmapFormatError(f"{path}: line {lineno}: bad entry") from None
            if not (0 <= i < n and 0 <= j < n):
                raise HeatmapFormatError(f"{path}: line {lineno}: index out of range")
            if (i, j) in seen:
                raise HeatmapFormatError(
                    f"{path}: line {lineno}: entry ({i}, {j}) repeats line {seen[i, j]}")
            seen[i, j] = lineno
            values[i, j] = v

    bad = ~((values >= 0) & (values <= 1))
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise HeatmapFormatError(
            f"{path}: entry ({i}, {j}) = {values[i, j]} outside [0, 1]")
    values = np.minimum(values, _ONE_CLAMP)
    np.fill_diagonal(values, 0.0)
    if not directed and not np.array_equal(values, values.T):
        raise HeatmapFormatError(f"{path}: file not marked directed but values are asymmetric")
    return Heatmap(values, directed=directed)


def write_heatmap(h: Heatmap, path: str | Path, sparse: bool = False) -> None:
    tag = " directed" if h.directed else ""
    lines = []
    if sparse:
        lines.append(f"sparse {h.n}{tag}")
        for i, j in np.argwhere(h.values != 0):
            lines.append(f"{i} {j} {float(h.values[i, j])!r}")
    else:
        lines.append(f"dense {h.n}{tag}")
        for row in h.values:
            lines.append(" ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
