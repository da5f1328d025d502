"""Immutable undirected graph container plus TSV / SNAP-style ingestion.

The Graph stores adjacency in CSR form (indptr + sorted indices), which is
what every algorithm downstream leans on: sorted neighbor arrays make
merge-intersections and membership tests cheap without hashing.
"""

from __future__ import annotations

import gzip
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import Points

CACHE_ENV_VAR = "HYPERCLIQUE_CACHE"

# dataset id -> path below the download base; ids are also the cache file names
SNAP_DATASETS = {
    "ca-AstroPh": "ca-AstroPh.txt.gz",
    "ca-CondMat": "ca-CondMat.txt.gz",
    "ca-GrQc": "ca-GrQc.txt.gz",
    "ca-HepPh": "ca-HepPh.txt.gz",
    "ca-HepTh": "ca-HepTh.txt.gz",
    "com-amazon": "bigdata/communities/com-amazon.ungraph.txt.gz",
    "com-dblp": "bigdata/communities/com-dblp.ungraph.txt.gz",
    "com-youtube": "bigdata/communities/com-youtube.ungraph.txt.gz",
    "email-Enron": "email-Enron.txt.gz",
    "email-EuAll": "email-EuAll.txt.gz",
    "p2p-Gnutella31": "p2p-Gnutella31.txt.gz",
    "roadNet-CA": "roadNet-CA.txt.gz",
    "roadNet-PA": "roadNet-PA.txt.gz",
    "roadNet-TX": "roadNet-TX.txt.gz",
    "soc-Epinions1": "soc-Epinions1.txt.gz",
    "soc-Slashdot0902": "soc-Slashdot0902.txt.gz",
    "web-Google": "web-Google.txt.gz",
    "wiki-Talk": "wiki-Talk.txt.gz",
    "wiki-Vote": "wiki-Vote.txt.gz",
}

SNAP_BASE_URL = "https://snap.stanford.edu/data"


class Graph:
    """Undirected simple graph over vertex ids 0..n-1.

    Immutable once built; `coords` optionally carries the polar coordinates
    the edges were generated from.
    """

    __slots__ = ("n", "m", "indptr", "indices", "coords")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 coords: Points | None = None):
        self.n = int(n)
        self.m = int(indices.shape[0]) // 2
        self.indptr = indptr
        self.indices = indices
        self.coords = coords
        if coords is not None and len(coords) != self.n:
            raise ValueError("coords length must match vertex count")

    @classmethod
    def from_edges(cls, n: int, edges: np.ndarray, coords: Points | None = None) -> "Graph":
        """Build from an (m, 2) id array; loops dropped, duplicates collapsed."""
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        edges = edges[edges[:, 0] != edges[:, 1]]
        both = np.concatenate([edges, edges[:, ::-1]], axis=0)
        # dedup one direction at a time via a single int64 key
        keys = both[:, 0] * n + both[:, 1]
        keys = np.unique(keys)
        src = keys // n
        dst = keys % n
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, dst.astype(np.int64), coords)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of v (a view, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.shape[0] and row[i] == v)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        mask = src < self.indices
        return np.column_stack([src[mask], self.indices[mask]])

    def edges(self):
        for u, v in self.edge_array():
            yield int(u), int(v)

    def __repr__(self) -> str:
        tag = ", coords" if self.coords is not None else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


def common_neighbors(g: Graph, u: int, v: int, within: np.ndarray | None = None) -> np.ndarray:
    """Sorted common neighborhood of u and v; `within` is an optional bool mask."""
    ids = np.intersect1d(g.neighbors(u), g.neighbors(v), assume_unique=True)
    if within is not None:
        ids = ids[within[ids]]
    return ids


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Subgraph on the given vertices.

    Returns (sub, mapping) where mapping[i] is the original id of local
    vertex i; local ids follow the sorted order of `vertices`.
    """
    mapping = np.unique(np.asarray(vertices, dtype=np.int64))
    local = np.full(g.n, -1, dtype=np.int64)
    local[mapping] = np.arange(mapping.shape[0])
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    keep = (local[src] >= 0) & (local[g.indices] >= 0)
    edges = np.column_stack([local[src[keep]], local[g.indices[keep]]])
    coords = g.coords[mapping] if g.coords is not None else None
    sub = Graph.from_edges(mapping.shape[0], edges, coords)
    return sub, mapping


# ---------------------------------------------------------------------------
# TSV formats


def write_edge_list(g: Graph, path: str | Path) -> None:
    """One `u<TAB>v` line per edge, 0-based ids, u < v."""
    with open(path, "w") as fh:
        for u, v in g.edge_array():
            fh.write(f"{u}\t{v}\n")


def write_coords(points: Points, path: str | Path) -> None:
    """One `id<TAB>r<TAB>phi` line per point, 17 significant digits."""
    with open(path, "w") as fh:
        for i in range(len(points)):
            fh.write(f"{i}\t{points.r[i]:.17g}\t{points.phi[i]:.17g}\n")


def _parse_pairs(path: str | Path):
    """Yield (lineno, u, v) for whitespace-separated integer pair lines."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected two fields, got {len(parts)}")
            try:
                yield lineno, int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-integer endpoint") from None


def load_edge_list(path: str | Path, n: int | None = None) -> Graph:
    """Read a pair-per-line edge file.

    `#` comment lines are tolerated.  When n is given, ids are used as-is
    and must be < n; otherwise distinct endpoint ids are remapped to a
    dense 0..n-1 range in sorted order.  Direction, duplicate pairs and
    self-loops are all collapsed away.
    """
    us, vs = [], []
    for _, u, v in _parse_pairs(path):
        us.append(u)
        vs.append(v)
    if not us:
        return Graph.from_edges(n or 0, np.empty((0, 2), dtype=np.int64))
    raw = np.column_stack([np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)])
    if n is None:
        ids = np.unique(raw)
        flat = np.searchsorted(ids, raw.ravel())
        return Graph.from_edges(ids.shape[0], flat.reshape(-1, 2))
    return Graph.from_edges(n, raw)


def load_coords(path: str | Path) -> Points:
    """Read an `id<TAB>r<TAB>phi` file; ids must form a dense 0-based range."""
    ids, rs, phis = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected three fields")
            ids.append(int(parts[0]))
            rs.append(float(parts[1]))
            phis.append(float(parts[2]))
    order = np.argsort(ids)
    ids_arr = np.asarray(ids, dtype=np.int64)[order]
    if ids_arr.size and not np.array_equal(ids_arr, np.arange(ids_arr.shape[0])):
        raise ValueError(f"{path}: ids must be 0..n-1 with no gaps")
    return Points(np.asarray(rs)[order], np.asarray(phis)[order])


def load_graph(edge_path: str | Path, coords_path: str | Path | None = None) -> Graph:
    """Load an edge list, optionally attaching coordinates.

    With coordinates the vertex universe is the coordinate file (so
    isolated vertices survive) and edge ids are used verbatim.
    """
    if coords_path is None:
        return load_edge_list(edge_path)
    points = load_coords(coords_path)
    g = load_edge_list(edge_path, n=len(points))
    return Graph(g.n, g.indptr, g.indices, points)


# ---------------------------------------------------------------------------
# SNAP download cache


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "hyperclique"


def fetch_snap(name: str, cache_dir: str | Path | None = None,
               base_url: str = SNAP_BASE_URL, timeout: float = 60.0) -> Path:
    """Download (once) and cache a named public edge-list dataset.

    Returns the path of the decompressed text file.  A warm cache short-
    circuits without any network traffic.
    """
    by_fold = {key.lower(): key for key in SNAP_DATASETS}
    if name.lower() not in by_fold:
        known = ", ".join(sorted(SNAP_DATASETS))
        raise ValueError(f"unknown dataset {name!r}; known: {known}")
    name = by_fold[name.lower()]
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    target = cache / f"{name}.txt"
    if target.exists():
        return target
    import urllib.request  # only a cold cache pays for the import

    url = f"{base_url}/{SNAP_DATASETS[name]}"
    print(f"fetching {url}", file=sys.stderr)
    # HTTP error statuses raise HTTPError, an OSError
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        text = gzip.decompress(resp.read())
    tmp = target.with_suffix(".txt.part")
    tmp.write_bytes(text)
    tmp.rename(target)
    return target


def load_snap(name: str, cache_dir: str | Path | None = None) -> Graph:
    """Fetch + parse a named dataset: direction ignored, loops dropped."""
    return load_edge_list(fetch_snap(name, cache_dir))
