"""Immutable undirected graph container plus TSV / SNAP-style ingestion.

The Graph stores adjacency in CSR form (indptr + sorted indices), which is
what every algorithm downstream leans on: sorted neighbor arrays make
merge-intersections and membership tests cheap without hashing.  One
sort-based build (`Graph.from_edges`) serves generation, subgraphs and
the loaders.  The TSV loaders parse with numpy's C reader; a file it
refuses is read again line by line only to name the first bad line.
"""

from __future__ import annotations

import gzip
import os
import sys
import warnings
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
        """Build from an (m, 2) id array; loops dropped, duplicates collapsed.

        The builders, the loaders and `induced_subgraph` all come here.  One
        int64 key u * n + v per direction, sorted in place, gives the rows in
        order; a key equal to its predecessor is a repeat.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        edges = edges[edges[:, 0] != edges[:, 1]]
        keys = np.concatenate([edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]])
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]  # keys are >= 0
        src, dst = np.divmod(keys, n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(n, indptr, dst, coords)

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

    def dense(self) -> np.ndarray:
        """Adjacency as an n x n boolean matrix (n^2 bytes), false diagonal."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        adj[np.repeat(np.arange(self.n), np.diff(self.indptr)), self.indices] = True
        return adj

    def __repr__(self) -> str:
        tag = ", coords" if self.coords is not None else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, np.ndarray]:
    """Subgraph on the given vertices.

    Returns (sub, mapping) where mapping[i] is the original id of local
    vertex i; local ids follow the sorted order of `vertices`.
    """
    mapping = np.unique(np.asarray(vertices, dtype=np.int64))
    local = np.full(g.n, -1, dtype=np.int64)
    local[mapping] = np.arange(mapping.shape[0])
    src = np.repeat(local, np.diff(g.indptr))
    dst = local[g.indices]
    keep = (src >= 0) & (src < dst)  # both ends kept, each edge once
    coords = g.coords[mapping] if g.coords is not None else None
    edges = np.column_stack([src[keep], dst[keep]])
    return Graph.from_edges(mapping.shape[0], edges, coords), mapping


# ---------------------------------------------------------------------------
# TSV formats


def write_edge_list(g: Graph, path: str | Path) -> None:
    """One `u<TAB>v` line per edge, 0-based ids, u < v."""
    np.savetxt(path, g.edge_array(), fmt="%d", delimiter="\t")


def write_coords(points: Points, path: str | Path) -> None:
    """One `id<TAB>r<TAB>phi` line per point, 17 significant digits."""
    np.savetxt(path, np.column_stack([np.arange(len(points)), points.r, points.phi]),
               fmt=["%d", "%.17g", "%.17g"], delimiter="\t")


_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64)])
_COORD_ROW = np.dtype([("id", np.int64), ("r", np.float64), ("phi", np.float64)])


def _read_rows(path: str | Path, row: np.dtype) -> np.ndarray:
    """The lines of `path` (gzip when it ends in .gz) as a 1-D array of `row`,
    by numpy's C reader.  `#` starts a comment, on a line of its own or
    after the fields.  A file without rows is valid and gives none."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, dtype=row, comments="#", ndmin=1)
    except ValueError:
        _raise_first_bad_line(path, row)
        raise  # numpy refused what int() and float() accept, such as 1_000


def _raise_first_bad_line(path: str | Path, row: np.dtype) -> None:
    """Raise a ValueError naming the first line with the wrong field count
    or a field that int() or float() rejects; return if there is none."""
    parsers = [int if row[name].kind == "i" else float for name in row.names]
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if parts and len(parts) != len(parsers):
                want = {2: "two", 3: "three"}[len(parsers)]
                raise ValueError(f"{path}: line {lineno}: expected {want} fields, got {len(parts)}")
            for name, parse, part in zip(row.names, parsers, parts):
                try:
                    parse(part)
                except ValueError:
                    raise ValueError(f"{path}: line {lineno}: cannot read {name} "
                                     f"from {part!r}") from None


def load_edge_list(path: str | Path, n: int | None = None) -> Graph:
    """Read a pair-per-line edge file of integer ids (gzip when it ends in .gz).

    `#` starts a comment, on a line of its own or after a pair: `0 1 # x`
    reads as 0 1.  When n is given, ids are used as-is and must be < n;
    otherwise distinct endpoint ids are remapped to a dense 0..n-1 range in
    sorted order.  Direction, duplicate pairs and self-loops are dropped.
    """
    raw = _read_rows(path, _EDGE_ROW).view(np.int64).reshape(-1, 2)
    if n is None:
        ids, flat = np.unique(raw, return_inverse=True)
        return Graph.from_edges(ids.shape[0], flat)
    return Graph.from_edges(n, raw)


def load_coords(path: str | Path) -> Points:
    """Read an `id<TAB>r<TAB>phi` file; ids are integers forming a dense
    0-based range, in any order.  Comments as in `load_edge_list`."""
    rows = _read_rows(path, _COORD_ROW)
    order = np.argsort(rows["id"])
    if not np.array_equal(rows["id"][order], np.arange(rows.shape[0])):
        raise ValueError(f"{path}: ids must be 0..n-1 with no gaps")
    return Points(rows["r"][order], rows["phi"][order])


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
