"""Greedy clique seeding and degree peeling.

The pipeline shrinks a graph to the part that matters for maximum clique:
seed a clique Q greedily, then repeatedly delete every vertex with fewer
than |Q| - 1 live neighbors.  Members of any clique on at least |Q|
vertices keep |Q| - 1 neighbors among themselves, so Q and every maximum
clique survive peeling in full and the kernel is empty only when the
graph is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graphs import Graph


@dataclass(frozen=True)
class KernelResult:
    initial_clique: np.ndarray  # sorted vertex ids
    kernel: np.ndarray  # sorted vertex ids
    kernel_edge_count: int
    timings: dict  # phase -> milliseconds


def _live_degrees(g: Graph, alive: np.ndarray) -> np.ndarray:
    """Per-vertex count of neighbors with alive[x] set."""
    if g.indices.shape[0] == 0:
        return np.zeros(g.n, dtype=np.int64)
    # prefix sums sidestep the empty-segment quirks of add.reduceat
    prefix = np.zeros(g.indices.shape[0] + 1, dtype=np.int64)
    np.cumsum(alive[g.indices], out=prefix[1:])
    return prefix[g.indptr[1:]] - prefix[g.indptr[:-1]]


def initial_clique(g: Graph) -> np.ndarray:
    """Greedy clique seed.

    Scans vertices by non-increasing degree (ties by ascending id) and
    adopts a vertex when it neighbors every member adopted so far.  A
    per-vertex counter of adopted neighbors makes that test O(1), so the
    scan costs O(n + m) overall.  It stops at the first vertex with fewer
    neighbors than there are members: no later vertex has more.
    """
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    deg = g.degrees()
    order = np.lexsort((np.arange(g.n), -deg))
    counter = np.zeros(g.n, dtype=np.int64)
    members: list[int] = []
    for v in order:
        if deg[v] < len(members):
            break
        if counter[v] == len(members):
            members.append(int(v))
            counter[g.neighbors(v)] += 1
    return np.sort(np.asarray(members, dtype=np.int64))


def peel(g: Graph, k: int, order=None) -> np.ndarray:
    """Largest vertex set whose induced subgraph has minimum degree >= k.

    The result is order-independent; `order` (a vertex permutation) only
    changes the deletion sequence and exists so tests can verify that.
    The default path deletes every sub-threshold vertex in vectorized
    rounds instead of one at a time, subtracting the deleted vertices'
    neighbor counts from the live degrees, so the rounds together read
    each adjacency slot once.
    """
    if k <= 0:
        return np.arange(g.n, dtype=np.int64)
    alive = np.ones(g.n, dtype=bool)
    if order is None:
        deg = g.degrees().astype(np.int64)
        kill = np.flatnonzero(deg < k)
        while kill.size:
            alive[kill] = False
            lo, count = g.indptr[kill], np.diff(g.indptr)[kill]
            # the slots lo[i] .. lo[i] + count[i] - 1 of every killed vertex
            slots = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
            deg -= np.bincount(g.indices[slots], minlength=g.n)
            kill = np.flatnonzero(alive & (deg < k))
        return np.flatnonzero(alive)
    seq = np.asarray(order, dtype=np.int64)
    if seq.shape[0] != g.n or not np.array_equal(np.sort(seq), np.arange(g.n)):
        raise ValueError("order must be a permutation of all vertices")
    deg = g.degrees().astype(np.int64)
    progress = True
    while progress:
        progress = False
        for v in seq:
            if alive[v] and deg[v] < k:
                alive[v] = False
                deg[g.neighbors(v)] -= 1
                progress = True
    return np.flatnonzero(alive)


def kernelize(g: Graph) -> KernelResult:
    """Seed a greedy clique, then peel away everything too sparse to beat it.

    A vertex inside a clique of size >= |seed| has at least |seed| - 1
    neighbors, so peeling at threshold |seed| - 1 keeps the seed itself and
    every maximum clique while discarding the rest.  On a complete graph
    nothing is removed.  Reports phase times in ms.
    """
    t0 = time.perf_counter()
    seed = initial_clique(g)
    t1 = time.perf_counter()
    kernel = peel(g, int(seed.shape[0]) - 1)
    kmask = np.zeros(g.n, dtype=bool)
    kmask[kernel] = True
    edge_count = int(_live_degrees(g, kmask)[kernel].sum()) // 2
    t2 = time.perf_counter()
    timings = {"init": (t1 - t0) * 1e3, "kernel": (t2 - t1) * 1e3}
    return KernelResult(seed, kernel, edge_count, timings)
