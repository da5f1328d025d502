"""Maximum clique over co-bipartite edge-elimination orderings.

One pipeline, driven by `solve`: shrink the graph to a kernel, order the
kernel's edges so that each edge's common neighborhood among later edges
induces a co-bipartite graph, then solve one bipartite-complement
matching problem per edge.  The mode picks the ordering: geo sorts by
hyperbolic length, nogeo places edges greedily by testing them directly,
and baseline filters each edge's lens by length instead of ordering.
Graphs that admit no such ordering still yield a certified lower bound
plus the residual subgraph that would hide any larger clique.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import cosh_distance
from .graphs import Graph, induced_subgraph
from .kernel import kernelize
from .matching import (
    Bipartition,
    complement_bipartition,
    max_clique_cobipartite,
    quick_reject_cobipartite,
)

__all__ = [
    "EdgeOrdering",
    "CliqueOutcome",
    "oracle_max_clique",
    "build_cneeo_geometric",
    "build_cneeo_greedy",
    "validate_cneeo",
    "solve_with_cneeo",
    "solve",
]

ORACLE_LIMIT = 120
PHASES = ("init", "kernel", "cneeo", "const", "indep", "other", "total")


@dataclass(frozen=True)
class EdgeOrdering:
    """Edge sequence with the co-bipartite elimination property.

    `complete` is False when the greedy builder aborted; `edges` then holds
    only the placed prefix.
    """

    edges: np.ndarray  # shape (t, 2), endpoint pairs in scan order
    kind: str  # "length-sorted" or "greedy"
    complete: bool


@dataclass(frozen=True)
class CliqueOutcome:
    """A solve's clique and run report.

    `kernel_size` and `seed_size` come from the solve's own kernelize call;
    `solve_with_cneeo`, which scans the graph it is given, reports that
    graph as the kernel and no seed.
    """

    clique: np.ndarray  # vertex ids of the input graph, sorted
    omega_eval: int
    exact: bool
    residual_vertices: int
    residual_edges: int
    kernel_size: int
    seed_size: int
    timings: dict


def _finish_timings(timings: dict, total_ms: float) -> dict:
    out = {p: float(timings.get(p, 0.0)) for p in PHASES}
    out["total"] = total_ms
    out["other"] = max(total_ms - sum(out[p] for p in PHASES[:-2]), 0.0)
    return out


def oracle_max_clique(g: Graph) -> np.ndarray:
    """Exact maximum clique by branch and bound; small graphs only.

    Enumerates with a pivot on the largest candidate cover but prunes only
    branches strictly below the incumbent, so every maximum clique stays
    reachable and the lexicographically smallest one is returned.
    """
    if g.n > ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {ORACLE_LIMIT} vertices, got {g.n}")
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    adj = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    best = [0, ()]

    def expand(r: tuple, p: set, x: set):
        if not p and not x:
            rs = tuple(sorted(r))
            if len(rs) > best[0] or (len(rs) == best[0] and rs < best[1]):
                best[0], best[1] = len(rs), rs
            return
        if len(r) + len(p) < best[0]:
            return
        pivot = min(p | x)
        for u in sorted(p | x):
            if len(p & adj[u]) > len(p & adj[pivot]):
                pivot = u
        for v in sorted(p - adj[pivot]):
            expand(r + (v,), p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand((), set(range(g.n)), set())
    return np.asarray(best[1], dtype=np.int64)


class _LiveEdges:
    """Shared live-edge bookkeeping for edge-elimination scans.

    Holds one edge id per undirected edge, a per-adjacency-slot edge index,
    aliveness flags, and live degrees.  All scan drivers funnel edge
    removals through here so their neighborhood queries agree.
    """

    def __init__(self, g: Graph):
        self.g = g
        self.edges = g.edge_array()
        self.m = self.edges.shape[0]
        # The upper slots (u -> w, u < w) in CSR order are edge_array()'s
        # rows, so they number the edges.  A lower slot takes its mirror's
        # id; sorting the slots by (w, u) lists their mirrors in CSR order.
        src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        upper = src < g.indices
        upper_id = np.cumsum(upper) - 1
        mirror = np.lexsort((src, g.indices))
        self.slot_edge = np.where(upper, upper_id, upper_id[mirror])
        self.edge_alive = np.ones(self.m, dtype=bool)
        self.vert_alive = np.ones(g.n, dtype=bool)
        self.live_deg = g.degrees().astype(np.int64)

    def edge_id(self, u: int, v: int) -> int:
        lo, hi = self.g.indptr[u], self.g.indptr[u + 1]
        pos = lo + int(np.searchsorted(self.g.indices[lo:hi], v))
        if pos >= hi or self.g.indices[pos] != v:
            raise KeyError(f"no edge ({u}, {v})")
        return int(self.slot_edge[pos])

    def live_neighbors(self, u: int) -> np.ndarray:
        lo, hi = self.g.indptr[u], self.g.indptr[u + 1]
        nb = self.g.indices[lo:hi]
        keep = self.edge_alive[self.slot_edge[lo:hi]] & self.vert_alive[nb]
        return nb[keep]

    def live_common(self, u: int, v: int) -> np.ndarray:
        return np.intersect1d(
            self.live_neighbors(u), self.live_neighbors(v), assume_unique=True
        )

    def consume(self, eid: int) -> None:
        if self.edge_alive[eid]:
            self.edge_alive[eid] = False
            u, v = self.edges[eid]
            self.live_deg[u] -= 1
            self.live_deg[v] -= 1

    def delete_vertex(self, w: int) -> list:
        """Remove w and its live edges; returns the killed edge ids."""
        self.vert_alive[w] = False
        lo, hi = self.g.indptr[w], self.g.indptr[w + 1]
        eids = self.slot_edge[lo:hi]
        killed = [int(e) for e in eids[self.edge_alive[eids]]]
        for e in killed:
            self.consume(e)
        return killed

    def live_edge_count(self) -> int:
        return int(self.edge_alive.sum())

    def residuals(self) -> tuple:
        v_left = int((self.vert_alive & (self.live_deg > 0)).sum())
        return v_left, self.live_edge_count()


def _test_lens(g: Graph, members: np.ndarray) -> tuple[Graph, np.ndarray, Bipartition | None]:
    """The co-bipartite test of the lens on `members`.

    Returns (sub, ids, split): the induced subgraph, its original ids, and
    the complement bipartition, or None in its place when the lens is not
    co-bipartite.
    """
    sub, ids = induced_subgraph(g, members)
    if quick_reject_cobipartite(sub):
        return sub, ids, None
    split = complement_bipartition(sub)
    return sub, ids, split if isinstance(split, Bipartition) else None


def _solve_lens(g: Graph, members: np.ndarray, timings: dict) -> np.ndarray | None:
    """Maximum clique of the subgraph induced on `members`, or None.

    None means the subgraph is not co-bipartite.  The two scan endpoints
    are not part of `members`; being adjacent to all of it, they extend
    whatever clique comes back.
    """
    t0 = time.perf_counter()
    sub, ids, split = _test_lens(g, members)
    t1 = time.perf_counter()
    timings["const"] += (t1 - t0) * 1e3
    if split is None:
        return None
    local = max_clique_cobipartite(sub, split)
    timings["indep"] += (time.perf_counter() - t1) * 1e3
    return ids[local]


def _prune_vertex(live: _LiveEdges, w: int, threshold: int, on_death=None) -> None:
    """Cascade-delete w and any neighbor whose live degree drops below threshold."""
    stack = [w]
    while stack:
        x = stack.pop()
        if not live.vert_alive[x]:
            continue
        for eid in live.delete_vertex(x):
            if on_death is not None:
                on_death(eid)
            a, b = live.edges[eid]
            for y in (int(a), int(b)):
                if y != x and live.vert_alive[y] and live.live_deg[y] < threshold:
                    stack.append(y)


class _NotCneeo(RuntimeError):
    """A scanned lens is not co-bipartite, so the ordering is not a CNEEO."""


def solve_with_cneeo(g: Graph, L: EdgeOrdering, variant: str = "opt") -> CliqueOutcome:
    """Scan a complete ordering, solving one co-bipartite problem per edge.

    Variants prune work, never answers: red solves every subproblem; skip
    lazily drops vertices whose kernel degree falls below the incumbent
    clique and skips subgraphs too small to beat it; opt additionally
    keeps degrees live as scanned edges are consumed, dropping vertices
    earlier.  A dropped vertex has degree below a known clique size, so no
    maximum clique loses a member.
    """
    if variant not in ("red", "skip", "opt"):
        raise ValueError(f"unknown variant {variant!r}")
    if not L.complete:
        raise ValueError("solve_with_cneeo requires a complete ordering")
    t_start = time.perf_counter()
    timings = {"const": 0.0, "indep": 0.0}
    live = _LiveEdges(g)
    static_deg = g.degrees().astype(np.int64)
    deleted = np.zeros(g.n, dtype=bool)

    best: np.ndarray = np.empty(0, dtype=np.int64)
    if g.n:
        best = np.asarray([0], dtype=np.int64)

    for u, v in L.edges:
        u, v = int(u), int(v)
        eid = live.edge_id(u, v)
        if not live.edge_alive[eid]:
            continue
        k = best.size
        if variant != "red":
            for w in (u, v):
                if not deleted[w]:
                    deg = live.live_deg[w] if variant == "opt" else static_deg[w]
                    if deg < k:
                        deleted[w] = True
                        if variant == "opt":
                            _prune_vertex(live, w, k)
                        else:
                            live.vert_alive[w] = False
            if deleted[u] or deleted[v]:
                live.consume(eid)
                continue
        members = live.live_common(u, v)
        if variant != "red":
            members = members[~deleted[members]]
            if members.size + 2 < k:
                live.consume(eid)
                continue
        found = _solve_lens(g, members, timings)
        if found is None:
            raise _NotCneeo("ordering is not a CNEEO: non-co-bipartite subgraph")
        if found.size + 2 > best.size:
            best = np.sort(np.concatenate([found, [u, v]]))
        live.consume(eid)

    total = (time.perf_counter() - t_start) * 1e3
    return CliqueOutcome(
        clique=best,
        omega_eval=int(best.size),
        exact=True,
        residual_vertices=0,
        residual_edges=0,
        kernel_size=g.n,
        seed_size=0,
        timings=_finish_timings(timings, total),
    )


def _edge_lengths(g: Graph, edges: np.ndarray) -> np.ndarray:
    r, phi = g.coords.r, g.coords.phi
    arg = cosh_distance(r[edges[:, 0]], phi[edges[:, 0]], r[edges[:, 1]], phi[edges[:, 1]])
    return np.arccosh(np.maximum(arg, 1.0))


def build_cneeo_geometric(g: Graph) -> EdgeOrdering:
    """Order all edges by non-increasing hyperbolic length, ties (u, v) lex."""
    if g.coords is None:
        raise ValueError("geometric ordering requires coordinates")
    edges = g.edge_array()
    if edges.size == 0:
        return EdgeOrdering(edges.reshape(0, 2), "length-sorted", True)
    lengths = _edge_lengths(g, edges)
    order = np.lexsort((edges[:, 1], edges[:, 0], -lengths))
    return EdgeOrdering(edges[order], "length-sorted", True)


class _GreedyScan:
    """FIFO active-edge loop shared by `build_cneeo_greedy` and nogeo's scan.

    Edges are tested in queue order; a passing edge is placed and removed.
    An edge's test depends only on the live neighborhoods of its
    endpoints, so a failed edge needs retesting exactly when some edge
    sharing one of its endpoints leaves the graph: every removal
    reactivates its incident edges.
    """

    def __init__(self, g: Graph):
        self.live = _LiveEdges(g)
        self.in_queue = np.ones(self.live.m, dtype=bool)
        self.queue = deque(range(self.live.m))
        self.placed: list = []

    def reactivate_incident(self, eid: int) -> None:
        for w in self.live.edges[eid]:
            lo, hi = self.live.g.indptr[w], self.live.g.indptr[w + 1]
            for other in self.live.slot_edge[lo:hi]:
                if self.live.edge_alive[other] and not self.in_queue[other]:
                    self.in_queue[other] = True
                    self.queue.append(int(other))

    def run(self, on_pass, prune_threshold, timings: dict) -> bool:
        """Greedy pass; returns True when every live edge got placed.

        `on_pass(u, v, sub, ids, split)` is invoked for each placed edge
        before it is consumed; `prune_threshold()` supplies the lazy
        deletion bound (0 never prunes).  Test time goes to
        `timings["cneeo"]`.
        """
        live = self.live
        while self.queue:
            eid = self.queue.popleft()
            self.in_queue[eid] = False
            if not live.edge_alive[eid]:
                continue
            u, v = (int(x) for x in live.edges[eid])
            k = prune_threshold()
            dead = False
            for w in (u, v):
                if live.vert_alive[w] and live.live_deg[w] < k:
                    _prune_vertex(live, w, k, self.reactivate_incident)
                    dead = True
            if dead and not live.edge_alive[eid]:
                continue
            t0 = time.perf_counter()
            sub, ids, split = _test_lens(live.g, live.live_common(u, v))
            timings["cneeo"] += (time.perf_counter() - t0) * 1e3
            if split is None:
                continue  # inactive until an incident edge dies
            on_pass(u, v, sub, ids, split)
            self.placed.append((u, v))
            live.consume(eid)
            self.reactivate_incident(eid)
        return live.live_edge_count() == 0


def build_cneeo_greedy(g: Graph) -> EdgeOrdering:
    """Greedy ordering construction; aborts when no remaining edge passes."""
    scan = _GreedyScan(g)
    complete = scan.run(lambda *placed: None, lambda: 0, {"cneeo": 0.0})
    edges = np.asarray(scan.placed, dtype=np.int64).reshape(-1, 2)
    return EdgeOrdering(edges, "greedy", complete)


def validate_cneeo(g: Graph, L: EdgeOrdering) -> bool:
    """Check the defining property at every position of a complete ordering."""
    if not L.complete:
        raise ValueError("validation requires a complete ordering")
    if L.edges.shape[0] != g.m:
        return False
    live = _LiveEdges(g)
    for u, v in L.edges:
        u, v = int(u), int(v)
        try:
            eid = live.edge_id(u, v)
        except KeyError:
            return False
        if not live.edge_alive[eid]:
            return False  # duplicate entry
        if _test_lens(g, live.live_common(u, v))[2] is None:
            return False
        live.consume(eid)
    return True


def _greedy_scan(kernel: Graph, k: int, timings: dict) -> tuple:
    """Greedily place the kernel's edges, solving each lens as it is placed.

    A placed edge's lens is solved with the test's bipartition, unless it
    is too small to beat the incumbent of size k.  The scan is complete
    when every edge was placed; otherwise the live edges left form the
    residual subgraph that would contain any clique larger than the
    reported one.
    """
    best = np.empty(0, dtype=np.int64)

    def on_pass(u, v, sub, ids, split):
        nonlocal best, k
        if sub.n + 2 < k:
            return
        t0 = time.perf_counter()
        local = max_clique_cobipartite(sub, split)
        timings["indep"] += (time.perf_counter() - t0) * 1e3
        if local.size + 2 > k:
            best = np.concatenate([ids[local], [u, v]])
            k = best.size

    scan = _GreedyScan(kernel)
    scan.run(on_pass, lambda: k, timings)
    return (best, *scan.live.residuals())


def _baseline_scan(kernel: Graph, k: int, timings: dict) -> tuple:
    """Per-edge lens solver: for each kernel edge, the vertices within its
    length of both endpoints form a co-bipartite set on unit-disk inputs.

    Edges whose lens is not co-bipartite form the residual.
    """
    r, phi = kernel.coords.r, kernel.coords.phi
    best = np.empty(0, dtype=np.int64)
    failed: list = []
    for u, v in kernel.edge_array():
        u, v = int(u), int(v)
        t0 = time.perf_counter()
        # compare in the cosh domain: monotone, no inverse trig needed
        cosh_len = cosh_distance(r[u], phi[u], r[v], phi[v])
        common = np.intersect1d(kernel.neighbors(u), kernel.neighbors(v), assume_unique=True)
        near_u = cosh_distance(r[common], phi[common], r[u], phi[u]) <= cosh_len
        near_v = cosh_distance(r[common], phi[common], r[v], phi[v]) <= cosh_len
        keep = common[near_u & near_v]
        timings["const"] += (time.perf_counter() - t0) * 1e3
        found = _solve_lens(kernel, keep, timings)
        if found is None:
            failed.append((u, v))
        elif found.size + 2 > k:
            best = np.concatenate([found, [u, v]])
            k = best.size
    return best, np.unique(np.asarray(failed, dtype=np.int64)).size, len(failed)


def _geo_scan(kernel: Graph, k: int, timings: dict, variant: str) -> tuple:
    """Scan the kernel's length-sorted ordering with `solve_with_cneeo`.

    Coordinates not drawn from the threshold model can make a lens
    non-co-bipartite; the kernel then goes to the greedy scan instead,
    and the result is exact only if that scan completes.
    """
    t0 = time.perf_counter()
    L = build_cneeo_geometric(kernel)
    timings["cneeo"] += (time.perf_counter() - t0) * 1e3
    try:
        inner = solve_with_cneeo(kernel, L, variant)
    except _NotCneeo:
        return _greedy_scan(kernel, k, timings)
    timings["const"] += inner.timings["const"]
    timings["indep"] += inner.timings["indep"]
    return inner.clique, 0, 0


def _is_clique(g: Graph, ids: np.ndarray) -> bool:
    """Whether the distinct vertices `ids` are pairwise adjacent in g."""
    hits = sum(int(np.isin(g.neighbors(int(u)), ids).sum()) for u in ids)
    return hits == ids.size * (ids.size - 1)


def solve(g: Graph, mode: str = "geo", variant: str = "opt") -> CliqueOutcome:
    """Maximum clique of g through the kernel and one lens per kernel edge.

    Modes: geo scans the length-sorted ordering (variants red, skip, opt;
    see `solve_with_cneeo`); nogeo places edges greedily; baseline solves
    each edge's length-filtered lens.  geo and baseline need coordinates.
    The result is the greedy seed clique unless the scan found a larger
    one, and it is exact when the scan left no residual edge.
    """
    scans = {
        "geo": lambda kernel, k, timings: _geo_scan(kernel, k, timings, variant),
        "nogeo": _greedy_scan,
        "baseline": _baseline_scan,
    }
    if mode not in scans:
        raise ValueError(f"unknown mode {mode!r}")
    if mode != "nogeo" and g.coords is None:
        raise ValueError(f"{mode} mode requires coordinates")

    t_start = time.perf_counter()
    kr = kernelize(g)
    timings = {"init": kr.timings["init"], "kernel": kr.timings["kernel"],
               "cneeo": 0.0, "const": 0.0, "indep": 0.0}
    sub, ids = induced_subgraph(g, kr.kernel)
    found, v_left, e_left = scans[mode](sub, int(kr.initial_clique.size), timings)

    best = kr.initial_clique
    if found.size > best.size:
        best = np.sort(ids[found])
    assert _is_clique(g, best), "solver returned a non-clique"
    total = (time.perf_counter() - t_start) * 1e3
    return CliqueOutcome(
        clique=best,
        omega_eval=int(best.size),
        exact=e_left == 0,
        residual_vertices=v_left,
        residual_edges=e_left,
        kernel_size=int(kr.kernel.size),
        seed_size=int(kr.initial_clique.size),
        timings=_finish_timings(timings, total),
    )
