"""Maximum cliques of co-bipartite graphs via the bipartite complement.

A graph is co-bipartite when its complement is bipartite.  Its maximum
clique is the complement's maximum independent set, which Koenig's theorem
recovers from a maximum matching.  The graphs solved here are lenses of a
kernel, at most a few hundred vertices, and each function takes one as
its dense boolean adjacency matrix (symmetric, false diagonal): a block
of the kernel's own matrix.  The 2-coloring walks the complement one BFS
level at a time, and the matching runs scipy's compiled Hopcroft-Karp on
its cross block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Bipartition",
    "OddCycle",
    "min_cobipartite_edges",
    "quick_reject_cobipartite",
    "complement_bipartition",
    "max_clique_cobipartite",
]


@dataclass(frozen=True)
class Bipartition:
    """2-coloring of the complement: every complement edge crosses sides."""

    side: np.ndarray  # bool per vertex; True = side B


@dataclass(frozen=True)
class OddCycle:
    """Witness that the complement is not bipartite.

    `vertices` lists an odd closed walk of the complement in cycle order:
    consecutive entries, and the wrap-around pair, are non-adjacent in the
    original graph.
    """

    vertices: np.ndarray


def min_cobipartite_edges(nv: int) -> int:
    """Fewest edges any co-bipartite graph on nv vertices can have.

    Two disjoint cliques as balanced as possible and no cross edges.
    """
    lo, hi = nv // 2, (nv + 1) // 2
    return lo * (lo - 1) // 2 + hi * (hi - 1) // 2


def quick_reject_cobipartite(adj: np.ndarray) -> bool:
    """True when the edge count alone rules out co-bipartiteness."""
    return np.count_nonzero(adj) // 2 < min_cobipartite_edges(adj.shape[0])


def complement_bipartition(adj: np.ndarray) -> Bipartition | OddCycle:
    """2-color the complement of `adj`, or return an odd complement cycle.

    BFS over the complement one whole level at a time, roots in id order
    and on side False.  A BFS edge joins equal or adjacent levels, so the
    complement is bipartite exactly when no level holds a complement edge;
    such an edge closes an odd cycle through the two BFS ancestries.
    Vertices adjacent to every other vertex are their own components and
    are colored up front.
    """
    n = adj.shape[0]
    comp = ~adj
    np.fill_diagonal(comp, False)
    side = np.zeros(n, dtype=bool)
    colored = ~comp.any(axis=1)
    parent = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    while not colored.all():
        level = np.flatnonzero(~colored)[:1]
        colored[level] = True
        d = 0
        while level.size:
            rows = comp[level]
            inner = np.argwhere(rows[:, level])
            if inner.size:
                u, w = level[inner[0]]
                return OddCycle(_odd_cycle(parent, depth, int(u), int(w)))
            reach = rows & ~colored
            fresh = np.flatnonzero(reach.any(axis=0))
            d += 1
            parent[fresh] = level[reach[:, fresh].argmax(axis=0)]
            depth[fresh] = d
            side[fresh] = d % 2 == 1
            colored[fresh] = True
            level = fresh
    return Bipartition(side)


def _odd_cycle(parent: np.ndarray, depth: np.ndarray, u: int, w: int) -> np.ndarray:
    """Cycle through the BFS tree paths of u and w plus the edge uw."""
    up, wp = [u], [w]
    while depth[up[-1]] > depth[wp[-1]]:
        up.append(int(parent[up[-1]]))
    while depth[wp[-1]] > depth[up[-1]]:
        wp.append(int(parent[wp[-1]]))
    while up[-1] != wp[-1]:
        up.append(int(parent[up[-1]]))
        wp.append(int(parent[wp[-1]]))
    # both paths now end at the meet vertex; keep it once
    cycle = up + wp[-2::-1]
    return np.asarray(cycle, dtype=np.int64)


def max_clique_cobipartite(adj: np.ndarray, split: Bipartition | None = None) -> np.ndarray:
    """Maximum clique of a co-bipartite graph, as sorted vertex ids.

    Koenig: a minimum vertex cover of the bipartite complement is the
    unreached left side plus the reached right side of an alternating BFS
    from free left vertices; the clique is everything outside the cover.
    That cover is the same for every maximum matching, so the clique does
    not depend on which one the matcher returns.  Callers that already
    hold the complement bipartition can pass it in.  A bipartition with
    an empty side B means the graph is complete: it is its own clique.
    Raises ValueError when the complement is not bipartite.
    """
    # scipy's import is paid by the first lens, not by the package import
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    if split is None:
        split = complement_bipartition(adj)
    if isinstance(split, OddCycle):
        raise ValueError("graph is not co-bipartite")
    if not split.side.any():
        return np.arange(adj.shape[0], dtype=np.int64)
    left = np.flatnonzero(~split.side)
    right = np.flatnonzero(split.side)
    cross = ~adj[np.ix_(left, right)]
    indptr = np.zeros(left.size + 1, dtype=np.int32)
    np.cumsum(cross.sum(axis=1), out=indptr[1:])
    cols = np.nonzero(cross)[1].astype(np.int32)
    # CSR arrays built directly: csr_matrix(cross) costs more than the matching
    graph = csr_matrix((np.ones(cols.size, dtype=np.int8), cols, indptr), shape=cross.shape)
    mate_of_left = maximum_bipartite_matching(graph, perm_type="column")
    matched = mate_of_left >= 0
    mate_of_right = np.full(right.size, -1, dtype=np.int64)
    mate_of_right[mate_of_left[matched]] = np.flatnonzero(matched)

    reached_left = ~matched
    reached_right = np.zeros(right.size, dtype=bool)
    frontier = np.flatnonzero(reached_left)
    while frontier.size:
        # complement edges lead left -> right, matching edges right -> left;
        # a maximum matching leaves no reachable right vertex free, and a
        # matched left vertex is reached only through its own mate
        fresh = cross[frontier].any(axis=0) & ~reached_right
        reached_right |= fresh
        frontier = mate_of_right[fresh]
        reached_left[frontier] = True
    keep = np.zeros(adj.shape[0], dtype=bool)
    keep[left[reached_left]] = True
    keep[right[~reached_right]] = True
    clique = np.flatnonzero(keep)
    if __debug__:
        inside = adj[np.ix_(clique, clique)]
        assert np.count_nonzero(inside) == clique.size * (clique.size - 1), \
            "cover recovery produced a non-clique"
    return clique
