"""Co-bipartite engine tests against exhaustive and brute-force oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperclique
from hyperclique.graphs import Graph
from hyperclique.matching import (
    Bipartition,
    OddCycle,
    complement_bipartition,
    max_clique_cobipartite,
    min_cobipartite_edges,
    quick_reject_cobipartite,
)


def _adj_sets(g: Graph):
    return [set(g.neighbors(v).tolist()) for v in range(g.n)]


def _is_clique(adj, members):
    return all(v in adj[u] for i, u in enumerate(members) for v in members[i + 1:])


def _cobipartite_oracle(g: Graph) -> bool:
    """Exhaustive search over all 2-clique vertex splits."""
    if g.n == 0:
        return True
    adj = _adj_sets(g)
    rest = range(1, g.n)
    for mask in range(1 << (g.n - 1)):
        one = [0] + [v for v in rest if mask >> (v - 1) & 1]
        two = [v for v in rest if not mask >> (v - 1) & 1]
        if _is_clique(adj, one) and _is_clique(adj, two):
            return True
    return False


def _matching_oracle(lefts, comp):
    """Single augmenting-path matching, O(V * E)."""
    pair = {}

    def try_augment(l, seen):
        for r in comp[l]:
            if r in seen:
                continue
            seen.add(r)
            if r not in pair or try_augment(pair[r], seen):
                pair[r] = l
                return True
        return False

    size = 0
    for l in lefts:
        if try_augment(l, set()):
            size += 1
    return size


def _bk_max_clique(adj, n) -> int:
    """Pivoting Bron-Kerbosch over Python sets; independent of the package."""
    best = [0]

    def expand(r, p, x):
        if not p and not x:
            best[0] = max(best[0], len(r))
            return
        if len(r) + len(p) <= best[0]:
            return
        pivot = max(p | x, key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(n)), set())
    return best[0]


def _random_graph(rng, n, p) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _complete(n) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _cycle(n) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_min_cobipartite_edges():
    assert min_cobipartite_edges(0) == 0
    assert min_cobipartite_edges(1) == 0
    assert min_cobipartite_edges(4) == 2
    assert min_cobipartite_edges(6) == 6
    assert min_cobipartite_edges(7) == 9


def test_quick_reject_basics():
    assert quick_reject_cobipartite(Graph.from_edges(6, []).dense())
    assert not quick_reject_cobipartite(_complete(6).dense())


def test_quick_reject_never_false_positive():
    # every quick rejection must be confirmed by the exhaustive oracle
    rng = np.random.default_rng(7)
    rejected = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        g = _random_graph(rng, n, float(rng.uniform(0.1, 0.9)))
        if quick_reject_cobipartite(g.dense()):
            rejected += 1
            assert not _cobipartite_oracle(g)
    assert rejected > 50


def test_bipartition_c4():
    # C4 is K4 minus a perfect matching; complement = the two matched pairs
    g = _cycle(4)
    res = complement_bipartition(g.dense())
    assert isinstance(res, Bipartition)
    side = res.side
    assert side[0] != side[2] and side[1] != side[3]


def test_bipartition_c5_certificate():
    res = complement_bipartition(_cycle(5).dense())
    assert isinstance(res, OddCycle)
    cyc = res.vertices
    assert cyc.size % 2 == 1 and cyc.size >= 3
    g = _cycle(5)
    for a, b in zip(cyc, np.roll(cyc, -1)):
        assert a != b and not g.has_edge(int(a), int(b))


def test_bipartition_agrees_with_oracle():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        g = _random_graph(rng, n, float(rng.uniform(0.2, 0.95)))
        res = complement_bipartition(g.dense())
        ok = isinstance(res, Bipartition)
        assert ok == _cobipartite_oracle(g)
        if ok:
            hits += 1
            side = res.side
            for u in range(n):
                for v in range(u + 1, n):
                    if not g.has_edge(u, v):
                        assert side[u] != side[v]
        else:
            cyc = res.vertices
            assert cyc.size % 2 == 1
            for a, b in zip(cyc, np.roll(cyc, -1)):
                assert not g.has_edge(int(a), int(b))
    assert 100 < hits < 900


def _cobipartite_from_cross(a, b, comp) -> Graph:
    """Left clique 0..a-1, right clique a..a+b-1; the cross complement
    (the non-adjacent left/right pairs) is the bipartite graph `comp`."""
    edges = [(u, v) for u in range(a) for v in range(u + 1, a)]
    edges += [(u, v) for u in range(a, a + b) for v in range(u + 1, a + b)]
    edges += [(l, r) for l in range(a) for r in range(a, a + b) if r not in comp[l]]
    return Graph.from_edges(a + b, edges)


def test_cross_matching_trivia():
    # Koenig: maximum clique = a + b - (maximum matching of the cross complement)
    empty = {l: set() for l in range(3)}
    assert max_clique_cobipartite(_cobipartite_from_cross(3, 3, empty).dense()).size == 6
    full = {l: set(range(3, 6)) for l in range(3)}
    assert max_clique_cobipartite(_cobipartite_from_cross(3, 3, full).dense()).size == 3


def test_cross_matching_matches_oracle():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        a = int(rng.integers(0, 21))
        b = int(rng.integers(0, 21))
        p = float(rng.uniform(0.05, 0.6))
        comp = {
            l: np.flatnonzero(rng.random(b) < p) + a
            for l in range(a)
        }
        nu = _matching_oracle(range(a), {l: c.tolist() for l, c in comp.items()})
        g = _cobipartite_from_cross(a, b, {l: set(c.tolist()) for l, c in comp.items()})
        clique = max_clique_cobipartite(g.dense())
        assert _is_clique(_adj_sets(g), clique.tolist())
        assert clique.size == a + b - nu


def test_max_clique_cobipartite_trivia():
    assert max_clique_cobipartite(_complete(5).dense()).size == 5
    assert max_clique_cobipartite(_cycle(4).dense()).size == 2
    with pytest.raises(ValueError):
        max_clique_cobipartite(_cycle(5).dense())


def test_max_clique_cobipartite_vs_bk():
    rng = np.random.default_rng(17)
    for _ in range(500):
        n = int(rng.integers(2, 31))
        split = rng.random(n) < rng.uniform(0.2, 0.8)
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if split[u] == split[v] or rng.random() < 0.35:
                    edges.append((u, v))
        g = Graph.from_edges(n, edges)
        clique = max_clique_cobipartite(g.dense())
        adj = [set(g.neighbors(v).tolist()) for v in range(g.n)]
        assert _is_clique(adj, clique.tolist())
        assert clique.size == _bk_max_clique(adj, n)


def test_clique_plus_cover_is_everything():
    rng = np.random.default_rng(19)
    for _ in range(200):
        n = int(rng.integers(2, 26))
        split = rng.random(n) < 0.5
        edges = []
        for u in range(n):
            for v in range(u + 1, n):
                if split[u] == split[v] or rng.random() < 0.5:
                    edges.append((u, v))
        g = Graph.from_edges(n, edges)
        res = complement_bipartition(g.dense())
        assert isinstance(res, Bipartition)
        left = np.flatnonzero(~res.side)
        right = np.flatnonzero(res.side)
        comp = {
            int(l): right[~np.isin(right, g.neighbors(int(l)), assume_unique=True)].tolist()
            for l in left
        }
        clique = max_clique_cobipartite(g.dense())
        assert clique.size + _matching_oracle(left.tolist(), comp) == n


def test_package_import_leaves_scipy_unloaded():
    # scipy costs about as much to import as the whole package; only the
    # first lens solve or C solve should pay for it
    src = str(Path(hyperclique.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, hyperclique; print(sorted(m for m in sys.modules if m[:5] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"
