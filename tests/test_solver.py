"""Solver pipeline tests: ordering builders, scan variants, heuristic bounds.

The reference answers come from a test-local clique enumerator kept
deliberately dumber than the library oracle.
"""

from itertools import combinations

import numpy as np
import pytest

from hyperclique.generator import generate
from hyperclique.graphs import Graph, induced_subgraph
from hyperclique.matching import Bipartition, complement_bipartition
from hyperclique.solver import (
    EdgeOrdering,
    build_cneeo_geometric,
    build_cneeo_greedy,
    oracle_max_clique,
    solve,
    solve_with_cneeo,
    validate_cneeo,
)

PHASE_KEYS = {"init", "kernel", "cneeo", "const", "indep", "other", "total"}


def _from_pairs(n, pairs):
    return Graph.from_edges(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))


def _complete(n):
    return _from_pairs(n, list(combinations(range(n), 2)))


def _cycle(n):
    return _from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return _from_pairs(10, outer + spokes + inner)


def _k333():
    classes = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    pairs = [(u, v) for a, b in combinations(classes, 2) for u in a for v in b]
    return _from_pairs(9, pairs)


def _random_graph(rng, n, p):
    pairs = [(i, j) for i, j in combinations(range(n), 2) if rng.random() < p]
    return _from_pairs(n, pairs)


def _clique_number(g):
    """Plain clique enumeration, no pivoting: the second opinion."""
    adj = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    best = 0

    def grow(size, cand):
        nonlocal best
        if size > best:
            best = size
        for v in sorted(cand):
            grow(size + 1, cand & adj[v])
            cand = cand - {v}

    grow(0, set(range(g.n)))
    return best


def _check_clique(g, ids):
    ids = np.asarray(ids)
    for i, u in enumerate(ids[:-1]):
        assert np.isin(ids[i + 1:], g.neighbors(int(u))).all()


# ---------------------------------------------------------------------------
# oracle


def test_oracle_small_named_graphs():
    assert oracle_max_clique(_complete(7)).tolist() == [0, 1, 2, 3, 4, 5, 6]
    assert oracle_max_clique(_cycle(5)).tolist() == [0, 1]
    assert oracle_max_clique(_petersen()).size == 2
    assert oracle_max_clique(_from_pairs(3, [])).size == 1


def test_oracle_prefers_lexicographically_smallest():
    # two disjoint triangles; {0, 2, 4} beats {1, 3, 5}
    g = _from_pairs(6, [(0, 2), (2, 4), (0, 4), (1, 3), (3, 5), (1, 5)])
    assert oracle_max_clique(g).tolist() == [0, 2, 4]


def test_oracle_matches_enumeration():
    rng = np.random.default_rng(7)
    for _ in range(150):
        g = _random_graph(rng, int(rng.integers(1, 16)), float(rng.uniform(0.1, 0.9)))
        found = oracle_max_clique(g)
        _check_clique(g, found)
        assert found.size == _clique_number(g)


def test_oracle_rejects_large_input():
    g = _from_pairs(121, [(0, 1)])
    with pytest.raises(ValueError):
        oracle_max_clique(g)


# ---------------------------------------------------------------------------
# ordering builders and validation


def test_geometric_ordering_sorted_by_length():
    g = generate(300, 0.75, 31, avg_degree=8.0)
    L = build_cneeo_geometric(g)
    assert L.kind == "length-sorted" and L.complete
    assert L.edges.shape == (g.m, 2)
    from hyperclique.solver import _edge_lengths

    lengths = _edge_lengths(g, L.edges)
    assert (np.diff(lengths) <= 1e-12).all()


def test_geometric_ordering_validates_and_reverse_fails():
    g = generate(400, 0.75, 7000, avg_degree=10.0)
    L = build_cneeo_geometric(g)
    assert validate_cneeo(g, L)
    rev = EdgeOrdering(L.edges[::-1].copy(), L.kind, True)
    assert not validate_cneeo(g, rev)
    # the last edge swapped for a pair that is not an edge
    u = int(L.edges[-1, 0])
    far = np.setdiff1d(np.arange(g.n), np.append(g.neighbors(u), u))[0]
    miss = L.edges.copy()
    miss[-1] = (u, far)
    assert not validate_cneeo(g, EdgeOrdering(miss, L.kind, True))


def test_greedy_completes_on_cycle_and_validates():
    g = _cycle(5)
    L = build_cneeo_greedy(g)
    assert L.complete and L.edges.shape[0] == 5
    assert validate_cneeo(g, L)
    assert solve_with_cneeo(g, L, "red").omega_eval == 2


def test_greedy_output_always_validates():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = _random_graph(rng, int(rng.integers(4, 25)), float(rng.uniform(0.1, 0.6)))
        L = build_cneeo_greedy(g)
        if L.complete:
            assert validate_cneeo(g, L)


def test_validate_empty_graph():
    g = _from_pairs(0, [])
    assert validate_cneeo(g, build_cneeo_greedy(g))


def test_validate_rejects_wrong_edge_sets():
    g = _cycle(5)
    L = build_cneeo_greedy(g)
    short = EdgeOrdering(L.edges[:-1], "greedy", True)
    assert not validate_cneeo(g, short)
    dup = EdgeOrdering(np.vstack([L.edges[:-1], L.edges[:1]]), "greedy", True)
    assert not validate_cneeo(g, dup)


def test_greedy_aborts_on_tripartite_gadget():
    # every edge's common neighborhood is an independent 3-set, whose
    # complement is a triangle, so no edge ever passes
    g = _k333()
    L = build_cneeo_greedy(g)
    assert not L.complete and L.edges.shape[0] == 0
    for u, v in g.edge_array():
        common = np.intersect1d(g.neighbors(int(u)), g.neighbors(int(v)))
        sub, _ = induced_subgraph(g, common)
        assert not isinstance(complement_bipartition(sub), Bipartition)


def test_greedy_abort_after_prefix():
    # pendant vertex 9 hangs off the gadget; only its two edges place
    pairs = _k333().edge_array().tolist() + [[0, 9], [3, 9]]
    g = _from_pairs(10, pairs)
    L = build_cneeo_greedy(g)
    assert not L.complete
    assert sorted(map(tuple, L.edges.tolist())) == [(0, 9), (3, 9)]


# ---------------------------------------------------------------------------
# exact solving


def test_complete_graph_any_order_gives_n():
    g = _complete(4)
    L = EdgeOrdering(g.edge_array(), "greedy", True)
    for variant in ("red", "skip", "opt"):
        out = solve_with_cneeo(g, L, variant)
        assert out.omega_eval == 4 and out.exact
        assert out.clique.tolist() == [0, 1, 2, 3]


def test_solve_with_cneeo_rejects_bad_input():
    g = _cycle(5)
    with pytest.raises(ValueError):
        solve_with_cneeo(g, EdgeOrdering(g.edge_array(), "greedy", False), "opt")
    with pytest.raises(ValueError):
        solve_with_cneeo(g, EdgeOrdering(g.edge_array(), "greedy", True), "fast")
    # an ordering that is not a CNEEO trips the scan invariant
    bad = _k333()
    with pytest.raises(RuntimeError):
        solve_with_cneeo(bad, EdgeOrdering(bad.edge_array(), "greedy", True), "red")


def test_solve_dispatch_edge_cases():
    empty = _from_pairs(0, [])
    single = _from_pairs(1, [])
    for mode in ("nogeo",):
        assert solve(empty, mode).omega_eval == 0
        assert solve(empty, mode).exact
        assert solve(single, mode).omega_eval == 1
    with pytest.raises(ValueError):
        solve(_cycle(5), "geo")  # no coordinates
    with pytest.raises(ValueError):
        solve(_cycle(5), "baseline")
    with pytest.raises(ValueError):
        solve(_cycle(5), "fancy")


def test_all_modes_agree_with_oracle_on_hrgs():
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = int(rng.integers(20, 81))
        alpha = float(rng.choice([0.6, 0.75, 0.9]))
        dbar = float(rng.choice([4.0, 10.0]))
        g = generate(n, alpha, int(rng.integers(2**32)), avg_degree=dbar)
        expect = oracle_max_clique(g).size
        for mode, variant in [
            ("geo", "red"),
            ("geo", "skip"),
            ("geo", "opt"),
            ("nogeo", "opt"),
            ("baseline", "opt"),
        ]:
            out = solve(g, mode, variant)
            assert out.exact, (mode, variant, n)
            assert out.omega_eval == expect, (mode, variant, n, out.omega_eval, expect)
            assert out.clique.size == expect
            _check_clique(g, out.clique)
            assert out.residual_vertices == 0 and out.residual_edges == 0


def test_geo_falls_back_on_permuted_coords():
    # coordinates shuffled among the vertices (same edges) break the
    # length-sorted ordering; geo then scans the kernel greedily
    g = generate(400, 0.6, 3, avg_degree=20.0)
    expect = solve(g, "geo").omega_eval
    for seed in range(3):
        perm = np.random.default_rng(seed).permutation(g.n)
        h = Graph(g.n, g.indptr, g.indices, g.coords[perm])
        out = solve(h, "geo")
        _check_clique(h, out.clique)
        assert out.exact == (out.residual_edges == 0)
        if out.exact:
            assert out.omega_eval == expect


def test_solve_is_deterministic():
    g = generate(500, 0.75, 99, avg_degree=10.0)
    a = solve(g, "geo", "opt")
    b = solve(g, "geo", "opt")
    assert a.omega_eval == b.omega_eval
    assert a.clique.tolist() == b.clique.tolist()


def test_timings_shape():
    g = generate(200, 0.75, 5, avg_degree=8.0)
    for mode in ("geo", "nogeo", "baseline"):
        out = solve(g, mode)
        assert set(out.timings) == PHASE_KEYS
        assert all(v >= 0.0 for v in out.timings.values())
        named = sum(out.timings[k] for k in ("init", "kernel", "cneeo", "const", "indep"))
        assert out.timings["total"] >= named - 1e-6


def test_variants_agree_at_moderate_scale():
    g = generate(3000, 0.75, 77, avg_degree=10.0)
    sizes = {solve(g, "geo", v).omega_eval for v in ("red", "skip", "opt")}
    sizes.add(solve(g, "nogeo").omega_eval)
    sizes.add(solve(g, "baseline").omega_eval)
    assert len(sizes) == 1


# ---------------------------------------------------------------------------
# heuristic accounting


def test_heuristic_bounds_on_random_graphs():
    rng = np.random.default_rng(40)
    for _ in range(40):
        n = int(rng.integers(8, 61))
        p = float(rng.choice([0.2, 0.5]))
        g = _random_graph(rng, n, p)
        out = solve(g, "nogeo")
        w = _clique_number(g)
        _check_clique(g, out.clique)
        assert out.omega_eval <= w
        if out.exact:
            assert out.omega_eval == w
            assert out.residual_vertices == 0 and out.residual_edges == 0
        else:
            assert out.residual_edges > 0


def test_heuristic_residuals_on_abort_gadget():
    out = solve(_k333(), "nogeo")
    assert out.omega_eval == 3  # one vertex per class
    assert not out.exact
    assert out.residual_vertices == 9
    assert out.residual_edges == 27
