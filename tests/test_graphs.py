"""Graph container, TSV ingestion, and dataset cache behavior."""

import gzip
import io
import urllib.request

import numpy as np
import pytest

from hyperclique.graphs import (
    Graph,
    common_neighbors,
    fetch_snap,
    induced_subgraph,
    load_coords,
    load_edge_list,
    load_graph,
    write_coords,
    write_edge_list,
)
from hyperclique.generator import generate


def _random_graph(rng, n, p):
    mask = rng.random((n, n)) < p
    us, vs = np.nonzero(np.triu(mask, 1))
    return Graph.from_edges(n, np.column_stack([us, vs]))


def test_from_edges_normalizes():
    # duplicates in both directions plus a loop collapse to two edges
    edges = np.array([[0, 1], [1, 0], [0, 1], [2, 2], [1, 2]])
    g = Graph.from_edges(3, edges)
    assert g.n == 3 and g.m == 2
    assert g.neighbors(1).tolist() == [0, 2]
    assert not g.has_edge(2, 2)


def test_from_edges_range_check():
    with pytest.raises(ValueError):
        Graph.from_edges(2, np.array([[0, 5]]))


def test_adjacency_invariants():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = _random_graph(rng, int(rng.integers(2, 60)), 0.3)
        degs = g.degrees()
        assert degs.sum() == 2 * g.m
        for v in range(g.n):
            nb = g.neighbors(v)
            assert (np.diff(nb) > 0).all()  # sorted, duplicate-free
            assert v not in nb
            for w in nb:
                assert g.has_edge(int(w), v)  # symmetry


def test_edge_array_shape_and_order():
    g = Graph.from_edges(4, np.array([[2, 1], [0, 3], [0, 1]]))
    assert g.edge_array().tolist() == [[0, 1], [0, 3], [1, 2]]
    assert list(g.edges()) == [(0, 1), (0, 3), (1, 2)]


def test_common_neighbors_trivia():
    tri = Graph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))
    assert common_neighbors(tri, 0, 1).tolist() == [2]
    star = Graph.from_edges(6, np.array([[0, i] for i in range(1, 6)]))
    assert common_neighbors(star, 1, 2).tolist() == [0]


def test_common_neighbors_matches_set_oracle():
    rng = np.random.default_rng(17)
    g = _random_graph(rng, 200, 0.1)
    adj = [set(g.neighbors(v).tolist()) for v in range(g.n)]
    for _ in range(1000):
        u, v = rng.choice(200, size=2, replace=False)
        expect = sorted(adj[int(u)] & adj[int(v)])
        assert common_neighbors(g, int(u), int(v)).tolist() == expect


def test_common_neighbors_mask_filter():
    tri = Graph.from_edges(4, np.array([[0, 1], [1, 2], [0, 2], [0, 3], [1, 3]]))
    mask = np.array([True, True, False, True])
    assert common_neighbors(tri, 0, 1, within=mask).tolist() == [3]


def test_induced_subgraph_trivia():
    k5 = Graph.from_edges(5, np.array([(i, j) for i in range(5) for j in range(i + 1, 5)]))
    sub, ids = induced_subgraph(k5, np.arange(5))
    assert sub.m == k5.m and ids.tolist() == [0, 1, 2, 3, 4]
    sub, ids = induced_subgraph(k5, np.array([1, 3, 4]))
    assert sub.n == 3 and sub.m == 3  # K3
    empty, _ = induced_subgraph(k5, np.array([], dtype=np.int64))
    assert empty.n == 0 and empty.m == 0


def test_induced_subgraph_preserves_adjacency():
    rng = np.random.default_rng(5)
    g = _random_graph(rng, 40, 0.25)
    keep = np.flatnonzero(rng.random(40) < 0.5)
    sub, ids = induced_subgraph(g, keep)
    for a in range(sub.n):
        for b in range(a + 1, sub.n):
            assert sub.has_edge(a, b) == g.has_edge(int(ids[a]), int(ids[b]))


def test_induced_subgraph_carries_coords():
    g = generate(50, 0.75, 8, avg_degree=6.0)
    sub, ids = induced_subgraph(g, np.arange(0, 50, 2))
    assert sub.coords is not None and len(sub.coords) == sub.n
    assert sub.coords.r[3] == g.coords.r[ids[3]]


def test_edge_list_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    g = _random_graph(rng, 30, 0.3)
    path = tmp_path / "g.tsv"
    write_edge_list(g, path)
    back = load_edge_list(path)
    assert back.n == g.n and back.m == g.m
    assert np.array_equal(back.indptr, g.indptr)
    assert np.array_equal(back.indices, g.indices)


def test_load_edge_list_normalization(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("# comment\n0 1\n1 0\n1 1\n")
    g = load_edge_list(path)
    assert g.n == 2 and g.m == 1  # loop endpoint kept as a vertex


def test_load_edge_list_remaps_sparse_ids(tmp_path):
    path = tmp_path / "raw.tsv"
    path.write_text("100 7\n7 42\n")
    g = load_edge_list(path)
    assert g.n == 3 and g.m == 2
    # sorted distinct ids 7, 42, 100 -> 0, 1, 2
    assert g.neighbors(0).tolist() == [1, 2]


def test_load_edge_list_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0 1\n2 x\n")
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list(path)
    path.write_text("0 1 2\n")
    with pytest.raises(ValueError, match="two fields"):
        load_edge_list(path)


def test_coords_round_trip(tmp_path):
    g = generate(64, 0.6, 4, avg_degree=6.0)
    epath, cpath = tmp_path / "e.tsv", tmp_path / "c.tsv"
    write_edge_list(g, epath)
    write_coords(g.coords, cpath)
    pts = load_coords(cpath)
    assert np.array_equal(pts.r, g.coords.r)
    assert np.array_equal(pts.phi, g.coords.phi)
    back = load_graph(epath, cpath)
    assert back.n == g.n and back.m == g.m and back.coords is not None


def test_load_graph_keeps_isolated_vertices(tmp_path):
    # coordinate file defines the universe; vertex 2 has no edges
    (tmp_path / "e.tsv").write_text("0 1\n")
    (tmp_path / "c.tsv").write_text("0\t1.0\t0.5\n1\t2.0\t1.5\n2\t3.0\t2.5\n")
    g = load_graph(tmp_path / "e.tsv", tmp_path / "c.tsv")
    assert g.n == 3 and g.m == 1 and g.degree(2) == 0


def test_fetch_snap_warm_cache_skips_network(tmp_path):
    target = tmp_path / "ca-HepPh.txt"
    target.write_text("0 1\n")
    # an unreachable base URL proves no network attempt happens
    path = fetch_snap("ca-HepPh", cache_dir=tmp_path, base_url="http://invalid.invalid")
    assert path == target


def test_fetch_snap_name_is_case_insensitive(tmp_path):
    target = tmp_path / "wiki-Vote.txt"
    target.write_text("0 1\n")
    path = fetch_snap("Wiki-Vote", cache_dir=tmp_path, base_url="http://invalid.invalid")
    assert path == target


def test_fetch_snap_rejects_unknown_name(tmp_path):
    with pytest.raises(ValueError, match="known:"):
        fetch_snap("nosuch", cache_dir=tmp_path)


def test_fetch_snap_downloads_once(tmp_path, monkeypatch):
    calls = []
    payload = gzip.compress(b"0 1\n1 2\n")

    def fake_urlopen(url, timeout):
        calls.append(url)
        return io.BytesIO(payload)

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    p1 = fetch_snap("ca-GrQc", cache_dir=tmp_path)
    p2 = fetch_snap("ca-GrQc", cache_dir=tmp_path)
    assert p1 == p2 and len(calls) == 1
    assert load_edge_list(p1).m == 2
