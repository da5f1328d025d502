"""Each benchmark check passes the library's outputs and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import hyperclique as hc  # noqa: E402
from hyperclique.graphs import Graph  # noqa: E402

N, ALPHA, DELTA, SEED = 400, 0.75, 8.0, 3


@pytest.fixture(scope="module")
def case():
    g = hc.generate(N, ALPHA, SEED, avg_degree=DELTA)
    R = hc.HrgParams.from_avg_degree(N, ALPHA, DELTA).R
    kr = hc.kernelize(g)
    return g, R, kr, hc.solve(g, "geo", "opt"), hc.solve(g, "nogeo")


def _pair_cosh(g, pairs):
    pts = checks._Points(g.coords.r, g.coords.phi)
    return pts.cosh_distance(pairs[:, 0], pairs[:, 1])


def _with_edges(g, edges):
    return Graph.from_edges(g.n, edges, coords=g.coords)


def test_library_outputs_pass(case):
    g, R, kr, geo, nogeo = case
    truth = checks.Truth(g)
    assert checks.check_graph(g, R, brute=True) == []
    assert checks.check_graph(g, R, brute=False) == []
    assert checks.check_kernel(kr, g, R, truth) == []
    assert checks.check_outcomes(geo, nogeo, len(kr.initial_clique), g, R, truth) == []
    assert geo.omega_eval > len(kr.initial_clique) or geo.omega_eval >= 3


@pytest.mark.parametrize("brute", [True, False])
def test_dropped_edge_is_rejected(case, brute):
    g, R = case[:2]
    edges = g.edge_array()
    shortest = int(np.argmin(_pair_cosh(g, edges)))
    h = _with_edges(g, np.delete(edges, shortest, axis=0))
    assert h.m == g.m - 1
    assert checks.check_graph(h, R, brute=brute)
    assert checks.check_same_graph(checks.graph_digest(h), checks.graph_digest(g), "read back")


@pytest.mark.parametrize("brute", [True, False])
def test_added_edge_is_rejected(case, brute):
    g, R = case[:2]
    u, v = np.triu_indices(g.n, 1)
    pairs = np.column_stack([u, v])
    far = pairs[int(np.argmax(_pair_cosh(g, pairs)))]
    h = _with_edges(g, np.vstack([g.edge_array(), far]))
    assert h.m == g.m + 1
    assert checks.check_graph(h, R, brute=brute)
    assert checks.check_same_graph(checks.graph_digest(h), checks.graph_digest(g), "read back")


def test_non_clique_is_rejected(case):
    g, R, kr, geo, nogeo = case
    member = int(geo.clique[0])
    stranger = next(v for v in range(g.n) if v != member and not g.has_edge(member, v)
                    and v not in geo.clique)
    bad = np.sort(np.append(geo.clique[1:], stranger))
    broken = dataclasses.replace(geo, clique=bad)
    errors = checks.check_outcomes(broken, nogeo, len(kr.initial_clique), g, R, checks.Truth(g))
    assert any("farther apart than R" in e for e in errors)


def test_clique_one_short_is_rejected(case):
    g, R, kr, geo, nogeo = case
    short = dataclasses.replace(geo, clique=geo.clique[:-1], omega_eval=geo.omega_eval - 1)
    errors = checks.check_outcomes(short, nogeo, len(kr.initial_clique), g, R, checks.Truth(g))
    assert any("omega is" in e for e in errors)


def test_kernel_one_vertex_short_is_rejected(case):
    g, R, kr = case[:3]
    short = dataclasses.replace(kr, kernel=kr.kernel[1:])
    assert checks.check_kernel(short, g, R, checks.Truth(g))


def test_rotated_copy_is_the_same_threshold_graph(case):
    g, R = case[:2]
    ref = checks.rotated(g, 2.5)
    assert checks.check_graph(ref, R, brute=True) == []
    assert checks.check_graph(ref, R, brute=False) == []
    off = checks.rotated(g, 2.5)
    off.coords.phi[0] = np.nextafter(off.coords.phi[0], 0.0)
    assert checks.check_same_graph(checks.graph_digest(off), checks.graph_digest(ref), "read back")
