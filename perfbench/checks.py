"""Correctness checks on the library's outputs, written apart from it.

Every check returns a list of error strings; an empty list is a pass.
Geometry uses the cancellation-free form
    cosh d = cosh(r_u - r_v) + 2 sinh r_u sinh r_v sin^2(dphi / 2),
not the library's predicate.  Clique sizes come from networkx on a k-core
that networkx computes, never from the library's kernel.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# The library tests cosh(r_u)cosh(r_v) - sinh(r_u)sinh(r_v)cos(dphi) <= cosh R,
# whose rounding error is a few ulps of cosh(r_u)cosh(r_v).  Pairs closer
# to the threshold than this may fall either way.
ROUNDING = 1e-14
CHUNK = 1 << 16  # candidate pairs scored at a time, sized to stay in cache


class _Points:
    """Per-vertex terms of the distance form, computed once per graph."""

    def __init__(self, r, phi):
        self.r = np.asarray(r, dtype=np.float64)
        self.phi = np.asarray(phi, dtype=np.float64)
        self.exp = np.exp(self.r)
        self.exp_neg = np.exp(-self.r)
        self.sinh = np.sinh(self.r)
        self.cosh = np.cosh(self.r)

    def cosh_distance(self, u, v):
        # angles lie in [0, 2 pi), where sin(|dphi| / 2) is the sine of
        # half the smaller arc; cosh(r_u - r_v) as a sum of two positive terms
        s = np.sin(0.5 * np.abs(self.phi[u] - self.phi[v]))
        cosh_dr = 0.5 * (self.exp[u] * self.exp_neg[v] + self.exp_neg[u] * self.exp[v])
        return cosh_dr + 2.0 * self.sinh[u] * self.sinh[v] * s * s

    def slack(self, u, v, cosh_R):
        return ROUNDING * self.cosh[u] * self.cosh[v] + 1e-12 * cosh_R


def _expand(starts, counts):
    """Flat (row, position) pairs for per-row ranges [start, start + count)."""
    rows = np.repeat(np.arange(counts.shape[0]), counts)
    offs = np.arange(rows.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, np.repeat(starts, counts) + offs


def _classify(key, c, slack, cosh_R, sure, maybe):
    sure.append(key[c < cosh_R - slack])
    maybe.append(key[c <= cosh_R + slack])


def reference_edges(r, phi, R, brute=False):
    """Threshold-graph edges as sorted int64 keys u * n + v with u < v.

    Returns (sure, maybe): pairs clearly within distance R, and those
    within R up to rounding.  With brute=True every pair is scored.
    Otherwise a vertex u is scored only against vertices v of larger
    radius inside the angular window where
        1 + 2 sinh^2(r_u) sin^2(dphi / 2) <= cosh R (plus slack),
    which holds for every neighbour v of u with r_v >= r_u, because
    cosh(r_u - r_v) >= 1 and sinh r_v >= sinh r_u.
    """
    n = r.shape[0]
    cosh_R = float(np.cosh(R))
    pts = _Points(r, phi)
    sure, maybe = [], []
    if brute:
        rows = max(1, CHUNK // max(n, 1))
        for a in range(0, n, rows):
            u = np.arange(a, min(a + rows, n))[:, None]
            v = np.arange(a, n)[None, :]
            c = pts.cosh_distance(u, v)
            key = (u * n + v)[v > u]
            upper = np.broadcast_to(v > u, c.shape)
            _classify(key, c[upper], pts.slack(u, v, cosh_R)[upper], cosh_R, sure, maybe)
    else:
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((np.arange(n), r))] = np.arange(n)
        by_phi = np.argsort(phi, kind="stable")
        ext_phi = np.concatenate([phi[by_phi] - TWO_PI, phi[by_phi], phi[by_phi] + TWO_PI])
        cand = np.tile(by_phi, 3)
        top = cosh_R * (1.0 + ROUNDING * cosh_R) + 1e-12 * cosh_R
        q = (top - 1.0) / (2.0 * pts.sinh ** 2)
        with np.errstate(invalid="ignore", divide="ignore"):
            half = 2.0 * np.arcsin(np.sqrt(np.minimum(q, 1.0))) * (1.0 + 1e-9) + 1e-12
        full = (q >= 1.0) | (half >= math.pi)
        lo = np.searchsorted(ext_phi, phi - half, side="left")
        hi = np.searchsorted(ext_phi, phi + half, side="right")
        lo[full], hi[full] = n, 2 * n
        counts = hi - lo
        cum = np.cumsum(counts)
        first = 0
        while first < n:
            done = int(cum[first - 1]) if first else 0
            last = max(int(np.searchsorted(cum, done + CHUNK, side="right")), first + 1)
            rows, pos = _expand(lo[first:last], counts[first:last])
            u = rows + first
            v = cand[pos]
            keep = rank[v] > rank[u]
            u, v = u[keep], v[keep]
            key = np.minimum(u, v) * n + np.maximum(u, v)
            _classify(key, pts.cosh_distance(u, v), pts.slack(u, v, cosh_R), cosh_R, sure, maybe)
            first = last
    empty = np.empty(0, dtype=np.int64)
    return (np.sort(np.concatenate(sure)) if sure else empty,
            np.sort(np.concatenate(maybe)) if maybe else empty)


def edge_keys(g):
    """The graph's undirected edges as sorted keys u * n + v with u < v."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    dst = np.asarray(g.indices, dtype=np.int64)
    keep = src < dst
    return np.sort(src[keep] * g.n + dst[keep])


def check_graph(g, R, brute=False):
    """The graph is well-formed CSR and is the threshold graph of its coordinates."""
    n = g.n
    indptr = np.asarray(g.indptr, dtype=np.int64)
    indices = np.asarray(g.indices, dtype=np.int64)
    if g.coords is None or len(g.coords) != n:
        return ["graph carries no coordinates for its vertices"]
    if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.shape[0] \
            or np.any(np.diff(indptr) < 0):
        return ["malformed CSR row pointers"]
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        return ["neighbour id out of range"]
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    errors = []
    if np.any(src == indices):
        errors.append("self-loop in adjacency")
    same_row = src[1:] == src[:-1]
    if np.any(indices[1:][same_row] <= indices[:-1][same_row]):
        errors.append("neighbour rows not strictly increasing")
    if not np.array_equal(np.sort(src * n + indices), np.sort(indices * n + src)):
        errors.append("adjacency is not symmetric")
    r, phi = np.asarray(g.coords.r), np.asarray(g.coords.phi)
    if np.any(r < 0.0) or np.any(r > R) or np.any(phi < 0.0) or np.any(phi >= TWO_PI):
        errors.append("a point lies outside the disk of radius R")
    sure, maybe = reference_edges(r, phi, R, brute=brute)
    have = edge_keys(g)
    dropped = np.setdiff1d(sure, have, assume_unique=True)
    extra = np.setdiff1d(have, maybe, assume_unique=True)
    for key in dropped[:3]:
        errors.append(f"missing edge {divmod(int(key), n)} within distance R")
    for key in extra[:3]:
        errors.append(f"edge {divmod(int(key), n)} is longer than R")
    if dropped.size + extra.size > 6:
        errors.append(f"{dropped.size} edges missing, {extra.size} too long in all")
    return errors


def graph_digest(g) -> str:
    """Hash of the vertex count, CSR arrays and coordinates."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(g.n).tobytes())
    for a in (g.indptr, g.indices):
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    if g.coords is not None:
        for a in (g.coords.r, g.coords.phi):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Coords:
    r: np.ndarray
    phi: np.ndarray

    def __len__(self):
        return self.r.shape[0]


@dataclass(frozen=True)
class PlainGraph:
    """CSR arrays and coordinates, with the attributes the checks read."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    coords: Coords


def rotated(g, theta):
    """The graph with every angle moved by theta (mod 2 pi): the same
    distances, so the same threshold graph up to rounding."""
    phi = np.mod(np.asarray(g.coords.phi, dtype=np.float64) + theta, TWO_PI)
    phi[phi >= TWO_PI] = 0.0
    return PlainGraph(g.n, np.array(g.indptr, dtype=np.int64), np.array(g.indices, dtype=np.int64),
                      Coords(np.array(g.coords.r, dtype=np.float64), phi))


def check_same_graph(digest, reference_digest, what):
    return [] if digest == reference_digest else [f"{what} differs from the graph it should equal"]


def check_clique(clique, g, R, what):
    """Distinct vertex ids, pairwise within distance R of each other."""
    ids = np.asarray(clique, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= g.n):
        return [f"{what}: vertex id out of range"]
    if np.unique(ids).size != ids.size:
        return [f"{what}: repeated vertex"]
    u, v = np.triu_indices(ids.size, 1)
    pts = _Points(g.coords.r[ids], g.coords.phi[ids])
    a, b = ids[u], ids[v]
    cosh_R = float(np.cosh(R))
    far = pts.cosh_distance(u, v) > cosh_R + pts.slack(u, v, cosh_R)
    if far.any():
        i = int(np.flatnonzero(far)[0])
        return [f"{what}: vertices {int(a[i])} and {int(b[i])} are farther apart than R"]
    return []


class Truth:
    """k-cores and the clique number of a graph, computed by networkx."""

    def __init__(self, g):
        self.n = g.n
        keys = edge_keys(g)
        self.edges = np.column_stack([keys // g.n, keys % g.n])
        self.degree = np.bincount(self.edges.ravel(), minlength=g.n)
        self._cores = {}
        self._omega = None

    def core(self, k):
        """networkx k-core of the graph, as a networkx graph."""
        if k not in self._cores:
            import networkx as nx

            # a vertex of degree below k is in no k-core; dropping those
            # first keeps the networkx graph small
            big = self.degree >= k
            keep = big[self.edges[:, 0]] & big[self.edges[:, 1]]
            h = nx.Graph()
            h.add_nodes_from(np.flatnonzero(big).tolist())
            h.add_edges_from(self.edges[keep].tolist())
            self._cores[k] = nx.k_core(h, k) if k > 0 else h
        return self._cores[k]

    def omega(self, lower):
        """Clique number, given a clique of size `lower` exists."""
        if self._omega is None:
            import networkx as nx

            # every clique of size >= lower lies in the (lower - 1)-core
            core = self.core(max(lower - 1, 0))
            if self.n == 0:
                self._omega = 0
            elif core.number_of_nodes() == 0:
                self._omega = 1
            else:
                self._omega = int(nx.max_weight_clique(core, weight=None)[1])
        return self._omega


def check_kernel(kr, g, R, truth):
    """The seed is a clique and the kernel is the (|seed| - 1)-core."""
    errors = check_clique(kr.initial_clique, g, R, "seed clique")
    core = truth.core(len(kr.initial_clique) - 1)
    expect = np.sort(np.fromiter(core.nodes, dtype=np.int64, count=core.number_of_nodes()))
    if not np.array_equal(np.asarray(kr.kernel, dtype=np.int64), expect):
        errors.append(f"kernel has {len(kr.kernel)} vertices, the "
                      f"{len(kr.initial_clique) - 1}-core has {expect.size}")
    if kr.kernel_edge_count != core.number_of_edges():
        errors.append(f"kernel has {kr.kernel_edge_count} edges, the core has "
                      f"{core.number_of_edges()}")
    return errors


def check_outcomes(geo, nogeo, seed_size, g, R, truth):
    """Geo finds a maximum clique; nogeo lies between the seed and it."""
    errors = check_clique(geo.clique, g, R, "geo clique")
    errors += check_clique(nogeo.clique, g, R, "nogeo clique")
    for name, out in (("geo", geo), ("nogeo", nogeo)):
        if out.omega_eval != len(out.clique):
            errors.append(f"{name}: omega_eval {out.omega_eval} but the clique has "
                          f"{len(out.clique)} vertices")
    if errors:
        return errors
    omega = truth.omega(max(len(geo.clique), len(nogeo.clique), seed_size))
    if len(geo.clique) != omega or not geo.exact:
        errors.append(f"geo clique has {len(geo.clique)} vertices, omega is {omega}")
    if not seed_size <= len(nogeo.clique) <= omega:
        errors.append(f"nogeo clique has {len(nogeo.clique)} vertices, outside "
                      f"[{seed_size}, {omega}]")
    if nogeo.exact and len(nogeo.clique) != omega:
        errors.append(f"nogeo reports exact with {len(nogeo.clique)} vertices, omega is {omega}")
    return errors
