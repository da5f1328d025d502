"""Random point sampling and threshold-graph construction in the hyperbolic disk.

Two builders produce the edge set {(u, v) : distance <= R}: a quadratic
reference builder for small inputs and a banded angular-window builder for
large ones.  Both funnel every candidate pair through the same vectorized
predicate, so their outputs are identical, not merely equivalent.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import TWO_PI, HrgParams, Points, solve_C_for_avg_degree
from .graphs import Graph

# above this the quadratic builder gives way to the banded one
NAIVE_LIMIT = 4096


def sample_points(params: HrgParams, seed: int) -> Points:
    """Draw n points: radii by inverse CDF of the sinh density, angles uniform.

    Deterministic for a fixed (params, seed) pair; radii are drawn first,
    then angles, from a single PCG64 stream.
    """
    rng = np.random.default_rng(seed)
    u = rng.random(params.n)
    a = params.alpha
    r = np.arccosh(1.0 + u * (math.cosh(a * params.R) - 1.0)) / a
    phi = rng.random(params.n) * TWO_PI
    return Points(r, phi)


def _adjacent(ch, sh, phi, uu, vv, cosh_R):
    # shared edge predicate: cosh(d(u,v)) <= cosh(R), elementwise
    d = np.abs(phi[uu] - phi[vv]) % TWO_PI
    d = np.minimum(d, TWO_PI - d)
    lhs = ch[uu] * ch[vv] - sh[uu] * sh[vv] * np.cos(d)
    return lhs <= cosh_R


def _build_naive(points: Points, params: HrgParams) -> np.ndarray:
    n = len(points)
    # same libm path as ch/sh below, so a pair at distance exactly R
    # lands on the inclusive side of the comparison
    cosh_R = float(np.cosh(params.R))
    ch = np.cosh(points.r)
    sh = np.sinh(points.r)
    phi = points.phi
    rows = []
    for u in range(n - 1):
        vv = np.arange(u + 1, n)
        hit = vv[_adjacent(ch, sh, phi, u, vv, cosh_R)]
        if hit.size:
            rows.append(np.column_stack([np.full(hit.size, u, dtype=np.int64), hit]))
    if not rows:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(rows, axis=0)


def _ragged_ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row (start, count) into flat (row_index, start+offset) arrays."""
    total = int(counts.sum())
    rows = np.repeat(np.arange(counts.shape[0]), counts)
    offs = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, np.repeat(starts, counts) + offs


def _build_banded(points: Points, params: HrgParams) -> np.ndarray:
    """Candidate pruning by radial bands and angular windows.

    Points with r < R/2 are tested against everything (there are few of
    them).  Remaining points are split into unit-width radial bands; for a
    band pair the angular window is the lens angle at the band floors,
    which bounds the true window of every point pair in those bands since
    the lens angle shrinks as either radius grows.
    """
    n = len(points)
    R = params.R
    cosh_R = float(np.cosh(R))  # same libm path as ch/sh, see _build_naive
    ch = np.cosh(points.r)
    sh = np.sinh(points.r)
    phi = points.phi
    half = R / 2.0
    core = np.flatnonzero(points.r < half)
    outer = np.flatnonzero(points.r >= half)
    parts = []

    for c in core:
        vv = np.flatnonzero(_adjacent(ch, sh, phi, int(c), np.arange(n), cosh_R))
        vv = vv[vv != c]
        if vv.size:
            parts.append(np.column_stack([np.full(vv.size, c, dtype=np.int64), vv]))

    if outer.size:
        band = np.minimum((points.r[outer] - half).astype(np.int64), max(int(math.ceil(half)) - 1, 0))
        nbands = int(band.max()) + 1
        by_band = []
        for b in range(nbands):
            ids = outer[band == b]
            ids = ids[np.argsort(phi[ids], kind="stable")]
            by_band.append(ids)

        def window(lo_i: float, lo_j: float) -> float:
            ratio = (math.cosh(lo_i) * math.cosh(lo_j) - cosh_R) / (math.sinh(lo_i) * math.sinh(lo_j))
            return math.acos(min(1.0, max(-1.0, ratio)))

        for bi in range(nbands):
            pi = by_band[bi]
            if not pi.size:
                continue
            for bj in range(bi, nbands):
                pj = by_band[bj]
                if not pj.size:
                    continue
                w = window(half + bi, half + bj)
                if bi == bj:
                    # forward half-window: each unordered pair shows up once
                    ext = np.concatenate([phi[pi], phi[pi] + TWO_PI])
                    hi = np.searchsorted(ext, phi[pi] + w, side="right")
                    base = np.arange(pi.shape[0])
                    cnt = hi - base - 1
                    rows, cols = _ragged_ranges(base + 1, cnt)
                    uu = pi[rows]
                    vv = pi[cols % pi.shape[0]]
                else:
                    ext = np.concatenate([phi[pj] - TWO_PI, phi[pj], phi[pj] + TWO_PI])
                    lo = np.searchsorted(ext, phi[pi] - w, side="left")
                    hi = np.searchsorted(ext, phi[pi] + w, side="right")
                    rows, cols = _ragged_ranges(lo, hi - lo)
                    uu = pi[rows]
                    vv = pj[cols % pj.shape[0]]
                if uu.size:
                    keep = _adjacent(ch, sh, phi, uu, vv, cosh_R)
                    if keep.any():
                        parts.append(np.column_stack([uu[keep], vv[keep]]))

    # Graph.from_edges drops repeated and reversed pairs; the empty block covers no parts
    return np.concatenate([np.empty((0, 2), dtype=np.int64), *parts])


def build_graph(points: Points, params: HrgParams, method: str = "auto") -> Graph:
    """Edge set {(u,v) : distance(u,v) <= R} over the given points.

    method: "auto" picks naive up to 4096 points, banded beyond; "naive"
    and "banded" force a builder (their outputs are identical).
    """
    if method == "auto":
        method = "naive" if len(points) <= NAIVE_LIMIT else "banded"
    if method == "naive":
        edges = _build_naive(points, params)
    elif method == "banded":
        edges = _build_banded(points, params)
    else:
        raise ValueError(f"unknown builder {method!r}")
    return Graph.from_edges(len(points), edges, coords=points)


def generate(n: int, alpha: float, seed: int, *, C: float | None = None,
             avg_degree: float | None = None, method: str = "auto") -> Graph:
    """Sample an instance and build its graph; exactly one of C / avg_degree.

    The result carries the sampled coordinates in .coords.
    """
    if (C is None) == (avg_degree is None):
        raise ValueError("give exactly one of C or avg_degree")
    if C is None:
        C = solve_C_for_avg_degree(n, alpha, float(avg_degree))
    params = HrgParams(n, alpha, C)
    return build_graph(sample_points(params, seed), params, method=method)
