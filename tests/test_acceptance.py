"""Acceptance sweep: twelve end-to-end checks at fixed tolerances.

One test per criterion.  Each prints a single [PASS]/[FAIL] line with the
measured numbers (shown under `pytest -s`, or on failure); the pytest
verdict per test carries the same signal under `pytest -v`.

The real-world check needs network access (or a warm dataset cache) and
skips itself otherwise.
"""

import statistics
import time

import numpy as np
import pytest

from hyperclique.bench import (
    ExperimentSpec,
    loglog_slope,
    median_kernel_sizes,
    powerlaw_tail_exponent,
    run_kernel_size,
    run_realworld,
    run_runtime,
)
from hyperclique.generator import generate, sample_points
from hyperclique.geometry import HrgParams, intersection_measure, \
    intersection_measure_asymptotic, origin_disk_measure
from hyperclique.graphs import Graph, fetch_snap, induced_subgraph
from hyperclique.kernel import initial_clique, kernelize, peel
from hyperclique.matching import max_clique_cobipartite
from hyperclique.solver import build_cneeo_geometric, oracle_max_clique, \
    solve, validate_cneeo


def _verdict(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def _er(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_criterion_01_oracle_equivalence():
    # >= 200 small instances, five solver configurations, all equal to
    # the brute-force reference
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    alphas = (0.6, 0.75, 0.9)
    deltas = (4.0, 10.0)
    checked = 0
    for i in range(210):
        n = int(rng.integers(20, 81))
        g = generate(n, alphas[i % 3], seed=5000 + i, avg_degree=deltas[i % 2])
        want = int(oracle_max_clique(g).size)
        got = {
            ("geo", v): solve(g, "geo", v).omega_eval
            for v in ("red", "skip", "opt")
        }
        got[("nogeo", "-")] = solve(g, "nogeo").omega_eval
        got[("baseline", "-")] = solve(g, "baseline").omega_eval
        assert all(w == want for w in got.values()), (i, want, got)
        checked += 1
    elapsed = time.perf_counter() - t0
    _verdict(1, "oracle equivalence", checked == 210 and elapsed < 120.0,
             f"{checked}/210 instances, 5 configs each, agree; {elapsed:.1f}s")


def test_criterion_02_cneeo_validity():
    # the longest-first edge ordering is accepted by the validator
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    alphas = (0.6, 0.75, 0.9)
    valid = 0
    for i in range(50):
        n = int(rng.integers(300, 2001))
        g = generate(n, alphas[i % 3], seed=7000 + i, avg_degree=10.0)
        if validate_cneeo(g, build_cneeo_geometric(g)):
            valid += 1
    elapsed = time.perf_counter() - t0
    _verdict(2, "length-sorted ordering validity",
             valid == 50 and elapsed < 120.0,
             f"{valid}/50 orderings valid; {elapsed:.1f}s")


def test_criterion_03_kernel_scaling():
    # log-log slope of median kernel size vs n around the 1 - alpha trend
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        kind="kernel-size",
        n_list=(2**13, 2**14, 2**15, 2**16, 2**17),
        alpha_list=(0.75,), delta_list=(10.0,), samples=20, seed_base=0,
    )
    med = median_kernel_sizes(run_kernel_size(spec))
    ns = sorted(n for n, _, _ in med)
    meds = [med[(n, 0.75, 10.0)] for n in ns]
    slope = loglog_slope(ns, meds)
    elapsed = time.perf_counter() - t0
    _verdict(3, "kernel scaling slope",
             0.10 <= slope <= 0.40 and elapsed < 300.0,
             f"slope {slope:.4f} in [0.10, 0.40], medians {meds}; {elapsed:.1f}s")


def test_criterion_04_delta_monotonicity():
    # median kernel size strictly increases with the average degree
    spec = ExperimentSpec(
        kind="kernel-size", n_list=(2**16,), alpha_list=(0.75,),
        delta_list=(4.0, 10.0, 20.0), samples=20, seed_base=0,
    )
    med = median_kernel_sizes(run_kernel_size(spec))
    m4, m10, m20 = (med[(2**16, 0.75, d)] for d in (4.0, 10.0, 20.0))
    _verdict(4, "kernel growth in delta", m4 < m10 < m20,
             f"medians {m4} < {m10} < {m20} across delta 4, 10, 20")


def test_criterion_05_kernel_uniqueness():
    # the peeled set never depends on the deletion order
    rng = np.random.default_rng(1005)
    graphs = []
    for i in range(50):
        n = int(rng.integers(50, 501))
        graphs.append(generate(n, (0.6, 0.75, 0.9)[i % 3], seed=8200 + i,
                               avg_degree=float(rng.uniform(4, 10))))
    for _ in range(50):
        n = int(rng.integers(20, 501))
        graphs.append(_er(rng, n, float(rng.uniform(0.01, 0.1))))
    checked = 0
    for g in graphs:
        k = max(int(initial_clique(g).size) - 1, 1)
        want = peel(g, k)
        for _ in range(20):
            assert np.array_equal(peel(g, k, order=rng.permutation(g.n)), want)
        checked += 1
    _verdict(5, "kernel uniqueness", checked == 100,
             f"{checked}/100 graphs identical across 20 deletion orders")


def test_criterion_06_half_disk_clique():
    # all vertices strictly inside radius R/2 are pairwise adjacent
    rng = np.random.default_rng(1006)
    alphas = (0.6, 0.75, 0.9)
    pairs = 0
    for i in range(50):
        n = int(rng.integers(1000, 5001))
        alpha = alphas[i % 3]
        params = HrgParams.from_avg_degree(n, alpha, 10.0)
        g = generate(n, alpha, seed=8400 + i, avg_degree=10.0)
        inner = np.flatnonzero(g.coords.r < 0.5 * params.R)
        sub, _ = induced_subgraph(g, inner)
        k = int(inner.size)
        assert sub.m == k * (k - 1) // 2, (i, k, sub.m)
        pairs += sub.m
    _verdict(6, "half-disk clique", True,
             f"50/50 graphs, {pairs} inner pairs all adjacent")


def test_criterion_07_powerlaw_exponent():
    # degree-tail exponent lands within 0.3 of 2 * alpha + 1
    errs = {}
    for alpha, seed in ((0.6, 60), (0.75, 75)):
        g = generate(100_000, alpha, seed=seed, avg_degree=10.0)
        est = powerlaw_tail_exponent(g.degrees(), d_min=25)
        errs[alpha] = abs(est - (2.0 * alpha + 1.0))
    _verdict(7, "power-law exponent", all(e <= 0.3 for e in errs.values()),
             "errors " + ", ".join(f"alpha={a}: {e:.3f}" for a, e in errs.items())
             + " (tolerance 0.3)")


def test_criterion_08_variant_runtime_ordering():
    # pruning pays: medians over ten large instances order opt < skip < red
    spec = ExperimentSpec(
        kind="runtime", n_list=(100_000,), alpha_list=(0.75,),
        delta_list=(10.0,), samples=10, seed_base=0,
        modes=("geo", "nogeo"), variants=("red", "skip", "opt"),
    )
    rows = run_runtime(spec)
    med = {
        (r["mode"], r["variant"]): r
        for r in rows if r["sample"] == "median"
    }
    t_red = med[("geo", "red")]["total_ms"]
    t_skip = med[("geo", "skip")]["total_ms"]
    t_opt = med[("geo", "opt")]["total_ms"]
    ordering = t_opt < t_skip < t_red and t_red >= 2.0 * t_opt
    red_row = med[("geo", "red")]
    const_dominates = red_row["const_ms"] == max(
        red_row[c] for c in
        ("init_ms", "kernel_ms", "cneeo_ms", "const_ms", "indep_ms", "other_ms")
    )
    ordering_cneeo = med[("nogeo", "-")]["cneeo_ms"] > med[("geo", "opt")]["cneeo_ms"]
    _verdict(8, "variant runtime ordering",
             ordering and const_dominates and ordering_cneeo,
             f"median totals ms: opt {t_opt:.0f} < skip {t_skip:.0f} < red {t_red:.0f}, "
             f"red/opt {t_red / t_opt:.1f}x; red's largest phase is const; "
             f"test-driven ordering costs more than length sorting")


def test_criterion_09_heuristic_soundness():
    # certified bounds: seed size <= reported clique <= true clique number
    rng = np.random.default_rng(1009)
    exact_count = 0
    for i in range(100):
        n = int(rng.integers(10, 61))
        g = _er(rng, n, (0.2, 0.5)[i % 2])
        seed_size = int(initial_clique(g).size)
        out = solve(g, "nogeo")
        omega = int(oracle_max_clique(g).size)
        assert seed_size <= out.omega_eval <= omega, (i, seed_size, out.omega_eval, omega)
        if out.exact:
            assert out.omega_eval == omega, (i, out.omega_eval, omega)
            exact_count += 1
    _verdict(9, "heuristic soundness", True,
             f"100/100 instances bounded, {exact_count} solved exactly")


# reference wall-clock seconds per dataset; the acceptance bound is
# 10x these.  ca-HepPh's reference reads 0.00 at two-decimal resolution,
# so its bound uses a 1 s floor instead of a literal zero.
_REALWORLD = {
    "ca-HepPh": {"time_cap": 1.0, "omega": 239, "exact": True},
    "com-dblp": {"time_cap": 2.1, "omega": 114, "exact": True},
    "Wiki-Vote": {"time_cap": 63.4, "omega": None, "exact": None},
}


def test_criterion_10_real_world():
    # needs the three public datasets; skipped when they cannot be fetched
    try:
        for name in _REALWORLD:
            fetch_snap(name, timeout=30.0)
    except Exception as exc:  # noqa: BLE001 - any fetch failure means offline
        pytest.skip(f"datasets unavailable: {exc}")
    rows = {r["dataset"]: r for r in run_realworld(list(_REALWORLD))}
    details = []
    ok = True
    for name, want in _REALWORLD.items():
        row = rows[name]
        if want["exact"]:
            good = (row["exact"] is True and row["omega_eval"] == want["omega"]
                    and row["v_left"] == 0 and row["e_left"] == 0)
        else:
            good = 13 <= row["omega_eval"] <= 17
            if row["omega_eval"] < 17:
                good = good and (row["v_left"] > 0 or row["e_left"] > 0)
        good = good and row["runtime_s"] <= want["time_cap"]
        ok = ok and good
        details.append(
            f"{name}: omega {row['omega_eval']} exact {row['exact']} "
            f"{row['runtime_s']:.2f}s (cap {want['time_cap']}s)")
    _verdict(10, "real-world datasets", ok, "; ".join(details))


def _matching_oracle(lefts, comp):
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

    return sum(1 for l in lefts if try_augment(l, set()))


def _bk_size(adj, n):
    best = [0]

    def expand(r, p, x):
        if not p and not x:
            best[0] = max(best[0], r)
            return
        if r + len(p) <= best[0]:
            return
        pivot = max(p | x, key=lambda u: len(p & adj[u]))
        for v in sorted(p - adj[pivot]):
            expand(r + 1, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(0, set(range(n)), set())
    return best[0]


def test_criterion_11_matching_correctness():
    rng = np.random.default_rng(1011)
    for _ in range(1000):
        a = int(rng.integers(0, 21))
        b = int(rng.integers(0, 21))
        p = float(rng.uniform(0.05, 0.6))
        comp = {l: np.flatnonzero(rng.random(b) < p) + a for l in range(a)}
        nu = _matching_oracle(range(a), {l: c.tolist() for l, c in comp.items()})
        # the co-bipartite graph whose cross complement is the drawn graph
        cross = {l: set(c.tolist()) for l, c in comp.items()}
        edges = [(u, v) for u in range(a + b) for v in range(u + 1, a + b)
                 if (u < a) == (v < a) or v not in cross[u]]
        g = Graph.from_edges(a + b, edges)
        assert int(max_clique_cobipartite(g).size) == a + b - nu
    for _ in range(500):
        n = int(rng.integers(2, 31))
        side = rng.random(n) < float(rng.uniform(0.2, 0.8))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if side[u] == side[v] or rng.random() < 0.35]
        g = Graph.from_edges(n, edges)
        adj = [set(g.neighbors(v).tolist()) for v in range(n)]
        assert int(max_clique_cobipartite(g).size) == _bk_size(adj, n)
    _verdict(11, "matching correctness", True,
             "1000 bipartite + 500 co-bipartite instances match oracles")


def test_criterion_12_measure_validation():
    # (a) sampled radii hit the closed-form disk measure at three radii
    params = HrgParams(10_000, 0.75, 1.0)
    R = params.R
    radii = np.concatenate(
        [sample_points(params, 9000 + i).r for i in range(100)])
    assert radii.size == 1_000_000
    mc_details = []
    mc_ok = True
    for frac_r in (0.25, 0.5, 0.75):
        r = frac_r * R
        mu = origin_disk_measure(r, params)
        frac = float(np.mean(radii <= r))
        se = (mu * (1.0 - mu) / radii.size) ** 0.5
        mc_ok = mc_ok and abs(frac - mu) <= 3.0 * se
        mc_details.append(f"r={frac_r}R: |{frac:.6f}-{mu:.6f}|<=3se")
    # (b) quadrature and asymptotic intersection measures agree to 5%
    # in the far half of the disk
    big = HrgParams(100_000, 0.75, 1.0)
    rel = []
    for r in np.linspace(big.R / 2.0, big.R, 11):
        quad = intersection_measure(float(r), big)
        asym = intersection_measure_asymptotic(float(r), big)
        rel.append(abs(quad - asym) / quad)
    quad_ok = max(rel) <= 0.05
    _verdict(12, "measure validation", mc_ok and quad_ok,
             "; ".join(mc_details) + f"; max quad-vs-asymptotic dev {max(rel):.4f}")
