"""Experiment harness: kernel scaling, variant runtimes, real-world table.

Everything lands in long-format CSV with a stable column order so external
plotting stays trivial.  Non-timing quantities are exactly reproducible
from (spec, seed_base); timing columns are whatever the clock said.
"""

from __future__ import annotations

import csv
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .generator import generate
from .graphs import load_snap
from .kernel import kernelize
from .solver import solve

KINDS = ("kernel-size", "runtime", "realworld")

KERNEL_SIZE_COLUMNS = [
    "n", "alpha", "delta", "sample", "seed",
    "initial_size", "kernel_size", "kernel_edges", "rank",
]
RUNTIME_COLUMNS = [
    "n", "alpha", "delta", "sample", "seed", "mode", "variant",
    "omega_eval", "exact",
    "init_ms", "kernel_ms", "cneeo_ms", "const_ms", "indep_ms", "other_ms", "total_ms",
]
REALWORLD_COLUMNS = [
    "dataset", "vertices", "edges", "kernel_size", "v_left", "e_left",
    "runtime_s", "omega_kernel", "omega_eval", "exact",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Parameter grid plus repetition count; seeds derive from seed_base.

    Instance seeds are seed_base + a running index over the grid in
    (n, alpha, delta, sample) nested order, so any slice of a run can be
    reproduced without rerunning the rest.
    """

    kind: str
    n_list: tuple = (2**13,)
    alpha_list: tuple = (0.75,)
    delta_list: tuple = (10.0,)
    samples: int = 1
    seed_base: int = 0
    modes: tuple = ("geo", "nogeo")
    variants: tuple = ("red", "skip", "opt")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if not (self.n_list and self.alpha_list and self.delta_list):
            raise ValueError("parameter grids must be non-empty")

    def grid(self):
        """Yield (n, alpha, delta, sample, seed) in deterministic order."""
        idx = 0
        for n in self.n_list:
            for alpha in self.alpha_list:
                for delta in self.delta_list:
                    for sample in range(self.samples):
                        yield int(n), float(alpha), float(delta), sample, self.seed_base + idx
                        idx += 1


def _kernel_size_cell(args):
    n, alpha, delta, sample, seed = args
    g = generate(n, alpha, seed, avg_degree=delta)
    kr = kernelize(g)
    return {
        "n": n, "alpha": alpha, "delta": delta, "sample": sample, "seed": seed,
        "initial_size": int(kr.initial_clique.size),
        "kernel_size": int(kr.kernel.size),
        "kernel_edges": int(kr.kernel_edge_count),
        "rank": 0,
    }


def run_kernel_size(spec: ExperimentSpec, jobs: int = 1) -> list[dict]:
    """Kernel sizes over the grid, plus per-grid-point cactus ranks.

    `rank` is the 1-based position of the row's kernel size within its
    grid point when sorted ascending (ties broken by sample index), i.e.
    the x-coordinate of a cactus plot.
    """
    cells = list(spec.grid())
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_kernel_size_cell, cells, chunksize=1))
    else:
        rows = [_kernel_size_cell(c) for c in cells]
    rows.sort(key=lambda r: (r["n"], r["alpha"], r["delta"], r["sample"]))
    by_point: dict = {}
    for row in rows:
        by_point.setdefault((row["n"], row["alpha"], row["delta"]), []).append(row)
    for group in by_point.values():
        for rank, row in enumerate(
            sorted(group, key=lambda r: (r["kernel_size"], r["sample"])), start=1
        ):
            row["rank"] = rank
    return rows


def run_runtime(spec: ExperimentSpec, jobs: int = 1) -> list[dict]:
    """Per-instance phase timings for each requested mode/variant.

    One graph per instance, shared across modes so comparisons are paired.
    Timing rows are followed by one `sample = "median"` row per
    (grid point, mode, variant).  Always single-process: parallel workers
    would contend for cores and poison the clocks.
    """
    del jobs
    rows: list[dict] = []
    for n, alpha, delta, sample, seed in spec.grid():
        g = generate(n, alpha, seed, avg_degree=delta)
        for mode in spec.modes:
            for variant in spec.variants if mode == "geo" else ("-",):
                out = solve(g, mode, variant if variant != "-" else "opt")
                rows.append({
                    "n": n, "alpha": alpha, "delta": delta, "sample": sample,
                    "seed": seed, "mode": mode, "variant": variant,
                    "omega_eval": out.omega_eval, "exact": out.exact,
                    "init_ms": out.timings["init"], "kernel_ms": out.timings["kernel"],
                    "cneeo_ms": out.timings["cneeo"], "const_ms": out.timings["const"],
                    "indep_ms": out.timings["indep"], "other_ms": out.timings["other"],
                    "total_ms": out.timings["total"],
                })
    medians: list[dict] = []
    keyed: dict = {}
    for row in rows:
        key = (row["n"], row["alpha"], row["delta"], row["mode"], row["variant"])
        keyed.setdefault(key, []).append(row)
    for (n, alpha, delta, mode, variant), group in sorted(keyed.items(), key=str):
        med = {
            "n": n, "alpha": alpha, "delta": delta, "sample": "median", "seed": "",
            "mode": mode, "variant": variant,
            "omega_eval": "", "exact": "",
        }
        for col in RUNTIME_COLUMNS[9:]:
            med[col] = statistics.median(r[col] for r in group)
        medians.append(med)
    return rows + medians


def run_realworld(names, cache_dir=None) -> list[dict]:
    """Geometry-free solve per dataset; fetch failures skip with a warning."""
    rows: list[dict] = []
    for name in names:
        try:
            g = load_snap(name, cache_dir)
        except Exception as exc:  # noqa: BLE001 - any fetch/parse failure skips
            print(f"warning: skipping {name}: {exc}", file=sys.stderr)
            continue
        t0 = time.perf_counter()
        out = solve(g, "nogeo")
        runtime_s = time.perf_counter() - t0
        rows.append({
            "dataset": name, "vertices": g.n, "edges": g.m,
            "kernel_size": out.kernel_size,
            "v_left": out.residual_vertices, "e_left": out.residual_edges,
            "runtime_s": round(runtime_s, 3),
            "omega_kernel": out.seed_size,
            "omega_eval": out.omega_eval, "exact": out.exact,
        })
    return rows


def write_csv(rows: list[dict], columns: list[str], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def columns_for(kind: str) -> list[str]:
    return {
        "kernel-size": KERNEL_SIZE_COLUMNS,
        "runtime": RUNTIME_COLUMNS,
        "realworld": REALWORLD_COLUMNS,
    }[kind]


# ---------------------------------------------------------------------------
# analysis helpers


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def median_kernel_sizes(rows: list[dict]) -> dict:
    """Grid point -> median kernel size, from run_kernel_size rows."""
    by_point: dict = {}
    for row in rows:
        key = (row["n"], row["alpha"], row["delta"])
        by_point.setdefault(key, []).append(row["kernel_size"])
    return {k: statistics.median(v) for k, v in by_point.items()}


def powerlaw_tail_exponent(degrees, d_min: int = 25) -> float:
    """Continuous MLE for the degree-tail exponent.

    beta = 1 + k / sum(ln(d_i / (d_min - 0.5))) over degrees >= d_min;
    the half-shift corrects for the discreteness of degrees.
    """
    tail = np.asarray(degrees, dtype=float)
    tail = tail[tail >= d_min]
    if tail.size < 10:
        raise ValueError(f"tail too small for a fit: {tail.size} degrees >= {d_min}")
    return float(1.0 + tail.size / np.log(tail / (d_min - 0.5)).sum())
