"""Record the work figures of candidate instances in pool.json.

For each candidate it generates the instance, runs the kernel and both
solvers under the tracer, and records deterministic work figures: edges,
kernel vertices and edges, geo lenses and lens vertices, nogeo tests and
retests.  workloads.py picks each run's instances from these figures.
The candidates of hrg-sparse and hrg-dense-kernel are generator seeds
0..N-1; those of hrg-many-small are N per slot stratum, each with an n
drawn inside the stratum and generator seed 0..N-1.

    python3 perfbench/make_pool.py --workload hrg-dense-kernel --candidates 300
    python3 perfbench/make_pool.py --workload hrg-many-small --candidates 12

Run from the repository root; it rewrites that workload's pool.json entry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

import numpy as np  # noqa: E402

import hyperclique as hc  # noqa: E402
import spans  # noqa: E402
from workloads import MANY_SMALL, POOL_FILE, POOLED, small_strata  # noqa: E402

RECORDED = ("m", "kernel_vertices", "kernel.kernel_edges", "solver.geo.lenses",
            "solver.geo.lens_vertices", "solver.nogeo.tests", "solver.nogeo.retests")


def work_figures(g, tr):
    kr = hc.kernelize(g)
    row = {"m": g.m, "kernel_vertices": len(kr.kernel), "kernel.kernel_edges": kr.kernel_edge_count}
    for mode in ("geo", "nogeo"):
        lo = tr.begin(spans.SOLVE)
        hc.solve(g, mode)
        tr.finish(lo)
        row.update(spans.op_figures(tr, lo, mode, id(g)))
    return {k: row[k] for k in RECORDED}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted([*POOLED, MANY_SMALL]))
    ap.add_argument("--candidates", type=int, required=True)
    args = ap.parse_args()
    tr = spans.Tracer()
    tr.install()
    if args.workload == MANY_SMALL:
        params = {"strata": small_strata()}
        todo = []
        for i, (alpha, delta, lo, hi) in enumerate(params["strata"]):
            rng = np.random.default_rng(i)
            todo += [({"stratum": i, "n": int(rng.integers(lo, hi)), "seed": s}, alpha, delta)
                     for s in range(args.candidates)]
    else:
        p = POOLED[args.workload]
        params = {k: p[k] for k in ("n", "alpha", "delta")}
        todo = [({"seed": s, "n": p["n"]}, p["alpha"], p["delta"]) for s in range(args.candidates)]
    stats = []
    for key, alpha, delta in todo:
        g = hc.generate(key["n"], alpha, key["seed"], avg_degree=delta)
        if args.workload in POOLED:
            del key["n"]
        stats.append({**key, **work_figures(g, tr)})
        print(json.dumps(stats[-1]), file=sys.stderr, flush=True)
    pool = json.loads(POOL_FILE.read_text()) if POOL_FILE.exists() else {}
    pool[args.workload] = {"params": params, "candidates": stats}
    # one candidate per line keeps the file short and its diffs readable
    entries = []
    for name, entry in pool.items():
        rows = ",\n".join("  " + json.dumps(c) for c in entry["candidates"])
        entries.append(f' "{name}": {{"params": {json.dumps(entry["params"])}, '
                       f'"candidates": [\n{rows}\n ]}}')
    POOL_FILE.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
