"""Benchmark of the hyperclique pipeline: generate, load, kernelize, solve.

    python3 perfbench/run.py --workload hrg-dense-kernel --seed 1 --seconds 55 --trace 0

Run from the repository root; the library is imported from ./src.  One
run times a fresh interpreter's `import hyperclique` (setup_s), runs a
warm-up instance, then repeats rounds of interleaved calls on the
workload's instances until --seconds have passed since the process
started; a round is begun only while a median round's time is left.  Each timed call follows a pace loop that tells how fast the
machine runs, and a gc.collect().  A timing metric is the sum
over the workload's instances of the median over the full-speed calls,
scaled to the reference pace (see PACE_REFERENCE_S).  Afterwards every
output is checked by checks.py.  With --trace 1 the library's functions
are wrapped by spans.py and the per-layer figures are reported instead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()
# one BLAS / OpenMP thread: the C solve's eigensolve otherwise measures
# whatever else the machine runs
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
if not (SRC / "hyperclique" / "__init__.py").is_file():
    sys.exit(f"no library at {SRC}; run from the repository root")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hyperclique as hc  # noqa: E402
import spans as sp  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "generate_s": "s",
    "load_s": "s",
    "kernel_s": "s",
    "solve_geo_s": "s",
    "solve_nogeo_s": "s",
    "peak_rss_mb": "MB",
    "kernel_vertices": "count",
}
# per-layer metric -> (unit, span names it reads)
PER_LAYER = {}
# per-layer ratios -> (numerator, denominator), both summed before dividing
RATIOS = {
    "geometry.degree_evals": ("geometry.degree_eval_count", "geometry.solve_C_calls"),
    "matching.nogeo.pass_ratio": ("matching.nogeo.bipartitions", "solver.nogeo.tests"),
}


def _layer(name, unit, *needs):
    PER_LAYER[name] = (unit, needs)


def _define_per_layer():
    _layer("geometry.solve_C_s", "s", sp.SOLVE_C)
    _layer("geometry.solve_C_calls", "count", sp.SOLVE_C)
    _layer("geometry.degree_evals", "count", sp.SOLVE_C, sp.DEGREE)
    _layer("generator.sample_s", "s", sp.SAMPLE)
    _layer("generator.edges_s", "s", sp.BUILD, sp.CSR)
    _layer("graphs.csr_s", "s", sp.BUILD, sp.CSR)
    _layer("graphs.load_edges_s", "s", sp.LOAD_EDGES)
    _layer("graphs.load_coords_s", "s", sp.LOAD_COORDS)
    _layer("kernel.initial_clique_s", "s", sp.INITIAL)
    _layer("kernel.peel_s", "s", sp.PEEL)
    _layer("kernel.seed_size", "count")
    _layer("kernel.kernel_edges", "count")
    _layer("solver.geo.order_s", "s", sp.ORDER)
    _layer("solver.geo.scan_s", "s", sp.SCAN)
    _layer("solver.geo.lenses", "count", sp.SCAN, sp.INDUCED)
    _layer("solver.geo.lens_vertices", "count", sp.SCAN, sp.INDUCED)
    _layer("solver.nogeo.tests", "count", sp.INDUCED)
    _layer("solver.nogeo.retests", "count", sp.INDUCED, sp.BIPARTITION)
    everything = tuple(name for _, _, _, name, _ in sp.WRAPS)
    for mode in ("geo", "nogeo"):
        _layer(f"solver.{mode}.self_s", "s", *everything)
        _layer(f"graphs.{mode}.induced_subgraph_calls", "count", sp.INDUCED)
        _layer(f"graphs.{mode}.induced_subgraph_s", "s", sp.INDUCED)
        _layer(f"matching.{mode}.quick_rejects", "count", sp.QUICK)
        _layer(f"matching.{mode}.bipartition_calls", "count", sp.BIPARTITION)
        _layer(f"matching.{mode}.bipartition_s", "s", sp.BIPARTITION)
        _layer(f"matching.{mode}.odd_cycles", "count", sp.BIPARTITION)
        _layer(f"matching.{mode}.max_clique_calls", "count", sp.MAX_CLIQUE)
        _layer(f"matching.{mode}.max_clique_s", "s", sp.MAX_CLIQUE)
    _layer("matching.nogeo.bipartitions", "count", sp.BIPARTITION)
    _layer("matching.nogeo.pass_ratio", "ratio", sp.INDUCED, sp.BIPARTITION)


def cold_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports the library and exits."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import hyperclique"], env=env, cwd=ROOT,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t


def blas_threads() -> dict:
    """Thread count of every OpenBLAS this process loaded, asked of the library itself."""
    out = {}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def write_tsv(g, edge_path, coord_path):
    """The instance as the CLI's files: `u<TAB>v` edges and `id<TAB>r<TAB>phi` points."""
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    keep = src < g.indices
    np.savetxt(edge_path, np.column_stack([src[keep], g.indices[keep]]), fmt="%d",
               delimiter="\t")
    np.savetxt(coord_path, np.column_stack([np.arange(g.n), g.coords.r, g.coords.phi]),
               fmt=["%d", "%.17g", "%.17g"], delimiter="\t")


# The host runs this machine's vCPUs at full speed or, for seconds to
# minutes at a time, up to 1.6x slower (no steal time is reported), and
# its full speed itself drifts by some 20% over minutes.  A fixed pace
# loop (pure Python) timed just before each library call tells how fast
# the machine runs.  A call counts as full speed when its pace is within
# PACE_MARGIN of the run's fastest (the 10th percentile); a timing metric
# is the median over full-speed calls, scaled by PACE_REFERENCE_S over
# the median pace of those calls:
# seconds on a machine whose pace loop takes PACE_REFERENCE_S, a round
# figure near its full-speed time in runs on the reference machine
# (README, Timing metrics and Spread).
PACE_MARGIN = 1.2
PACE_REFERENCE_S = 2.0e-3


def _pace_work():
    s = 0
    for i in range(40000):
        s += i & 7


def pace() -> float:
    """Seconds the pace loop takes, timed after one untimed run of it, so
    that what ran just before does not show."""
    _pace_work()
    t = time.perf_counter()
    _pace_work()
    return time.perf_counter() - t


class Bench:
    """One run: the operations, their timings and what the checks need."""

    def __init__(self, workload, work_dir, tracer):
        self.wl = workload
        self.dir = work_dir
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        # metric -> slot -> (value, pace of the call) per round
        self.samples = defaultdict(lambda: defaultdict(list))
        self.paces = []  # the pace before every timed call
        self.last_pace = 0.0  # that of the latest call
        self.kept = {}  # instance -> the instance whose graph and files stand for it
        self.digests = {}  # kept instance -> digest of the graph generate returned
        self.generated = {}  # kept instance -> that graph
        self.reference = {}  # kept instance -> that graph rotated, as written to its files
        self.radius = {}  # instance -> R
        self.records = []  # per (slot, round): outputs to check

    def _call(self, fn, root, slot, metric, mode=None, graph=None):
        """One timed library call; None if it raised."""
        self.attempted += 1
        self.last_pace = pace()
        self.paces.append(self.last_pace)
        gc.collect()
        lo = self.tr.begin(root) if self.tr else None
        t = time.perf_counter()
        try:
            out = fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            if self.tr:
                self.tr.finish(lo)
            return None
        elapsed = time.perf_counter() - t
        if self.tr:
            if root == sp.KERNELIZE:
                self.tr.finish(lo, (len(out.initial_clique), out.kernel_edge_count))
            else:
                self.tr.finish(lo)
        if slot is not None:
            self.samples[metric][slot].append((elapsed, self.last_pace))
            if self.tr:
                for name, value in sp.op_figures(self.tr, lo, mode, id(graph)).items():
                    self.samples[name][slot].append((value, self.last_pace))
        return out

    def _generate(self, inst, slot):
        g = self._call(lambda: hc.generate(inst.n, inst.alpha, inst.seed, avg_degree=inst.delta),
                       sp.GENERATE, slot, "generate_s")
        if g is not None and inst not in self.radius:
            # a cache hit right after generate, outside the timed call
            self.radius[inst] = hc.HrgParams.from_avg_degree(inst.n, inst.alpha, inst.delta).R
        return g

    def _keep(self, inst, g, previous=None):
        """Keep the generated graph and write it, rotated, as the files load_graph
        reads.  A graph equal to that of `previous` (the slot's instance of the
        round before) is not kept again: the run's memory stays that of one round."""
        digest = checks.graph_digest(g)
        if previous in self.kept and self.digests[self.kept[previous]] == digest:
            self.kept[inst] = self.kept[previous]
            return
        self.kept[inst] = inst
        self.digests[inst] = digest
        self.generated[inst] = g
        self.reference[inst] = checks.rotated(g, self.wl.rotation)
        write_tsv(self.reference[inst], *self._paths(inst))

    def _paths(self, inst):
        stem = f"{inst.n}-{inst.alpha}-{inst.delta}-{inst.seed}"
        return self.dir / f"{stem}.edges.tsv", self.dir / f"{stem}.coords.tsv"

    def prepare(self):
        """Generate the fixed instances once, untimed, and write their files."""
        for slot in self.wl.slots:
            if not slot.fresh:
                g = self._generate(slot.base, None)
                if g is not None:
                    self._keep(slot.base, g)

    def round(self, r, slot_ids):
        """All five operations on each slot's instance of round r.  Kernel and
        solvers run on the graph load_graph read back from the files."""
        for i in slot_ids:
            slot = self.wl.slots[i] if i is not None else None
            inst = slot.instance(r) if slot is not None else self.wl.warmup
            fresh = slot is None or slot.fresh
            g = self._generate(inst, i)
            generated = None
            if g is not None:
                if fresh:
                    self._keep(inst, g, slot.instance(r - 1) if slot is not None else None)
                else:
                    generated = checks.graph_digest(g)
            del g
            if inst not in self.kept:
                self.attempted += 4
                self.failed += 4
                continue
            rec = {"inst": self.kept[inst]}
            if generated is not None:
                rec["generated"] = generated
            edge_path, coord_path = self._paths(self.kept[inst])
            loaded = self._call(lambda: hc.load_graph(edge_path, coord_path), sp.LOAD, i, "load_s")
            if loaded is None:
                self.attempted += 3
                self.failed += 3
                continue
            rec["loaded"] = checks.graph_digest(loaded)
            kr = self._call(lambda: hc.kernelize(loaded), sp.KERNELIZE, i, "kernel_s")
            if kr is not None and i is not None:
                self.samples["kernel_vertices"][i].append((len(kr.kernel), self.last_pace))
            rec["kernel"] = kr
            rec["geo"] = self._call(lambda: hc.solve(loaded, "geo", "opt"), sp.SOLVE, i,
                                    "solve_geo_s", "geo", loaded)
            rec["nogeo"] = self._call(lambda: hc.solve(loaded, "nogeo"), sp.SOLVE, i,
                                      "solve_nogeo_s", "nogeo", loaded)
            del loaded
            self.records.append(rec)

    def full_speed(self) -> float:
        """The slowest pace a call may have and still count as full speed."""
        return PACE_MARGIN * float(np.quantile(self.paces, 0.1))

    def pace(self) -> float:
        """Median pace of the full-speed calls."""
        limit = self.full_speed()
        return statistics.median(p for p in self.paces if p <= limit)

    def total(self, metric, scaled=False):
        """Sum over slots of the median over the slot's full-speed calls (over
        all its calls if none ran at full speed), times PACE_REFERENCE_S over
        the run's pace if scaled; None if never measured."""
        per_slot = self.samples.get(metric)
        if not per_slot:
            return None
        limit = self.full_speed()
        out = 0.0
        for pairs in per_slot.values():
            kept = [v for v, pace in pairs if pace <= limit] or [v for v, _ in pairs]
            out += statistics.median(kept)
        return float(out * PACE_REFERENCE_S / self.pace()) if scaled else float(out)

    def full_speed_share(self) -> float:
        """Share of the timed calls that ran at full speed."""
        limit = self.full_speed()
        return sum(p <= limit for p in self.paces) / len(self.paces)

    def check(self):
        """Every record against checks computed apart from the library."""
        errors = []
        truths, written = {}, {}
        for inst, g in self.generated.items():
            R = self.radius[inst]
            brute = g.n <= 4096
            errors += [f"{inst}: {e}" for e in checks.check_graph(g, R, brute=brute)]
            written[inst] = checks.graph_digest(self.reference[inst])
            truths[inst] = checks.Truth(self.reference[inst])
        for rec in self.records:
            inst = rec["inst"]
            g, R, truth = self.reference[inst], self.radius[inst], truths[inst]
            found = []
            if "generated" in rec:
                found += checks.check_same_graph(rec["generated"], self.digests[inst],
                                                 "regenerated graph")
            found += checks.check_same_graph(rec["loaded"], written[inst],
                                             "graph read back by load_graph")
            kr, geo, nogeo = rec["kernel"], rec["geo"], rec["nogeo"]
            if kr is not None:
                found += checks.check_kernel(kr, g, R, truth)
            if kr is not None and geo is not None and nogeo is not None:
                found += checks.check_outcomes(geo, nogeo, len(kr.initial_clique), g, R, truth)
            errors += [f"{inst}: {e}" for e in found]
        return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hyperclique pipeline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; one of {workloads.NAMES}", file=sys.stderr)
        return 2
    setup_s = cold_import_seconds()
    _define_per_layer()
    wl = workloads.plan(args.workload, args.seed)
    work_dir = WORK / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = sp.Tracer()
        tracer.install()
    try:
        bench = Bench(wl, work_dir, tracer)
        bench.prepare()
        bench.round(-1, [None])  # warm-up: first calls pay lazy set-up, untimed
        gc.collect()
        gc.freeze()  # keep each gc.collect() before a timed call short
        deadline = T0 + args.seconds
        slot_ids = list(range(len(wl.slots)))
        durations = []
        while len(durations) < workloads.MAX_ROUNDS:
            t = time.perf_counter()
            bench.round(len(durations), slot_ids)
            durations.append(time.perf_counter() - t)
            if deadline - time.perf_counter() < statistics.median(durations):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            tracer.save(WORK / f"trace-{args.workload}.npz")
        gc.unfreeze()
        errors = bench.check()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    end_to_end = {
        "setup_s": setup_s,
        "generate_s": bench.total("generate_s", scaled=True),
        "load_s": bench.total("load_s", scaled=True),
        "kernel_s": bench.total("kernel_s", scaled=True),
        "solve_geo_s": bench.total("solve_geo_s", scaled=True),
        "solve_nogeo_s": bench.total("solve_nogeo_s", scaled=True),
        "peak_rss_mb": peak_rss_mb,
        "kernel_vertices": bench.total("kernel_vertices"),
    }
    if args.trace:
        metrics, missing = {}, []
        for name, (unit, needs) in PER_LAYER.items():
            if any(n in tracer.missing for n in needs):
                missing.append(name)
                continue
            if name in RATIOS:
                num, den = (bench.total(k) or 0.0 for k in RATIOS[name])
                value = num / den if den else 0.0
            else:
                value = bench.total(name, scaled=unit == "s") or 0.0
            metrics[name] = {"value": value, "unit": unit}
        print("traced end-to-end: " + json.dumps(end_to_end))
        if missing:
            print("missing (library function no longer present): " + ", ".join(missing))
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()
                   if v is not None}
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "instances": [[s.base.n, s.base.alpha, s.base.delta, s.base.seed] for s in wl.slots],
        "rotation": wl.rotation,
        "rounds": len(durations),
        "pace_s": bench.pace(),
        "full_speed_share": bench.full_speed_share(),
        "unscaled_s": {k: bench.total(k) for k in
                       ("generate_s", "load_s", "kernel_s", "solve_geo_s", "solve_nogeo_s")},
        "round_s": [round(d, 3) for d in durations],
        "wall_s": round(time.perf_counter() - T0, 2),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "networkx": metadata.version("networkx"),
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }
    print("env: " + json.dumps(env))
    print(json.dumps({"correct": not errors, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
