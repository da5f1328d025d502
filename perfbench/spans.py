"""In-memory span recorder for the traced benchmark run.

`Tracer.install()` replaces library functions at the names their callers
look them up by (for example `hyperclique.solver.induced_subgraph`, which
is what the scan calls) with wrappers that record one span each: name,
start, end, parent and up to two integer notes.  `op_figures` turns the
spans of one benchmark operation into per-layer figures.  Spans live in
flat arrays so that a run with a million lens tests stays small; `save`
writes them out once the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

GENERATE = "generator.generate"
LOAD = "graphs.load_graph"
KERNELIZE = "kernel.kernelize"
SOLVE = "solver.solve"
SOLVE_C = "geometry.solve_C_for_avg_degree"
DEGREE = "geometry.expected_avg_degree"
SAMPLE = "generator.sample_points"
BUILD = "generator.build_graph"
CSR = "graphs.Graph.from_edges"
LOAD_EDGES = "graphs.load_edge_list"
LOAD_COORDS = "graphs.load_coords"
INITIAL = "kernel.initial_clique"
PEEL = "kernel.peel"
INDUCED = "graphs.induced_subgraph"
ORDER = "solver.build_cneeo_geometric"
SCAN = "solver.solve_with_cneeo"
QUICK = "matching.quick_reject_cobipartite"
BIPARTITION = "matching.complement_bipartition"
MAX_CLIQUE = "matching.max_clique_cobipartite"


def _induced_note(args, out):
    # (member count, identity of the graph the members were taken from)
    return len(out[1]), id(args[0])


def _flag_note(args, out):
    return int(bool(out)), 0


def _bipartition_note(args, out):
    return int(type(out).__name__ == "Bipartition"), 0


# (module, owner inside the module or None, attribute, span name, note)
# The owner/attribute pair is where the caller looks the function up.
WRAPS = (
    ("hyperclique.generator", None, "solve_C_for_avg_degree", SOLVE_C, None),
    ("hyperclique.geometry", None, "expected_avg_degree", DEGREE, None),
    ("hyperclique.generator", None, "sample_points", SAMPLE, None),
    ("hyperclique.generator", None, "build_graph", BUILD, None),
    ("hyperclique.graphs", "Graph", "from_edges", CSR, None),
    ("hyperclique.graphs", None, "load_edge_list", LOAD_EDGES, None),
    ("hyperclique.graphs", None, "load_coords", LOAD_COORDS, None),
    ("hyperclique.solver", None, "kernelize", KERNELIZE, None),
    ("hyperclique.kernel", None, "initial_clique", INITIAL, None),
    ("hyperclique.kernel", None, "peel", PEEL, None),
    ("hyperclique.solver", None, "induced_subgraph", INDUCED, _induced_note),
    ("hyperclique.solver", None, "build_cneeo_geometric", ORDER, None),
    ("hyperclique.solver", None, "solve_with_cneeo", SCAN, None),
    ("hyperclique.solver", None, "quick_reject_cobipartite", QUICK, _flag_note),
    ("hyperclique.solver", None, "complement_bipartition", BIPARTITION, _bipartition_note),
    ("hyperclique.solver", None, "max_clique_cobipartite", MAX_CLIQUE, None),
)

# CSR builds are recorded only where generation makes them; inside
# induced_subgraph they belong to that span's time.
ONLY_UNDER = {CSR: BUILD}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.note = array("q")
        self.note2 = array("q")
        self._stack: list[int] = []
        self._restore: list = []
        self.missing: set[str] = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.note.append(0)
        self.note2.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int, note=None) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if note is not None:
            self.note[i], self.note2[i] = note

    def _top_is(self, name: str) -> bool:
        return bool(self._stack) and self.names[self.name[self._stack[-1]]] == name

    def _wrapper(self, fn, span: str, note_fn):
        parent_name = ONLY_UNDER.get(span)

        def traced(*args, **kwargs):
            if parent_name is not None and not self._top_is(parent_name):
                return fn(*args, **kwargs)
            i = self.begin(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.finish(i)
                raise
            self.finish(i, note_fn(args, out) if note_fn else None)
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in WRAPS that the library still has."""
        for module_name, owner_name, attr, span, note_fn in WRAPS:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name, None)
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.add(span)
                continue
            if isinstance(raw, classmethod):
                inner = self._wrapper(raw.__func__, span, note_fn)
                setattr(owner, attr, classmethod(inner))
            else:
                setattr(owner, attr, self._wrapper(raw, span, note_fn))
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            note=np.frombuffer(self.note, dtype=np.int64),
            note2=np.frombuffer(self.note2, dtype=np.int64),
        )


def op_figures(tr: Tracer, lo: int, mode: str | None, graph_id: int) -> dict:
    """Per-layer figures of the operation whose root span is `lo`.

    Every span recorded after `lo` belongs to that operation.  `mode` is
    "geo" or "nogeo" for solve operations; `graph_id` is id() of the
    graph the operation was given.
    """
    hi = len(tr.name)
    name = np.frombuffer(tr.name, dtype=np.int32)[lo:hi]
    parent = np.frombuffer(tr.parent, dtype=np.int64)[lo:hi] - lo
    dur = (np.frombuffer(tr.end, dtype=np.float64)[lo:hi]
           - np.frombuffer(tr.start, dtype=np.float64)[lo:hi])
    note = np.frombuffer(tr.note, dtype=np.int64)[lo:hi]
    note2 = np.frombuffer(tr.note2, dtype=np.int64)[lo:hi]
    own = dur.copy()  # self time: duration less that of the direct children
    inner = parent >= 0  # the root's parent lies outside the operation
    np.subtract.at(own, parent[inner], dur[inner])
    ids = {n: i for i, n in enumerate(tr.names)}

    def mask(span):
        return name == ids.get(span, -1)

    def total(span, where=None):
        m = mask(span) if where is None else mask(span) & where
        return float(dur[m].sum())

    def count(span, where=None):
        m = mask(span) if where is None else mask(span) & where
        return int(m.sum())

    root = tr.names[name[0]]
    if root == GENERATE:
        build = np.flatnonzero(mask(BUILD))
        return {
            "geometry.solve_C_s": total(SOLVE_C),
            "geometry.solve_C_calls": count(SOLVE_C),
            "geometry.degree_eval_count": count(DEGREE),
            "generator.sample_s": total(SAMPLE),
            "generator.edges_s": float(own[build].sum()),
            "graphs.csr_s": total(CSR, np.isin(parent, build)),
        }
    if root == LOAD:
        return {"graphs.load_edges_s": total(LOAD_EDGES),
                "graphs.load_coords_s": total(LOAD_COORDS)}
    if root == KERNELIZE:
        # the benchmark notes the seed size and kernel edge count on the root
        return {"kernel.initial_clique_s": total(INITIAL),
                "kernel.peel_s": total(PEEL),
                "kernel.seed_size": int(note[0]),
                "kernel.kernel_edges": int(note2[0])}

    layer = np.asarray([n.split(".")[0] for n in tr.names])[name]
    induced = mask(INDUCED)
    bip = mask(BIPARTITION)
    out = {
        f"solver.{mode}.self_s": float(own[layer == "solver"].sum()),
        f"graphs.{mode}.induced_subgraph_calls": int(induced.sum()),
        f"graphs.{mode}.induced_subgraph_s": float(dur[induced].sum()),
        f"matching.{mode}.quick_rejects": count(QUICK, note == 1),
        f"matching.{mode}.bipartition_calls": int(bip.sum()),
        f"matching.{mode}.bipartition_s": float(dur[bip].sum()),
        f"matching.{mode}.odd_cycles": count(BIPARTITION, note == 0),
        f"matching.{mode}.max_clique_calls": count(MAX_CLIQUE),
        f"matching.{mode}.max_clique_s": total(MAX_CLIQUE),
    }
    if mode == "geo":
        lens = induced & np.isin(parent, np.flatnonzero(mask(SCAN)))
        out.update({
            "solver.geo.order_s": total(ORDER),
            "solver.geo.scan_s": total(SCAN),
            "solver.geo.lenses": int(lens.sum()),
            "solver.geo.lens_vertices": int(note[lens].sum()),
        })
    else:
        # the kernel's own induced subgraph is cut from the input graph;
        # every other one is a greedy test on a lens of the kernel.  A test
        # that finds a bipartition places its edge; any other leaves the
        # edge to be tested again or pruned.
        tests = int((induced & (note2 != graph_id)).sum())
        placed = count(BIPARTITION, note == 1)
        out.update({
            "solver.nogeo.tests": tests,
            "solver.nogeo.retests": tests - placed,
            "matching.nogeo.bipartitions": placed,
        })
    return out
