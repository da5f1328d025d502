"""Workload definitions: which HRG instances a run feeds the library.

An instance is (n, alpha, avg_degree, generator seed).  A workload is a
list of slots; slot i of round r names the instance that round's
operations run on.  `plan(name, seed)` derives the workload from the
run's seed and nothing else, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

POOL_FILE = Path(__file__).with_name("pool.json")
MAX_ROUNDS = 24  # per run
# hrg-many-small repeats each slot's instance in every round with alpha
# raised by ALPHA_STEP per round: no (n, alpha, avg_degree) triple repeats
# in a process, so every C solve is cold without touching the library's
# caches, while C and the graph stay the same (radii move by ~1e-9).
ALPHA_STEP = 1e-9


@dataclass(frozen=True)
class Instance:
    n: int
    alpha: float
    delta: float
    seed: int


@dataclass(frozen=True)
class Slot:
    base: Instance
    fresh: bool  # a new (n, alpha, avg_degree) triple in every round

    def instance(self, round_index: int) -> Instance:
        if not self.fresh:
            return self.base
        b = self.base
        return Instance(b.n, b.alpha + round_index * ALPHA_STEP, b.delta, b.seed)


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    warmup: Instance  # runs every operation once before timing; its triple is not reused
    rotation: float  # added to every angle in the coordinate files, mod 2 pi


POOLED = {
    "hrg-sparse": dict(n=1 << 16, alpha=0.75, delta=10.0),
    "hrg-dense-kernel": dict(n=1 << 14, alpha=0.55, delta=20.0),
}
POOLED_COUNT = 2  # instances per round
MANY_SMALL = "hrg-many-small"
SMALL_GROUPS = [(a, d) for a in (0.6, 0.75, 0.9) for d in (4.0, 10.0)]
SMALL_COUNT = 40
SMALL_N = (300, 2000)
NAMES = (*POOLED, MANY_SMALL)
# Kernel size and scan work vary tenfold across generator seeds (37 to
# 1077 kernel vertices over 300 seeds of hrg-sparse), and nogeo's greedy
# tests follow the vertex ids (62 to 411 tests over six relabelings of
# one hrg-dense-kernel instance).  So the instances are fixed: the
# candidates of pool.json whose work figures lie nearest the median of
# their workload (or stratum), in the generator's own labels.
TYPICAL = ("m", "kernel_vertices", "solver.geo.lens_vertices", "solver.nogeo.tests")


def small_strata() -> list[tuple[float, float, int, int]]:
    """(alpha, delta, n_lo, n_hi) per many-small slot: six (alpha, delta)
    groups of six or seven, each splitting [300, 2000) into one n range
    per slot."""
    out = []
    per_group, extra = divmod(SMALL_COUNT, len(SMALL_GROUPS))
    for g, (alpha, delta) in enumerate(SMALL_GROUPS):
        k = per_group + (g < extra)
        width = (SMALL_N[1] - SMALL_N[0]) // k
        out += [(alpha, delta, SMALL_N[0] + j * width, SMALL_N[0] + (j + 1) * width)
                for j in range(k)]
    return out


def _pool(name: str) -> list[dict]:
    with open(POOL_FILE) as fh:
        return json.load(fh)[name]["candidates"]


def typical(candidates: list[dict], k: int) -> list[dict]:
    """The k candidates whose work figures lie nearest the candidates' medians
    (summed relative distance)."""
    x = np.array([[c[f] for f in TYPICAL] for c in candidates], dtype=float)
    median = np.median(x, axis=0)
    distance = (np.abs(x - median) / np.maximum(median, 1.0)).sum(axis=1)
    return [candidates[i] for i in np.argsort(distance, kind="stable")[:k]]


def plan(name: str, seed: int) -> Workload:
    """The seed sets the rotation of the disk in the files load_graph reads,
    the order of the instances within a round and the warm-up instance."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    rotation = float(rng.random() * 2.0 * np.pi)
    if name in POOLED:
        p = POOLED[name]
        slots = tuple(Slot(Instance(p["n"], p["alpha"], p["delta"], c["seed"]), fresh=False)
                      for c in typical(_pool(name), POOLED_COUNT))
        warmup = Instance(1024, p["alpha"], p["delta"], int(rng.integers(1 << 31)))
    elif name == MANY_SMALL:
        candidates = _pool(MANY_SMALL)
        slots = []
        for i, (alpha, delta, _, _) in enumerate(small_strata()):
            c = typical([c for c in candidates if c["stratum"] == i], 1)[0]
            slots.append(Slot(Instance(c["n"], alpha, delta, c["seed"]), fresh=True))
        warmup = Instance(SMALL_N[0] - 44, 0.75, 10.0, int(rng.integers(1 << 31)))
    else:
        raise ValueError(f"unknown workload {name!r}")
    order = rng.permutation(len(slots))
    return Workload(name, tuple(slots[i] for i in order), warmup, rotation)
