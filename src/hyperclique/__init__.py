"""Hyperbolic random graphs and exact maximum cliques via edge elimination."""

from .bench import ExperimentSpec, run_kernel_size, run_realworld, run_runtime
from .generator import build_graph, generate, sample_points
from .geometry import (
    HrgParams,
    PolarPoint,
    Points,
    distance,
    expected_avg_degree,
    solve_C_for_avg_degree,
)
from .graphs import (
    Graph,
    common_neighbors,
    fetch_snap,
    induced_subgraph,
    load_graph,
    load_snap,
)
from .kernel import KernelResult, initial_clique, kernelize, peel
from .matching import (
    Bipartition,
    OddCycle,
    complement_bipartition,
    max_clique_cobipartite,
)
from .solver import (
    CliqueOutcome,
    EdgeOrdering,
    build_cneeo_geometric,
    build_cneeo_greedy,
    oracle_max_clique,
    solve,
    solve_baseline,
    solve_heuristic,
    solve_with_cneeo,
    validate_cneeo,
)

__version__ = "0.1.0"

__all__ = [
    "Bipartition",
    "CliqueOutcome",
    "EdgeOrdering",
    "ExperimentSpec",
    "Graph",
    "HrgParams",
    "KernelResult",
    "OddCycle",
    "Points",
    "PolarPoint",
    "build_cneeo_geometric",
    "build_cneeo_greedy",
    "build_graph",
    "common_neighbors",
    "complement_bipartition",
    "distance",
    "expected_avg_degree",
    "fetch_snap",
    "generate",
    "induced_subgraph",
    "initial_clique",
    "kernelize",
    "load_graph",
    "load_snap",
    "max_clique_cobipartite",
    "oracle_max_clique",
    "peel",
    "run_kernel_size",
    "run_realworld",
    "run_runtime",
    "sample_points",
    "solve",
    "solve_C_for_avg_degree",
    "solve_baseline",
    "solve_heuristic",
    "solve_with_cneeo",
    "validate_cneeo",
]
