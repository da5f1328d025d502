"""Command-line front end.

Subcommands: generate, kernel, solve, oracle, validate, fetch-snap, bench.
Every command writes one JSON document to stdout (pretty by default,
compact under --json) and diagnostics to stderr.  Exit codes: 0 success /
exact result, 1 runtime failure or, from validate, an ordering that fails
the check (`{"valid": false}`), 2 usage error, 3 heuristic result that
may be below the true optimum.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bench
from .generator import generate
from .geometry import solve_C_for_avg_degree
from .graphs import (
    SNAP_DATASETS,
    fetch_snap,
    load_graph,
    write_coords,
    write_edge_list,
)
from .kernel import kernelize
from .solver import build_cneeo_geometric, oracle_max_clique, solve, validate_cneeo

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_HEURISTIC = 3


def _emit(doc: dict, args) -> None:
    if getattr(args, "json", False):
        print(json.dumps(doc, separators=(",", ":")))
    else:
        print(json.dumps(doc, indent=2))


def _say(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _parse_list(text: str, cast):
    return tuple(cast(tok) for tok in text.split(",") if tok)


def cmd_generate(args) -> int:
    if args.n < 1:
        print("error: --n must be positive", file=sys.stderr)
        return EXIT_USAGE
    C = args.C if args.C is not None else solve_C_for_avg_degree(args.n, args.alpha, args.avg_deg)
    g = generate(args.n, args.alpha, args.seed, C=C)
    write_edge_list(g, args.out)
    if args.coords:
        write_coords(g.coords, args.coords)
    _say(args, f"wrote {g.m} edges to {args.out}")
    _emit({"n": g.n, "m": g.m, "R": 2.0 * math.log(args.n) + C, "C": C}, args)
    return EXIT_OK


def cmd_kernel(args) -> int:
    g = load_graph(args.graph, args.coords)
    kr = kernelize(g)
    _emit(
        {
            "initial_clique_size": int(kr.initial_clique.size),
            "kernel_size": int(kr.kernel.size),
            "kernel_edges": int(kr.kernel_edge_count),
            "timings": {k: round(v, 3) for k, v in kr.timings.items()},
        },
        args,
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.mode in ("geo", "baseline") and not args.coords:
        print(f"error: --mode {args.mode} requires --coords", file=sys.stderr)
        return EXIT_USAGE
    g = load_graph(args.graph, args.coords)
    out = solve(g, args.mode, args.variant)
    _emit(
        {
            "mode": args.mode,
            "variant": args.variant if args.mode == "geo" else None,
            "omega_eval": out.omega_eval,
            "exact": out.exact,
            "clique": [int(v) for v in out.clique],
            "kernel_size": out.kernel_size,
            "v_left": out.residual_vertices,
            "e_left": out.residual_edges,
            "timings": {k: round(v, 3) for k, v in out.timings.items()},
        },
        args,
    )
    return EXIT_OK if out.exact else EXIT_HEURISTIC


def cmd_oracle(args) -> int:
    g = load_graph(args.graph)
    clique = oracle_max_clique(g)
    _emit({"omega": int(clique.size), "clique": [int(v) for v in clique]}, args)
    return EXIT_OK


def cmd_validate(args) -> int:
    g = load_graph(args.graph, args.coords)
    ok = validate_cneeo(g, build_cneeo_geometric(g))
    _emit({"valid": bool(ok)}, args)
    return EXIT_OK if ok else EXIT_FAILURE


def cmd_fetch_snap(args) -> int:
    path = fetch_snap(args.name, args.cache_dir)
    _emit({"path": str(path)}, args)
    return EXIT_OK


PAPER_SCALE_N = (2**17, 2**18, 2**19, 2**20)
DEFAULT_KERNEL_N = (2**13, 2**14, 2**15, 2**16, 2**17)
DEFAULT_DATASETS = ("ca-HepPh", "com-dblp", "Wiki-Vote")


def cmd_bench(args) -> int:
    n_list = _parse_list(args.n_list, int) if args.n_list else (
        PAPER_SCALE_N if args.paper_scale else DEFAULT_KERNEL_N
    )
    if args.kind == "realworld":
        names = _parse_list(args.datasets, str)
        rows = bench.run_realworld(names, args.cache_dir)
    else:
        spec = bench.ExperimentSpec(
            kind=args.kind,
            n_list=n_list,
            alpha_list=_parse_list(args.alpha_list, float),
            delta_list=_parse_list(args.delta_list, float),
            samples=args.samples,
            seed_base=args.seed_base,
        )
        if args.kind == "kernel-size":
            rows = bench.run_kernel_size(spec, jobs=args.jobs)
        else:
            rows = bench.run_runtime(spec, jobs=args.jobs)
    bench.write_csv(rows, bench.columns_for(args.kind), args.out)
    _say(args, f"wrote {len(rows)} rows to {args.out}")
    _emit({"rows": len(rows), "out": args.out}, args)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="compact single-line JSON output")
    p.add_argument("--quiet", action="store_true", help="suppress progress messages")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperclique",
        description="hyperbolic random graphs and maximum cliques",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a hyperbolic random graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--C", type=float, default=None)
    group.add_argument("--avg-deg", type=float, default=None)
    p.add_argument("--seed", type=int, required=True,
                   help="explicit seed; omitting it is an error by design")
    p.add_argument("--out", required=True, help="edge list TSV path")
    p.add_argument("--coords", default=None, help="coordinate TSV path")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("kernel", help="initial clique + degree peel")
    p.add_argument("--graph", required=True)
    p.add_argument("--coords", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("solve", help="maximum clique via edge elimination")
    p.add_argument("--graph", required=True)
    p.add_argument("--coords", default=None)
    p.add_argument("--mode", choices=("geo", "nogeo", "baseline"), default="geo")
    p.add_argument("--variant", choices=("red", "skip", "opt"), default="opt")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force reference solver (small graphs)")
    p.add_argument("--graph", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("validate", help="check the length-sorted edge ordering")
    p.add_argument("--graph", required=True)
    p.add_argument("--coords", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fetch-snap", help="download and cache a public dataset")
    p.add_argument("--name", required=True)
    p.add_argument("--cache-dir", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_fetch_snap)

    p = sub.add_parser("bench", help="experiment harness, CSV output")
    p.add_argument("kind", choices=("kernel-size", "runtime", "realworld"))
    p.add_argument("--n-list", default=None, help="comma-separated vertex counts")
    p.add_argument("--alpha-list", default="0.75")
    p.add_argument("--delta-list", default="10")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--paper-scale", action="store_true",
                   help="default n grid up to 2^20 instead of 2^17")
    p.add_argument("--datasets", default=",".join(DEFAULT_DATASETS))
    p.add_argument("--cache-dir", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
