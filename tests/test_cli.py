"""End-to-end tests for the command line, run in process via main(argv)."""

import csv
import json
import math

import numpy as np
import pytest

from hyperclique.bench import KERNEL_SIZE_COLUMNS
from hyperclique.cli import main
from hyperclique.generator import generate
from hyperclique.graphs import Graph, load_graph, write_coords, write_edge_list
from hyperclique.kernel import kernelize


def _run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _gen(capsys, tmp_path, n=800, seed=1, coords=True):
    g = tmp_path / "g.tsv"
    c = tmp_path / "c.tsv"
    argv = [
        "generate", "--n", str(n), "--alpha", "0.75", "--avg-deg", "10",
        "--seed", str(seed), "--out", str(g), "--json", "--quiet",
    ]
    if coords:
        argv += ["--coords", str(c)]
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    return g, c, json.loads(out)


def _write_k333(tmp_path):
    # complete tripartite gadget: every edge's subproblem is an
    # independent 3-set, so the geometry-free scan places nothing
    parts = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    edges = [(u, v) for i, a in enumerate(parts) for b in parts[i + 1:]
             for u in a for v in b]
    path = tmp_path / "k333.tsv"
    write_edge_list(Graph.from_edges(9, edges), path)
    return path


# ---------------------------------------------------------------------------
# generate


def test_generate_writes_files_and_summary(capsys, tmp_path):
    g, c, doc = _gen(capsys, tmp_path, n=1000, seed=1)
    assert g.exists() and c.exists()
    assert doc["n"] == 1000
    # expectation n * delta / 2 = 5000, within 25%
    assert 3750 <= doc["m"] <= 6250
    assert doc["R"] == pytest.approx(2.0 * math.log(1000) + doc["C"])


def test_generate_rejects_nonpositive_n(capsys, tmp_path):
    rc, _, err = _run(
        capsys, "generate", "--n", "0", "--alpha", "0.75", "--avg-deg", "10",
        "--seed", "1", "--out", str(tmp_path / "g.tsv"),
    )
    assert rc == 2
    assert "positive" in err


def test_generate_requires_seed(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "100", "--alpha", "0.75", "--avg-deg", "10",
              "--out", str(tmp_path / "g.tsv")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_generate_rejects_both_density_flags(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "100", "--alpha", "0.75", "--avg-deg", "10",
              "--C", "1.0", "--seed", "1", "--out", str(tmp_path / "g.tsv")])
    assert exc.value.code == 2


def test_generate_requires_a_density_flag(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "100", "--alpha", "0.75",
              "--seed", "1", "--out", str(tmp_path / "g.tsv")])
    assert exc.value.code == 2


def test_generate_quiet_flag(capsys, tmp_path):
    _run(capsys, "generate", "--n", "50", "--alpha", "0.75", "--avg-deg", "6",
         "--seed", "2", "--out", str(tmp_path / "g.tsv"), "--quiet")
    rc, _, err = _run(
        capsys, "generate", "--n", "50", "--alpha", "0.75", "--avg-deg", "6",
        "--seed", "2", "--out", str(tmp_path / "g.tsv"), "--quiet",
    )
    assert rc == 0
    assert err == ""


def test_json_flag_compact_output(capsys, tmp_path):
    _, _, doc = _gen(capsys, tmp_path, n=100, seed=5)
    rc, out, _ = _run(
        capsys, "kernel", "--graph", str(tmp_path / "g.tsv"), "--json",
    )
    assert rc == 0
    assert out.count("\n") == 1
    json.loads(out)
    rc, out, _ = _run(capsys, "kernel", "--graph", str(tmp_path / "g.tsv"))
    assert rc == 0
    assert out.count("\n") > 1


# ---------------------------------------------------------------------------
# kernel / solve / oracle / validate


def test_kernel_json_keys(capsys, tmp_path):
    _gen(capsys, tmp_path, n=400, seed=3)
    rc, out, _ = _run(capsys, "kernel", "--graph", str(tmp_path / "g.tsv"),
                      "--json", "--quiet")
    assert rc == 0
    doc = json.loads(out)
    assert set(doc) == {"initial_clique_size", "kernel_size", "kernel_edges", "timings"}
    assert doc["initial_clique_size"] >= 1


def test_solve_geo_exact(capsys, tmp_path):
    g, c, _ = _gen(capsys, tmp_path, n=600, seed=4)
    rc, out, _ = _run(
        capsys, "solve", "--graph", str(g), "--coords", str(c),
        "--mode", "geo", "--variant", "opt", "--json", "--quiet",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["exact"] is True
    assert doc["mode"] == "geo"
    assert doc["variant"] == "opt"
    assert len(doc["clique"]) == doc["omega_eval"] >= 2
    assert doc["v_left"] == 0 and doc["e_left"] == 0


def test_solve_nogeo_exact_on_hrg(capsys, tmp_path):
    g, _, _ = _gen(capsys, tmp_path, n=600, seed=6)
    rc, out, _ = _run(capsys, "solve", "--graph", str(g), "--mode", "nogeo",
                      "--json", "--quiet")
    assert rc == 0
    doc = json.loads(out)
    assert doc["exact"] is True
    assert doc["variant"] is None


def test_solve_nogeo_heuristic_exit(capsys, tmp_path):
    path = _write_k333(tmp_path)
    rc, out, _ = _run(capsys, "solve", "--graph", str(path), "--mode", "nogeo",
                      "--json", "--quiet")
    assert rc == 3
    doc = json.loads(out)
    assert doc["exact"] is False
    assert doc["omega_eval"] == 3
    assert doc["v_left"] == 9 and doc["e_left"] == 27


def test_solve_kernelizes_once(capsys, tmp_path, monkeypatch):
    g, c, _ = _gen(capsys, tmp_path, n=400, seed=4)
    want = int(kernelize(load_graph(g, c)).kernel.size)
    calls = []

    def counting(graph):
        calls.append(graph.n)
        return kernelize(graph)

    monkeypatch.setattr("hyperclique.solver.kernelize", counting)
    monkeypatch.setattr("hyperclique.cli.kernelize", counting)
    for mode in ("geo", "nogeo", "baseline"):
        calls.clear()
        rc, out, _ = _run(capsys, "solve", "--graph", str(g), "--coords", str(c),
                          "--mode", mode, "--json", "--quiet")
        assert rc == 0
        assert len(calls) == 1, mode
        assert json.loads(out)["kernel_size"] == want


def test_solve_geo_without_coords_is_usage_error(capsys, tmp_path):
    _gen(capsys, tmp_path, n=100, seed=7)
    rc, _, err = _run(capsys, "solve", "--graph", str(tmp_path / "g.tsv"),
                      "--mode", "geo")
    assert rc == 2
    assert "--coords" in err


def test_oracle_on_complete_graph(capsys, tmp_path):
    path = tmp_path / "k7.tsv"
    write_edge_list(
        Graph.from_edges(7, [(i, j) for i in range(7) for j in range(i + 1, 7)]),
        path,
    )
    rc, out, _ = _run(capsys, "oracle", "--graph", str(path), "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["omega"] == 7
    assert doc["clique"] == list(range(7))


def test_validate_length_sorted_ordering(capsys, tmp_path):
    g, c, _ = _gen(capsys, tmp_path, n=500, seed=8)
    rc, out, _ = _run(capsys, "validate", "--graph", str(g), "--coords", str(c),
                      "--json", "--quiet")
    assert rc == 0
    assert json.loads(out) == {"valid": True}


def test_validate_fails_on_permuted_coords(capsys, tmp_path):
    # coordinates shuffled among the vertices break the ordering property
    g = generate(400, 0.6, 3, avg_degree=10.0)
    perm = np.random.default_rng(0).permutation(g.n)
    write_edge_list(g, tmp_path / "g.tsv")
    write_coords(g.coords[perm], tmp_path / "c.tsv")
    rc, out, _ = _run(capsys, "validate", "--graph", str(tmp_path / "g.tsv"),
                      "--coords", str(tmp_path / "c.tsv"), "--json", "--quiet")
    assert rc == 1
    assert json.loads(out) == {"valid": False}


# ---------------------------------------------------------------------------
# fetch-snap / bench


def test_fetch_snap_unknown_name(capsys, tmp_path):
    rc, _, err = _run(capsys, "fetch-snap", "--name", "nosuch",
                      "--cache-dir", str(tmp_path))
    assert rc == 1
    assert "known:" in err


def test_fetch_snap_warm_cache(capsys, tmp_path):
    (tmp_path / "wiki-Vote.txt").write_text("0\t1\n")
    rc, out, _ = _run(capsys, "fetch-snap", "--name", "Wiki-Vote",
                      "--cache-dir", str(tmp_path), "--json")
    assert rc == 0
    assert json.loads(out)["path"].endswith("wiki-Vote.txt")


def test_bench_kernel_size_writes_csv(capsys, tmp_path):
    out_csv = tmp_path / "k.csv"
    rc, out, _ = _run(
        capsys, "bench", "kernel-size", "--n-list", "256,512",
        "--alpha-list", "0.75", "--delta-list", "8", "--samples", "2",
        "--seed-base", "3", "--out", str(out_csv), "--json", "--quiet",
    )
    assert rc == 0
    assert json.loads(out) == {"rows": 4, "out": str(out_csv)}
    with open(out_csv, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == KERNEL_SIZE_COLUMNS
    assert len(body) == 4


def test_bench_realworld_skips_unfetchable(capsys, tmp_path, monkeypatch):
    def refuse(name, cache_dir=None):
        raise OSError("network unavailable")

    monkeypatch.setattr("hyperclique.bench.load_snap", refuse)
    out_csv = tmp_path / "r.csv"
    rc, out, err = _run(
        capsys, "bench", "realworld", "--datasets", "ca-HepPh",
        "--cache-dir", str(tmp_path), "--out", str(out_csv), "--json",
    )
    assert rc == 0
    assert json.loads(out)["rows"] == 0
    assert "skipping ca-HepPh" in err
    assert out_csv.read_text().startswith("dataset,")
