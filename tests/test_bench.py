"""Tests for the experiment harness."""

import csv

import numpy as np
import pytest

from hyperclique import bench
from hyperclique.bench import (
    KERNEL_SIZE_COLUMNS,
    REALWORLD_COLUMNS,
    RUNTIME_COLUMNS,
    ExperimentSpec,
    columns_for,
    loglog_slope,
    median_kernel_sizes,
    powerlaw_tail_exponent,
    run_kernel_size,
    run_realworld,
    run_runtime,
    write_csv,
)
from hyperclique.generator import generate
from hyperclique.graphs import Graph
from hyperclique.kernel import kernelize


# ---------------------------------------------------------------------------
# ExperimentSpec


def test_spec_rejects_bad_kind():
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec(kind="plots")


def test_spec_rejects_zero_samples():
    with pytest.raises(ValueError, match="samples"):
        ExperimentSpec(kind="kernel-size", samples=0)


def test_spec_rejects_empty_grid():
    with pytest.raises(ValueError, match="non-empty"):
        ExperimentSpec(kind="kernel-size", n_list=())


def test_grid_seed_derivation():
    # seeds are seed_base + running index in (n, alpha, delta, sample) order
    spec = ExperimentSpec(
        kind="kernel-size", n_list=(10, 20), alpha_list=(0.6, 0.75),
        delta_list=(4.0,), samples=2, seed_base=100,
    )
    cells = list(spec.grid())
    assert [c[4] for c in cells] == list(range(100, 108))
    assert cells[0] == (10, 0.6, 4.0, 0, 100)
    assert cells[1] == (10, 0.6, 4.0, 1, 101)
    assert cells[2] == (10, 0.75, 4.0, 0, 102)
    assert cells[4] == (20, 0.6, 4.0, 0, 104)
    assert len(cells) == 8


# ---------------------------------------------------------------------------
# kernel-size experiment


def _small_spec(samples=4, seed_base=7):
    return ExperimentSpec(
        kind="kernel-size", n_list=(256, 512), alpha_list=(0.75,),
        delta_list=(8.0,), samples=samples, seed_base=seed_base,
    )


def test_kernel_size_rows_shape():
    rows = run_kernel_size(_small_spec())
    assert len(rows) == 8
    for row in rows:
        assert set(row) == set(KERNEL_SIZE_COLUMNS)
        assert 0 <= row["kernel_size"] <= row["n"]
        assert row["initial_size"] >= 1
        assert row["kernel_edges"] >= 0


def test_kernel_size_cactus_ranks():
    rows = run_kernel_size(_small_spec())
    by_point = {}
    for row in rows:
        by_point.setdefault((row["n"], row["alpha"], row["delta"]), []).append(row)
    for group in by_point.values():
        ranks = sorted(r["rank"] for r in group)
        assert ranks == list(range(1, len(group) + 1))
        ordered = sorted(group, key=lambda r: r["rank"])
        sizes = [r["kernel_size"] for r in ordered]
        assert sizes == sorted(sizes)


def test_kernel_size_deterministic():
    assert run_kernel_size(_small_spec()) == run_kernel_size(_small_spec())


def test_kernel_size_csv_identical_across_job_counts(tmp_path):
    spec = _small_spec(samples=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_kernel_size(spec, jobs=1), KERNEL_SIZE_COLUMNS, a)
    write_csv(run_kernel_size(spec, jobs=2), KERNEL_SIZE_COLUMNS, b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_round_trip(tmp_path):
    rows = run_kernel_size(_small_spec(samples=2))
    path = tmp_path / "k.csv"
    write_csv(rows, KERNEL_SIZE_COLUMNS, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == len(rows)
    for orig, parsed in zip(rows, back):
        for col in KERNEL_SIZE_COLUMNS:
            assert parsed[col] == str(orig[col])


def test_write_csv_column_order(tmp_path):
    path = tmp_path / "o.csv"
    write_csv([], KERNEL_SIZE_COLUMNS, path)
    assert path.read_text() == ",".join(KERNEL_SIZE_COLUMNS) + "\n"


# ---------------------------------------------------------------------------
# runtime experiment


def test_runtime_rows_structure():
    spec = ExperimentSpec(
        kind="runtime", n_list=(256,), alpha_list=(0.75,), delta_list=(8.0,),
        samples=3, seed_base=50,
    )
    rows = run_runtime(spec)
    timing = [r for r in rows if r["sample"] != "median"]
    medians = [r for r in rows if r["sample"] == "median"]
    # per instance: three geo variants plus one nogeo row
    assert len(timing) == 3 * 4
    assert len(medians) == 4
    for row in rows:
        assert set(row) == set(RUNTIME_COLUMNS)
    for row in timing:
        assert row["exact"] is True
        assert row["total_ms"] >= 0.0
        assert (row["variant"] == "-") == (row["mode"] == "nogeo")
    # paired instances: every mode/variant sees the same graph, so the
    # clique number agrees within each sample
    for sample in range(3):
        vals = {r["omega_eval"] for r in timing if r["sample"] == sample}
        assert len(vals) == 1


def test_runtime_median_rows_aggregate():
    spec = ExperimentSpec(
        kind="runtime", n_list=(200,), alpha_list=(0.75,), delta_list=(6.0,),
        samples=3, seed_base=9, modes=("nogeo",), variants=("opt",),
    )
    rows = run_runtime(spec)
    timing = [r for r in rows if r["sample"] != "median"]
    medians = [r for r in rows if r["sample"] == "median"]
    assert len(medians) == 1
    med = medians[0]
    want = sorted(r["total_ms"] for r in timing)[1]
    assert med["total_ms"] == want
    assert med["seed"] == ""
    assert med["omega_eval"] == ""


# ---------------------------------------------------------------------------
# real-world experiment


def _coordless_hrg(n, seed):
    g = generate(n, 0.75, seed=seed, avg_degree=8.0)
    return Graph.from_edges(g.n, g.edge_array())


def test_realworld_skips_failed_fetch(monkeypatch, capsys):
    good = _coordless_hrg(300, seed=3)

    def fake_load(name, cache_dir=None):
        if name == "broken":
            raise OSError("no route to host")
        return good

    monkeypatch.setattr(bench, "load_snap", fake_load)
    rows = run_realworld(["broken", "tiny"], cache_dir=None)
    assert [r["dataset"] for r in rows] == ["tiny"]
    assert "skipping broken" in capsys.readouterr().err


def test_realworld_row_contents(monkeypatch):
    good = _coordless_hrg(300, seed=3)
    monkeypatch.setattr(bench, "load_snap", lambda name, cache_dir=None: good)
    rows = run_realworld(["tiny"])
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == set(REALWORLD_COLUMNS)
    assert row["vertices"] == good.n
    assert row["edges"] == good.m
    kr = kernelize(good)
    assert row["kernel_size"] == kr.kernel.size
    assert row["omega_kernel"] == kr.initial_clique.size
    assert row["omega_kernel"] <= row["omega_eval"]
    if row["exact"]:
        assert (row["v_left"], row["e_left"]) == (0, 0)
    assert row["runtime_s"] >= 0.0


# ---------------------------------------------------------------------------
# analysis helpers


def test_columns_for_mapping():
    assert columns_for("kernel-size") is KERNEL_SIZE_COLUMNS
    assert columns_for("runtime") is RUNTIME_COLUMNS
    assert columns_for("realworld") is REALWORLD_COLUMNS
    with pytest.raises(KeyError):
        columns_for("plots")


def test_loglog_slope_recovers_exponent():
    xs = np.array([2.0**13, 2.0**14, 2.0**15, 2.0**16])
    ys = 3.2 * xs**0.25
    assert loglog_slope(xs, ys) == pytest.approx(0.25, abs=1e-9)


def test_median_kernel_sizes():
    rows = [
        {"n": 8, "alpha": 0.75, "delta": 4.0, "kernel_size": 5},
        {"n": 8, "alpha": 0.75, "delta": 4.0, "kernel_size": 9},
        {"n": 8, "alpha": 0.75, "delta": 4.0, "kernel_size": 7},
        {"n": 16, "alpha": 0.75, "delta": 4.0, "kernel_size": 2},
    ]
    med = median_kernel_sizes(rows)
    assert med[(8, 0.75, 4.0)] == 7
    assert med[(16, 0.75, 4.0)] == 2


def test_powerlaw_exponent_on_synthetic_tail():
    # floored Pareto sample with known exponent 2.5; the half-shift MLE
    # recovers it to ~0.02 at this sample size, frozen tolerance 0.05
    rng = np.random.default_rng(77)
    beta, d_min = 2.5, 25
    u = rng.random(200_000)
    deg = np.floor(d_min * (1.0 - u) ** (-1.0 / (beta - 1.0))).astype(int)
    assert powerlaw_tail_exponent(deg, d_min=d_min) == pytest.approx(beta, abs=0.05)


def test_powerlaw_exponent_needs_a_tail():
    with pytest.raises(ValueError, match="tail too small"):
        powerlaw_tail_exponent([1, 2, 3, 30], d_min=25)
