"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py (from the repository root)."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import lacsum  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("rng.draws", "frequency.dyadic_evals", "norms.chunks", "quadrature.panels",
          "quadrature.levels", "search.candidates", "energy.pair_sums")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "norms._map_chunks", 0.0, 10.0, None, 1),
        (2, "norms.chunk", 1.0, 3.0, 1, 2),   # pool thread
        (3, "norms.chunk", 2.0, 5.0, 1, 3),   # overlaps the first chunk
        (4, "norms.chunk", 7.0, 8.0, 1, 2),
        (5, "rng.chunk_uniform63", 1.5, 2.5, 2, 2),
    ]
    got = tracer.self_times(spans)
    assert got[1] == pytest.approx(10.0 - 5.0)
    assert got[2] == pytest.approx(1.0)
    assert got[5] == pytest.approx(1.0)


def test_install_patches_every_reference_and_reports_absent(monkeypatch):
    original = lacsum.norms._map_chunks
    monkeypatch.setattr(tracer, "LAYER_FUNCTIONS",
                        tracer.LAYER_FUNCTIONS + (("norms", "no_such_function"), ("no_such_module", "f")))
    tr = tracer.Tracer()
    tr.install()
    try:
        assert lacsum.cltlab._map_chunks is lacsum.norms._map_chunks is not original
        fs = lacsum.lacunary_set(8, 4)
        lacsum.clt_report(fs, lacsum.McConfig(samples=5000, seed=1, chunk_size=1000))
    finally:
        tr.uninstall()
    assert lacsum.cltlab._map_chunks is lacsum.norms._map_chunks is original
    assert tr.absent == ["norms.no_such_function", "no_such_module.f"]
    metrics = tracer.layer_metrics(tr.spans, tr.counters)
    assert metrics["norms.chunks"] == 5
    assert metrics["rng.draws"] == 5000
    assert metrics["frequency.dyadic_evals"] == 5000 * 4
    assert metrics["cltlab.sample_s"] > 0


def test_closed_form_for_the_double_zero_set():
    t = (0.5 + np.arange(2_000_000)) / 2_000_000
    midpoint = float(np.mean(4 * np.abs(np.cos(np.pi * t) * np.cos(5 * np.pi * t))))
    assert workloads.l1_of_1267() == pytest.approx(midpoint, abs=1e-9)


def test_multiple_zero_detection():
    assert workloads.has_multiple_zero([1, 2, 6, 7])      # z(1+z)(1+z^5): double zero at z = -1
    assert workloads.has_multiple_zero([3, 5, 9, 11])     # z^3(1+z^2)(1+z^6): double zeros at z = +-i
    assert not workloads.has_multiple_zero([1, 2, 4])
    assert not workloads.has_multiple_zero([5, 300])      # n = 2: simple zeros only


def test_energy_oracle_matches_known_values():
    assert workloads.energy_oracle(workloads.MIAN_CHOWLA_PREFIX) == 2 * 10 * 10 - 10
    dense = list(range(1, 1501))  # block-histogram path
    assert workloads.energy_oracle(dense) == lacsum.count_quadruple_solutions(lacsum.make_frequency_set(dense))


def _traced(workload: str, seed: int, workdir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LACSUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "trace", "--workload", workload, "--seed", str(seed),
         "--nproc", "2", "--workdir", str(workdir)],
        capture_output=True, text=True, env=env, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["mc_l1", "exact"])
def test_counts_repeat_across_traced_runs(workload, tmp_path):
    first = _traced(workload, 5, tmp_path / "a")
    second = _traced(workload, 5, tmp_path / "b")
    assert first["absent"] == [] and first["hook_errors"] == {}
    counts = {k: first["layer_metrics"][k] for k in COUNTS}
    assert counts == {k: second["layer_metrics"][k] for k in COUNTS}
    busy = {"mc_l1": ("rng.draws", "frequency.dyadic_evals", "norms.chunks"),
            "exact": ("quadrature.panels", "quadrature.levels", "search.candidates", "energy.pair_sums")}
    assert all(counts[k] > 0 for k in busy[workload])
    assert first["layer_metrics"]["cli.import_s"] > 0
    assert len(first["passes"]) == 3  # warm-up, untraced, traced
    if workload == "mc_l1":
        assert all(r["ok"] for r in first["extra_ops"])  # 1 and 2 threads give the same bits
        assert first["layer_metrics"]["norms.thread_speedup"] > 0
    else:
        assert {r["name"] for r in first["extra_ops"]} == {op.name for op in workloads.probe_ops()}


def test_run_makes_a_fixed_number_of_passes_with_set_ups_between_them():
    import run

    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc_l1", "--seed", "2", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report, result = [json.loads(line) for line in proc.stdout.strip().splitlines()[-2:]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert len(report["pass_s"]) == run.passes_for("mc_l1", 1) == run.MIN_PASSES
    assert len(report["setup_s"]) == run.SETUP_SAMPLES
    assert result["metrics"]["setup_s"]["value"] == statistics.median(report["setup_s"])


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
