"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from check import check_output  # noqa: E402
from tracer import LAYERS, aggregate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7  # not the CLI's default seed of 1


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(workload: str, trace: int) -> dict:
    args = ("--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke")
    return result_of(bench(*args))


def units(metrics: list[dict] | dict) -> dict:
    if isinstance(metrics, dict):
        return {name: m["unit"] for name, m in metrics.items()}
    return {m["name"]: m["unit"] for m in metrics}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result["metrics"]) == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    result = smoke("desk", trace=1)
    assert result["correct"] and result["failed"] == 0
    assert units(result["metrics"]) == units(SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(metrics[f"{layer}.calls"] > 0 for layer in LAYERS)
    assert 0.5 < metrics["trace.coverage"] <= 1.0


def test_diverged_run_is_counted_as_failed():
    # At lr0 0.2 fednmut on a ring diverges; the CLI still writes its CSV.
    w = replace(run.WORKLOADS["desk"], lr0=0.2, repeats=1)
    runner = run.Runner(w, SEED, run.reference(w, SEED), time.perf_counter())
    sample = runner.invoke()
    assert sample.attempted == 1 and sample.failed == 1, sample.problems


def test_truncated_csv_is_counted_as_failed(tmp_path):
    w = replace(run.WORKLOADS["desk"], **run.SMOKE["desk"])
    out = tmp_path / "out"
    cli = [sys.executable, "-m", "dflsim.cli", *w.argv(SEED, out)]
    proc = subprocess.run(cli, env=run.program_env(), capture_output=True)
    ref = run.reference(w, SEED)
    columns = tuple(ref["csv_columns"])
    result = check_output(out, proc.returncode, columns, False, w.algorithms, w.rounds, ref["f_star"])
    assert result.failed_cells == 0, result.problems

    (csv_path,) = out.glob("*.csv")
    lines = csv_path.read_text().splitlines(keepends=True)
    csv_path.write_text("".join(lines[:-1]))
    result = check_output(out, proc.returncode, columns, False, w.algorithms, w.rounds, ref["f_star"])
    assert result.failed_cells == 1 and "rows" in result.problems[0]


def test_sweep_missing_from_manifest_is_counted_as_failed(tmp_path):
    (tmp_path / "manifest.csv").write_text("cell_id,algorithm,csv_path\nx,fedndl1,x.csv\n")
    result = check_output(tmp_path, 0, ("round",), True, ("fedndl1", "fedndl2"), 1, None)
    assert result.failed_cells == 2


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0, 100, -1, "r", None],
        ["harness.run_detailed", 10, 90, 0, "r", None],
        ["objective.global_loss", 20, 30, 1, "r", 5],
        ["objective.global_loss", 40, 60, 1, "r", 7],
    ]
    agg = aggregate(spans)
    assert agg["cli.main"]["self_s"] == pytest.approx(20e-9)
    assert agg["harness.run_detailed"]["self_s"] == pytest.approx(50e-9)
    assert agg["objective.global_loss"] == {"calls": 2, "self_s": pytest.approx(30e-9), "extras": [5, 7]}
    assert agg["_roots_s"] == pytest.approx(100e-9)
