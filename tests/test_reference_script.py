"""The benchmark's reference process still runs against the package.

perfbench/reference.py imports dflsim in its own process to report f* and
the CSV columns; a signature change that breaks it fails every benchmark
run, so it is run here as the benchmark runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from dflsim.data import generate
from dflsim.harness import CSV_COLUMNS, RunConfig
from dflsim.objective import ridge_optimum

ROOT = Path(__file__).resolve().parents[1]


def test_reference_script_reports_f_star_and_columns():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = ["--dim", "20", "--samples", "80", "--lambda", "1e-4", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "reference.py"), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(proc.stdout)
    assert report["csv_columns"] == list(CSV_COLUMNS)
    dataset = generate(80, 20, RunConfig().label_noise_variance, 1)
    assert report["f_star"] == ridge_optimum(dataset, 1e-4)[1]
