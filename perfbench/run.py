"""End-to-end benchmark of the dflsim CLI.

    python3 perfbench/run.py --workload desk --seed 3 --seconds 40 --trace 0

Run from the root of a source checkout; the program is run from ``src/``
as ``python3 -m dflsim.cli``, one fresh process per invocation, one
invocation at a time (a closed loop with one client). OpenBLAS keeps its
default thread count, which is recorded with the machine facts.

``--trace 0`` measures the end-to-end metrics with tracing off:

- ``wall_s``: median wall time of the workload command, spawn to exit.
- ``setup_s``: median wall time of the same command cut to ``--rounds 1
  --repeats 1`` (the fixed cost of import, dataset, partition, mixing
  matrix and smoothness estimate, plus one round).
- ``peak_rss_mib``: median ``ru_maxrss`` of the workload command.

``--trace 1`` alternates untraced and traced invocations of the workload
command (see ``tracer.py``) and reports the per-layer metrics.

Every invocation's output is checked (see ``check.py``); the ``failed``
and ``attempted`` fields of the result count runs (cells x repeats) and
``failed_frac`` is printed in the summary. The last stdout line is the
JSON result; the lines before it are the summary and the machine facts,
which are also written to ``.perfbench/results/``.

``--smoke`` shrinks every workload to a few seconds and one sample per
metric, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path

from check import check_output
from tracer import aggregate, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"

# Minimum rounds of end-to-end samples, the least share of each round spent
# on set-up samples, and the wall-clock budget of one benchmark run.
MIN_ROUNDS = 3
SETUP_SHARE = 0.2
BUDGET_S = 170.0

# What --paper-scale selects in the CLI.
PAPER_DIM, PAPER_SAMPLES = 2000, 10000
LAMBDA = 1e-4


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "sweep"
    algorithms: tuple[str, ...]
    topology: str
    clients: int
    dim: int
    samples: int
    rounds: int
    repeats: int
    noise_var: float
    lr0: float
    mu: float = 0.02
    paper_scale: bool = False

    def argv(self, seed: int, out: Path, setup: bool = False) -> list[str]:
        args = [
            self.command,
            "--algorithm", ",".join(self.algorithms),
            "--topology", self.topology,
            "--clients", str(self.clients),
        ]
        if self.paper_scale:
            args.append("--paper-scale")
        else:
            args += ["--dim", str(self.dim), "--samples", str(self.samples)]
        args += [
            "--rounds", str(1 if setup else self.rounds),
            "--repeats", str(1 if setup else self.repeats),
            "--noise-var", repr(self.noise_var),
            "--mu", repr(self.mu),
            "--lambda", repr(LAMBDA),
            "--lr0", repr(self.lr0),
            "--seed", str(seed),
            "--out", str(out),
        ]
        return args


# lr0 is below the CLI default of 0.2, at which fednmut on a ring diverges.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's default experiment on a sparse ring W: the per-round
        # cost is spread over channel, algorithms, objective and metrics.
        Workload("desk", "run", ("fednmut",), "ring", 16, 200, 2000, 500, 3, 0.005, 0.1),
        # Paper scale: set-up (one smoothness estimate per sweep cell) and
        # full-dataset metric passes dominate; noise 0 and two cheap rules
        # bypass channel and algorithms.
        Workload(
            "paper", "sweep", ("fedndl1", "fedndl2"), "full", 16, PAPER_DIM, PAPER_SAMPLES,
            50, 1, 0.0, 0.1, paper_scale=True,
        ),
        # Dense W with 64 clients: the O(n^2) per-client loops of
        # round_fednmut and tracking_bias dominate. 128 rows per client,
        # so batches are really sampled.
        Workload("wide", "run", ("fednmut",), "full", 64, 200, 8192, 100, 1, 0.005, 0.05),
    )
}

SMOKE = {
    "desk": dict(dim=20, samples=320, rounds=100, repeats=2),
    "paper": dict(dim=40, samples=640, rounds=40, paper_scale=False),
    "wide": dict(clients=8, dim=20, samples=512, rounds=60),
}


@dataclass
class Sample:
    kind: str  # "full", "setup" or "traced"
    wall_s: float
    rss_mib: float
    attempted: int
    failed: int
    problems: list[str]


def program_env() -> dict:
    """The environment the program runs in: this checkout's src first on the path."""
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def reference(w: Workload, seed: int) -> dict:
    """f*, the CSV columns and the numpy facts, from reference.py in its own process."""
    script = Path(__file__).with_name("reference.py")
    argv = ["--dim", str(w.dim), "--samples", str(w.samples), "--lambda", repr(LAMBDA), "--seed", str(seed)]
    proc = subprocess.run(
        [sys.executable, str(script), *argv],
        cwd=ROOT, env=program_env(), capture_output=True, text=True, timeout=BUDGET_S / 2, check=True,
    )
    return json.loads(proc.stdout)


def machine_facts(ref: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": ref["numpy"],
        "blas": ref["blas"],
        "blas_threads": ref["blas_threads"],
        "git_commit": commit,
        "src_sha256": _source_digest(),
    }


def _source_digest() -> str:
    """Identifies the program's source when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Spawns CLI invocations one at a time and checks each one's output."""

    def __init__(self, w: Workload, seed: int, ref: dict, started: float):
        self.w, self.seed, self.ref, self.started = w, seed, ref, started
        self.env = program_env()

    def remaining(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def invoke(self, setup: bool = False, spans: Path | None = None, run_id: str = "") -> Sample:
        run_dir = WORK / "runs" / uuid.uuid4().hex
        out = run_dir / "out"
        out.mkdir(parents=True)
        cli = self.w.argv(self.seed, out, setup=setup)
        if spans is None:
            argv = [sys.executable, "-m", "dflsim.cli", *cli]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("tracer.py")), str(spans), run_id, *cli]
        try:
            with open(run_dir / "log", "wb") as log:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT)
                returncode, usage = _wait(proc, max(self.remaining(), 1.0))
                wall = time.perf_counter() - start
            result = check_output(
                out,
                returncode,
                columns=tuple(self.ref["csv_columns"]),
                sweep=self.w.command == "sweep",
                algorithms=self.w.algorithms,
                rounds=1 if setup else self.w.rounds,
                f_star=None if setup else self.ref["f_star"],
            )
            if result.failed_cells:
                tail = (run_dir / "log").read_text(errors="replace").strip().splitlines()[-3:]
                result.problems += [f"  log: {line}" for line in tail]
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        repeats = 1 if setup else self.w.repeats
        return Sample(
            kind="setup" if setup else "full" if spans is None else "traced",
            wall_s=wall,
            rss_mib=usage.ru_maxrss / 1024.0,
            attempted=result.cells * repeats,
            failed=result.failed_cells * repeats,
            problems=result.problems,
        )


def _wait(proc: subprocess.Popen, timeout: float):
    """Wait for proc, killing it after timeout; returns (exit code, rusage)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def describe(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} over {n} samples"
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            return text + f", p{p:g} {ordered[math.ceil(p / 100 * n) - 1]:.6g}"
    return text + " (no percentile has 10 samples beyond it)"


def measure_end_to_end(runner: Runner, seconds: float, min_rounds: int) -> tuple[dict, list[Sample]]:
    """Rounds of one full invocation followed by set-up invocations, for --seconds.

    Interleaving exposes both timings to the same machine load. Each round
    spends at least SETUP_SHARE of its full invocation's time on set-up
    invocations, so cheap set-ups get many samples.
    """
    started = time.perf_counter()
    samples: list[Sample] = []
    rounds = 0
    while rounds < min_rounds or (
        (elapsed := time.perf_counter() - started) * (1 + 1 / rounds) <= seconds
        and runner.remaining() > 2 * elapsed / rounds
    ):
        samples.append(full := runner.invoke())
        setup_started = time.perf_counter()
        while True:
            samples.append(runner.invoke(setup=True))
            if time.perf_counter() - setup_started >= SETUP_SHARE * full.wall_s:
                break
        rounds += 1
    full = [s for s in samples if s.kind == "full"]
    setup = [s for s in samples if s.kind == "setup"]
    print(f"wall_s: {describe([s.wall_s for s in full])} s")
    print(f"setup_s: {describe([s.wall_s for s in setup])} s")
    print(f"peak_rss_mib: {describe([s.rss_mib for s in full])} MiB")
    metrics = {
        "wall_s": (statistics.median(s.wall_s for s in full), "s"),
        "setup_s": (statistics.median(s.wall_s for s in setup), "s"),
        "peak_rss_mib": (statistics.median(s.rss_mib for s in full), "MiB"),
    }
    return metrics, samples




def measure_layers(runner: Runner, seconds: float) -> tuple[dict, list[Sample]]:
    """Pairs of untraced and traced invocations, at least one pair, for --seconds."""
    started = time.perf_counter()
    samples: list[Sample] = []
    traced: list[tuple[Sample, dict]] = []
    while not traced or (
        (elapsed := time.perf_counter() - started) * (1 + 1 / len(traced)) <= seconds
        and runner.remaining() > 2 * elapsed / len(traced)
    ):
        samples.append(runner.invoke())
        spans_path = WORK / f"spans-{uuid.uuid4().hex}.json"
        try:
            run_id = f"{runner.w.name}-seed{runner.seed}-{len(traced)}"
            samples.append(runner.invoke(spans=spans_path, run_id=run_id))
            spans = json.loads(spans_path.read_text())["spans"] if spans_path.exists() else []
        finally:
            spans_path.unlink(missing_ok=True)
        traced.append((samples[-1], aggregate(spans)))
    untraced = [s for s in samples if s.kind == "full"]
    untraced_wall = statistics.median(s.wall_s for s in untraced)
    per_run = [layer_metrics(agg, runner.w.clients, s.wall_s, untraced_wall) for s, agg in traced]
    units = {name: unit for name, (_, unit) in per_run[0].items()}
    metrics = {name: (statistics.median(m[name][0] for m in per_run), unit) for name, unit in units.items()}
    print(f"untraced wall_s: {describe([s.wall_s for s in untraced])} s")
    print(f"traced wall_s: {describe([s.wall_s for s, _ in traced])} s")
    return metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one sample per metric")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dflsim" / "cli.py").is_file():
        print(f"error: no dflsim source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.perf_counter()

    w = WORKLOADS[args.workload]
    min_rounds = MIN_ROUNDS
    if args.smoke:
        w = replace(w, **SMOKE[w.name])
        min_rounds = 1
    ref = reference(w, args.seed)
    facts = machine_facts(ref)
    print("facts " + json.dumps(facts, sort_keys=True))
    runner = Runner(w, args.seed, ref, started)
    WORK.mkdir(exist_ok=True)
    if args.trace:
        metrics, samples = measure_layers(runner, args.seconds)
    else:
        metrics, samples = measure_end_to_end(runner, args.seconds, min_rounds)

    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    problems = [p for s in samples for p in s.problems]
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} runs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "workload": w.name,
        "argv": w.argv(args.seed, Path("OUT")),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "facts": facts,
        "problems": problems,
        "samples": [[s.kind, s.wall_s, s.rss_mib] for s in samples],
        "result": result,
    }
    name = f"{w.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (results_dir / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
