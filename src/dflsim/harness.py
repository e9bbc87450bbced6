"""Experiment driver: single runs, seed-averaged repeats, sweeps, CSV output.

A run is fully determined by its config and master seed: its random
streams follow stream layout 3 (see dflsim.channel), and each round's
gradients are one batch_gradients call. Results do not depend on
scheduling and re-runs are byte-identical. Metrics row t records the state
after round t's update; a leading row at t = -1 records the common initial state.

Results are named arrays: METRICS lists each per-round metric once, and
the CSV columns, both result types and the averaging derive from it.
_setup builds every run's set-up from its config alone; runs on one problem share it.
analysis_regime records a config against the convergence theorem's conditions,
and bound_sanity checks one run against the theorem's bound.

The generator _rounds alone steps rounds: it owns a repeat's streams,
each round's gradients and the rule dispatch. No rule writes into its
input, so no state it yields is written again and consumers may hold it.
run_detailed, the consumer, owns the metrics: it copies each state into
a block of METRICS_BLOCK states for one measure_block call, and pads the
last block with copies of the final state, dropping the pad rows: a
narrower product could take another BLAS kernel, and a row's bits would
then depend on where the run ends.

run_averaged and sweep take each (cell, repeat) work item through
_per_repeat, one after another by default, at the caller's BLAS setting.
With processes > 1, which only the CLI passes (at one BLAS thread), the
items are split over this process and forked children, and the results come
back in item order: every item's streams are its own, so the output is that
of the sequential run, bit for bit.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import pickle
import signal
import sys
import traceback
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import ClassVar, NoReturn

import numpy as np

from .algorithms import (
    RoundInputs,
    X0_MODES,
    X0_SHARED,
    init_states,
    round_fedndl1,
    round_fedndl2,
    round_fedndl3,
    round_fednmut_array,
)
from .channel import (
    PURPOSE_CHANNEL_NOISE,
    PURPOSE_DATA_BATCH,
    PURPOSE_INIT,
    derive_stream,
    sample_noise,
)
from .data import Problem, generate, partition_iid
from .metrics import measure_block
from .objective import batch_gradients, ridge_optimum, sample_batches
from .theory_checks import (
    ConstantsEstimate,
    estimate_sigma_sq,
    estimate_smoothness,
    estimate_zeta_sq,
    evaluate_theorem_bound,
    smoothness_lower_bound,
    step_size_cap,
    tracking_condition,
)
from .topology import FULLY_CONNECTED, MixingMatrix, TopologySpec, build_mixing, require_integer

ALGORITHMS = ("fedndl1", "fedndl2", "fedndl3", "fednmut")

# Per-round metrics, in measure_block's order, each with the statistics
# over repeats that the cell CSV carries.
METRICS = {
    "loss": ("mean", "std"),
    "consensus_error": ("mean", "std"),
    "grad_norm_sq": ("mean", "std"),
    "loss_local_avg": ("mean",),
}

CSV_COLUMNS = ("round", "eta") + tuple(
    f"{name}_{stat}" for name, stats in METRICS.items() for stat in stats
)

SWEEP_AXES = ("algorithm", "topology", "noise_variance", "mu")

# States per measure_block call. The last block of a run is padded to this
# width, so a row's bits do not depend on where the run ends.
METRICS_BLOCK = 16


class DegenerateSeriesError(ValueError):
    """Rate fit on an identically zero series: exact convergence."""


@dataclass(frozen=True)
class LrSchedule:
    """Step size eta0 * gamma^floor(t / decay_interval)."""

    eta0: float = 0.2
    gamma: float = 0.9
    decay_interval: int = 10

    def __post_init__(self) -> None:
        require_integer("decay_interval", self.decay_interval)
        if not 0 < self.eta0 < math.inf:
            raise ValueError(f"eta0 must be > 0 and finite, got {self.eta0}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.decay_interval < 1:
            raise ValueError(f"decay_interval must be >= 1, got {self.decay_interval}")


def eta_at(schedule: LrSchedule, t: int) -> float:
    if t < 0:
        raise ValueError(f"round index must be >= 0, got {t}")
    return schedule.eta0 * schedule.gamma ** (t // schedule.decay_interval)


@dataclass(frozen=True)
class RunConfig:
    """One run's inputs, checked when built; derive a changed one with dataclasses.replace."""

    algorithm: str = "fednmut"
    topology: TopologySpec = TopologySpec(FULLY_CONNECTED, 16)
    d: int = 200
    m: int = 2000
    rounds: int = 500
    lr: LrSchedule = LrSchedule()
    mu: float = 0.02
    noise_variance: float = 0.0
    lam: float = 1e-4
    batch_size: int = 32
    repeats: int = 3
    master_seed: int = 1
    x0_mode: str = X0_SHARED
    # a class constant, not a field: every run's dataset has this label noise
    label_noise_variance: ClassVar[float] = 0.05

    @property
    def n(self) -> int:
        return self.topology.n

    def __post_init__(self) -> None:
        for name in ("d", "m", "rounds", "repeats", "batch_size", "master_seed"):
            require_integer(name, getattr(self, name))
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.x0_mode not in X0_MODES:
            raise ValueError(f"unknown x0 mode {self.x0_mode!r}, expected one of {X0_MODES}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        # derive_stream keys on the seed modulo 2**64, and generate on the
        # seed itself: only this range gives one seed per stream set.
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        # the step never grows (gamma <= 1), so the last round's is the smallest
        if not eta_at(self.lr, self.rounds - 1) > 0:
            raise ValueError(f"step size underflows to 0 by round {self.rounds - 1}: {self.lr}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        # "not 0 <= x < inf" also rejects nan, which fails every comparison
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError(f"noise_variance must be >= 0 and finite, got {self.noise_variance}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must be in [0, 1), got {self.mu}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be >= 0 and finite, got {self.lam}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.m < self.n:
            raise ValueError(f"need at least one sample per client: m={self.m} < n={self.n}")


@dataclass(frozen=True)
class Setup:
    """What _setup builds for a config: its problem, smoothness_lower_bound and mixing."""

    problem: Problem
    smoothness_lower: float
    mixing: MixingMatrix


@dataclass
class RunResult:
    """Per-state arrays ("round", "eta", each of METRICS), fednmut's ||B_t||_F^2 / n, and x0."""

    metrics: dict[str, np.ndarray]
    bias_sq: list[float]
    x0: np.ndarray


@dataclass
class AveragedResult:
    """An array per CSV_COLUMNS name, plus each repeat's RunResult.metrics."""

    columns: dict[str, np.ndarray]
    per_repeat: list[dict[str, np.ndarray]]


@functools.lru_cache(maxsize=1)
def _problem(m: int, d: int, master_seed: int, n: int, lam: float) -> tuple[Problem, float]:
    """The problem of these config fields and its smoothness lower bound, memo keyed by all."""
    dataset = generate(m, d, RunConfig.label_noise_variance, master_seed)
    problem = Problem(dataset, partition_iid(dataset, n), lam)
    return problem, smoothness_lower_bound(problem)


def _setup(config: RunConfig) -> Setup:
    """The only place a set-up is made; the last problem built is kept for the next run."""
    problem, lower = _problem(config.m, config.d, config.master_seed, config.n, config.lam)
    return Setup(problem, lower, build_mixing(config.topology))


def analysis_regime(config: RunConfig) -> dict[str, float]:
    """config against the theorem's conditions, read from its set-up; no exact L is computed.

    eta_cap is the step-size cap at L_lo = smoothness_lower_bound, so an upper
    bound on the exact cap; mu_ratio <= mu_limit is tracking_condition.
    """
    setup = _setup(config)
    L_lo, rho = setup.smoothness_lower, setup.mixing.rho
    mu_ratio, mu_limit = tracking_condition(config.mu, rho)
    return dict(L_lo=L_lo, rho=rho, eta0=config.lr.eta0, eta_cap=step_size_cap(L_lo, rho),
                mu_ratio=mu_ratio, mu_limit=mu_limit)


def _rounds(
    config: RunConfig, repeat_index: int, setup: Setup
) -> Iterator[tuple[int, float, np.ndarray, np.ndarray | None]]:
    """Yield (t, eta, X, B) at the start (t = -1, round 0's eta) and after each round t.

    B is fednmut's d x n correction, else None. No yielded X is written again.
    """
    problem, n, d, seed = setup.problem, config.n, config.d, config.master_seed
    X = init_states(n, d, config.x0_mode, derive_stream(seed, 0, PURPOSE_INIT))
    noise_stream = derive_stream(seed, repeat_index, PURPOSE_CHANNEL_NOISE)
    batch_stream = derive_stream(seed, repeat_index, PURPOSE_DATA_BATCH)
    sizes = [shard.size for shard in problem.shards]
    B = None
    # FedNMUT's last broadcasts and Deltas, zero before the first round
    y_tilde, delta = np.zeros((d, n)), np.zeros((d, n))
    rules = {"fedndl1": round_fedndl1, "fedndl2": round_fedndl2, "fedndl3": round_fedndl3}
    yield -1, eta_at(config.lr, 0), X, None
    for t in range(config.rounds):
        eta = eta_at(config.lr, t)
        noises = sample_noise(noise_stream, (n, d), config.noise_variance).T
        picks = sample_batches(batch_stream, sizes, config.batch_size)
        grads = functools.partial(batch_gradients, problem=problem, picks=picks)
        inputs = RoundInputs(eta=eta, W=setup.mixing, grads=grads, noises=noises, mu=config.mu)
        if config.algorithm == "fednmut":
            X, y_tilde, delta, B = round_fednmut_array(X, y_tilde, delta, inputs)
        else:
            X = rules[config.algorithm](X, inputs)
        yield t, eta, X, B


def run_detailed(config: RunConfig, repeat_index: int) -> RunResult:
    """One simulated run, bit-reproducible per (config, repeat_index)."""
    setup = _setup(config)
    block = np.empty((METRICS_BLOCK, config.n, config.d))
    values: list[tuple[np.ndarray, ...]] = []  # measure_block's output per block
    etas, bias_sq = [], []  # per state; per fednmut round, ||B||_F^2 / n
    for t, eta, X, B in _rounds(config, repeat_index, setup):
        if t < 0:
            x0 = X  # no later round writes it
        k = (t + 1) % METRICS_BLOCK
        block[k] = X.T
        if k == METRICS_BLOCK - 1 or t == config.rounds - 1:
            # pad a partial last block with its last state, so every product has one shape
            block[k + 1 :] = block[k]
            values.append(measure_block(block, setup.problem))
        etas.append(eta)
        if B is not None:
            bias_sq.append(float((B * B).sum() / config.n))

    metrics = {"round": np.arange(-1, config.rounds), "eta": np.array(etas)}
    for name, *parts in zip(METRICS, *values):
        metrics[name] = np.concatenate(parts)[: len(etas)]
    return RunResult(metrics=metrics, bias_sq=bias_sq, x0=x0)


# prctl's option that has the kernel signal a child when its parent dies
_PR_SET_PDEATHSIG = 1


def _run_items(items: list[tuple[str, RunConfig, int]]) -> list[dict[str, np.ndarray]]:
    """run_detailed's metrics per (cell_id, config, repeat) item; a failure names its item."""
    metrics = []
    for cid, config, r in items:
        try:
            metrics.append(run_detailed(config, r).metrics)
        except Exception as exc:
            message = f"cell {cid} repeat {r} failed: {type(exc).__name__}: {exc}"
            raise RuntimeError(message) from exc
    return metrics


def _child(items: list[tuple[str, RunConfig, int]], write_fd: int, parent: int) -> NoReturn:
    """In a forked child: run items, pickle ("ok", metrics) or ("error", traceback) to write_fd.

    Never returns. os._exit skips the buffers, atexit hooks and finally
    blocks inherited from the parent, so none of them runs twice.
    """
    status = 1
    try:
        try:
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
            prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)  # die with the parent, where there is prctl
        except (OSError, AttributeError):  # not Linux
            pass
        if os.getppid() != parent:  # the parent died before prctl
            return
        try:
            reply = ("ok", _run_items(items))
        except Exception as exc:
            reply = ("error", "".join(traceback.format_exception(exc)))
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(reply, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _per_repeat(
    items: list[tuple[str, RunConfig, int]], processes: int = 1
) -> Iterator[dict[str, np.ndarray]]:
    """run_detailed's metrics per (cell_id, config, repeat) item, in item order.

    At processes 1, or one item, the items run here, one after another, as
    they are consumed. Otherwise min(processes, items) workers take the
    items round-robin: this process is worker 0, each other worker a forked
    child that shares the set-up built so far copy-on-write and pickles its
    results down a pipe. A failed item raises RuntimeError naming its cell
    and repeat. Every child is reaped, and killed first unless it has
    replied, before this returns or raises.
    """
    workers = min(processes, len(items))
    if workers <= 1:
        for _, config, r in items:
            yield run_detailed(config, r).metrics
        return
    sys.stdout.flush()
    sys.stderr.flush()
    parent = os.getpid()
    pending: dict[int, tuple[int, int]] = {}  # pid -> (read end, worker) of each child not reaped
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            # Python 3.12 warns on forking a process with threads. The only other
            # threads here are OpenBLAS's pool: generate's threads have joined,
            # OpenBLAS's own fork handler stops its pool, and a child, at the
            # one BLAS thread the CLI sets, never starts it again.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _child(items[k::workers], write_fd, parent)
            os.close(write_fd)
            pending[pid] = read_fd, k
        results = [_run_items(items[::workers])]
        for pid, (read_fd, k) in list(pending.items()):
            with os.fdopen(read_fd, "rb", closefd=False) as pipe:
                reply = pipe.read()
            _, status = os.waitpid(pid, 0)
            del pending[pid]
            os.close(read_fd)
            if not reply:
                held = ", ".join(f"cell {cid} repeat {r}" for cid, _, r in items[k::workers])
                message = f"({held}) sent nothing, wait status {status}"
                raise RuntimeError(f"forked worker {pid} {message}")
            kind, payload = pickle.loads(reply)
            if kind == "error":
                raise RuntimeError(f"forked worker {pid} failed:\n{payload}")
            results.append(payload)
    finally:
        for pid, (read_fd, _) in pending.items():
            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for i in range(len(items)):
        yield results[i % workers][i // workers]


def _average(per_repeat: list[dict[str, np.ndarray]]) -> AveragedResult:
    """Each metric's mean and sample standard deviation per round across per_repeat."""
    columns = {"round": per_repeat[0]["round"], "eta": per_repeat[0]["eta"]}
    for name, stats in METRICS.items():
        vals = np.array([rep[name] for rep in per_repeat])
        columns[name + "_mean"] = vals.mean(axis=0)
        if "std" in stats:
            # exactly equal repeats get an exact zero, not mean-subtraction dust
            std = vals.std(axis=0, ddof=1) if len(vals) > 1 else 0.0
            columns[name + "_std"] = np.where(np.all(vals == vals[0], axis=0), 0.0, std)
    return AveragedResult(columns=columns, per_repeat=per_repeat)


def run_averaged(config: RunConfig, processes: int = 1) -> AveragedResult:
    """Each metric's mean and sample standard deviation per round across repeats.

    processes > 1 runs the repeats in forked processes; see _per_repeat.
    """
    items = [(cell_id(config), config, r) for r in range(config.repeats)]
    return _average(list(_per_repeat(items, processes)))


def rate_fit(series) -> float:
    """Log-log slope of the running average of a squared-gradient series.

    Fits least squares on (log T, log A_T) with A_T the running average
    over the first T entries, at logarithmically spaced T after a 10%
    burn-in. A slope near -0.5 matches 1/sqrt(T) decay.
    """
    vals = np.asarray(series, dtype=float)
    if vals.size < 50:
        raise ValueError(f"need a series of at least 50 rounds, got {vals.size}")
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ValueError(f"entry {bad[0]} of the series is {vals[bad[0]]}, not finite")
    total = vals.size
    running = np.cumsum(vals) / np.arange(1, total + 1)
    t_min = max(int(np.ceil(0.1 * total)), 1)
    ts = np.unique(np.geomspace(t_min, total, num=40).round().astype(int))
    averages = running[ts - 1]
    keep = averages > 0
    if keep.sum() < 2:
        raise DegenerateSeriesError("exact convergence: running averages are zero, slope undefined")
    slope, _ = np.polyfit(np.log(ts[keep]), np.log(averages[keep]), 1)
    return float(slope)


@dataclass(frozen=True)
class BoundSanity:
    """A run at constant step eta: mean squared gradient norm, its bound, rate_fit slope."""

    eta: float
    empirical: float
    bound: float
    slope: float


def bound_sanity(config: RunConfig) -> BoundSanity:
    """Run repeat 0 of config at half the exact L's step-size cap and check it against the theorem.

    sigma^2 and zeta^2 are estimated at client 0's initial point, x* and
    one draw of default_rng(1234); B_bar^2 is the run's mean ||B_t||_F^2 / n,
    so any rule but FedNMUT is rejected before set-up.
    """
    if config.algorithm != "fednmut":
        raise ValueError(f"bound_sanity needs a fednmut config, got algorithm {config.algorithm!r}")
    setup = _setup(config)
    problem, rho = setup.problem, setup.mixing.rho
    L = estimate_smoothness(problem)
    eta = step_size_cap(L, rho) / 2.0
    config = replace(config, lr=LrSchedule(eta0=eta, gamma=1.0, decay_interval=1))
    result = run_detailed(config, 0)
    # entry k is the state entering round k
    grad_series = result.metrics["grad_norm_sq"][:-1]

    x_star, f_star = ridge_optimum(problem.dataset, problem.lam)
    rng = np.random.default_rng(1234)
    x_samples = [result.x0[:, 0].copy(), x_star, rng.standard_normal(config.d)]
    consts = ConstantsEstimate(
        L=L,
        sigma_sq=estimate_sigma_sq(x_samples, problem, config.batch_size, rng),
        zeta_sq=estimate_zeta_sq(x_samples, problem),
        D_sq_total=config.d * config.noise_variance,
        B_bar_sq=float(np.mean(result.bias_sq)),
        f0_gap=result.metrics["loss"][0] - f_star,
    )
    bound = evaluate_theorem_bound(consts, rho, config.mu, eta, config.n, config.rounds)
    return BoundSanity(eta, float(grad_series.mean()), float(bound), rate_fit(grad_series))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def csv_lines(avg: AveragedResult) -> list[str]:
    columns = [avg.columns[name].tolist() for name in CSV_COLUMNS]
    return [",".join(CSV_COLUMNS)] + [",".join(map(_fmt, row)) for row in zip(*columns)]


def write_cell_csv(path, avg: AveragedResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(csv_lines(avg)) + "\n")


def cell_id(config: RunConfig) -> str:
    return (
        f"{config.algorithm}_{config.topology.kind}"
        f"_var{config.noise_variance:g}_mu{config.mu:g}"
    )


def sweep_cells(template: RunConfig, axes: dict) -> dict[str, RunConfig]:
    """Every cell config of a sweep, each checked when built, keyed by its cell_id.

    Raises ValueError on a bad axis, an invalid cell or colliding cell_ids.
    Topology values are kinds, built at the template's n.
    """
    for key in axes:
        if key not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {key!r}, expected subset of {SWEEP_AXES}")
    pools = []
    for key in SWEEP_AXES:
        pool = list(axes.get(key, [getattr(template, key)]))
        if not pool:
            raise ValueError(f"sweep axis {key!r} has no values")
        if key == "topology" and key in axes:
            pool = [TopologySpec(kind, template.n) for kind in pool]
        pools.append(pool)
    cells: dict[str, RunConfig] = {}
    for values in itertools.product(*pools):
        config = replace(template, **dict(zip(SWEEP_AXES, values)))
        cid = cell_id(config)
        if cid in cells:
            clash = [f"{k}={getattr(cells[cid], k)!r} vs {getattr(config, k)!r}" for k in axes]
            raise ValueError(f"sweep cells share cell_id {cid!r}: {', '.join(clash)}")
        cells[cid] = config
    return cells


def sweep(cells: dict[str, RunConfig], out_dir, processes: int = 1) -> list[dict]:
    """Run sweep_cells' cells, one CSV per cell named by its cell_id.

    Writes manifest.csv listing every cell and returns the manifest rows.
    No sweep axis changes the problem, so every cell runs on the one _setup
    builds first. processes > 1 runs the cells' repeats in forked processes;
    see _per_repeat.
    """
    os.makedirs(out_dir, exist_ok=True)
    items = [(cid, config, r) for cid, config in cells.items() for r in range(config.repeats)]
    per_repeat = _per_repeat(items, processes)
    manifest_rows = []
    for cid, config in cells.items():
        csv_name = cid + ".csv"
        avg = _average(list(itertools.islice(per_repeat, config.repeats)))
        write_cell_csv(os.path.join(out_dir, csv_name), avg)
        manifest_rows.append(
            {
                "cell_id": cid,
                "algorithm": config.algorithm,
                "topology": config.topology.kind,
                "noise_var": _fmt(config.noise_variance),
                "mu": _fmt(config.mu),
                "seed_list": ";".join(
                    f"{config.master_seed}:{r}" for r in range(config.repeats)
                ),
                "csv_path": csv_name,
            }
        )
    # the header is the rows' keys, so each column is named once
    lines = [",".join(manifest_rows[0])] + [",".join(row.values()) for row in manifest_rows]
    with open(os.path.join(out_dir, "manifest.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_rows
