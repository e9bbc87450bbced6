"""Experiment driver: single runs, seed-averaged repeats, sweeps, CSV output.

A run is fully determined by its config and master seed. Random streams
follow stream layout 2: each round derives at most two, one per purpose,
keyed by (repeat, round, purpose), and each draws one block whose row i
belongs to client i: an n x d channel-noise block (none at noise 0) and
the minibatch keys of sample_batches (none when every client takes its
whole shard). Results do not depend on scheduling and re-runs are
byte-identical. Metrics row t records the state after round t's update;
a leading row at t = -1 records the common initial state.

Metrics never feed back into the trajectory, so run_detailed copies each
recorded state into a block of METRICS_BLOCK states and evaluates the
block with one measure_block call (looked up here, as
dflsim.harness.measure_block) when it is full. The last block is padded
to full width with copies of the final state and the pad rows are
dropped: a narrower product could take another BLAS kernel, and a row's
bits would then depend on where the run ends.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace

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
    StreamKey,
    derive_stream,
    sample_noise,
)
from .data import Dataset, Shard, generate, partition_iid
from .metrics import RoundMetrics, measure_block
from .objective import ObjectiveConfig, sample_batches, stochastic_gradient
from .theory_checks import estimate_smoothness
from .topology import FULLY_CONNECTED, MixingMatrix, TopologySpec, build_mixing

ALGORITHMS = ("fedndl1", "fedndl2", "fedndl3", "fednmut")

CSV_COLUMNS = (
    "round",
    "eta",
    "loss_mean",
    "loss_std",
    "consensus_error_mean",
    "consensus_error_std",
    "grad_norm_sq_mean",
    "grad_norm_sq_std",
    "loss_local_avg_mean",
)

SWEEP_AXES = ("algorithm", "topology", "noise_variance", "mu")

# States per measure_block call. The last block of a run is padded to this
# width, so a row's bits do not depend on where the run ends.
METRICS_BLOCK = 8


class DegenerateSeriesError(ValueError):
    """Rate fit on an identically zero series: exact convergence."""


@dataclass
class LrSchedule:
    """Step size eta0 * gamma^floor(t / decay_interval)."""

    eta0: float = 0.2
    gamma: float = 0.9
    decay_interval: int = 10

    def __post_init__(self) -> None:
        if self.eta0 <= 0:
            raise ValueError(f"eta0 must be > 0, got {self.eta0}")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.decay_interval < 1:
            raise ValueError(f"decay_interval must be >= 1, got {self.decay_interval}")


def eta_at(schedule: LrSchedule, t: int) -> float:
    if t < 0:
        raise ValueError(f"round index must be >= 0, got {t}")
    return schedule.eta0 * schedule.gamma ** (t // schedule.decay_interval)


@dataclass
class RunConfig:
    algorithm: str = "fednmut"
    topology: TopologySpec = field(default_factory=lambda: TopologySpec(FULLY_CONNECTED, 16))
    d: int = 200
    m: int = 2000
    rounds: int = 500
    lr: LrSchedule = field(default_factory=LrSchedule)
    mu: float = 0.02
    noise_variance: float = 0.0
    lam: float = 1e-4
    batch_size: int = 32
    repeats: int = 3
    master_seed: int = 1
    x0_mode: str = X0_SHARED
    label_noise_variance: float = 0.05

    @property
    def n(self) -> int:
        return self.topology.n

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if self.x0_mode not in X0_MODES:
            raise ValueError(f"unknown x0 mode {self.x0_mode!r}, expected one of {X0_MODES}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.label_noise_variance < 0:
            raise ValueError(
                f"label_noise_variance must be >= 0, got {self.label_noise_variance}"
            )
        # derive_stream keys on the seed modulo 2**64, and generate on the
        # seed itself: only this range gives one seed per stream set.
        if not 0 <= self.master_seed < 2**64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.noise_variance < 0:
            raise ValueError(f"noise variance must be >= 0, got {self.noise_variance}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must be in [0, 1), got {self.mu}")
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.m < self.n:
            raise ValueError(f"need at least one sample per client: m={self.m} < n={self.n}")


@dataclass
class RunResult:
    """Per-round metrics plus, for fednmut, the measured bias energy ||B_t||_F^2 / n."""

    metrics: list[RoundMetrics]
    bias_sq: list[float]


@dataclass
class AveragedResult:
    """Round-wise mean and sample std across repeats, plus the raw repeats."""

    config: RunConfig
    rounds: np.ndarray
    eta: np.ndarray
    loss_mean: np.ndarray
    loss_std: np.ndarray
    consensus_error_mean: np.ndarray
    consensus_error_std: np.ndarray
    grad_norm_sq_mean: np.ndarray
    grad_norm_sq_std: np.ndarray
    loss_local_avg_mean: np.ndarray
    per_repeat: list[list[RoundMetrics]]


def _shared_problem(config: RunConfig, dataset: Dataset | None, shards, mixing):
    if dataset is None:
        dataset = generate(config.m, config.d, config.label_noise_variance, config.master_seed)
    if shards is None:
        shards = partition_iid(dataset, config.n)
    if mixing is None:
        mixing = build_mixing(config.topology)
    return dataset, shards, mixing


def _warn_outside_theory(config: RunConfig, mixing: MixingMatrix, smoothness: float) -> None:
    eta_cap = min(1.0 / (4.0 * smoothness), mixing.rho / (7.0 * smoothness))
    if config.lr.eta0 > eta_cap:
        warnings.warn(
            f"eta0={config.lr.eta0:.4g} exceeds the analyzed step-size cap {eta_cap:.4g}; "
            "running anyway",
            RuntimeWarning,
            stacklevel=3,
        )
    if config.algorithm == "fednmut" and config.mu / (1.0 - config.mu) > mixing.rho / 42.0:
        warnings.warn(
            f"mu={config.mu:.4g} violates mu/(1-mu) <= rho/42 for rho={mixing.rho:.4g}; "
            "running anyway",
            RuntimeWarning,
            stacklevel=3,
        )


def run_detailed(
    config: RunConfig,
    repeat_index: int,
    dataset: Dataset | None = None,
    shards: list[Shard] | None = None,
    mixing: MixingMatrix | None = None,
    smoothness: float | None = None,
) -> RunResult:
    """One simulated run, bit-reproducible per (config, repeat_index)."""
    config.validate()
    dataset, shards, mixing = _shared_problem(config, dataset, shards, mixing)
    if smoothness is None:
        smoothness = estimate_smoothness(dataset, shards, config.lam)
    _warn_outside_theory(config, mixing, smoothness)

    seed = config.master_seed
    n, d = config.n, config.d
    obj_cfg = ObjectiveConfig(lam=config.lam, batch_size=config.batch_size)
    # The initial point is shared across repeats; repeats differ through
    # batch sampling and channel noise only.
    init_stream = derive_stream(StreamKey(seed, 0, 0, 0, PURPOSE_INIT))
    X = init_states(n, d, config.x0_mode, init_stream)
    # FedNMUT's last broadcasts and Deltas, zero before the first round
    y_tilde = delta = np.zeros((d, n))

    rows: list[RoundMetrics] = []
    block = np.empty((METRICS_BLOCK, n, d))
    stamps: list[tuple[int, float]] = []

    def record(X: np.ndarray, t: int, eta: float) -> None:
        block[len(stamps)] = X.T
        stamps.append((t, eta))
        if len(stamps) == METRICS_BLOCK:
            flush()

    def flush() -> None:
        # pad a partial block with its last state, so every product has one shape
        block[len(stamps) :] = block[len(stamps) - 1]
        values = zip(*measure_block(block, dataset, config.lam, shards))
        for (t, eta), (loss, cons, gns, local) in zip(stamps, values):
            rows.append(RoundMetrics(t, eta, float(loss), float(cons), float(gns), float(local)))
        stamps.clear()

    record(X, -1, eta_at(config.lr, 0))
    bias_sq: list[float] = []
    sizes = [shard.size for shard in shards]
    sampling = config.batch_size < max(sizes)

    def stream(t: int, purpose: int) -> np.random.Generator:
        return derive_stream(StreamKey(seed, repeat_index, t, 0, purpose))

    for t in range(config.rounds):
        eta = eta_at(config.lr, t)
        if config.noise_variance == 0.0:
            noises = np.zeros((d, n))
        else:
            noises = sample_noise(
                stream(t, PURPOSE_CHANNEL_NOISE), (n, d), config.noise_variance
            ).T
        picks = [None] * n
        if sampling:
            picks = sample_batches(stream(t, PURPOSE_DATA_BATCH), sizes, config.batch_size)

        def grad(i: int, x: np.ndarray, picks: list = picks) -> np.ndarray:
            return stochastic_gradient(x, shards[i], dataset, obj_cfg, picks[i])

        grads = None
        if config.algorithm != "fedndl2":
            grads = np.column_stack([grad(i, X[:, i]) for i in range(n)])
        mu = config.mu if config.algorithm == "fednmut" else 0.0
        inputs = RoundInputs(eta=eta, W=mixing, grads=grads, noises=noises, mu=mu)
        if config.algorithm == "fedndl1":
            X = round_fedndl1(X, inputs)
        elif config.algorithm == "fedndl2":
            X = round_fedndl2(X, inputs, grad)
        elif config.algorithm == "fedndl3":
            X = round_fedndl3(X, inputs)
        else:
            X, y_tilde, delta, bias = round_fednmut_array(X, y_tilde, delta, inputs)
            bias_sq.append(float((bias * bias).sum() / n))
        record(X, t, eta)
    if stamps:
        flush()
    return RunResult(metrics=rows, bias_sq=bias_sq)


def run_single(config: RunConfig, repeat_index: int) -> list[RoundMetrics]:
    """Per-round metrics of one run (see run_detailed for the full result)."""
    return run_detailed(config, repeat_index).metrics


def run_averaged(
    config: RunConfig,
    dataset: Dataset | None = None,
    shards: list[Shard] | None = None,
    mixing: MixingMatrix | None = None,
    smoothness: float | None = None,
) -> AveragedResult:
    """Mean and sample standard deviation per round across repeats."""
    config.validate()
    dataset, shards, mixing = _shared_problem(config, dataset, shards, mixing)
    if smoothness is None:
        smoothness = estimate_smoothness(dataset, shards, config.lam)
    per_repeat = [
        run_detailed(config, r, dataset, shards, mixing, smoothness).metrics
        for r in range(config.repeats)
    ]

    def grid(attr: str) -> np.ndarray:
        return np.array([[getattr(m, attr) for m in rep] for rep in per_repeat])

    def spread(vals: np.ndarray) -> np.ndarray:
        if config.repeats == 1:
            return np.zeros(vals.shape[1])
        # exactly equal repeats get an exact zero, not mean-subtraction dust
        std = vals.std(axis=0, ddof=1)
        return np.where(np.all(vals == vals[0], axis=0), 0.0, std)

    loss = grid("loss")
    cons = grid("consensus_error")
    gns = grid("grad_norm_sq")
    local = grid("loss_local_avg")
    return AveragedResult(
        config=config,
        rounds=np.array([m.round for m in per_repeat[0]]),
        eta=np.array([m.eta for m in per_repeat[0]]),
        loss_mean=loss.mean(axis=0),
        loss_std=spread(loss),
        consensus_error_mean=cons.mean(axis=0),
        consensus_error_std=spread(cons),
        grad_norm_sq_mean=gns.mean(axis=0),
        grad_norm_sq_std=spread(gns),
        loss_local_avg_mean=local.mean(axis=0),
        per_repeat=per_repeat,
    )


def rate_fit(series) -> float:
    """Log-log slope of the running average of a squared-gradient series.

    Fits least squares on (log T, log A_T) with A_T the running average
    over the first T entries, at logarithmically spaced T after a 10%
    burn-in. A slope near -0.5 matches 1/sqrt(T) decay.
    """
    vals = np.asarray(series, dtype=float)
    if vals.size < 50:
        raise ValueError(f"need a series of at least 50 rounds, got {vals.size}")
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


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def csv_lines(avg: AveragedResult) -> list[str]:
    lines = [",".join(CSV_COLUMNS)]
    for k in range(avg.rounds.size):
        lines.append(
            ",".join(
                [str(int(avg.rounds[k]))]
                + [
                    _fmt(v)
                    for v in (
                        avg.eta[k],
                        avg.loss_mean[k],
                        avg.loss_std[k],
                        avg.consensus_error_mean[k],
                        avg.consensus_error_std[k],
                        avg.grad_norm_sq_mean[k],
                        avg.grad_norm_sq_std[k],
                        avg.loss_local_avg_mean[k],
                    )
                ]
            )
        )
    return lines


def write_cell_csv(path, avg: AveragedResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(csv_lines(avg)) + "\n")


def cell_id(config: RunConfig) -> str:
    return (
        f"{config.algorithm}_{config.topology.kind}"
        f"_var{config.noise_variance:g}_mu{config.mu:g}"
    )


def _axis_values(template: RunConfig, axes: dict) -> list[tuple]:
    for key in axes:
        if key not in SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {key!r}, expected subset of {SWEEP_AXES}")
    pools = []
    for key in SWEEP_AXES:
        pool = list(axes.get(key, [getattr(template, key)]))
        if not pool:
            raise ValueError(f"sweep axis {key!r} has no values")
        if key == "topology":
            pool = [
                v if isinstance(v, TopologySpec) else TopologySpec(v, template.topology.n)
                for v in pool
            ]
        pools.append(pool)
    return list(itertools.product(*pools))


def sweep(template: RunConfig, axes: dict, out_dir) -> list[dict]:
    """Run the cartesian product of the requested axes, one CSV per cell.

    Writes manifest.csv listing every cell and returns the manifest rows.
    Cells share the same immutable dataset, its partition and one
    smoothness estimate: n and lam are not sweep axes, so every cell has
    the same (dataset, shards, lam). Every cell config is validated, and
    cells with another n or a colliding cell_id are rejected, before the
    output directory is made.
    """
    import os

    template.validate()
    cells: dict[str, RunConfig] = {}
    for values in _axis_values(template, axes):
        config = replace(template, **dict(zip(SWEEP_AXES, values)))
        config.validate()
        if config.n != template.n:
            raise ValueError(
                f"sweep topology {config.topology.kind!r} has n={config.n}, the template "
                f"has n={template.n}; n is not a sweep axis"
            )
        cid = cell_id(config)
        if cid in cells:
            clash = [f"{k}={getattr(cells[cid], k)!r} vs {getattr(config, k)!r}" for k in axes]
            raise ValueError(f"sweep cells share cell_id {cid!r}: {', '.join(clash)}")
        cells[cid] = config
    os.makedirs(out_dir, exist_ok=True)
    dataset = generate(template.m, template.d, template.label_noise_variance, template.master_seed)
    shards = partition_iid(dataset, template.n)
    smoothness = estimate_smoothness(dataset, shards, template.lam)
    manifest_rows = []
    for cid, config in cells.items():
        avg = run_averaged(config, dataset=dataset, shards=shards, smoothness=smoothness)
        csv_name = cid + ".csv"
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
    header = ("cell_id", "algorithm", "topology", "noise_var", "mu", "seed_list", "csv_path")
    lines = [",".join(header)]
    lines += [",".join(row[col] for col in header) for row in manifest_rows]
    with open(os.path.join(out_dir, "manifest.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest_rows
