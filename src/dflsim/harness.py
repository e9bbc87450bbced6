"""Experiment driver: single runs, seed-averaged repeats, sweeps, CSV output.

A run is fully determined by its config and master seed. Random streams
follow stream layout 2: each round derives at most two, one per purpose,
keyed by (repeat, round, purpose), and each draws one block whose row i
belongs to client i: an n x d channel-noise block (none at noise 0) and
the minibatch keys of sample_batches (none when every client takes its
whole shard). Results do not depend on scheduling and re-runs are
byte-identical. Metrics row t records the state after round t's update;
a leading row at t = -1 records the common initial state.

Results are named arrays: METRICS lists each per-round metric once, and
the CSV columns, both result types and the averaging derive from it.
Every run is set up by _setup, which reuses what a given Setup holds.
bound_sanity checks one run against the convergence theorem's bound.

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
import os
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
from .metrics import measure_block
from .objective import ridge_optimum, sample_batches, stochastic_gradient
from .theory_checks import (
    ConstantsEstimate,
    estimate_sigma_sq,
    estimate_smoothness,
    estimate_zeta_sq,
    evaluate_theorem_bound,
    step_size_cap,
    tracking_condition,
)
from .topology import FULLY_CONNECTED, MixingMatrix, TopologySpec, build_mixing

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


@dataclass(frozen=True)
class Setup:
    """What runs of one problem share; mixing=None is built from each config's topology."""

    dataset: Dataset
    shards: list[Shard]
    smoothness: float
    mixing: MixingMatrix | None = None


@dataclass
class RunResult:
    """Per-state arrays ("round", "eta", each of METRICS), and fednmut's ||B_t||_F^2 / n."""

    metrics: dict[str, np.ndarray]
    bias_sq: list[float]


@dataclass
class AveragedResult:
    """An array per CSV_COLUMNS name, plus each repeat's RunResult.metrics."""

    config: RunConfig
    columns: dict[str, np.ndarray]
    per_repeat: list[dict[str, np.ndarray]]


def _setup(config: RunConfig, shared: Setup | None = None) -> Setup:
    """Validate config, then build whatever part of its set-up shared lacks."""
    config.validate()
    if shared is None:
        dataset = generate(config.m, config.d, config.label_noise_variance, config.master_seed)
        shards = partition_iid(dataset, config.n)
        shared = Setup(dataset, shards, estimate_smoothness(dataset, shards, config.lam))
    if shared.mixing is None:
        shared = replace(shared, mixing=build_mixing(config.topology))
    return shared


def _warn_outside_theory(config: RunConfig, mixing: MixingMatrix, smoothness: float) -> None:
    eta_cap = step_size_cap(smoothness, mixing.rho)
    ratio, limit = tracking_condition(config.mu, mixing.rho)
    outside = []
    if config.lr.eta0 > eta_cap:
        outside.append(
            f"eta0={config.lr.eta0:.4g} exceeds the analyzed step-size cap {eta_cap:.4g}"
        )
    if config.algorithm == "fednmut" and ratio > limit:
        outside.append(f"mu={config.mu:.4g} violates mu/(1-mu) <= rho/42 for rho={mixing.rho:.4g}")
    for message in outside:
        warnings.warn(f"{message}; running anyway", RuntimeWarning, stacklevel=3)


def run_detailed(config: RunConfig, repeat_index: int, setup: Setup | None = None) -> RunResult:
    """One simulated run, bit-reproducible per (config, repeat_index).

    A given setup must have been built for config's problem.
    """
    setup = _setup(config, setup)
    dataset, shards, mixing = setup.dataset, setup.shards, setup.mixing
    _warn_outside_theory(config, mixing, setup.smoothness)

    seed = config.master_seed
    n, d, lam = config.n, config.d, config.lam
    # The initial point is shared across repeats; repeats differ through
    # batch sampling and channel noise only.
    init_stream = derive_stream(StreamKey(seed, 0, 0, 0, PURPOSE_INIT))
    X = init_states(n, d, config.x0_mode, init_stream)
    # FedNMUT's last broadcasts and Deltas, zero before the first round
    y_tilde = delta = np.zeros((d, n))

    # row t + 1 of the metrics records the state after round t
    etas = [eta_at(config.lr, max(t, 0)) for t in range(-1, config.rounds)]
    block = np.empty((METRICS_BLOCK, n, d))
    values: list[tuple[np.ndarray, ...]] = []  # measure_block's output per block

    def record(X: np.ndarray, t: int) -> None:
        k = (t + 1) % METRICS_BLOCK
        block[k] = X.T
        if k == METRICS_BLOCK - 1 or t == config.rounds - 1:
            # pad a partial last block with its last state, so every product has one shape
            block[k + 1 :] = block[k]
            values.append(measure_block(block, dataset, lam, shards))

    record(X, -1)
    bias_sq: list[float] = []
    sizes = [shard.size for shard in shards]
    sampling = config.batch_size < max(sizes)

    def stream(t: int, purpose: int) -> np.random.Generator:
        return derive_stream(StreamKey(seed, repeat_index, t, 0, purpose))

    for t in range(config.rounds):
        eta = etas[t + 1]
        if config.noise_variance == 0.0:
            noises = np.zeros((d, n))
        else:
            noises = sample_noise(
                stream(t, PURPOSE_CHANNEL_NOISE), (n, d), config.noise_variance
            ).T
        picks = [None] * n
        if sampling:
            picks = sample_batches(stream(t, PURPOSE_DATA_BATCH), sizes, config.batch_size)

        def grads(Z: np.ndarray, picks: list = picks) -> np.ndarray:
            cols = zip(Z.T, shards, picks)  # Z.T[i] is Z[:, i]
            return np.column_stack([stochastic_gradient(z, s, dataset, lam, p) for z, s, p in cols])

        inputs = RoundInputs(eta=eta, W=mixing, grads=grads, noises=noises, mu=config.mu)
        if config.algorithm == "fedndl1":
            X = round_fedndl1(X, inputs)
        elif config.algorithm == "fedndl2":
            X = round_fedndl2(X, inputs)
        elif config.algorithm == "fedndl3":
            X = round_fedndl3(X, inputs)
        else:
            X, y_tilde, delta, bias = round_fednmut_array(X, y_tilde, delta, inputs)
            bias_sq.append(float((bias * bias).sum() / n))
        record(X, t)

    metrics = {"round": np.arange(-1, config.rounds), "eta": np.array(etas)}
    for name, *parts in zip(METRICS, *values):
        metrics[name] = np.concatenate(parts)[: len(etas)]
    return RunResult(metrics=metrics, bias_sq=bias_sq)


def run_averaged(config: RunConfig, setup: Setup | None = None) -> AveragedResult:
    """Each metric's mean and sample standard deviation per round across repeats."""
    setup = _setup(config, setup)
    per_repeat = [run_detailed(config, r, setup).metrics for r in range(config.repeats)]
    columns = {"round": per_repeat[0]["round"], "eta": per_repeat[0]["eta"]}
    for name, stats in METRICS.items():
        vals = np.array([rep[name] for rep in per_repeat])
        columns[name + "_mean"] = vals.mean(axis=0)
        if "std" in stats:
            # exactly equal repeats get an exact zero, not mean-subtraction dust
            std = vals.std(axis=0, ddof=1) if len(vals) > 1 else 0.0
            columns[name + "_std"] = np.where(np.all(vals == vals[0], axis=0), 0.0, std)
    return AveragedResult(config=config, columns=columns, per_repeat=per_repeat)


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


def bound_sanity(config: RunConfig, setup: Setup | None = None) -> BoundSanity:
    """Run repeat 0 of config at half the step-size cap and check it against the theorem.

    sigma^2 and zeta^2 are estimated at the initial point, x* and one
    draw of default_rng(1234); B_bar^2 is the run's mean ||B_t||_F^2 / n,
    so any rule but FedNMUT is rejected before set-up.
    """
    if config.algorithm != "fednmut":
        raise ValueError(f"bound_sanity needs a fednmut config, got algorithm {config.algorithm!r}")
    setup = _setup(config, setup)
    dataset, shards, L, rho = setup.dataset, setup.shards, setup.smoothness, setup.mixing.rho
    eta = step_size_cap(L, rho) / 2.0
    config = replace(config, lr=LrSchedule(eta0=eta, gamma=1.0, decay_interval=1))
    result = run_detailed(config, 0, setup)
    # entry k is the state entering round k
    grad_series = result.metrics["grad_norm_sq"][:-1]

    d, lam = config.d, config.lam
    x_star, f_star = ridge_optimum(dataset, lam)
    init = derive_stream(StreamKey(config.master_seed, 0, 0, 0, PURPOSE_INIT)).standard_normal(d)
    rng = np.random.default_rng(1234)
    x_samples = [init, x_star, rng.standard_normal(d)]
    consts = ConstantsEstimate(
        L=L,
        sigma_sq=estimate_sigma_sq(x_samples, shards, dataset, lam, config.batch_size, rng),
        zeta_sq=estimate_zeta_sq(x_samples, shards, dataset, lam),
        D_sq_total=d * config.noise_variance,
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
    """Every cell config of a sweep, validated and keyed by its cell_id.

    Raises ValueError on a bad axis, an invalid cell or colliding cell_ids.
    Topology values are kinds, built at the template's n.
    """
    template.validate()
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
        config.validate()
        cid = cell_id(config)
        if cid in cells:
            clash = [f"{k}={getattr(cells[cid], k)!r} vs {getattr(config, k)!r}" for k in axes]
            raise ValueError(f"sweep cells share cell_id {cid!r}: {', '.join(clash)}")
        cells[cid] = config
    return cells


def sweep(template: RunConfig, axes: dict, out_dir) -> list[dict]:
    """Run the cartesian product of the requested axes, one CSV per cell.

    Writes manifest.csv listing every cell and returns the manifest rows.
    Every cell is checked before the output directory is made. n and lam
    are not sweep axes, so all cells share one dataset, partition and
    smoothness estimate; each builds its own mixing.
    """
    cells = sweep_cells(template, axes)
    os.makedirs(out_dir, exist_ok=True)
    shared = None
    manifest_rows = []
    for cid, config in cells.items():
        setup = _setup(config, shared)
        shared = replace(setup, mixing=None)
        csv_name = cid + ".csv"
        write_cell_csv(os.path.join(out_dir, csv_name), run_averaged(config, setup))
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
