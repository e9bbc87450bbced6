"""Executable checks of the analysis behind the algorithms.

The estimators here turn the analysis constants of a Problem into
measurable quantities: smoothness L, gradient-noise variance sigma^2,
client heterogeneity zeta^2. L is exact to rounding: per shard, the Gram on
the shard's smaller side k = min(rows, d) is formed once and its
largest eigenvalue is solved densely; only bound_sanity and verify need
it. Runs use only smoothness_lower_bound, a few matrix-free power steps
whose Rayleigh quotient can only fall below L, for the record of their
analysis regime (harness.analysis_regime). The sigma^2 and
zeta^2 values are maxima over sampled points, so they are estimated
lower envelopes of the assumed uniform bounds, and the worst-case bound
evaluation built on them is a sanity check rather than a certificate.
Their per-client reference gradient is tests/oracles.py's.

Also here: a Monte-Carlo check that the tracking bias stays zero-mean
under channel noise, and the contraction check for gossip matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Problem
from .metrics import consensus_error
from .objective import batch_gradients, gathered_gradients, sample_batches
from .topology import MixingMatrix

# Power steps per shard in smoothness_lower_bound, and the relative shrink of
# its quotient: once the steps converge (a rank-1 shard's do at once), rounding
# can put the quotient a few ulps above eigvalsh's value.
_POWER_STEPS = 4
_ROUNDING_MARGIN = 1e-12
# Rows of each random X that check_contraction draws.
_CONTRACTION_DIM = 8


class PreconditionViolated(ValueError):
    """A worst-case bound was requested outside its validity region."""

    def __init__(self, inequality: str, detail: str):
        self.inequality = inequality
        super().__init__(f"precondition violated: {inequality} ({detail})")


@dataclass
class ConstantsEstimate:
    """Inputs to the worst-case bound, all measured or estimated.

    B_bar_sq is the running average of ||B_t||_F^2 / n over the measured
    run; D_sq_total is the per-client total noise energy E||delta||^2,
    i.e. dimension times the per-coordinate variance.
    """

    L: float
    sigma_sq: float
    zeta_sq: float
    D_sq_total: float
    B_bar_sq: float
    f0_gap: float


@dataclass
class BiasMeanReport:
    passed: bool
    max_abs_mean: float
    max_se_ratio: float
    empirical_variance: float
    predicted_variance: float


@dataclass
class ContractionReport:
    passed: bool
    max_ratio: float
    allowed: float


def estimate_smoothness(problem: Problem) -> float:
    """Smoothness constant L = max over shards of lambda_max(2 F^T F / m) + 2 lam.

    Exact to rounding. F^T F (d x d) and F F^T (rows x rows) share their
    nonzero spectrum, so each shard's Gram is formed on its smaller side,
    k = min(rows, d): F F^T when rows < d, else F^T F (a square shard keeps
    F^T F). It is no larger than F, only one is alive at a time, and it is
    solved densely by eigvalsh; an all-zero shard gives 0. The value depends
    on the problem only, so callers running several configs on one problem
    compute it once. Only bound_sanity and verify call it; runs use only
    smoothness_lower_bound, for their analysis_regime record.
    """
    worst = 0.0
    for shard in problem.shards:
        feats = problem.dataset.features[shard.start : shard.stop]
        side = feats if shard.size < feats.shape[1] else feats.T  # k x max(rows, d)
        worst = max(worst, float(np.linalg.eigvalsh(2.0 * (side @ side.T) / shard.size)[-1]))
    return worst + 2.0 * problem.lam


def smoothness_lower_bound(problem: Problem) -> float:
    """A certified lower bound on estimate_smoothness's L, matrix-free.

    Per shard, _POWER_STEPS power steps v -> F^T (F v) from a vector of
    ones; each step's Rayleigh quotient ||F v||^2 / ||v||^2 never exceeds
    lambda_max(F^T F), and a shard whose F v vanishes stops at 0. The
    largest 2 quotient / rows, shrunk by _ROUNDING_MARGIN, plus 2 lam is
    returned. It costs 2 * _POWER_STEPS passes over the features and no
    Gram; on standard normal features it is 0.83-0.87 of L.
    """
    worst = 0.0
    for shard in problem.shards:
        feats = problem.dataset.features[shard.start : shard.stop]
        v = np.ones(feats.shape[1])
        quotient = 0.0
        for _ in range(_POWER_STEPS):
            u = feats @ v
            uu = float(u @ u)
            if uu == 0.0:
                break
            quotient = uu / float(v @ v)
            v = feats.T @ u
            v /= np.linalg.norm(v)
        worst = max(worst, 2.0 * quotient / shard.size)
    return worst * (1.0 - _ROUNDING_MARGIN) + 2.0 * problem.lam


def estimate_sigma_sq(
    x_samples: list[np.ndarray],
    problem: Problem,
    batch_size: int,
    rng: np.random.Generator,
    draws: int = 500,
) -> float:
    """Worst observed minibatch-gradient variance over sampled points and clients.

    A point's whole-shard gradients are one batch_gradients call at the
    point tiled across clients. A (point, shard) pair's batches are one
    sample_batches block of `draws` rows (the keys of one call per draw) and
    one gathered_gradients call; squared deviations are summed in draw order.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    if len(x_samples) == 0:
        raise ValueError("x_samples must not be empty")
    worst = 0.0
    for x in x_samples:
        mean_grads = batch_gradients(np.repeat(x[:, None], len(problem.shards), 1), problem)
        for shard, mean_grad in zip(problem.shards, mean_grads.T):
            if batch_size >= shard.size:
                continue  # full batch has zero sampling variance
            picks = sample_batches(rng, [shard.size] * draws, batch_size)
            xs = np.broadcast_to(x, (draws, x.size))
            acc = 0.0
            for diff in gathered_gradients(xs, shard.start + picks, problem) - mean_grad:
                acc += float(diff @ diff)
            worst = max(worst, acc / draws)
    return worst


def estimate_zeta_sq(x_samples: list[np.ndarray], problem: Problem) -> float:
    """Worst observed client heterogeneity (1/n) sum_i ||grad_i - grad||^2, a consensus_error."""
    if len(x_samples) == 0:
        raise ValueError("x_samples must not be empty")
    n = len(problem.shards)
    worst = 0.0
    for x in x_samples:
        grads = batch_gradients(np.repeat(x[:, None], n, 1), problem)
        worst = max(worst, consensus_error(grads))
    return worst


def check_bias_zero_mean(
    mu: float,
    per_coord_variance: float,
    n: int,
    d: int,
    T: int,
    trials: int,
    seed: int,
) -> BiasMeanReport:
    """Monte-Carlo test that the averaged tracking bias has zero mean.

    Simulates the column-mean recursion b_t = mu * b_{t-1} + mean of the
    round's n client noise draws, starting from zero, over independent
    noise sequences. Each coordinate's sample mean after T rounds must
    sit within 4 standard errors of zero; one with no spread, as at zero
    noise, passes. The variance is reported but not asserted.
    """
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"mu must be in [0, 1), got {mu}")
    if not 0 <= per_coord_variance < math.inf:
        raise ValueError(f"per_coord_variance must be >= 0 and finite, got {per_coord_variance}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
    rng = np.random.default_rng(seed)
    b = np.zeros((trials, d))
    scale = math.sqrt(per_coord_variance)
    for _ in range(T):
        delta_bar = rng.normal(0.0, scale, size=(trials, n, d)).mean(axis=1)
        b = mu * b + delta_bar
    means = b.mean(axis=0)
    ses = b.std(axis=0, ddof=1) / math.sqrt(trials)
    ratios = np.divide(np.abs(means), ses, out=np.zeros(d), where=ses > 0)
    geometric = (1.0 - mu ** (2 * T)) / (1.0 - mu * mu)
    return BiasMeanReport(
        passed=bool(np.all(ratios <= 4.0)),
        max_abs_mean=float(np.max(np.abs(means))),
        max_se_ratio=float(ratios.max()),
        empirical_variance=float(b.var(axis=0, ddof=1).mean()),
        predicted_variance=per_coord_variance / n * geometric,
    )


def step_size_cap(L: float, rho: float) -> float:
    """min(1/(4L), rho/(7L)): the largest step size the analysis covers; inf at L = 0."""
    if L == 0:
        return math.inf
    return min(1.0 / (4.0 * L), rho / (7.0 * L))


def tracking_condition(mu: float, rho: float) -> tuple[float, float]:
    """Both sides of mu/(1-mu) <= rho/42, the analysis's bound on the scaling factor."""
    return mu / (1.0 - mu), rho / 42.0


def evaluate_theorem_bound(
    consts: ConstantsEstimate,
    rho: float,
    mu: float,
    eta: float,
    n: int,
    T: int,
) -> float:
    """Worst-case upper bound on (1/T) sum_t ||grad f(xbar_t)||^2.

    Every round and client has the noise energy consts.D_sq_total. Raises
    PreconditionViolated when the step size or scaling factor leaves the
    regime the bound is proved for.
    """
    L = consts.L
    if L <= 0:
        raise ValueError("smoothness constant must be positive")
    eta_cap = step_size_cap(L, rho)
    if eta > eta_cap:
        raise PreconditionViolated(
            "eta <= min(1/(4L), rho/(7L))", f"eta={eta:.4g} > {eta_cap:.4g}"
        )
    if 6.0 * mu * mu / (rho * (1.0 - mu)) > rho / 8.0:
        raise PreconditionViolated(
            "6 mu^2 / (rho (1-mu)) <= rho/8",
            f"lhs={6.0 * mu * mu / (rho * (1.0 - mu)):.4g} > {rho / 8.0:.4g}",
        )
    ratio, limit = tracking_condition(mu, rho)
    if ratio > limit:
        raise PreconditionViolated("mu/(1-mu) <= rho/42", f"mu/(1-mu)={ratio:.4g} > {limit:.4g}")

    noise_sum = n * T * consts.D_sq_total  # sum over rounds and clients of D^2_{t,i}

    inv_tail = 1.0 / (2.0 * n * L * eta)
    term_init = 2.0 * consts.f0_gap / (eta * T)
    term_bias = L * mu * mu * eta * consts.B_bar_sq
    term_sigma = 2.0 * L * L * eta * eta * consts.sigma_sq * (
        16.0 / (rho * n) + (1.0 - mu) / 2.0 + inv_tail
    )
    term_zeta = 2.0 * L * L * eta * eta * consts.zeta_sq * (48.0 / (rho * rho) + 0.5)
    term_noise = (2.0 * L * L * eta * eta / T) * noise_sum * (
        16.0 / (n * rho * rho) + 0.5 + inv_tail
    )
    return term_init + term_bias + term_sigma + term_zeta + term_noise


def check_contraction(mixing: MixingMatrix, trials: int, seed: int) -> ContractionReport:
    """Check the mixing's ||(X - Xbar) W||_F^2 <= (1 - rho + 1e-9) ||X - Xbar||_F^2 on random X."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    n = len(mixing.weights)
    rng = np.random.default_rng(seed)
    allowed = 1.0 - mixing.rho + 1e-9
    max_ratio = 0.0
    for _ in range(trials):
        X = rng.standard_normal((_CONTRACTION_DIM, n))
        dev = X - X.mean(axis=1, keepdims=True)
        denom = float((dev * dev).sum())
        if denom == 0.0:
            continue
        mixed = dev @ mixing.weights
        max_ratio = max(max_ratio, float((mixed * mixed).sum()) / denom)
    return ContractionReport(passed=max_ratio <= allowed, max_ratio=max_ratio, allowed=allowed)
