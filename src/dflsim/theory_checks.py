"""Executable checks of the analysis behind the algorithms.

The estimators here turn the analysis constants into measurable
quantities: smoothness L, gradient-noise variance sigma^2, client
heterogeneity zeta^2. L is exact to rounding: per shard, the Gram on
the shard's smaller side k = min(rows, d) is formed once, and its
largest eigenvalue is solved densely up to k = 512 and by Lanczos on
that Gram above, which stops once its residual bound puts an exact
eigenvalue within 1e-12 relative of the estimate. The sigma^2 and
zeta^2 values are maxima over sampled points, so they are estimated
lower envelopes of the assumed uniform bounds, and the worst-case bound
evaluation built on them is a sanity check rather than a certificate.

Also here: a Monte-Carlo check that the tracking bias stays zero-mean
under channel noise, and the contraction check for gossip matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, Shard
from .objective import sample_batches, stochastic_gradient

# Largest smaller-side k whose k x k Gram is solved densely. Every shard's
# Gram is formed once and only one is alive at a time; k^2 <= rows * d, so
# it is never larger than the shard. A dense eigensolve adds LAPACK's copy
# and workspace on top of it, which shows up in a paper-scale run's peak
# RSS (+5.5% at k = 625), so above this size Lanczos runs on the Gram
# instead and adds only its basis, O(k * steps).
_DENSE_EIG_MAX_DIM = 512
# Lanczos stops once the Ritz residual is below this fraction of theta.
_LANCZOS_TOL = 1e-12
# Lanczos steps between tridiagonal eigensolves, and rows added to the
# basis array each time it fills up.
_LANCZOS_CHECK_EVERY = 8
_LANCZOS_BASIS_CHUNK = 64
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
    trials: int
    rounds: int


@dataclass
class ContractionReport:
    passed: bool
    max_ratio: float
    allowed: float
    trials: int


def _lanczos_lambda_max(apply, k: int) -> float:
    """Largest eigenvalue of the symmetric PSD operator `apply` on R^k.

    Lanczos with full reorthogonalization (classical Gram-Schmidt, run
    twice), from a fixed random start, for at most k steps. Every
    _LANCZOS_CHECK_EVERY steps, at step k and on a Krylov breakdown
    (beta == 0) it solves the tridiagonal T, and it stops when the Ritz
    pair (theta, y) has residual ||A y - theta y|| = beta |s_last|
    <= _LANCZOS_TOL * theta, where s_last is the last entry of theta's
    eigenvector of T. That residual places an exact eigenvalue of A
    within the same distance of theta. A breakdown always stops it: the
    Krylov space is then invariant, so theta is an exact eigenvalue and
    the next step would divide by zero. The basis lives in one array
    grown by _LANCZOS_BASIS_CHUNK rows, so it holds at most a chunk more
    than the steps taken, and never more than k rows.
    """
    q = np.random.default_rng(0).standard_normal(k)
    q /= np.linalg.norm(q)
    basis = np.empty((min(k, _LANCZOS_BASIS_CHUNK), k))
    basis[0] = q
    alphas: list[float] = []
    betas: list[float] = []
    theta = 0.0
    for step in range(1, k + 1):
        w = apply(q)
        alphas.append(float(q @ w))
        done = basis[:step]
        for _ in range(2):
            w -= done.T @ (done @ w)
        beta = float(np.linalg.norm(w))
        if beta == 0.0 or step % _LANCZOS_CHECK_EVERY == 0 or step == k:
            tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            evals, evecs = np.linalg.eigh(tri)
            theta = float(evals[-1])
            if beta == 0.0 or beta * abs(evecs[-1, -1]) <= _LANCZOS_TOL * theta:
                break
        if step == k:
            break
        betas.append(beta)
        q = w / beta
        if step == basis.shape[0]:
            grow = min(_LANCZOS_BASIS_CHUNK, k - step)
            basis = np.concatenate([basis, np.empty((grow, k))])
        basis[step] = q
    return theta


def _gram_lambda_max(feats: np.ndarray, m: int) -> float:
    """Largest eigenvalue of 2 F^T F / m, computed on the smaller side of F.

    F^T F (d x d) and F F^T (rows x rows) share their nonzero spectrum,
    so the work is set by k = min(rows, d): the k x k Gram G is F F^T
    when rows < d, else F^T F (a square shard keeps F^T F). G is formed
    once; it is no larger than F and stays cache-resident at paper scale
    (k = 625, 3 MiB). Up to k = _DENSE_EIG_MAX_DIM it is solved densely;
    above it, Lanczos runs on v -> G v. Both paths are exact to
    rounding; an all-zero shard gives 0.
    """
    rows, d = feats.shape
    side = feats if rows < d else feats.T  # k x max(rows, d)
    k = side.shape[0]
    if k <= _DENSE_EIG_MAX_DIM:
        return float(np.linalg.eigvalsh(2.0 * (side @ side.T) / m)[-1])
    gram = side @ side.T
    return 2.0 * _lanczos_lambda_max(lambda v: gram @ v, k) / m


def estimate_smoothness(dataset: Dataset, shards: list[Shard], lam: float) -> float:
    """Smoothness constant L = max over shards of lambda_max(2 F^T F / m) + 2 lam.

    Each shard's lambda_max is exact to rounding: the Gram on the shard's
    smaller side is formed once and solved densely up to 512, by Lanczos
    above (see _gram_lambda_max); only one shard's Gram is alive at a
    time. The value depends on (dataset, shards, lam) only, so callers
    running several configs on one problem compute it once.
    """
    worst = 0.0
    for shard in shards:
        feats = dataset.features[shard.start : shard.stop]
        worst = max(worst, _gram_lambda_max(feats, shard.size))
    return worst + 2.0 * lam


def estimate_sigma_sq(
    x_samples: list[np.ndarray],
    shards: list[Shard],
    dataset: Dataset,
    lam: float,
    batch_size: int,
    rng: np.random.Generator,
    draws: int = 500,
) -> float:
    """Worst observed minibatch-gradient variance over sampled points and clients."""
    worst = 0.0
    for x in x_samples:
        for shard in shards:
            mean_grad = stochastic_gradient(x, shard, dataset, lam)
            if batch_size >= shard.size:
                continue  # full batch has zero sampling variance
            acc = 0.0
            for _ in range(draws):
                picks = sample_batches(rng, [shard.size], batch_size)[0]
                g = stochastic_gradient(x, shard, dataset, lam, picks)
                diff = g - mean_grad
                acc += float(diff @ diff)
            worst = max(worst, acc / draws)
    return worst


def estimate_zeta_sq(
    x_samples: list[np.ndarray],
    shards: list[Shard],
    dataset: Dataset,
    lam: float,
) -> float:
    """Worst observed client heterogeneity (1/n) sum_i ||grad_i - grad||^2."""
    worst = 0.0
    for x in x_samples:
        grads = np.column_stack([stochastic_gradient(x, s, dataset, lam) for s in shards])
        mean = grads.mean(axis=1, keepdims=True)
        dev = grads - mean
        worst = max(worst, float((dev * dev).sum() / len(shards)))
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
    sit within 4 standard errors of zero. The variance is reported but
    not asserted.
    """
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"mu must be in [0, 1), got {mu}")
    rng = np.random.default_rng(seed)
    b = np.zeros((trials, d))
    if per_coord_variance > 0:
        scale = math.sqrt(per_coord_variance)
        for _ in range(T):
            delta_bar = rng.normal(0.0, scale, size=(trials, n, d)).mean(axis=1)
            b = mu * b + delta_bar
    means = b.mean(axis=0)
    if per_coord_variance == 0:
        return BiasMeanReport(
            passed=bool(np.all(b == 0.0)),
            max_abs_mean=float(np.max(np.abs(means))),
            max_se_ratio=0.0,
            empirical_variance=0.0,
            predicted_variance=0.0,
            trials=trials,
            rounds=T,
        )
    ses = b.std(axis=0, ddof=1) / math.sqrt(trials)
    ratios = np.abs(means) / ses
    geometric = (1.0 - mu ** (2 * T)) / (1.0 - mu * mu)
    return BiasMeanReport(
        passed=bool(np.all(ratios <= 4.0)),
        max_abs_mean=float(np.max(np.abs(means))),
        max_se_ratio=float(ratios.max()),
        empirical_variance=float(b.var(axis=0, ddof=1).mean()),
        predicted_variance=per_coord_variance / n * geometric,
        trials=trials,
        rounds=T,
    )


def step_size_cap(L: float, rho: float) -> float:
    """min(1/(4L), rho/(7L)): the largest step size the analysis covers."""
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


def check_contraction(
    mixing,
    rho: float,
    trials: int,
    seed: int,
) -> ContractionReport:
    """Check ||(X - Xbar) W||_F^2 <= (1 - rho + 1e-9) ||X - Xbar||_F^2 on random X."""
    w = np.asarray(getattr(mixing, "weights", mixing), dtype=float)
    n = w.shape[0]
    rng = np.random.default_rng(seed)
    allowed = 1.0 - rho + 1e-9
    max_ratio = 0.0
    for _ in range(trials):
        X = rng.standard_normal((_CONTRACTION_DIM, n))
        dev = X - X.mean(axis=1, keepdims=True)
        denom = float((dev * dev).sum())
        if denom == 0.0:
            continue
        mixed = dev @ w
        max_ratio = max(max_ratio, float((mixed * mixed).sum()) / denom)
    return ContractionReport(
        passed=max_ratio <= allowed,
        max_ratio=max_ratio,
        allowed=allowed,
        trials=trials,
    )
