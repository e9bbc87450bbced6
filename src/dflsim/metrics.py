"""Per-round measurements: loss, consensus error, gradient norm.

Loss and gradient norm are evaluated at the mean iterate xbar (the
quantity the convergence analysis controls), on the full dataset with
exact gradients. The average of per-client local losses at their own
parameters is reported alongside as loss_local_avg.

measure makes one pass for the global terms and one for the local ones:
the residual A xbar - y feeds both the loss and the gradient, and each
run of adjacent equal-sized shards gets its local residuals from one
stacked product over a view of its rows. Every value is reduced in the
same order as global_loss, global_gradient and local_loss, so it equals
theirs bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Shard


@dataclass
class RoundMetrics:
    round: int
    eta: float
    loss: float
    consensus_error: float
    grad_norm_sq: float
    loss_local_avg: float | None = None


def mean_iterate(X: np.ndarray) -> np.ndarray:
    """Column average of the stacked parameter matrix."""
    return X.mean(axis=1)


def consensus_error(X: np.ndarray) -> float:
    """(1/n) sum_i ||x_i - xbar||^2, the mean squared client deviation."""
    dev = X - mean_iterate(X)[:, None]
    return float((dev * dev).sum() / X.shape[1])


def _shard_runs(shards: list[Shard]):
    """Split shards into maximal runs of adjacent, equal-sized row ranges."""
    run = [shards[0]]
    for shard in shards[1:]:
        if shard.size == run[0].size and shard.start == run[-1].stop:
            run.append(shard)
        else:
            yield run
            run = [shard]
    yield run


def _row_dots(V: np.ndarray) -> np.ndarray:
    """v @ v for every row v of V, each as one dot product."""
    return (V[:, None, :] @ V[:, :, None])[:, 0, 0]


def local_losses(X: np.ndarray, dataset: Dataset, lam: float, shards: list[Shard]) -> np.ndarray:
    """local_loss(X[:, i], shards[i], dataset, lam) for every client i."""
    losses, i = [], 0
    for run in _shard_runs(shards):
        k, size, lo = len(run), run[0].size, run[0].start
        if size <= 0:
            raise ValueError(f"empty shard for client {run[0].client}")
        hi = lo + k * size
        cols = X.T[i : i + k]
        feats = dataset.features[lo:hi].reshape(k, size, dataset.d)
        residuals = (feats @ cols[:, :, None])[:, :, 0] - dataset.labels[lo:hi].reshape(k, size)
        losses.append(_row_dots(residuals) / size + lam * _row_dots(cols))
        i += k
    return np.concatenate(losses)


def measure(
    X: np.ndarray,
    dataset: Dataset,
    lam: float,
    t: int,
    eta: float,
    shards: list[Shard] | None = None,
) -> RoundMetrics:
    """Evaluate one round's metrics at the mean iterate; deterministic."""
    xbar = mean_iterate(X)
    residual = dataset.features @ xbar - dataset.labels
    grad = (2.0 / dataset.m) * (dataset.features.T @ residual) + 2.0 * lam * xbar
    local_avg = None
    if shards is not None:
        local_avg = float(local_losses(X, dataset, lam, shards).mean())
    return RoundMetrics(
        round=t,
        eta=eta,
        loss=float(residual @ residual / dataset.m + lam * (xbar @ xbar)),
        consensus_error=consensus_error(X),
        grad_norm_sq=float(grad @ grad),
        loss_local_avg=local_avg,
    )
