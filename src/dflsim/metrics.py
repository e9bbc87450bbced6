"""Per-round measurements: loss, consensus error, gradient norm.

Loss and gradient norm are evaluated at the mean iterate xbar (the
quantity the convergence analysis controls), on the full dataset with
exact gradients. The average of per-client local losses at their own
parameters is reported alongside as loss_local_avg.

measure_block evaluates a block of B recorded states at once; the
harness calls it on blocks of eight. Its global pass is two matrix
products, xbar @ A.T for the residuals and R @ A for the gradients, and
its local pass one stacked product per run of adjacent equal-sized
shards, on views of the block and of the data rows (no copies). The
data matrix A stays the first factor BLAS sees: the form A @ X.T makes
OpenBLAS pack A into a wide work panel, which raised peak RSS by 33 MiB
at paper scale (d = 2000, m = 10000). xbar and the consensus error are
taken state by state, by mean_iterate and consensus_error on a C-ordered
d x n copy, the layout the harness keeps. The loss and gradient terms
differ from global_loss, stochastic_gradient over the whole dataset and
local_loss by a few ulps (within 1e-13 relative), because a matrix
product sums in another order than a matrix-vector one; a one-state
block equals them bit for bit. Their bits depend on the block's shape,
which is why the harness pads a run's last block to full width.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Shard, shard_runs


def mean_iterate(X: np.ndarray) -> np.ndarray:
    """Column average of the stacked parameter matrix."""
    return X.mean(axis=1)


def consensus_error(X: np.ndarray, xbar: np.ndarray | None = None) -> float:
    """(1/n) sum_i ||x_i - xbar||^2, the mean squared client deviation.

    xbar, when given, must be mean_iterate(X).
    """
    if xbar is None:
        xbar = mean_iterate(X)
    dev = X - xbar[:, None]
    return float((dev * dev).sum() / X.shape[1])


def _row_dots(V: np.ndarray) -> np.ndarray:
    """v @ v for every vector v along V's last axis, each as one dot product."""
    return (V[..., None, :] @ V[..., :, None])[..., 0, 0]


def _block_local_losses(
    S: np.ndarray, dataset: Dataset, lam: float, shards: list[Shard]
) -> np.ndarray:
    """Every client's local loss in every state of the (B, n, d) block, as (B, n).

    Each run of adjacent equal-sized shards takes one stacked product over
    views of the block and of its data rows; each r @ r and x @ x is one
    dot product, so a one-state block equals local_loss bit for bit.
    """
    B, n, d = S.shape
    losses = np.empty((B, n))
    for i, k, size, lo, hi in shard_runs(shards):
        feats = dataset.features[lo:hi].reshape(k, size, d)
        cols = S[:, i : i + k].transpose(1, 0, 2)
        residuals = cols @ feats.transpose(0, 2, 1)
        residuals -= dataset.labels[lo:hi].reshape(k, 1, size)
        losses[:, i : i + k] = (_row_dots(residuals) / size + lam * _row_dots(cols)).T
    return losses


def _global_terms(xbar: np.ndarray, dataset: Dataset, lam: float):
    """Loss and squared gradient norm at every row of xbar, from one residual."""
    A = dataset.features
    residual = xbar @ A.T
    residual -= dataset.labels
    grad = residual @ A
    grad *= 2.0 / dataset.m
    grad += 2.0 * lam * xbar
    return _row_dots(residual) / dataset.m + lam * _row_dots(xbar), _row_dots(grad)


def measure_block(
    S: np.ndarray, dataset: Dataset, lam: float, shards: list[Shard]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The metrics of B states at once, one matrix product per pass.

    S is (B, n, d): row i of S[j] holds client i's parameters in state j.
    Returns the per-state loss, consensus error, squared gradient norm and
    average local loss, each of shape (B,). The global and local passes
    run one after the other, so their residual blocks are never alive at
    the same time.
    """
    B, n, d = S.shape
    xbar, consensus = np.empty((B, d)), np.empty(B)
    for j in range(B):
        # on a C-ordered copy a state in consensus gives xbar == x_i and a
        # consensus error of 0
        X = S[j].T.copy()
        xbar[j] = mean_iterate(X)
        consensus[j] = consensus_error(X, xbar[j])
    loss, grad_norm_sq = _global_terms(xbar, dataset, lam)
    local = _block_local_losses(S, dataset, lam, shards)
    return loss, consensus, grad_norm_sq, local.mean(axis=1)
