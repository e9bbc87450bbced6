"""Ridge regression objectives and gradients.

The convention is mean (not half-mean) squared error plus lam * ||x||^2,
so gradients carry a factor 2:

    f_i(x) = (1/|S_i|) sum_{s in S_i} (<x, a_s> - y_s)^2 + lam * ||x||^2
    grad   = (2/|B|) sum_{s in B} (<x, a_s> - y_s) a_s + 2 * lam * x

Batches are drawn uniformly without replacement from each client's shard
by one routine, sample_batches, for all clients of a round at once: row i
of one uniform block ranks client i's shard rows, and the batch is the
first batch_size of them. A batch covering the whole shard takes the
shard in order; when every shard is covered, sample_batches draws nothing
from the random stream. Under stream layout 3 (see dflsim.channel) every
round of a repeat draws its block from the repeat's one minibatch stream,
in round order.

stochastic_gradient is the one gradient formula, over a batch or the
whole shard. batch_gradients takes every client's gradient of a round in
one pass, as stacked products over each run of adjacent equal-sized
shards (views of whole shards, gathers of sampled rows in chunks of at
most GATHER_BUDGET elements). It equals stochastic_gradient per client
bit for bit, which stays its oracle.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, Shard, shard_runs

_MAX_SOLVE_DIM = 4096

# Float64 elements in one gathered block of batch rows (512 KiB): one
# paper-scale client's batch of 32 rows at d = 2000.
GATHER_BUDGET = 1 << 16


def _shard_view(shard: Shard, dataset: Dataset):
    if shard.size <= 0:
        raise ValueError(f"empty shard for client {shard.client}")
    return dataset.features[shard.start : shard.stop], dataset.labels[shard.start : shard.stop]


def local_loss(x: np.ndarray, shard: Shard, dataset: Dataset, lam: float) -> float:
    """Mean squared residual over the shard plus the ridge penalty."""
    feats, labels = _shard_view(shard, dataset)
    residual = feats @ x - labels
    return float(residual @ residual / shard.size + lam * (x @ x))


def global_loss(x: np.ndarray, dataset: Dataset, lam: float) -> float:
    """Loss over the full dataset; what the reported loss curves plot."""
    return local_loss(x, Shard(client=-1, start=0, stop=dataset.m), dataset, lam)


def sample_batches(
    rng: np.random.Generator, sizes: list[int], batch_size: int
) -> list[np.ndarray | None]:
    """Minibatch row offsets for shards of the given sizes, one entry per shard.

    One rng.random((len(sizes), max(sizes))) block is drawn, the padding
    past each shard's size sorts last, and a shard's batch is the first
    batch_size entries of its row's argsort: a uniform subset without
    replacement. A shard with size <= batch_size gets None (the whole
    shard, in order); when every shard does, rng is left untouched.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    width = max(sizes)
    if width <= batch_size:
        return [None] * len(sizes)
    keys = rng.random((len(sizes), width))
    keys[np.arange(width) >= np.asarray(sizes)[:, None]] = 2.0
    order = np.argsort(keys, axis=1)[:, :batch_size]
    return [order[i] if batch_size < size else None for i, size in enumerate(sizes)]


def stochastic_gradient(
    x: np.ndarray,
    shard: Shard,
    dataset: Dataset,
    lam: float,
    picks: np.ndarray | None = None,
) -> np.ndarray:
    """Gradient over the shard rows at offsets picks, or over the whole shard for None.

    With picks from sample_batches it is unbiased for the full-shard
    gradient; over a shard covering every row it is global_loss's gradient.
    """
    feats, labels = _shard_view(shard, dataset)
    if picks is not None:
        feats = feats[picks]
        labels = labels[picks]
    residual = feats @ x - labels
    return (2.0 / residual.size) * (feats.T @ residual) + 2.0 * lam * x


def _stacked_gradients(
    Zs: np.ndarray, feats: np.ndarray, labels: np.ndarray, lam: float
) -> np.ndarray:
    """stochastic_gradient's formula at each row of Zs (k, d), over feats (k, b, d), labels (k, b).

    Each stacked product runs one BLAS call per item, with the item's
    shapes and strides, so each row equals stochastic_gradient's bit for bit.
    """
    residual = feats @ Zs[:, :, None]
    residual -= labels[:, :, None]
    return (2.0 / labels.shape[1]) * (feats.transpose(0, 2, 1) @ residual)[:, :, 0] + 2.0 * lam * Zs


def gathered_gradients(
    Zs: np.ndarray, rows: np.ndarray, dataset: Dataset, lam: float
) -> np.ndarray:
    """The gradient at Zs[j] over the dataset rows rows[j], for each j, as a (k, d) array.

    The rows are gathered in chunks of at most GATHER_BUDGET elements (at
    least one gradient per chunk), so the gather's memory does not grow with k.
    """
    k, b = rows.shape
    out = np.empty(Zs.shape)
    step = max(1, GATHER_BUDGET // (b * dataset.d))
    for j in range(0, k, step):
        chunk = rows[j : j + step]
        feats, labels = dataset.features[chunk], dataset.labels[chunk]
        out[j : j + step] = _stacked_gradients(Zs[j : j + step], feats, labels, lam)
    return out


def batch_gradients(
    Z: np.ndarray,
    shards: list[Shard],
    dataset: Dataset,
    lam: float,
    picks: list[np.ndarray | None] | None = None,
) -> np.ndarray:
    """Every client's stochastic_gradient at its column of the d x n point Z, as a d x n matrix.

    picks is sample_batches' output for the shards; None takes every
    whole shard. Each run of adjacent equal-sized shards is one stacked
    problem: whole shards are reshaped views of the data, sampled batches
    one gathered_gradients call. Column i equals stochastic_gradient(Z[:, i],
    shards[i], dataset, lam, picks[i]) bit for bit.
    """
    d = dataset.d
    out = np.empty(Z.shape)
    for i, k, size, lo, hi in shard_runs(shards):
        Zs = Z.T[i : i + k]
        if picks is None or picks[i] is None:
            feats, labels = dataset.features[lo:hi].reshape(k, size, d), dataset.labels[lo:hi]
            out.T[i : i + k] = _stacked_gradients(Zs, feats, labels.reshape(k, size), lam)
        else:
            rows = np.arange(lo, hi, size)[:, None] + np.stack(picks[i : i + k])
            out.T[i : i + k] = gathered_gradients(Zs, rows, dataset, lam)
    return out


def ridge_optimum(dataset: Dataset, lam: float) -> tuple[np.ndarray, float]:
    """Exact minimizer of global_loss by direct solve, with its loss value.

    Solves (A^T A / m + lam I) x = A^T y / m. A singular system (possible
    only at lam = 0 with rank-deficient features) raises LinAlgError.
    """
    if dataset.d > _MAX_SOLVE_DIM:
        raise ValueError(f"dense solve guarded to d <= {_MAX_SOLVE_DIM}, got d={dataset.d}")
    a = dataset.features
    gram = a.T @ a / dataset.m + lam * np.eye(dataset.d)
    x = np.linalg.solve(gram, a.T @ dataset.labels / dataset.m)
    return x, global_loss(x, dataset, lam)
