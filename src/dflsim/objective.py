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
from the random stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, Shard

_MAX_SOLVE_DIM = 4096


@dataclass(frozen=True)
class ObjectiveConfig:
    lam: float
    batch_size: int

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ValueError(f"lam must be >= 0, got {self.lam}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


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


def global_gradient(x: np.ndarray, dataset: Dataset, lam: float) -> np.ndarray:
    """Exact gradient of global_loss."""
    return full_local_gradient(x, Shard(client=-1, start=0, stop=dataset.m), dataset, lam)


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
    config: ObjectiveConfig,
    picks: np.ndarray | None,
) -> np.ndarray:
    """Minibatch gradient over the shard rows at offsets picks, or the whole shard for None.

    With picks from sample_batches it is unbiased for the full-shard
    gradient.
    """
    feats, labels = _shard_view(shard, dataset)
    if picks is not None:
        feats = feats[picks]
        labels = labels[picks]
    residual = feats @ x - labels
    return (2.0 / residual.size) * (feats.T @ residual) + 2.0 * config.lam * x


def full_local_gradient(x: np.ndarray, shard: Shard, dataset: Dataset, lam: float) -> np.ndarray:
    """Gradient over the entire shard, no sampling."""
    feats, labels = _shard_view(shard, dataset)
    residual = feats @ x - labels
    return (2.0 / shard.size) * (feats.T @ residual) + 2.0 * lam * x


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
