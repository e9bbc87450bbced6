"""Synthetic regression data and its per-client split.

Labels follow y = <w, x> + eps with standard normal features and weight
vector and Gaussian label noise of a configurable variance. Regeneration
from the same (m, d, variance, seed) tuple is bit-identical, so datasets
are never persisted. Shards are contiguous equal (+-1) row ranges. A
Problem is the objective: a dataset, its shards and the ridge penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Dataset:
    m: int
    d: int
    features: np.ndarray
    labels: np.ndarray
    true_w: np.ndarray
    label_noise_variance: float
    seed: int


@dataclass(frozen=True)
class Shard:
    """Contiguous row range [start, stop) owned by one client."""

    client: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start


def generate(m: int, d: int, label_noise_variance: float, seed: int) -> Dataset:
    """Draw a dataset deterministically from the seed.

    Draw order is fixed (true_w, then features, then label noise) so the
    same seed always reproduces the same arrays. Zero variance skips the
    noise draw and gives exact labels.
    """
    if m < 1 or d < 1:
        raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    if not 0 <= label_noise_variance < math.inf:
        raise ValueError(
            f"label_noise_variance must be >= 0 and finite, got {label_noise_variance}"
        )
    rng = np.random.default_rng(seed)
    true_w = rng.standard_normal(d)
    features = rng.standard_normal((m, d))
    labels = features @ true_w
    if label_noise_variance > 0:
        labels = labels + rng.normal(0.0, math.sqrt(label_noise_variance), size=m)
    return Dataset(
        m=m,
        d=d,
        features=features,
        labels=labels,
        true_w=true_w,
        label_noise_variance=label_noise_variance,
        seed=seed,
    )


def partition_iid(dataset: Dataset, n: int) -> list[Shard]:
    """Split rows into n contiguous shards whose sizes differ by at most one.

    The first m % n shards take the extra row. Raises when there are
    fewer rows than clients.
    """
    m = dataset.m
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if m < n:
        raise ValueError(f"too few samples: m={m} < n={n}")
    base, extra = divmod(m, n)
    shards = []
    start = 0
    for client in range(n):
        stop = start + base + (1 if client < extra else 0)
        shards.append(Shard(client=client, start=start, stop=stop))
        start = stop
    return shards


def _equal_runs(shards: tuple[Shard, ...]) -> tuple[tuple[int, ...], ...]:
    """Maximal runs of adjacent equal-sized shards, each (i, k, size, lo, hi).

    A run is its first shard's position i, its k shards of size rows each,
    and its rows [lo, hi).
    """
    runs = []
    for i, shard in enumerate(shards):
        last = runs[-1] if runs else None
        if last and shard.size == last[2] and shard.start == last[4]:
            runs[-1] = (last[0], last[1] + 1, last[2], last[3], shard.stop)
        else:
            runs.append((i, 1, shard.size, shard.start, shard.stop))
    return tuple(runs)


@dataclass(frozen=True)
class Problem:
    """The objective sum_i f_i: client i's loss over dataset rows shards[i], penalty lam.

    The constructor makes shards a tuple, rejects an empty list or shard, and
    splits it once into runs for the kernels. It holds the dataset, not a copy.
    """

    dataset: Dataset
    shards: tuple[Shard, ...]
    lam: float
    runs: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shards = tuple(self.shards)
        if not shards:
            raise ValueError("shards must not be empty")
        for shard in shards:
            if shard.size <= 0:
                raise ValueError(f"shards: empty shard for client {shard.client}")
        object.__setattr__(self, "shards", shards)
        object.__setattr__(self, "runs", _equal_runs(shards))
