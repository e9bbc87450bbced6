"""Synthetic regression data and its per-client split.

Labels follow y = <w, x> + eps with standard normal features and weight
vector and Gaussian label noise of a configurable variance. Regeneration
from the same (m, d, variance, seed) tuple is bit-identical, so datasets
are never persisted. Shards are contiguous equal (+-1) row ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    if label_noise_variance < 0:
        raise ValueError(f"label noise variance must be >= 0, got {label_noise_variance}")
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


def shard_runs(shards: list[Shard]):
    """Split shards into maximal runs of adjacent, equal-sized row ranges.

    Yields (i, k, size, lo, hi) per run: its first shard's position i in
    shards, its k shards of size rows each, and its rows [lo, hi). Raises
    on an empty shard.
    """
    i = 0
    while i < len(shards):
        first = shards[i]
        if first.size <= 0:
            raise ValueError(f"empty shard for client {first.client}")
        k = 1
        while (
            i + k < len(shards)
            and shards[i + k].size == first.size
            and shards[i + k].start == shards[i + k - 1].stop
        ):
            k += 1
        yield i, k, first.size, first.start, first.start + k * first.size
        i += k
