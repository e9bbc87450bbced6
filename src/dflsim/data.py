"""Synthetic regression data and its per-client split.

Labels follow y = <w, x> + eps with standard normal features and weight
vector and Gaussian label noise of a configurable variance. Regeneration
from the same (m, d, variance, seed) tuple is bit-identical, so datasets
are never persisted. The data layout, the map from a seed to the arrays:
true_w and then the label noise come from the seed's root stream,
default_rng(seed); the features are drawn in row blocks of
max(1, FEATURE_BLOCK // d) rows, block b from the seed's b-th child
stream, SeedSequence(seed).spawn(n_blocks)[b], whose spawn key is (b,).
Each block has its own stream, so the arrays do not depend on how many
threads fill the blocks. Shards are contiguous equal (+-1) row ranges. A
Problem is the objective: a dataset, its shards and the ridge penalty.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

# Normals per feature block (2 MiB of doubles). Part of the data layout:
# changing it changes every dataset's features.
FEATURE_BLOCK = 1 << 18


@dataclass
class Dataset:
    m: int
    d: int
    features: np.ndarray
    labels: np.ndarray
    true_w: np.ndarray


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

    true_w and then the label noise come from default_rng(seed). The
    features are drawn in blocks of max(1, FEATURE_BLOCK // d) rows
    (FEATURE_BLOCK = 2**18 normals), block b from the stream of
    SeedSequence(seed).spawn(n_blocks)[b], so the same seed reproduces
    the same arrays whatever the number of usable CPUs. Zero variance
    skips the noise draw and gives exact labels.
    """
    if m < 1 or d < 1:
        raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    if not 0 <= label_noise_variance < math.inf:
        raise ValueError(
            f"label_noise_variance must be >= 0 and finite, got {label_noise_variance}"
        )
    rng = np.random.default_rng(seed)
    true_w = rng.standard_normal(d)
    features = _draw_features(m, d, seed)
    labels = features @ true_w
    if label_noise_variance > 0:
        labels = labels + rng.normal(0.0, math.sqrt(label_noise_variance), size=m)
    return Dataset(m=m, d=d, features=features, labels=labels, true_w=true_w)


def _block_streams(seed: int, n_blocks: int) -> list[np.random.Generator]:
    """The features' block streams: block b draws from the seed's b-th child stream."""
    return [np.random.default_rng(child) for child in np.random.SeedSequence(seed).spawn(n_blocks)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _draw_features(m: int, d: int, seed: int) -> np.ndarray:
    """The (m, d) features, each row block from its own stream, on all usable CPUs.

    min(n_blocks, usable CPUs) workers take the blocks round-robin, and the
    calling thread is worker 0, so a one-block array starts no thread. Each
    worker is the first to touch its blocks' pages. The streams are made
    here, on the calling thread, so a worker runs nothing but the draws
    into its slices, which release the GIL. A worker's exception is raised
    here after every worker has stopped, so a partly filled array never
    escapes.
    """
    features = np.empty((m, d))
    rows = max(1, FEATURE_BLOCK // d)
    blocks = [features[lo : lo + rows] for lo in range(0, m, rows)]
    streams = _block_streams(seed, len(blocks))
    workers = min(len(blocks), _usable_cpus())
    failures = []

    def fill(first: int) -> None:
        try:
            for b in range(first, len(blocks), workers):
                streams[b].standard_normal(out=blocks[b])
        except BaseException as exc:  # re-raised on the calling thread below
            failures.append(exc)

    threads = [threading.Thread(target=fill, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    fill(0)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return features


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
