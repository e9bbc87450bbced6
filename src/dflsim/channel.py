"""Seeded zero-mean Gaussian channel noise with keyed random streams.

Every (master seed, repeat, purpose) key maps to its own independent
pseudorandom stream, so a simulation is bit-reproducible no matter how
clients are scheduled, and no two logical tasks ever share a stream. The
harness uses stream layout 3: one stream per (repeat, purpose), from
which every round draws its block for all clients in round order, row i
for client i (sample_noise with shape (n, d); sample_batches in
objective). The initial point has its own key, (seed, 0, PURPOSE_INIT).
Layout 2 derived a stream per (repeat, round, purpose); a layout-3 key
derives layout 2's round-0 stream, so the initial point and each
repeat's round-0 draws are those of layout 2. The variance knob is the
per-coordinate variance of the noise, so E||delta||^2 = d * variance.
"""

from __future__ import annotations

import math
import operator

import numpy as np

PURPOSE_DATA_BATCH = 0
PURPOSE_CHANNEL_NOISE = 1
PURPOSE_INIT = 2

_SEED_MASK = (1 << 64) - 1


def derive_stream(master_seed: int, repeat: int, purpose: int) -> np.random.Generator:
    """Deterministic, collision-resistant mapping from the key's three fields to a fresh stream.

    Distinct keys give statistically independent streams; identical keys
    give byte-identical output.
    """
    seq = np.random.SeedSequence(
        entropy=operator.index(master_seed) & _SEED_MASK,
        # layout 2's round and client fields, fixed at 0 (see the module docstring)
        spawn_key=(repeat, 0, 0, purpose),
    )
    return np.random.default_rng(seq)


def sample_noise(
    stream: np.random.Generator, shape: int | tuple[int, ...], variance: float
) -> np.ndarray:
    """An array of the given shape with i.i.d. N(0, variance) entries.

    Variance zero returns exact zeros without consuming the stream.
    """
    if not 0 <= variance < math.inf:
        raise ValueError(f"variance must be >= 0 and finite, got {variance}")
    if variance == 0.0:
        return np.zeros(shape)
    return stream.normal(0.0, math.sqrt(variance), size=shape)
