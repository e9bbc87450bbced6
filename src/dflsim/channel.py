"""Seeded zero-mean Gaussian channel noise with keyed random streams.

Every (master seed, repeat, purpose) key maps to its own independent
pseudorandom stream, so a simulation is bit-reproducible no matter how
clients are scheduled, and no two logical tasks ever share a stream.

Stream layout 3, the harness's: every repeat r first derives three
streams, init (seed, 0, PURPOSE_INIT), noise (seed, r, PURPOSE_CHANNEL_NOISE)
and batch (seed, r, PURPOSE_DATA_BATCH). Every repeat draws its x0 from
the init stream, so all repeats start at one point. Every round then draws, in round order, one
block for all clients, row i for client i, from each of the other two:
sample_noise with shape (n, d), and sample_batches (see dflsim.objective).
The samplers alone decide when a round draws nothing: at variance 0, or
when no shard is larger than the batch, they leave their stream untouched.
Layout 2 derived a stream per (repeat, round, purpose); a layout-3 key
derives layout 2's round-0 stream, so the initial point and each
repeat's round-0 draws are those of layout 2. The dataset draws from the
same seed under spawn keys () and (b,) (see dflsim.data), and these keys
are (repeat, 0, 0, purpose), so no stream is shared between the data and
a run. The variance knob is the per-coordinate variance of the noise, so
E||delta||^2 = d * variance.
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
