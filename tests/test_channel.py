"""Keyed random streams and channel noise sampling."""

import math

import numpy as np
import pytest

from dflsim.channel import (
    PURPOSE_CHANNEL_NOISE,
    PURPOSE_DATA_BATCH,
    PURPOSE_INIT,
    derive_stream,
    sample_noise,
)


def key(**overrides):
    """derive_stream's arguments (master_seed, repeat, purpose), as a tuple."""
    base = dict(master_seed=99, repeat=0, purpose=PURPOSE_DATA_BATCH)
    base.update(overrides)
    return tuple(base.values())


def test_identical_keys_identical_streams():
    a = derive_stream(*key()).standard_normal(1000)
    b = derive_stream(*key()).standard_normal(1000)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "other",
    [
        key(purpose=PURPOSE_CHANNEL_NOISE),
        key(purpose=PURPOSE_INIT),
        key(repeat=1, purpose=PURPOSE_CHANNEL_NOISE),
        key(repeat=1),
        key(master_seed=100),
    ],
)
def test_distinct_keys_are_uncorrelated(other):
    a = derive_stream(*key()).standard_normal(10_000)
    b = derive_stream(*other).standard_normal(10_000)
    assert not np.array_equal(a, b)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.05


def test_key_derives_the_layout_2_round_0_stream():
    # layout 2 keyed (seed, repeat, round, client, purpose); layout 3 fixes round and client at 0
    for repeat, purpose in [(0, PURPOSE_INIT), (3, PURPOSE_CHANNEL_NOISE)]:
        seq = np.random.SeedSequence(99, spawn_key=(repeat, 0, 0, purpose))
        expected = np.random.default_rng(seq).standard_normal(16)
        got = derive_stream(*key(repeat=repeat, purpose=purpose)).standard_normal(16)
        assert np.array_equal(got, expected)


def test_zero_variance_returns_exact_zeros_without_consuming():
    stream = derive_stream(*key())
    state = stream.bit_generator.state
    noise = sample_noise(stream, 64, 0.0)
    assert np.array_equal(noise, np.zeros(64))
    assert stream.bit_generator.state == state


@pytest.mark.parametrize("variance,band", [(0.005, (0.0049, 0.0051)), (0.01, (0.0098, 0.0102))])
def test_sample_moments(variance, band):
    stream = derive_stream(*key(master_seed=2024))
    draws = np.concatenate([sample_noise(stream, 10_000, variance) for _ in range(10)])
    se = np.sqrt(variance / draws.size)
    assert abs(draws.mean()) <= 4.0 * se
    assert band[0] <= draws.var() <= band[1]


def test_negative_variance_rejected():
    with pytest.raises(ValueError):
        sample_noise(derive_stream(*key()), 3, -1e-9)


@pytest.mark.parametrize("variance", [math.nan, math.inf, -math.inf])
def test_non_finite_variance_rejected(variance):
    stream = derive_stream(*key())
    with pytest.raises(ValueError, match=rf"^variance must be >= 0 and finite, got {variance}$"):
        sample_noise(stream, 3, variance)


def test_negative_master_seed_wraps_to_unsigned():
    a = derive_stream(*key(master_seed=-1)).standard_normal(4)
    b = derive_stream(*key(master_seed=(1 << 64) - 1)).standard_normal(4)
    assert np.array_equal(a, b)


def test_numpy_integer_master_seed_equals_python_int():
    a = derive_stream(*key(master_seed=np.int64(-1))).standard_normal(4)
    b = derive_stream(*key(master_seed=-1)).standard_normal(4)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [1.5, 1.0, "1"])
def test_non_integer_master_seed_is_rejected(seed):
    with pytest.raises(TypeError):
        derive_stream(*key(master_seed=seed))
