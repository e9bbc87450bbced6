"""Dataset generation and IID partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim.data import Shard, generate, partition_iid, shard_runs


def test_regeneration_is_bit_identical():
    a = generate(200, 30, 0.05, seed=123)
    b = generate(200, 30, 0.05, seed=123)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.true_w, b.true_w)


def test_different_seeds_differ():
    a = generate(50, 10, 0.05, seed=1)
    b = generate(50, 10, 0.05, seed=2)
    assert not np.array_equal(a.features, b.features)


def test_zero_noise_labels_exact():
    ds = generate(5, 3, 0.0, seed=7)
    np.testing.assert_array_equal(ds.labels, ds.features @ ds.true_w)


def test_label_noise_variance_at_experiment_scale():
    # residuals are exactly the recorded noise draws, so their mean square
    # estimates the configured variance
    ds = generate(10000, 2000, 0.05, seed=1)
    residual = ds.labels - ds.features @ ds.true_w
    assert 0.045 <= float(np.mean(residual**2)) <= 0.055


def test_feature_variance_near_unit():
    ds = generate(10000, 50, 0.0, seed=5)
    var = ds.features.var(axis=0)
    assert var.min() >= 0.9 and var.max() <= 1.1


def test_generate_rejects_bad_args():
    with pytest.raises(ValueError):
        generate(0, 3, 0.0, seed=1)
    with pytest.raises(ValueError):
        generate(3, 0, 0.0, seed=1)
    with pytest.raises(ValueError):
        generate(3, 3, -0.1, seed=1)


def test_partition_even_split():
    ds = generate(10000, 4, 0.0, seed=1)
    shards = partition_iid(ds, 16)
    assert [s.size for s in shards] == [625] * 16


def test_partition_remainder_goes_first():
    ds = generate(10, 2, 0.0, seed=1)
    shards = partition_iid(ds, 3)
    assert [s.size for s in shards] == [4, 3, 3]
    assert shards[0].start == 0 and shards[-1].stop == 10


def test_partition_singletons():
    ds = generate(4, 2, 0.0, seed=1)
    shards = partition_iid(ds, 4)
    assert [s.size for s in shards] == [1, 1, 1, 1]


def test_partition_too_few_samples():
    ds = generate(3, 2, 0.0, seed=1)
    with pytest.raises(ValueError, match="too few"):
        partition_iid(ds, 4)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 400), n=st.integers(1, 40))
def test_partition_covers_rows_disjointly(m, n):
    if m < n:
        return
    ds = generate(m, 2, 0.0, seed=0)
    shards = partition_iid(ds, n)
    seen = []
    for shard in shards:
        seen.extend(range(shard.start, shard.stop))
    assert seen == list(range(m))
    sizes = {s.size for s in shards}
    assert max(sizes) - min(sizes) <= 1


def test_shard_runs_group_adjacent_equal_shards():
    shards = partition_iid(generate(11, 2, 0.0, seed=0), 4)  # sizes 3, 3, 3, 2
    assert list(shard_runs(shards)) == [(0, 3, 3, 0, 9), (3, 1, 2, 9, 11)]
    with pytest.raises(ValueError, match="empty shard for client 1"):
        list(shard_runs([Shard(client=0, start=0, stop=2), Shard(client=1, start=2, stop=2)]))
