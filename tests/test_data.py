"""Dataset generation, IID partitioning and the Problem that binds them."""

import dataclasses
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dflsim
from dflsim import data
from dflsim.channel import PURPOSE_CHANNEL_NOISE, PURPOSE_DATA_BATCH, PURPOSE_INIT, derive_stream
from dflsim.data import FEATURE_BLOCK, Problem, Shard, generate, partition_iid


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


class _Logged:
    """A block stream that records which thread draws from it."""

    def __init__(self, stream, log):
        self.stream, self.log = stream, log

    def standard_normal(self, out):
        self.log.add(threading.current_thread().name)
        return self.stream.standard_normal(out=out)


# three blocks of 262, 262 and 176 rows; three blocks of one row each (d > FEATURE_BLOCK)
@pytest.mark.parametrize("m, d", [(700, 1000), (3, FEATURE_BLOCK + 1)])
def test_dataset_follows_the_block_layout_whatever_the_worker_count(m, d, monkeypatch):
    rows = max(1, FEATURE_BLOCK // d)
    starts = range(0, m, rows)
    real_streams = data._block_streams
    datasets = []
    for cpus in (1, 3):
        threads = set()
        monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(
            data, "_block_streams", lambda *key: [_Logged(s, threads) for s in real_streams(*key)]
        )
        datasets.append(generate(m, d, 0.05, seed=11))
        assert len(threads) == min(len(starts), cpus)
    one, three = datasets
    for name in ("features", "labels", "true_w"):
        assert np.array_equal(getattr(one, name), getattr(three, name))
    assert np.array_equal(one.true_w, np.random.default_rng(11).standard_normal(d))
    for b, lo in enumerate(starts):
        block = one.features[lo : lo + rows]
        stream = np.random.default_rng(np.random.SeedSequence(11, spawn_key=(b,)))
        assert np.array_equal(block, stream.standard_normal(block.shape))


def test_block_streams_share_no_stream_with_each_other_or_the_channel():
    seed = 11
    streams = [*data._block_streams(seed, 77), np.random.default_rng(seed)]
    streams += [
        derive_stream(seed, r, purpose)
        for r in range(3)
        for purpose in (PURPOSE_DATA_BATCH, PURPOSE_CHANNEL_NOISE, PURPOSE_INIT)
    ]
    heads = {tuple(stream.standard_normal(4)) for stream in streams}
    assert len(heads) == len(streams)


@pytest.mark.parametrize("cpus", [1, 3])
def test_a_failing_block_fails_generate(cpus, monkeypatch):
    class Broken:
        def standard_normal(self, out):
            raise RuntimeError("block 1 failed")

    real_streams = data._block_streams

    def streams(seed, n_blocks):
        return [Broken() if b == 1 else s for b, s in enumerate(real_streams(seed, n_blocks))]

    monkeypatch.setattr(data, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(data, "_block_streams", streams)
    # with 3 workers block 1 is drawn on a worker thread, not the caller
    with pytest.raises(RuntimeError, match="block 1 failed"):
        generate(3, FEATURE_BLOCK, 0.0, seed=1)


def test_a_one_block_dataset_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started for one block")

    monkeypatch.setattr(data, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(data.threading, "Thread", no_thread)
    generate(160, 20, 0.0, seed=3)


def test_cli_import_and_a_threaded_generate_load_no_executor_or_logging():
    # every CLI call is a fresh process, so whatever generate imports, every run pays for
    code = (
        "import sys, dflsim.cli\n"
        "from dflsim.data import FEATURE_BLOCK, generate\n"
        "generate(4, FEATURE_BLOCK, 0.0, 1)\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    src = str(Path(dflsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("cpu_count, usable", [(3, 3), (None, 1)])
def test_usable_cpus_without_affinity_call_is_the_cpu_count(monkeypatch, cpu_count, usable):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    assert data._usable_cpus() == usable


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


def test_partition_needs_a_client():
    with pytest.raises(ValueError, match="need n >= 1, got n=0"):
        partition_iid(generate(3, 2, 0.0, seed=1), 0)


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
    ds = generate(11, 2, 0.0, seed=0)
    problem = Problem(ds, partition_iid(ds, 4), 0.0)  # sizes 3, 3, 3, 2
    assert problem.runs == ((0, 3, 3, 0, 9), (3, 1, 2, 9, 11))
    with pytest.raises(ValueError, match="shards: empty shard for client 1"):
        Problem(ds, [Shard(client=0, start=0, stop=2), Shard(client=1, start=2, stop=2)], 0.0)


def test_problem_runs_of_a_ragged_split():
    ds = generate(2001, 2, 0.0, seed=0)
    problem = Problem(ds, partition_iid(ds, 16), 1e-4)  # one shard of 126, fifteen of 125
    assert problem.runs == ((0, 1, 126, 0, 126), (1, 15, 125, 126, 2001))


def test_overlapping_twin_shards_stay_legal():
    ds = generate(50, 2, 0.0, seed=0)
    twin = Shard(client=0, start=0, stop=50)
    problem = Problem(ds, [twin, twin], 0.0)
    # the second twin does not start where the first stops: two runs
    assert problem.runs == ((0, 1, 50, 0, 50), (1, 1, 50, 0, 50))


def test_problem_rejects_an_empty_shard_list():
    with pytest.raises(ValueError, match="shards must not be empty"):
        Problem(generate(4, 2, 0.0, seed=0), [], 0.0)


def test_problem_is_frozen_and_holds_tuples_and_the_dataset_itself():
    ds = generate(12, 3, 0.0, seed=0)
    problem = Problem(ds, partition_iid(ds, 3), 0.5)
    assert isinstance(problem.shards, tuple) and isinstance(problem.runs, tuple)
    assert problem.dataset is ds
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.runs = ()

