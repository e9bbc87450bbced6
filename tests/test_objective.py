"""Losses, gradients, and the direct ridge solve."""

import numpy as np
import pytest

from dflsim import objective
from dflsim.data import Problem, Shard, generate, partition_iid
from dflsim.objective import batch_gradients, ridge_optimum, sample_batches
from oracles import (
    client_picks,
    finite_difference_gradient,
    global_loss,
    local_loss,
    stochastic_gradient,
    tiny_dataset,
)


def whole(dataset):
    return Shard(client=0, start=0, stop=dataset.m)


def gradient(x, shard, dataset, lam, picks=None):
    """batch_gradients' column for one client at x, picks a (1, batch) block or None."""
    return batch_gradients(x[:, None], Problem(dataset, [shard], lam), picks)[:, 0]


def draw_gradient(x, shard, dataset, lam, batch_size, rng):
    return gradient(x, shard, dataset, lam, sample_batches(rng, [shard.size], batch_size))


class TestLocalLoss:
    def test_single_sample_hand_value(self):
        ds = tiny_dataset([[1.0, 0.0]], [3.0])
        assert local_loss(np.zeros(2), whole(ds), ds, 0.0) == 9.0

    def test_zero_point_gives_mean_square_labels(self):
        ds = generate(64, 6, 0.1, seed=9)
        shard = Shard(client=0, start=8, stop=40)
        expected = sum(ds.labels[s] ** 2 for s in range(shard.start, shard.stop)) / shard.size
        np.testing.assert_allclose(local_loss(np.zeros(6), shard, ds, 0.0), expected, rtol=1e-12)

    def test_perfect_fit_zero_loss(self):
        ds = generate(30, 4, 0.0, seed=2)
        assert local_loss(ds.true_w, whole(ds), ds, 0.0) <= 1e-20

    def test_empty_shard_rejected(self):
        ds = generate(10, 2, 0.0, seed=1)
        with pytest.raises(ValueError, match="empty shard"):
            local_loss(np.zeros(2), Shard(client=0, start=3, stop=3), ds, 0.0)


class TestGlobalLoss:
    def test_average_of_equal_shards(self):
        ds = generate(64, 5, 0.05, seed=4)
        shards = partition_iid(ds, 8)
        x = np.random.default_rng(0).standard_normal(5)
        per_client = np.mean([local_loss(x, s, ds, 0.0) for s in shards])
        np.testing.assert_allclose(global_loss(x, ds, 0.0), per_client, rtol=1e-12)

    def test_true_weights_recover_noise_level(self):
        ds = generate(10000, 20, 0.05, seed=6)
        assert 0.045 <= global_loss(ds.true_w, ds, 0.0) <= 0.055

    def test_ridge_term_vanishes_at_zero(self):
        ds = generate(40, 3, 0.1, seed=8)
        np.testing.assert_allclose(
            global_loss(np.zeros(3), ds, 1.0), float(np.mean(ds.labels**2)), rtol=1e-12
        )


class TestStochasticGradient:
    def test_single_sample_hand_value(self):
        ds = tiny_dataset([[1.0, 0.0]], [3.0])
        g = draw_gradient(np.zeros(2), whole(ds), ds, 0.0, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(g, [-6.0, 0.0])

    def test_zero_data_leaves_regularizer(self):
        ds = tiny_dataset([[0.0, 0.0, 0.0]], [0.0])
        x = np.array([1.5, -2.0, 0.25])
        g = draw_gradient(x, whole(ds), ds, 0.5, 1, np.random.default_rng(0))
        np.testing.assert_array_equal(g, x)

    def test_full_batch_matches_finite_differences(self):
        ds = generate(40, 20, 0.05, seed=11)
        shard = whole(ds)
        rng = np.random.default_rng(1)
        for _ in range(5):
            x = rng.standard_normal(20)
            g = gradient(x, shard, ds, 1e-3)
            fd = finite_difference_gradient(x, shard, ds, 1e-3)
            assert np.linalg.norm(g - fd) <= 1e-5 * np.linalg.norm(g)

    def test_full_batch_does_not_consume_stream(self):
        ds = generate(16, 4, 0.0, seed=3)
        shard = whole(ds)
        rng = np.random.default_rng(5)
        state_before = rng.bit_generator.state
        assert sample_batches(rng, [16, 9, 16], 16) is None
        g = draw_gradient(np.ones(4), shard, ds, 0.0, 99, rng)
        assert rng.bit_generator.state == state_before
        np.testing.assert_array_equal(g, gradient(np.ones(4), shard, ds, 0.0))

    def test_unbiasedness_per_coordinate(self):
        # mean of many minibatch gradients vs the full-shard gradient
        ds = generate(64, 16, 0.05, seed=13)
        shard = whole(ds)
        x = np.random.default_rng(2).standard_normal(16)
        rng = np.random.default_rng(77)
        draws = np.stack(
            [draw_gradient(x, shard, ds, 1e-3, 8, rng) for _ in range(2000)]
        )
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        gap = np.abs(draws.mean(axis=0) - gradient(x, shard, ds, 1e-3))
        assert np.all(gap <= 4.0 * se)


class TestSampleBatches:
    def test_rows_inside_shard_without_duplicates(self):
        ds = generate(2001, 3, 0.0, seed=1)
        shards = partition_iid(ds, 16)
        rng = np.random.default_rng(8)
        for _ in range(50):
            picks = sample_batches(rng, [s.size for s in shards], 32)
            for shard, p in zip(shards, picks):
                rows = np.arange(shard.start, shard.stop)[p]
                assert rows.size == 32 and np.unique(rows).size == 32
                assert shard.start <= rows.min() and rows.max() < shard.stop

    def test_inclusion_frequency_is_batch_over_size(self):
        sizes, b, draws = [13, 12, 12], 5, 20000
        rng = np.random.default_rng(21)
        counts = [np.zeros(size) for size in sizes]
        for _ in range(draws):
            for c, p in zip(counts, sample_batches(rng, sizes, b)):
                c[p] += 1
        for size, c in zip(sizes, counts):
            p = b / size
            se = np.sqrt(p * (1 - p) / draws)
            assert np.all(np.abs(c / draws - p) <= 4.0 * se)

    def test_batch_size_below_one_rejected_before_any_draw(self):
        rng = np.random.default_rng(4)
        state_before = rng.bit_generator.state
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            sample_batches(rng, [16, 9], 0)
        assert rng.bit_generator.state == state_before

    def test_mixed_cap_takes_capped_shards_whole(self):
        picks = sample_batches(np.random.default_rng(3), [126] + [125] * 15, 125)
        assert isinstance(picks, np.ndarray) and picks.shape == (16, 125)
        assert np.unique(picks[0]).size == 125
        assert picks[0].max() < 126  # rows 1-15 go unread: those shards are taken whole


class TestBatchGradients:
    """batch_gradients against column_stack of per-client stochastic_gradient, bit for bit."""

    def oracle(self, Z, shards, dataset, picks):
        cols = zip(Z.T, shards, picks)
        return np.column_stack([stochastic_gradient(z, s, dataset, 1e-4, p) for z, s, p in cols])

    @pytest.mark.parametrize(
        "m, d, n, batch_size",
        [
            (2000, 200, 16, 32),
            (2001, 200, 16, 125),  # client 0 samples 125 of 126 rows, the rest are capped
            (8192, 200, 1024, 32),  # every shard has 8 rows: all whole
            (10000, 2000, 16, 32),  # paper scale: one client per gather
        ],
    )
    def test_equals_per_client_oracle(self, m, d, n, batch_size):
        dataset = generate(m, d, 0.05, seed=3)
        shards = partition_iid(dataset, n)
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((d, n))
        picks = sample_batches(rng, [s.size for s in shards], batch_size)
        got = batch_gradients(Z, Problem(dataset, shards, 1e-4), picks)
        assert got.flags.c_contiguous
        assert np.array_equal(got, self.oracle(Z, shards, dataset, client_picks(picks, shards)))

    def test_mixed_cap_block_equals_oracle_with_capped_clients_whole(self):
        # client 0 samples 125 of its 126 rows; the fifteen 125-row shards are capped
        dataset = generate(2001, 200, 0.05, seed=3)
        shards = partition_iid(dataset, 16)
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((200, 16))
        picks = sample_batches(rng, [s.size for s in shards], 125)
        assert picks.shape == (16, 125)
        got = batch_gradients(Z, Problem(dataset, shards, 1e-4), picks)
        assert np.array_equal(got, self.oracle(Z, shards, dataset, [picks[0]] + [None] * 15))

    def test_block_of_another_row_count_rejected(self):
        # a (1, b) block would otherwise broadcast over the run of 16 equal shards
        dataset = generate(2000, 20, 0.05, seed=3)
        problem = Problem(dataset, partition_iid(dataset, 16), 1e-4)
        picks = sample_batches(np.random.default_rng(4), [125], 32)
        with pytest.raises(ValueError, match="^picks needs one row per shard, got 1 for 16$"):
            batch_gradients(np.zeros((20, 16)), problem, picks)

    def test_whole_ragged_shards_without_picks(self):
        dataset = generate(2001, 20, 0.05, seed=3)
        shards = partition_iid(dataset, 16)
        Z = np.random.default_rng(4).standard_normal((20, 16))
        got = batch_gradients(Z, Problem(dataset, shards, 1e-4))
        assert np.array_equal(got, self.oracle(Z, shards, dataset, [None] * 16))

    def test_one_client_per_chunk_at_the_smallest_budget(self, monkeypatch):
        dataset = generate(2001, 200, 0.05, seed=3)
        shards = partition_iid(dataset, 16)
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((200, 16))
        picks = sample_batches(rng, [s.size for s in shards], 32)
        problem = Problem(dataset, shards, 1e-4)
        full = batch_gradients(Z, problem, picks)
        monkeypatch.setattr(objective, "GATHER_BUDGET", 1)
        assert np.array_equal(batch_gradients(Z, problem, picks), full)


class TestSmoothnessAndConvexity:
    def test_gradient_lipschitz_with_analytic_constant(self):
        ds = generate(80, 50, 0.05, seed=17)
        shard = whole(ds)
        lam = 1e-3
        feats = ds.features
        L = float(np.linalg.eigvalsh(2.0 * feats.T @ feats / ds.m)[-1]) + 2.0 * lam
        rng = np.random.default_rng(0)
        for _ in range(100):
            x, y = rng.standard_normal((2, 50))
            gx, gy = batch_gradients(np.column_stack([x, y]), Problem(ds, [shard, shard], lam)).T
            lhs = np.linalg.norm(gx - gy)
            assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-12)

    def test_midpoint_convexity(self):
        ds = generate(60, 8, 0.05, seed=19)
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y = rng.standard_normal((2, 8))
            mid = global_loss((x + y) / 2, ds, 1e-3)
            assert mid <= (global_loss(x, ds, 1e-3) + global_loss(y, ds, 1e-3)) / 2 + 1e-12


class TestRidgeOptimum:
    def test_noiseless_recovers_true_weights(self):
        ds = generate(200, 30, 0.0, seed=23)
        x, loss = ridge_optimum(ds, 0.0)
        assert np.linalg.norm(x - ds.true_w) <= 1e-6
        assert loss <= 1e-12

    def test_first_order_optimality(self):
        ds = generate(300, 40, 0.05, seed=29)
        x, _ = ridge_optimum(ds, 1e-4)
        assert np.linalg.norm(gradient(x, whole(ds), ds, 1e-4)) <= 1e-8

    def test_heavy_regularization_shrinks_solution(self):
        ds = generate(200, 10, 0.05, seed=31)
        norms = [np.linalg.norm(ridge_optimum(ds, lam)[0]) for lam in (0.0, 1.0, 1e3, 1e6)]
        assert all(a >= b for a, b in zip(norms, norms[1:]))
        assert norms[-1] <= 1e-3

    def test_dimension_guard(self):
        ds = generate(2, 2, 0.0, seed=1)
        ds.d = 5000  # simulate an oversized problem
        with pytest.raises(ValueError, match="guard"):
            ridge_optimum(ds, 0.0)

    def test_averaged_client_gradients_match_global(self):
        ds = generate(96, 12, 0.05, seed=37)
        shards = partition_iid(ds, 8)
        x = np.random.default_rng(9).standard_normal(12)
        avg = batch_gradients(np.repeat(x[:, None], 8, 1), Problem(ds, shards, 1e-3)).mean(axis=1)
        np.testing.assert_allclose(avg, gradient(x, whole(ds), ds, 1e-3), atol=1e-10)

    def test_gradient_norm_small_at_optimum_average(self):
        ds = generate(128, 16, 0.05, seed=41)
        shards = partition_iid(ds, 8)
        x, _ = ridge_optimum(ds, 1e-3)
        avg = batch_gradients(np.repeat(x[:, None], 8, 1), Problem(ds, shards, 1e-3)).mean(axis=1)
        assert np.linalg.norm(avg) <= 1e-8
