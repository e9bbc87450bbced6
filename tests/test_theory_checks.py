"""Constant estimators, bias zero-mean check, worst-case bound, contraction."""

import numpy as np
import pytest

from dflsim.data import Dataset, Shard, generate, partition_iid
from dflsim.theory_checks import (
    ConstantsEstimate,
    PreconditionViolated,
    check_bias_zero_mean,
    check_contraction,
    estimate_sigma_sq,
    estimate_smoothness,
    estimate_zeta_sq,
    evaluate_theorem_bound,
)
from dflsim.topology import FULLY_CONNECTED, RING, TopologySpec, build_mixing


def tiny_dataset(features, labels):
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    return Dataset(
        m=features.shape[0], d=features.shape[1], features=features, labels=labels,
        true_w=np.zeros(features.shape[1]), label_noise_variance=0.0, seed=0,
    )


def consts(**overrides):
    base = dict(L=2.0, sigma_sq=0.0, zeta_sq=0.0, D_sq_total=0.0, B_bar_sq=0.0, f0_gap=1.0)
    base.update(overrides)
    return ConstantsEstimate(**base)


class TestSmoothness:
    def test_single_sample(self):
        ds = tiny_dataset([[1.0, 0.0]], [0.0])
        assert estimate_smoothness(ds, [Shard(0, 0, 1)], 0.0) == pytest.approx(2.0)

    def test_identity_features(self):
        d = 6
        ds = tiny_dataset(np.eye(d), np.zeros(d))
        assert estimate_smoothness(ds, [Shard(0, 0, d)], 0.0) == pytest.approx(2.0 / d)

    def test_ridge_term_added(self):
        ds = tiny_dataset([[1.0, 0.0]], [0.0])
        assert estimate_smoothness(ds, [Shard(0, 0, 1)], 0.5) == pytest.approx(3.0)

    @pytest.mark.parametrize("rows, d", [(80, 600), (600, 700), (700, 600), (600, 600)])
    def test_matches_dense_oracle(self, rows, d):
        # the smaller-side Gram is formed in every case; at k = 80 it is
        # solved densely, at k = 600 by Lanczos on F F^T, F^T F and, for
        # the square shard, F^T F
        ds = generate(rows, d, 0.0, seed=3)
        value = estimate_smoothness(ds, [Shard(0, 0, rows)], 0.0)
        gram = 2.0 * ds.features.T @ ds.features / rows
        oracle = float(np.linalg.eigvalsh(gram)[-1])
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_paper_shard_matches_dense_oracle(self):
        # one shard of the paper's scale: 10000 rows over 16 clients, d=2000
        rows, d = 625, 2000
        ds = generate(rows, d, 0.05, seed=7)
        value = estimate_smoothness(ds, [Shard(0, 0, rows)], 1e-4)
        oracle = float(np.linalg.eigvalsh(2.0 * ds.features @ ds.features.T / rows)[-1])
        assert value == pytest.approx(oracle + 2e-4, rel=1e-12)

    @pytest.mark.parametrize("rows, d", [(125, 200), (128, 200), (200, 128), (512, 700)])
    def test_dense_path_is_bit_equal_to_eigvalsh(self, rows, d):
        # k <= 512 (desk k=125, wide k=128) keeps its exact dense formula
        ds = generate(rows, d, 0.05, seed=5)
        lam = 1e-4
        side = ds.features if rows < d else ds.features.T
        expected = float(np.linalg.eigvalsh(2.0 * (side @ side.T) / rows)[-1]) + 2.0 * lam
        assert estimate_smoothness(ds, [Shard(0, 0, rows)], lam) == expected

    def test_lanczos_breakdown_matches_dense_oracle(self):
        # rank-2 features: the Krylov space of the 600 x 600 Gram closes
        # after three steps; the steps after it run on rounding-level beta
        # and must neither divide by zero nor lose the top eigenvalue
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((600, 2)) @ rng.standard_normal((2, 700))
        ds = tiny_dataset(feats, np.zeros(600))
        with np.errstate(divide="raise", invalid="raise"):
            value = estimate_smoothness(ds, [Shard(0, 0, 600)], 0.0)
        oracle = float(np.linalg.eigvalsh(2.0 * feats @ feats.T / 600)[-1])
        assert value == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("rows, d", [(3, 5), (600, 700)])
    def test_all_zero_features_give_ridge_term(self, rows, d):
        ds = tiny_dataset(np.zeros((rows, d)), np.zeros(rows))
        with np.errstate(divide="raise", invalid="raise"):
            value = estimate_smoothness(ds, [Shard(0, 0, rows)], 0.25)
        assert value == 2 * 0.25


class TestSigmaSq:
    def test_full_batch_is_zero(self):
        ds = generate(32, 4, 0.05, seed=1)
        shards = partition_iid(ds, 2)
        value = estimate_sigma_sq([np.zeros(4)], shards, ds, 0.0, 64, np.random.default_rng(0))
        assert value == 0.0

    def test_two_sample_shard_matches_enumeration(self):
        # batch size 1 on a 2-sample shard: exactly two equally likely
        # gradients u, v; variance = (||u-m||^2 + ||v-m||^2) / 2, m = (u+v)/2
        ds = generate(2, 3, 0.1, seed=5)
        shard = Shard(0, 0, 2)
        x = np.array([0.3, -1.0, 0.7])
        lam = 0.01
        grads = []
        for s in range(2):
            a, y = ds.features[s], ds.labels[s]
            grads.append(2.0 * (a @ x - y) * a + 2.0 * lam * x)
        u, v = grads
        m = (u + v) / 2
        exact = float(((u - m) @ (u - m) + (v - m) @ (v - m)) / 2)
        est = estimate_sigma_sq([x], [shard], ds, lam, 1, np.random.default_rng(2), draws=4000)
        assert est == pytest.approx(exact, rel=0.1)

    def test_estimate_stable_across_seeds(self):
        ds = generate(128, 8, 0.05, seed=7)
        shards = partition_iid(ds, 4)
        x = [np.random.default_rng(0).standard_normal(8)]
        a = estimate_sigma_sq(x, shards, ds, 1e-3, 16, np.random.default_rng(1), draws=2000)
        b = estimate_sigma_sq(x, shards, ds, 1e-3, 16, np.random.default_rng(2), draws=2000)
        assert abs(a - b) <= 0.1 * max(a, b)


class TestZetaSq:
    def test_single_client_zero(self):
        ds = generate(50, 4, 0.05, seed=9)
        assert estimate_zeta_sq([np.zeros(4)], [Shard(0, 0, 50)], ds, 0.0) == 0.0

    def test_duplicated_shards_zero(self):
        ds = generate(40, 4, 0.05, seed=11)
        shard = Shard(0, 0, 40)
        twins = [shard, Shard(1, 0, 40)]
        x = np.random.default_rng(1).standard_normal(4)
        assert estimate_zeta_sq([x], twins, ds, 1e-3) <= 1e-12

    def test_iid_split_positive_finite(self):
        ds = generate(2000, 50, 0.05, seed=13)
        shards = partition_iid(ds, 16)
        value = estimate_zeta_sq([np.random.default_rng(2).standard_normal(50)], shards, ds, 1e-4)
        assert 0.0 < value < np.inf


class TestBiasZeroMean:
    def test_zero_variance_exact(self):
        report = check_bias_zero_mean(0.5, 0.0, n=4, d=3, T=20, trials=100, seed=0)
        assert report.passed
        assert report.max_abs_mean == 0.0
        assert report.empirical_variance == 0.0

    def test_mu_zero_is_last_noise_average(self):
        report = check_bias_zero_mean(0.0, 0.01, n=8, d=4, T=10, trials=3000, seed=1)
        assert report.passed
        # with mu = 0 only the final round's noise average survives
        assert report.predicted_variance == pytest.approx(0.01 / 8)
        assert report.empirical_variance == pytest.approx(0.01 / 8, rel=0.15)

    def test_moderate_monte_carlo(self):
        report = check_bias_zero_mean(0.02, 0.005, n=16, d=4, T=30, trials=3000, seed=2)
        assert report.passed
        assert report.max_se_ratio <= 4.0
        assert report.empirical_variance == pytest.approx(report.predicted_variance, rel=0.2)

    def test_invalid_mu_rejected(self):
        with pytest.raises(ValueError):
            check_bias_zero_mean(1.0, 0.01, n=2, d=2, T=5, trials=10, seed=0)


class TestTheoremBound:
    def test_only_initialization_term_survives(self):
        value = evaluate_theorem_bound(consts(f0_gap=3.0), rho=1.0, mu=0.0, eta=0.05, n=4, T=100)
        assert value == pytest.approx(2.0 * 3.0 / (0.05 * 100))

    def test_doubling_rounds_halves_first_term(self):
        at_t = evaluate_theorem_bound(consts(f0_gap=3.0), rho=1.0, mu=0.0, eta=0.05, n=4, T=100)
        at_2t = evaluate_theorem_bound(consts(f0_gap=3.0), rho=1.0, mu=0.0, eta=0.05, n=4, T=200)
        assert at_2t == pytest.approx(at_t / 2)

    @pytest.mark.parametrize(
        "field", ["sigma_sq", "zeta_sq", "D_sq_total", "B_bar_sq", "f0_gap"]
    )
    def test_monotone_in_each_constant(self, field):
        base = dict(sigma_sq=0.5, zeta_sq=0.3, D_sq_total=0.2, B_bar_sq=0.1, f0_gap=1.0)
        low = evaluate_theorem_bound(consts(**base), rho=0.5, mu=0.01, eta=0.02, n=8, T=50)
        bumped = dict(base)
        bumped[field] = base[field] * 1.1 + 0.01
        high = evaluate_theorem_bound(consts(**bumped), rho=0.5, mu=0.01, eta=0.02, n=8, T=50)
        assert high > low

    def test_step_size_precondition(self):
        with pytest.raises(PreconditionViolated, match=r"min\(1/\(4L\), rho/\(7L\)\)"):
            evaluate_theorem_bound(consts(L=2.0), rho=1.0, mu=0.0, eta=0.2, n=4, T=10)

    def test_mu_ratio_precondition(self):
        # mild violation: the quadratic condition still holds, the ratio fails
        with pytest.raises(PreconditionViolated, match="rho/42"):
            evaluate_theorem_bound(consts(), rho=0.5, mu=0.02, eta=0.001, n=4, T=10)

    def test_mu_contraction_precondition(self):
        with pytest.raises(PreconditionViolated, match="rho/8"):
            evaluate_theorem_bound(consts(), rho=0.5, mu=0.3, eta=0.001, n=4, T=10)


class TestContraction:
    def test_fully_connected_annihilates_deviation(self):
        mixing = build_mixing(TopologySpec(FULLY_CONNECTED, 16))
        report = check_contraction(mixing, mixing.rho, trials=200, seed=0)
        assert report.passed
        assert report.max_ratio <= 1e-25

    def test_identity_fixture_fails_any_positive_rho(self):
        report = check_contraction(np.eye(8), 0.1, trials=50, seed=1)
        assert not report.passed
        assert report.max_ratio == pytest.approx(1.0)

    def test_ring_bound_and_tightness_witness(self):
        mixing = build_mixing(TopologySpec(RING, 16))
        report = check_contraction(mixing, mixing.rho, trials=1000, seed=2)
        assert report.passed
        # rows aligned with the second eigenvector achieve the bound
        deflated = mixing.weights - np.full((16, 16), 1.0 / 16.0)
        vals, vecs = np.linalg.eigh(deflated)
        v2 = vecs[:, np.argmax(np.abs(vals))]
        X = np.tile(v2, (4, 1))
        dev = X - X.mean(axis=1, keepdims=True)
        ratio = ((dev @ mixing.weights) ** 2).sum() / (dev * dev).sum()
        assert ratio >= 0.90
        assert ratio <= report.allowed
