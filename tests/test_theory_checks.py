"""Constant estimators, bias zero-mean check, worst-case bound, contraction."""

from dataclasses import replace

import numpy as np
import pytest

from dflsim import objective
from dflsim.algorithms import round_fednmut_array
from dflsim.data import Problem, Shard, generate, partition_iid
from dflsim.objective import sample_batches
from dflsim.theory_checks import (
    ConstantsEstimate,
    PreconditionViolated,
    check_bias_zero_mean,
    check_contraction,
    estimate_sigma_sq,
    estimate_smoothness,
    estimate_zeta_sq,
    evaluate_theorem_bound,
    smoothness_lower_bound,
)
from dflsim.topology import FULLY_CONNECTED, RING, MixingMatrix, TopologySpec, build_mixing
from oracles import stochastic_gradient, tiny_dataset


def whole(ds, lam):
    """The Problem of one client that owns every row of ds."""
    return Problem(ds, [Shard(0, 0, ds.m)], lam)


def consts(**overrides):
    base = dict(L=2.0, sigma_sq=0.0, zeta_sq=0.0, D_sq_total=0.0, B_bar_sq=0.0, f0_gap=1.0)
    base.update(overrides)
    return ConstantsEstimate(**base)


class TestSmoothness:
    def test_single_sample(self):
        ds = tiny_dataset([[1.0, 0.0]], [0.0])
        assert estimate_smoothness(whole(ds, 0.0)) == pytest.approx(2.0)

    def test_identity_features(self):
        d = 6
        ds = tiny_dataset(np.eye(d), np.zeros(d))
        assert estimate_smoothness(whole(ds, 0.0)) == pytest.approx(2.0 / d)

    def test_ridge_term_added(self):
        ds = tiny_dataset([[1.0, 0.0]], [0.0])
        assert estimate_smoothness(whole(ds, 0.5)) == pytest.approx(3.0)

    @pytest.mark.parametrize("rows, d", [(80, 600), (600, 700), (700, 600), (600, 600)])
    def test_matches_dense_oracle(self, rows, d):
        # the smaller-side Gram is formed and solved densely in every case:
        # F F^T at k = 80 and 600, F^T F for a taller or square shard
        ds = generate(rows, d, 0.0, seed=3)
        value = estimate_smoothness(whole(ds, 0.0))
        gram = 2.0 * ds.features.T @ ds.features / rows
        oracle = float(np.linalg.eigvalsh(gram)[-1])
        assert value == pytest.approx(oracle, rel=1e-10)

    def test_paper_shard_matches_dense_oracle(self):
        # one shard of the paper's scale: 10000 rows over 16 clients, d=2000
        rows, d = 625, 2000
        ds = generate(rows, d, 0.05, seed=7)
        value = estimate_smoothness(whole(ds, 1e-4))
        oracle = float(np.linalg.eigvalsh(2.0 * ds.features @ ds.features.T / rows)[-1])
        assert value == pytest.approx(oracle + 2e-4, rel=1e-12)

    @pytest.mark.parametrize("rows, d", [(125, 200), (128, 200), (200, 128), (512, 700)])
    def test_dense_path_is_bit_equal_to_eigvalsh(self, rows, d):
        ds = generate(rows, d, 0.05, seed=5)
        lam = 1e-4
        side = ds.features if rows < d else ds.features.T
        expected = float(np.linalg.eigvalsh(2.0 * (side @ side.T) / rows)[-1]) + 2.0 * lam
        assert estimate_smoothness(whole(ds, lam)) == expected

    @pytest.mark.parametrize("rows, d", [(3, 5), (600, 700)])
    def test_all_zero_features_give_ridge_term(self, rows, d):
        ds = tiny_dataset(np.zeros((rows, d)), np.zeros(rows))
        with np.errstate(divide="raise", invalid="raise"):
            value = estimate_smoothness(whole(ds, 0.25))
        assert value == 2 * 0.25


def rank_two(rows, d):
    rng = np.random.default_rng(4)
    return rng.standard_normal((rows, 2)) @ rng.standard_normal((2, d))


class TestSmoothnessLowerBound:
    @pytest.mark.parametrize(
        "features",
        [
            generate(125, 200, 0.05, seed=5).features,  # a desk shard
            generate(128, 200, 0.05, seed=5).features,  # a wide shard
            generate(600, 700, 0.05, seed=5).features,
            rank_two(600, 700),
            np.random.default_rng(6).standard_normal((1, 200)),
            np.zeros((40, 30)),
        ],
        ids=["desk", "wide", "600x700", "rank-2", "single-row", "all-zero"],
    )
    @pytest.mark.parametrize("lam", [0.0, 1e-4])
    def test_never_exceeds_exact_smoothness(self, features, lam):
        problem = whole(tiny_dataset(features, np.zeros(len(features))), lam)
        with np.errstate(divide="raise", invalid="raise"):
            lower = smoothness_lower_bound(problem)
        assert 2.0 * lam <= lower <= estimate_smoothness(problem)

    @pytest.mark.parametrize("seed", range(20))
    def test_rank_one_shards_stay_below_exact(self, seed):
        # the power steps converge at once, where rounding alone could
        # lift the quotient above eigvalsh's value
        rng = np.random.default_rng(seed)
        features = np.outer(rng.standard_normal(int(rng.integers(1, 30))), rng.standard_normal(50))
        problem = whole(tiny_dataset(features, np.zeros(len(features))), 0.0)
        exact = estimate_smoothness(problem)
        assert exact * (1 - 1e-11) <= smoothness_lower_bound(problem) <= exact

    @pytest.mark.parametrize("m, n", [(2000, 16), (8192, 64)], ids=["desk", "wide"])
    def test_within_a_fifth_of_exact_at_workload_sizes(self, m, n):
        ds = generate(m, 200, 0.05, seed=3)
        problem = Problem(ds, partition_iid(ds, n), 1e-4)
        exact = estimate_smoothness(problem)
        assert 0.8 * exact <= smoothness_lower_bound(problem) <= exact

    def test_max_over_shards(self):
        ds = tiny_dataset([[1.0, 0.0], [0.0, 3.0]], [0.0, 0.0])
        problem = Problem(ds, [Shard(0, 0, 1), Shard(1, 1, 2)], 0.5)
        # one-row shards converge at once: 2 ||a||^2, largest from the second
        assert smoothness_lower_bound(problem) == pytest.approx(18.0 + 1.0, rel=1e-11)


class TestSigmaSq:
    def test_full_batch_is_zero(self):
        ds = generate(32, 4, 0.05, seed=1)
        problem = Problem(ds, partition_iid(ds, 2), 0.0)
        value = estimate_sigma_sq([np.zeros(4)], problem, 64, np.random.default_rng(0))
        assert value == 0.0

    def test_two_sample_shard_matches_enumeration(self):
        # batch size 1 on a 2-sample shard: exactly two equally likely
        # gradients u, v; variance = (||u-m||^2 + ||v-m||^2) / 2, m = (u+v)/2
        ds = generate(2, 3, 0.1, seed=5)
        x = np.array([0.3, -1.0, 0.7])
        lam = 0.01
        grads = []
        for s in range(2):
            a, y = ds.features[s], ds.labels[s]
            grads.append(2.0 * (a @ x - y) * a + 2.0 * lam * x)
        u, v = grads
        m = (u + v) / 2
        exact = float(((u - m) @ (u - m) + (v - m) @ (v - m)) / 2)
        est = estimate_sigma_sq([x], whole(ds, lam), 1, np.random.default_rng(2), draws=4000)
        assert est == pytest.approx(exact, rel=0.1)

    def test_estimate_stable_across_seeds(self):
        ds = generate(128, 8, 0.05, seed=7)
        problem = Problem(ds, partition_iid(ds, 4), 1e-3)
        x = [np.random.default_rng(0).standard_normal(8)]
        a = estimate_sigma_sq(x, problem, 16, np.random.default_rng(1), draws=2000)
        b = estimate_sigma_sq(x, problem, 16, np.random.default_rng(2), draws=2000)
        assert abs(a - b) <= 0.1 * max(a, b)

    @pytest.mark.parametrize("budget", [objective.GATHER_BUDGET, 1])
    def test_equals_per_draw_loop(self, monkeypatch, budget):
        # 126- and 125-row shards; 600 draws span two key blocks at the default budget
        ds = generate(2001, 200, 0.05, seed=3)
        shards = partition_iid(ds, 16)
        xs = list(np.random.default_rng(1).standard_normal((2, 200)))
        rng = np.random.default_rng(0)
        worst = 0.0
        for x in xs:
            for shard in shards:
                mean_grad = stochastic_gradient(x, shard, ds, 1e-4)
                acc = 0.0
                for _ in range(600):
                    picks = sample_batches(rng, [shard.size], 32)[0]
                    diff = stochastic_gradient(x, shard, ds, 1e-4, picks) - mean_grad
                    acc += float(diff @ diff)
                worst = max(worst, acc / 600)
        monkeypatch.setattr(objective, "GATHER_BUDGET", budget)
        problem = Problem(ds, shards, 1e-4)
        estimate = estimate_sigma_sq(xs, problem, 32, np.random.default_rng(0), draws=600)
        assert estimate == worst


class TestZetaSq:
    def test_single_client_zero(self):
        ds = generate(50, 4, 0.05, seed=9)
        assert estimate_zeta_sq([np.zeros(4)], whole(ds, 0.0)) == 0.0

    def test_duplicated_shards_zero(self):
        ds = generate(40, 4, 0.05, seed=11)
        shard = Shard(0, 0, 40)
        twins = Problem(ds, [shard, Shard(1, 0, 40)], 1e-3)
        x = np.random.default_rng(1).standard_normal(4)
        assert estimate_zeta_sq([x], twins) <= 1e-12

    def test_iid_split_positive_finite(self):
        ds = generate(2000, 50, 0.05, seed=13)
        problem = Problem(ds, partition_iid(ds, 16), 1e-4)
        value = estimate_zeta_sq([np.random.default_rng(2).standard_normal(50)], problem)
        assert 0.0 < value < np.inf


def ring(n):
    """The ring mixing of n clients."""
    return build_mixing(TopologySpec(RING, n))


class TestBiasZeroMean:
    def test_zero_variance_exact(self):
        report = check_bias_zero_mean(0.5, 0.0, ring(4), d=3, T=20, trials=100, seed=0)
        assert report.passed
        assert report.max_abs_mean == 0.0
        assert report.empirical_variance == 0.0

    def test_mu_zero_is_last_noise_average(self):
        report = check_bias_zero_mean(0.0, 0.01, ring(8), d=4, T=10, trials=3000, seed=1)
        assert report.passed
        # with mu = 0 only the final round's noise average survives
        assert report.predicted_variance == pytest.approx(0.01 / 8)
        assert report.empirical_variance == pytest.approx(0.01 / 8, rel=0.15)

    def test_moderate_monte_carlo(self):
        mixing = build_mixing(TopologySpec(FULLY_CONNECTED, 16))
        report = check_bias_zero_mean(0.02, 0.005, mixing, d=4, T=30, trials=3000, seed=2)
        assert report.passed
        assert report.max_se_ratio <= 4.0
        assert report.empirical_variance == pytest.approx(report.predicted_variance, rel=0.2)

    @pytest.mark.parametrize("change", [
        lambda inputs: replace(inputs, noises=np.zeros_like(inputs.noises)),
        lambda inputs: replace(inputs, noises=inputs.eta * inputs.noises),
    ], ids=["noise-dropped", "noise-scaled-by-step"])
    def test_kernel_mutant_fails(self, monkeypatch, change):
        """The real kernel run on change(inputs): the check reads the kernel, not a stand-in."""
        def mutant(X, y_tilde, delta, inputs):
            return round_fednmut_array(X, y_tilde, delta, change(inputs))

        monkeypatch.setattr("dflsim.theory_checks.round_fednmut_array", mutant)
        report = check_bias_zero_mean(0.02, 0.005, ring(16), d=4, T=30, trials=3000, seed=2)
        assert report.passed is False

    def test_invalid_mu_rejected(self):
        with pytest.raises(ValueError, match=r"mu must be in \[0, 1\), got 1.0"):
            check_bias_zero_mean(1.0, 0.01, ring(3), d=2, T=5, trials=10, seed=0)

    @pytest.mark.parametrize("variance", [-0.1, np.nan, np.inf])
    def test_negative_or_non_finite_variance_rejected(self, variance):
        message = rf"^variance must be >= 0 and finite, got {variance}$"
        with pytest.raises(ValueError, match=message):
            check_bias_zero_mean(0.5, variance, ring(4), d=3, T=20, trials=100, seed=0)


@pytest.mark.parametrize(
    "check, message",
    [
        # nothing but draws and x_samples is read before the check; an
        # empty shard list is rejected earlier, by Problem (tests/test_data.py)
        (lambda rng: estimate_sigma_sq([], None, 1, rng, draws=0), "draws must be >= 1, got 0"),
        (lambda rng: estimate_sigma_sq([], None, 1, rng, draws=-3), "draws must be >= 1"),
        (lambda _: estimate_zeta_sq([], None), "x_samples must not be"),
        (lambda rng: estimate_sigma_sq([], None, 1, rng), "x_samples must"),
        (lambda _: check_contraction(MixingMatrix(np.eye(4), 0.1), trials=0, seed=0), "trials must be >= 1"),
        (lambda _: check_bias_zero_mean(0.0, 0.1, ring(4), 2, T=5, trials=1, seed=0),
         "trials must be >= 2"),
        (lambda _: check_bias_zero_mean(0.0, 0.1, ring(4), 2, T=0, trials=9, seed=0),
         "T must be >= 1"),
        (lambda _: check_bias_zero_mean(0.0, 0.1, ring(4), 0, T=5, trials=9, seed=0),
         "d must be >= 1"),
    ],
    ids=[
        "sigma-draws-0", "sigma-draws-neg", "zeta-no-samples", "sigma-no-samples",
        "contraction-0", "bias-trials-1", "bias-T-0", "bias-d-0",
    ],
)
def test_sample_count_without_a_result_rejected_before_any_draw(monkeypatch, check, message):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    monkeypatch.setattr(np.random, "default_rng", None)  # a check seeding its own stream fails
    with pytest.raises(ValueError, match=message):
        check(rng)
    assert rng.bit_generator.state == state


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

    @pytest.mark.parametrize("L", [0.0, -1.0])
    def test_non_positive_smoothness_rejected(self, L):
        with pytest.raises(ValueError, match="smoothness constant must be positive"):
            evaluate_theorem_bound(consts(L=L), rho=1.0, mu=0.0, eta=0.05, n=4, T=10)


class TestContraction:
    def test_full_graph_annihilates_deviation(self):
        mixing = build_mixing(TopologySpec(FULLY_CONNECTED, 16))
        report = check_contraction(mixing, trials=200, seed=0)
        assert report.passed
        assert report.max_ratio <= 1e-25

    def test_single_client_has_no_deviation_to_contract(self):
        # one client is its own mean, so every trial's deviation is zero and is skipped
        report = check_contraction(build_mixing(TopologySpec(FULLY_CONNECTED, 1)), trials=5, seed=0)
        assert report.passed and report.max_ratio == 0.0

    def test_identity_fixture_fails_any_positive_rho(self):
        report = check_contraction(MixingMatrix(np.eye(8), 0.1), trials=50, seed=1)
        assert not report.passed
        assert report.max_ratio == pytest.approx(1.0)

    def test_mixes_through_apply_once_per_trial(self, apply_calls):
        check_contraction(build_mixing(TopologySpec(RING, 16)), trials=5, seed=0)
        assert len(apply_calls) == 5

    def test_ring_bound_and_tightness_witness(self):
        mixing = build_mixing(TopologySpec(RING, 16))
        report = check_contraction(mixing, trials=1000, seed=2)
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
