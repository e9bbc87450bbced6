"""Mean iterate, consensus error, per-round measurement."""

import numpy as np
import pytest

from dflsim.data import Problem, generate, partition_iid
from dflsim.harness import LrSchedule, RunConfig, run_detailed
from dflsim.metrics import _block_local_losses, consensus_error, mean_iterate, measure_block
from dflsim.objective import batch_gradients, ridge_optimum
from dflsim.topology import FULLY_CONNECTED, RING, TopologySpec, build_mixing
from oracles import local_loss, metrics_row


def test_mean_iterate_identical_columns():
    c = np.array([1.0, -2.0, 0.5])
    X = np.tile(c[:, None], (1, 4))
    np.testing.assert_allclose(mean_iterate(X), c, atol=1e-15)


def test_mean_iterate_hand_case():
    np.testing.assert_array_equal(mean_iterate(np.array([[0.0, 2.0]])), [1.0])


def test_mean_iterate_invariant_under_gossip():
    mixing = build_mixing(TopologySpec(RING, 8))
    X = np.random.default_rng(0).standard_normal((5, 8))
    np.testing.assert_allclose(mean_iterate(X @ mixing.weights), mean_iterate(X), atol=1e-12)


def test_consensus_error_cases():
    assert consensus_error(np.array([[0.0, 2.0]])) == 1.0
    c = np.random.default_rng(1).standard_normal(6)
    assert consensus_error(np.tile(c[:, None], (1, 5))) <= 1e-28


def test_consensus_error_shift_invariant():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((4, 6))
    shift = rng.standard_normal(4)
    np.testing.assert_allclose(
        consensus_error(X + shift[:, None]), consensus_error(X), rtol=1e-10
    )


def test_consensus_error_contracts_under_gossip():
    mixing = build_mixing(TopologySpec(RING, 16))
    rng = np.random.default_rng(3)
    for _ in range(50):
        X = rng.standard_normal((8, 16))
        assert consensus_error(X @ mixing.weights) <= (1 - mixing.rho) * consensus_error(X) + 1e-12


def measure_one(X, ds, lam, shards):
    """measure_block on the one state X (d x n): loss, consensus error, |grad|^2, local loss."""
    return [float(v[0]) for v in measure_block(X.T[None], Problem(ds, shards, lam))]


def test_measure_at_ridge_optimum_consensus():
    ds = generate(256, 12, 0.05, seed=5)
    shards = partition_iid(ds, 8)
    x_star, f_star = ridge_optimum(ds, 1e-3)
    loss, consensus, grad_norm_sq, _ = measure_one(np.tile(x_star[:, None], (1, 8)), ds, 1e-3, shards)
    assert grad_norm_sq <= 1e-16
    assert consensus <= 1e-28
    np.testing.assert_allclose(loss, f_star, rtol=1e-12)


def test_measure_zero_point_loss_is_mean_square_labels():
    ds = generate(100, 5, 0.05, seed=7)
    loss = measure_one(np.zeros((5, 4)), ds, 0.0, partition_iid(ds, 4))[0]
    np.testing.assert_allclose(loss, float(np.mean(ds.labels**2)), rtol=1e-12)


def test_grad_norm_matches_average_of_client_gradients():
    ds = generate(96, 10, 0.05, seed=9)
    shards = partition_iid(ds, 8)
    X = np.random.default_rng(4).standard_normal((10, 8))
    grad_norm_sq = measure_one(X, ds, 1e-3, shards)[2]
    xbar = mean_iterate(X)
    avg = batch_gradients(np.repeat(xbar[:, None], 8, 1), Problem(ds, shards, 1e-3)).mean(axis=1)
    np.testing.assert_allclose(grad_norm_sq, float(avg @ avg), atol=1e-10)


def test_noise_free_fedndl3_loss_monotone_after_burn_in():
    # full-batch gradients make the run deterministic gradient descent
    config = RunConfig(
        algorithm="fedndl3",
        topology=TopologySpec(FULLY_CONNECTED, 8),
        d=50,
        m=400,
        rounds=80,
        lr=LrSchedule(eta0=0.2, gamma=0.9, decay_interval=10),
        noise_variance=0.0,
        lam=1e-4,
        batch_size=400,
        repeats=1,
        master_seed=11,
    )
    losses = run_detailed(config, 0).metrics["loss"]
    for a, b in zip(losses[6:], losses[7:]):
        assert b <= a + 1e-12


@pytest.mark.parametrize("m", [2000, 2001])
def test_fused_measure_is_bit_identical_to_objective_calls(m):
    # a one-state block takes the matrix-vector paths of the objective calls
    ds = generate(m, 200, 0.05, seed=11)
    shards = partition_iid(ds, 16)
    X = np.random.default_rng(6).standard_normal((200, 16))
    assert measure_one(X, ds, 1e-4, shards) == metrics_row(X, ds, 1e-4, shards)
    local = [local_loss(X[:, i], s, ds, 1e-4) for i, s in enumerate(shards)]
    assert _block_local_losses(X.T[None], Problem(ds, shards, 1e-4))[0].tolist() == local


@pytest.mark.parametrize("m, d, n", [(2000, 200, 16), (2001, 200, 16), (1280, 40, 64)])
def test_block_matches_per_state_measure(m, d, n):
    ds = generate(m, d, 0.05, seed=12)
    shards = partition_iid(ds, n)
    S = np.random.default_rng(7).standard_normal((8, n, d))
    block = np.array(measure_block(S, Problem(ds, shards, 1e-4))).T
    for values, state in zip(block, S):
        # a C-ordered d x n state, the layout the harness keeps
        expected = metrics_row(state.T.copy(), ds, 1e-4, shards)
        np.testing.assert_allclose(values, expected, rtol=1e-13, atol=0)
        assert values[1] == expected[1]


def test_block_of_identical_states_gives_identical_rows():
    ds = generate(2001, 50, 0.05, seed=13)
    shards = partition_iid(ds, 16)
    problem = Problem(ds, shards, 1e-4)
    state = np.tile(np.random.default_rng(8).standard_normal(50), (16, 1))
    for column in measure_block(np.tile(state, (8, 1, 1)), problem):
        assert np.all(column == column[0])
    # a consensus state has an exact zero consensus error
    assert measure_block(state[None], problem)[1][0] == 0.0
