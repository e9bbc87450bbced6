"""Round updates: hand cases, oracle equivalence, shared invariants."""

import dataclasses

import numpy as np
import pytest

from dflsim.algorithms import (
    RoundInputs,
    init_states,
    round_fedndl1,
    round_fedndl2,
    round_fedndl3,
    round_fednmut_array,
)
from dflsim.metrics import consensus_error
from dflsim.topology import FULLY_CONNECTED, RING, TORUS, MixingMatrix, TopologySpec, build_mixing
from oracles import ClientState, init_network_state, round_fednmut, round_fednmut_matrix, stack_states


def fixed_inputs(eta, W, G, noises, mu=0.0):
    """RoundInputs whose grads returns G at any point."""
    return RoundInputs(eta=eta, W=W, grads=lambda Z: G, noises=noises, mu=mu)


def states_from_columns(X):
    return [ClientState(x=X[:, i].copy()) for i in range(X.shape[1])]


def identity_mixing(n):
    # unit fixture only; a disconnected graph is not a valid gossip matrix
    return MixingMatrix(weights=np.eye(n), rho=0.0)


def single_client_mixing():
    return build_mixing(TopologySpec(FULLY_CONNECTED, 1))


class TestFedNDL1:
    def test_single_client_is_plain_sgd(self):
        X = np.array([[1.0], [2.0]])
        grads = np.array([[0.5], [-1.0]])
        inputs = fixed_inputs(0.1, single_client_mixing(), grads, np.zeros((2, 1)))
        out = round_fedndl1(X, inputs)
        np.testing.assert_allclose(out[:, 0], [0.95, 2.1])

    def test_two_clients_average(self):
        # post-SGD parameters [1], [3] under uniform weights land both at [2]
        w = MixingMatrix(weights=np.full((2, 2), 0.5), rho=1.0)
        inputs = fixed_inputs(1.0, w, np.zeros((1, 2)), np.zeros((1, 2)))
        out = round_fedndl1(np.array([[1.0, 3.0]]), inputs)
        np.testing.assert_array_equal(out, [[2.0, 2.0]])

    def test_identity_mixing_isolates_noise_path(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((4, 3))
        noises = rng.standard_normal((4, 3))
        inputs = fixed_inputs(0.3, identity_mixing(3), np.zeros((4, 3)), noises)
        out = round_fedndl1(X, inputs)
        np.testing.assert_allclose(out, X + noises, atol=1e-15)


class TestFedNDL2:
    def test_equal_clients_reduce_to_parallel_sgd(self):
        x0 = np.array([1.0, -2.0])
        mixing = build_mixing(TopologySpec(FULLY_CONNECTED, 4))
        X = np.tile(x0[:, None], (1, 4))
        g = np.array([0.25, 0.5])
        inputs = fixed_inputs(0.2, mixing, np.tile(g[:, None], (1, 4)), np.zeros((2, 4)))
        out = round_fedndl2(X, inputs)
        np.testing.assert_allclose(out, np.tile((x0 - 0.2 * g)[:, None], (1, 4)))

    def test_zero_gradient_is_pure_gossip(self):
        mixing = build_mixing(TopologySpec(RING, 8))
        rng = np.random.default_rng(1)
        X = rng.standard_normal((5, 8))
        inputs = fixed_inputs(0.1, mixing, np.zeros((5, 8)), np.zeros((5, 8)))
        out = round_fedndl2(X, inputs)
        assert consensus_error(out) <= (1 - mixing.rho) * consensus_error(X) + 1e-12

    def test_single_client_noisy_self_loop(self):
        noises = np.array([[0.5]])
        inputs = RoundInputs(eta=0.1, W=single_client_mixing(), grads=lambda Z: Z, noises=noises)
        out = round_fedndl2(np.array([[2.0]]), inputs)
        # gossiped point is 2.5, the gradient callable returns it
        np.testing.assert_allclose(out[:, 0], [2.5 - 0.1 * 2.5])


class TestFedNDL3:
    def test_uniform_weights_take_average_gradient_step(self):
        mixing = build_mixing(TopologySpec(FULLY_CONNECTED, 4))
        rng = np.random.default_rng(2)
        X = rng.standard_normal((3, 4))
        grads = rng.standard_normal((3, 4))
        inputs = fixed_inputs(0.2, mixing, grads, np.zeros((3, 4)))
        out = round_fedndl3(X, inputs)
        expected = X - 0.2 * grads.mean(axis=1, keepdims=True)
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_single_client_plain_sgd(self):
        inputs = fixed_inputs(0.5, single_client_mixing(), np.array([[2.0]]), np.zeros((1, 1)))
        out = round_fedndl3(np.array([[1.0]]), inputs)
        np.testing.assert_allclose(out[:, 0], [0.0])

    def test_noise_enters_through_mixed_broadcast(self):
        # with zero gradients the step is exactly -eta * (delta W), i.e. one
        # draw per sender, weighted at every receiver
        mixing = build_mixing(TopologySpec(RING, 4))
        rng = np.random.default_rng(3)
        X = rng.standard_normal((2, 4))
        noises = rng.standard_normal((2, 4))
        inputs = fixed_inputs(0.3, mixing, np.zeros((2, 4)), noises)
        out = round_fedndl3(X, inputs)
        np.testing.assert_allclose(out - X, -0.3 * noises @ mixing.weights, atol=1e-15)

    def test_noise_variance_per_round(self):
        # per-coordinate variance of the update is eta^2 * v * sum_j w_ij^2
        mixing = build_mixing(TopologySpec(RING, 4))
        eta, v, rounds = 0.2, 0.5, 10_000
        rng = np.random.default_rng(4)
        X = np.zeros((4, 4))
        steps = []
        inputs_grads = np.zeros((4, 4))
        for _ in range(rounds):
            noises = rng.normal(0.0, np.sqrt(v), size=(4, 4))
            inputs = fixed_inputs(eta, mixing, inputs_grads, noises)
            steps.append(round_fedndl3(X, inputs) - X)
        samples = np.stack(steps)
        target = eta * eta * v * float((mixing.weights[0] ** 2).sum())
        np.testing.assert_allclose(samples.var(), target, rtol=0.05)


class TestFedNMUT:
    def test_mu_zero_matrix_identity(self):
        # with consistent copies the round is gossip-then-gradient exactly
        mixing = build_mixing(TopologySpec(RING, 8))
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 8))
        grads = rng.standard_normal((6, 8))
        inputs = fixed_inputs(0.1, mixing, grads, np.zeros((6, 8)), mu=0.0)
        out = round_fednmut(states_from_columns(X), inputs)
        np.testing.assert_allclose(stack_states(out), X @ mixing.weights - 0.1 * grads, atol=1e-12)

    def test_cold_start_from_consensus_broadcasts_raw_gradients(self):
        mixing = build_mixing(TopologySpec(TORUS, 9))
        x0 = np.random.default_rng(6).standard_normal(5)
        states = [ClientState(x=x0.copy()) for _ in range(9)]
        grads = np.random.default_rng(7).standard_normal((5, 9))
        inputs = fixed_inputs(0.2, mixing, grads, np.zeros((5, 9)), mu=0.9)
        out = round_fednmut(states, inputs)
        np.testing.assert_allclose(stack_states(out), stack_states(states) - 0.2 * grads, atol=1e-13)
        for i, s in enumerate(out):
            np.testing.assert_allclose(s.y_tilde_prev[i], grads[:, i], atol=1e-13)

    def test_zero_step_size_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            fixed_inputs(0.0, single_client_mixing(), np.zeros((1, 1)), np.zeros((1, 1)))

    @pytest.mark.parametrize("mu", [-0.01, 1.0])
    def test_mu_outside_unit_interval_rejected(self, mu):
        with pytest.raises(ValueError, match=rf"mu must be in \[0, 1\), got {mu}"):
            fixed_inputs(0.1, single_client_mixing(), np.zeros((1, 1)), np.zeros((1, 1)), mu=mu)


@pytest.mark.parametrize(
    "kind,n", [(FULLY_CONNECTED, 4), (RING, 8), (TORUS, 16)]
)
def test_per_client_matches_matrix_oracle(kind, n):
    """100 noisy rounds: per-client trajectory vs matrix/bias oracle."""
    d, rounds, eta, mu, variance = 16, 100, 0.05, 0.02, 0.005
    mixing = build_mixing(TopologySpec(kind, n))
    rng = np.random.default_rng(1000 + n)
    x0 = rng.standard_normal(d)
    states = [ClientState(x=x0.copy()) for _ in range(n)]
    net = init_network_state(np.tile(x0[:, None], (1, n)))
    X, y_tilde, delta = net.X, np.zeros((d, n)), np.zeros((d, n))
    for _ in range(rounds):
        grads = rng.standard_normal((d, n))
        noises = rng.normal(0.0, np.sqrt(variance), size=(d, n))
        inputs = fixed_inputs(eta, mixing, grads, noises, mu=mu)

        x_before = stack_states(states)
        X, y_tilde, delta, bias = round_fednmut_array(X, y_tilde, delta, inputs)
        states = round_fednmut(states, inputs)
        net = round_fednmut_matrix(net, inputs)
        x_after = stack_states(states)

        assert np.max(np.abs(x_after - net.X)) <= 1e-8
        np.testing.assert_allclose(bias, net.B, atol=1e-8)
        # neighbor copies stay bit-identical to the owners' parameters
        for i, s in enumerate(states):
            for j, copy in s.x_hat.items():
                assert np.max(np.abs(copy - states[j].x)) <= 1e-12
        # column-mean dynamics: xbar' = xbar - eta (gbar + mu bbar + dbar)
        drift = (
            x_after.mean(axis=1)
            - x_before.mean(axis=1)
            + eta * (grads.mean(axis=1) + mu * bias.mean(axis=1) + noises.mean(axis=1))
        )
        assert np.max(np.abs(drift)) <= 1e-10


@pytest.mark.parametrize("x0_mode", ["shared", "independent"])
@pytest.mark.parametrize("kind,n", [(FULLY_CONNECTED, 4), (RING, 8), (TORUS, 9)])
def test_array_kernel_matches_per_client_oracle(kind, n, x0_mode):
    """100 noisy rounds under a decaying step size, where the matrix oracle drifts.

    The per-client bias is read off the oracle's own outputs: it stores
    Delta_i and its broadcast yt_i = Delta_i + mu b_i + delta_i.
    """
    d, rounds, mu, variance = 16, 100, 0.02, 0.005
    mixing = build_mixing(TopologySpec(kind, n))
    rng = np.random.default_rng(2000 + n)
    X = init_states(n, d, x0_mode, rng)
    states = states_from_columns(X)
    y_tilde, delta = np.zeros((d, n)), np.zeros((d, n))
    for t in range(rounds):
        eta = 0.05 * 0.9 ** (t // 10)
        noises = rng.normal(0.0, np.sqrt(variance), size=(d, n))
        inputs = fixed_inputs(eta, mixing, rng.standard_normal((d, n)), noises, mu=mu)
        X, y_tilde, delta, bias = round_fednmut_array(X, y_tilde, delta, inputs)
        states = round_fednmut(states, inputs)

        assert np.max(np.abs(X - stack_states(states))) <= 1e-8
        oracle_y_tilde = np.column_stack([s.y_tilde_prev[i] for i, s in enumerate(states)])
        oracle_delta = np.column_stack([s.delta_prev for s in states])
        oracle_bias = (oracle_y_tilde - noises - oracle_delta) / mu
        assert np.max(np.abs(bias - oracle_bias)) <= 1e-8


def test_neighbor_copies_stay_consistent_for_200_rounds():
    d, n = 6, 8
    mixing = build_mixing(TopologySpec(RING, n))
    rng = np.random.default_rng(99)
    states = states_from_columns(init_states(n, d, "independent", rng))
    for _ in range(200):
        grads, noises = rng.standard_normal((d, n)), rng.normal(0.0, 0.07, size=(d, n))
        inputs = fixed_inputs(0.05, mixing, grads, noises, mu=0.02)
        states = round_fednmut(states, inputs)
        for i, s in enumerate(states):
            for j, copy in s.x_hat.items():
                assert np.max(np.abs(copy - states[j].x)) <= 1e-12


def test_bias_column_mean_follows_noise_recursion():
    """bbar_{t+1} = mu * bbar_t + dbar_t on the array kernel's bias."""
    d, n, eta, mu, variance = 8, 8, 0.1, 0.02, 0.01
    mixing = build_mixing(TopologySpec(RING, n))
    rng = np.random.default_rng(12)
    X = init_states(n, d, "independent", rng)
    y_tilde, delta = np.zeros((d, n)), np.zeros((d, n))
    prev_bias_mean = np.zeros(d)
    prev_noise_mean = np.zeros(d)
    for t in range(40):
        grads = rng.standard_normal((d, n))
        noises = rng.normal(0.0, np.sqrt(variance), size=(d, n))
        inputs = fixed_inputs(eta, mixing, grads, noises, mu=mu)
        X, y_tilde, delta, bias = round_fednmut_array(X, y_tilde, delta, inputs)
        bias_mean = bias.mean(axis=1)
        if t == 0:
            np.testing.assert_allclose(bias_mean, np.zeros(d), atol=1e-12)
        else:
            np.testing.assert_allclose(
                bias_mean, mu * prev_bias_mean + prev_noise_mean, atol=1e-10
            )
        prev_bias_mean = bias_mean
        prev_noise_mean = noises.mean(axis=1)


def test_consensus_sgd_equivalence_with_shared_gradient_draws():
    """Identical draws for every client: the three one-shot-gradient rules
    all become centralized SGD from a consensus point."""
    d, n, rounds, eta = 12, 8, 50, 0.1
    mixing = build_mixing(TopologySpec(FULLY_CONNECTED, n))
    rng = np.random.default_rng(21)
    x0 = rng.standard_normal(d)
    s1 = s3 = np.tile(x0[:, None], (1, n))
    smut = [ClientState(x=x0.copy()) for _ in range(n)]
    zero = np.zeros((d, n))
    for _ in range(rounds):
        g = rng.standard_normal(d)
        grads = np.tile(g[:, None], (1, n))
        inputs = fixed_inputs(eta, mixing, grads, zero)
        s1 = round_fedndl1(s1, inputs)
        s3 = round_fedndl3(s3, inputs)
        smut = round_fednmut(smut, inputs)
        assert np.max(np.abs(s1 - s3)) <= 1e-10
        assert np.max(np.abs(s1 - stack_states(smut))) <= 1e-10


class TestInitStates:
    def test_zeros(self):
        X = init_states(4, 3, "zeros", np.random.default_rng(0))
        assert X.shape == (3, 4)
        assert consensus_error(X) == 0.0
        assert np.all(X == 0.0)

    def test_shared_starts_at_consensus(self):
        X = init_states(5, 7, "shared", np.random.default_rng(1))
        # averaging n identical columns can differ in the last ulp
        assert consensus_error(X) <= 1e-28
        assert np.any(X[:, 0] != 0.0)
        for i in range(1, 5):
            np.testing.assert_array_equal(X[:, i], X[:, 0])

    def test_independent_disagrees(self):
        X = init_states(2, 4, "independent", np.random.default_rng(2))
        assert consensus_error(X) > 0.0
        # one draw per client, in client order
        draws = np.random.default_rng(2)
        for i in range(2):
            np.testing.assert_array_equal(X[:, i], draws.standard_normal(4))

    def test_hand_computed_consensus_error(self):
        X = np.array([[0.0, 2.0]])
        assert consensus_error(X) == 1.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            init_states(2, 2, "warm", np.random.default_rng(0))


# Every rule as a function of (X, inputs) -> X', the oracles from a cold start.
RULES = {
    "fedndl1": round_fedndl1,
    "fedndl2": round_fedndl2,
    "fedndl3": round_fedndl3,
    "fednmut": lambda X, inputs: round_fednmut_array(X, 0 * X, 0 * X, inputs)[0],
    "fednmut-per-client": lambda X, i: stack_states(round_fednmut(states_from_columns(X), i)),
    "fednmut-matrix": lambda X, inputs: round_fednmut_matrix(init_network_state(X), inputs).X,
}


@pytest.mark.parametrize("rule", RULES)
def test_grads_called_once_per_round_at_the_rules_point(rule):
    mixing = build_mixing(TopologySpec(RING, 4))
    X, noises, G = np.random.default_rng(31).standard_normal((3, 3, 4))
    points = []

    def grads(Z):
        points.append(Z.copy())
        return G

    RULES[rule](X, RoundInputs(eta=0.1, W=mixing, grads=grads, noises=noises, mu=0.02))
    expected = (X + noises) @ mixing.weights if rule == "fedndl2" else X
    assert len(points) == 1
    np.testing.assert_array_equal(points[0], expected)


@pytest.mark.parametrize("rule,products", [("fedndl1", 1), ("fedndl2", 1), ("fedndl3", 1), ("fednmut", 2)])
def test_every_gossip_product_goes_through_apply(rule, products, apply_calls):
    mixing = build_mixing(TopologySpec(RING, 4))
    X, noises, G = np.random.default_rng(32).standard_normal((3, 3, 4))
    RULES[rule](X, fixed_inputs(0.1, mixing, G, noises, mu=0.02))
    assert apply_calls == [(3, 4)] * products


def test_round_inputs_are_frozen():
    inputs = fixed_inputs(0.1, single_client_mixing(), np.zeros((2, 1)), np.zeros((2, 1)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        inputs.eta = -1.0
    assert inputs.eta == 0.1


def test_dimension_mismatch_rejected():
    X = init_states(3, 2, "zeros", np.random.default_rng(0))
    ring3, ring4 = build_mixing(TopologySpec(RING, 3)), build_mixing(TopologySpec(RING, 4))
    right = np.zeros((2, 3))
    for rule in RULES.values():
        for W, noises, G in [(ring4, right, right), (ring3, np.zeros((3, 3)), right),
                             (ring3, right, np.zeros((2, 4)))]:
            with pytest.raises(ValueError, match="dimension mismatch"):
                rule(X, fixed_inputs(0.1, W, G, noises))
