"""Two independent forms of the FedNMUT round, kept as test oracles.

Runs use dflsim.algorithms.round_fednmut_array. round_fednmut computes
the same round client by client, with each client's copies x_hat of its
neighbors' parameters and its received broadcasts; it agrees with the
array kernel for any step-size schedule and start. round_fednmut_matrix
is the matrix/bias form,

    B  = -(1/eta_prev) [(X - X_prev)(2W - I) + eta_prev G_prev]
    X' = X W - eta (G + mu B + delta)

with X_prev = X and G_prev = 0 before the first round, so B starts at
zero, and eta_prev the step size of the round that produced X - X_prev.
It agrees only at a constant step size from a consensus start.

metrics_row computes a state's metrics from the objective's own
per-state calls, the reference for dflsim.metrics.measure_block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dflsim.algorithms import RoundInputs, _check_shapes, _gradients
from dflsim.data import Dataset, Shard
from dflsim.metrics import consensus_error, mean_iterate
from dflsim.objective import global_loss, local_loss, stochastic_gradient
from dflsim.topology import MixingMatrix


@dataclass
class ClientState:
    """Parameters of one client plus FedNMUT tracking state.

    x_hat maps neighbor index (excluding self) to the local copy of that
    neighbor's parameters; y_tilde_prev maps every neighbor including
    self to its last received broadcast. Both stay empty until the first
    FedNMUT round.
    """

    x: np.ndarray
    x_hat: dict[int, np.ndarray] = field(default_factory=dict)
    delta_prev: np.ndarray | None = None
    y_tilde_prev: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class NetworkState:
    """Stacked parameters plus the bias bookkeeping of the matrix form."""

    X: np.ndarray
    B: np.ndarray
    X_prev: np.ndarray
    G_prev: np.ndarray
    eta_prev: float | None = None


def stack_states(states: list[ClientState]) -> np.ndarray:
    """Column-stack client parameters into a d x n matrix."""
    return np.column_stack([s.x for s in states])


def _warmed(states: list[ClientState], W: MixingMatrix) -> list[ClientState]:
    """Fill cold tracking state: copies of neighbor parameters, zeroed history."""
    d = states[0].x.shape[0]
    out = []
    for i, s in enumerate(states):
        if s.delta_prev is not None and s.y_tilde_prev:
            out.append(s)
            continue
        hood = np.nonzero(W.weights[i] > 0.0)[0].tolist()
        out.append(
            ClientState(
                x=s.x,
                x_hat={j: states[j].x.copy() for j in hood if j != i},
                delta_prev=np.zeros(d),
                y_tilde_prev={j: np.zeros(d) for j in hood},
            )
        )
    return out


def round_fednmut(states: list[ClientState], inputs: RoundInputs) -> list[ClientState]:
    """Noisy model update tracking round, computed client by client."""
    X = stack_states(states)
    _check_shapes(X, inputs)
    G = _gradients(X, inputs)
    warm = _warmed(states, inputs.W)
    w = inputs.W.weights
    d, n = X.shape

    # Phase 1: every outgoing broadcast from round-start state.
    deltas = np.zeros((d, n))
    y_tilde = np.zeros((d, n))
    for i, s in enumerate(warm):
        gossip = np.zeros(d)
        correction = np.zeros(d)
        for j, yt in s.y_tilde_prev.items():
            x_hat_j = s.x if j == i else s.x_hat[j]
            diff = (x_hat_j - s.x) / inputs.eta
            gossip += w[i, j] * diff
            correction += w[i, j] * (yt - diff)
        deltas[:, i] = G[:, i] - gossip
        y_i = deltas[:, i] + inputs.mu * (correction - s.delta_prev)
        y_tilde[:, i] = y_i + inputs.noises[:, i]

    # Phase 2: apply updates; receivers apply the exact broadcast vector,
    # keeping x_hat bit-identical to the owner's parameters.
    out = []
    for i, s in enumerate(warm):
        new_x = s.x - inputs.eta * y_tilde[:, i]
        new_hat = {j: s.x_hat[j] - inputs.eta * y_tilde[:, j] for j in s.x_hat}
        new_yt = {j: y_tilde[:, j].copy() for j in s.y_tilde_prev}
        out.append(
            ClientState(x=new_x, x_hat=new_hat, delta_prev=deltas[:, i].copy(), y_tilde_prev=new_yt)
        )
    return out


def init_network_state(X0: np.ndarray) -> NetworkState:
    """Matrix-form state before any round: bias starts at zero."""
    return NetworkState(
        X=X0.copy(),
        B=np.zeros_like(X0),
        X_prev=X0.copy(),
        G_prev=np.zeros_like(X0),
        eta_prev=None,
    )


def round_fednmut_matrix(netstate: NetworkState, inputs: RoundInputs) -> NetworkState:
    """Matrix/bias form of the tracking round, an oracle for round_fednmut.

    It equals the tracking form only at a constant step size from a
    consensus start. Over 100 noisy rounds on 4 to 9 clients (d=16,
    eta0=0.05, mu=0.02), X drifts from it by 2e-4 to 3e-4 when eta decays
    by 0.9 every 10 rounds, and by about 5e-2 from independent starts.
    """
    _check_shapes(netstate.X, inputs)
    G = _gradients(netstate.X, inputs)
    w = inputs.W.weights
    n = netstate.X.shape[1]
    eta_b = netstate.eta_prev if netstate.eta_prev is not None else inputs.eta
    two_w_minus_i = 2.0 * w - np.eye(n)
    B = -((netstate.X - netstate.X_prev) @ two_w_minus_i) / eta_b - netstate.G_prev
    new_X = netstate.X @ w - inputs.eta * (G + inputs.mu * B + inputs.noises)
    return NetworkState(
        X=new_X,
        B=B,
        X_prev=netstate.X.copy(),
        G_prev=G.copy(),
        eta_prev=inputs.eta,
    )


def metrics_row(X: np.ndarray, dataset: Dataset, lam: float, shards: list[Shard]) -> list[float]:
    """Loss, consensus error, squared gradient norm and mean local loss of the d x n state X."""
    xbar = mean_iterate(X)
    grad = stochastic_gradient(xbar, Shard(client=-1, start=0, stop=dataset.m), dataset, lam)
    local = [local_loss(X[:, i], s, dataset, lam) for i, s in enumerate(shards)]
    return [global_loss(xbar, dataset, lam), consensus_error(X), float(grad @ grad), float(np.mean(local))]
