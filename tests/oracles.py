"""Test oracles: two forms of the FedNMUT round, the per-vector objective, eigensolved rho.

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

local_loss, global_loss and stochastic_gradient are the per-vector
objective, the references for dflsim.metrics' block passes and
dflsim.objective.batch_gradients (client_picks turns a minibatch block
into each client's picks). metrics_row computes a state's metrics
from them, the reference for dflsim.metrics.measure_block.

spectral_contraction takes rho from a dense eigensolve of any symmetric
doubly stochastic matrix, the reference for the closed-form rho of
dflsim.topology.build_mixing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dflsim.algorithms import RoundInputs, _check_shapes, _gradients
from dflsim.data import Dataset, Shard
from dflsim.metrics import consensus_error, mean_iterate
from dflsim.topology import MixingMatrix

# lambda2 >= 1 - this means the gossip graph is effectively disconnected
_DEGENERATE_TOL = 1e-12


def tiny_dataset(features, labels) -> Dataset:
    """A noiseless Dataset over the given rows, for hand-computed cases."""
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m, d = features.shape
    return Dataset(
        m=m, d=d, features=features, labels=labels, true_w=np.zeros(d), label_noise_variance=0.0, seed=0
    )


def _shard_view(shard: Shard, dataset: Dataset):
    if shard.size <= 0:
        raise ValueError(f"empty shard for client {shard.client}")
    return dataset.features[shard.start : shard.stop], dataset.labels[shard.start : shard.stop]


def local_loss(x: np.ndarray, shard: Shard, dataset: Dataset, lam: float) -> float:
    """Mean squared residual over the shard plus the ridge penalty."""
    feats, labels = _shard_view(shard, dataset)
    residual = feats @ x - labels
    return float(residual @ residual / shard.size + lam * (x @ x))


def global_loss(x: np.ndarray, dataset: Dataset, lam: float) -> float:
    """Loss over the full dataset; what the reported loss curves plot."""
    return local_loss(x, Shard(client=-1, start=0, stop=dataset.m), dataset, lam)


def stochastic_gradient(
    x: np.ndarray, shard: Shard, dataset: Dataset, lam: float, picks: np.ndarray | None = None
) -> np.ndarray:
    """Gradient over the shard rows at offsets picks, or over the whole shard for None."""
    feats, labels = _shard_view(shard, dataset)
    if picks is not None:
        feats = feats[picks]
        labels = labels[picks]
    residual = feats @ x - labels
    return (2.0 / residual.size) * (feats.T @ residual) + 2.0 * lam * x


def client_picks(picks: np.ndarray | None, shards: list[Shard]) -> list[np.ndarray | None]:
    """Each shard's picks for stochastic_gradient: its row of the block, None when taken whole.

    batch_gradients reads row i of a sample_batches block only when shard i
    is larger than the batch, picks.shape[1].
    """
    if picks is None:
        return [None] * len(shards)
    return [row if shard.size > picks.shape[1] else None for shard, row in zip(shards, picks)]


def finite_difference_gradient(x, shard, dataset, lam, step=1e-5):
    """Central differences of local_loss, one coordinate at a time."""
    grad = np.zeros_like(x)
    for k in range(x.size):
        bump = np.zeros_like(x)
        bump[k] = step
        grad[k] = (
            local_loss(x + bump, shard, dataset, lam) - local_loss(x - bump, shard, dataset, lam)
        ) / (2 * step)
    return grad


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


def spectral_contraction(weights: np.ndarray) -> float:
    """Contraction factor rho = 1 - lambda2^2 of a symmetric doubly stochastic matrix.

    Raises ValueError when lambda2 = 1 within tolerance (disconnected
    graph, no contraction).
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if n == 1:
        return 1.0
    # Subtracting the projector onto the all-ones direction replaces the
    # trivial eigenvalue 1 with 0, leaving the spectrum on its complement.
    deflated = w - np.full((n, n), 1.0 / n)
    lambda2 = float(np.max(np.abs(np.linalg.eigvalsh(deflated))))
    if lambda2 >= 1.0 - _DEGENERATE_TOL:
        raise ValueError(f"degenerate mixing matrix: lambda2={lambda2!r} gives rho <= 0 (disconnected graph)")
    return 1.0 - lambda2 * lambda2
