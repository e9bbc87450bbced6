"""One synchronous round of each decentralized update rule.

With X the d x n matrix of client parameter columns, G the matching
stochastic gradients, delta the channel noise (one draw per sender per
round, seen identically by every receiver), W the mixing matrix applied
across columns, and eta the step size:

    FedNDL1   X' = (X - eta G + delta) W          (step, then noisy gossip)
    FedNDL2   Xh = (X + delta) W;  X' = Xh - eta G(Xh)
    FedNDL3   X' = X - eta (G + delta) W          (gossip the gradients)
    FedNMUT   X' = X - eta (Y + delta)            (noisy update tracking)

FedNMUT clients broadcast a tracking variable y instead of parameters or
gradients. Each client keeps copies x_hat of its neighbors' parameters,
updated from the received broadcasts, so copies stay bit-identical to
the true values at every round boundary. Per client i with step eta and
scaling factor mu in [0, 1):

    Delta_i = g_i - (1/eta) sum_j w_ij (x_hat_j - x_i)
    y_i     = Delta_i + mu * [sum_j w_ij (yt_j_prev - (1/eta)(x_hat_j - x_i))
                              - Delta_i_prev]
    yt_i    = y_i + delta_i                        (broadcast)
    x_i'    = x_i - eta yt_i;  x_hat_j' = x_hat_j - eta yt_j

Sums run over N(i) including i itself (the self term uses the client's
own previous broadcast). Cold start: Delta_prev = 0, yt_prev = 0 and
x_hat_j = x_j, filled in lazily on the first round.

Since the copies equal their owners, the whole network runs the same
rule, up to rounding, as (Yt the broadcasts, B the bracket mu scales):

    gossip = (X W - X) / eta;  Delta = G - gossip
    B      = Yt_prev W - gossip - Delta_prev
    Yt     = Delta + mu B + delta;  X' = X - eta Yt

The harness runs this form, round_fednmut_array. Two forms stay as test
oracles: round_fednmut, client by client with the copies, which agrees
for any step-size schedule and start; and the matrix/bias form
round_fednmut_matrix,

    B  = -(1/eta_prev) [(X - X_prev)(2W - I) + eta_prev G_prev]
    X' = X W - eta (G + mu B + delta)

with X_prev = X and G_prev = 0 before the first round, so B starts at
zero, and eta_prev the step size of the round that produced X - X_prev.
It agrees only at a constant step size from a consensus start.

Each round is a synchronous barrier: all outgoing quantities are
computed from round-start state before any update is applied.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .theory_checks import tracking_condition
from .topology import MixingMatrix, neighbors

X0_ZEROS = "zeros"
X0_SHARED = "shared_random"
X0_INDEPENDENT = "independent_random"
X0_MODES = (X0_ZEROS, X0_SHARED, X0_INDEPENDENT)


@dataclass
class ClientState:
    """Parameters of one client plus FedNMUT tracking state (oracle only).

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


@dataclass
class RoundInputs:
    """Everything one synchronous round consumes.

    grads and noises hold one column per client; grads is None for
    FedNDL2, which evaluates gradients mid-round through a callback.
    """

    eta: float
    W: MixingMatrix
    grads: np.ndarray | None
    noises: np.ndarray
    mu: float = 0.0

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError(f"step size must be > 0, got eta={self.eta}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must be in [0, 1), got {self.mu}")


def stack_states(states: list[ClientState]) -> np.ndarray:
    """Column-stack client parameters into a d x n matrix."""
    return np.column_stack([s.x for s in states])


def _check_shapes(X: np.ndarray, inputs: RoundInputs) -> None:
    n = X.shape[1]
    if inputs.W.weights.shape != (n, n):
        raise ValueError(f"dimension mismatch: {n} clients vs mixing matrix {inputs.W.weights.shape}")
    if inputs.noises.shape != X.shape:
        raise ValueError(f"dimension mismatch: noises {inputs.noises.shape} vs states {X.shape}")
    if inputs.grads is not None and inputs.grads.shape != X.shape:
        raise ValueError(f"dimension mismatch: grads {inputs.grads.shape} vs states {X.shape}")


def round_fedndl1(X: np.ndarray, inputs: RoundInputs) -> np.ndarray:
    """Local SGD half-step, then gossip of noisy parameters."""
    _check_shapes(X, inputs)
    if inputs.grads is None:
        raise ValueError("round_fedndl1 needs precomputed gradients")
    return (X - inputs.eta * inputs.grads + inputs.noises) @ inputs.W.weights


def round_fedndl2(
    X: np.ndarray,
    inputs: RoundInputs,
    grad_fn: Callable[[int, np.ndarray], np.ndarray],
) -> np.ndarray:
    """Gossip noisy parameters first, then step with gradients at the gossiped point.

    grad_fn(i, x) returns client i's stochastic gradient at x; it is
    called exactly once per client per round.
    """
    _check_shapes(X, inputs)
    half = (X + inputs.noises) @ inputs.W.weights
    grads = np.column_stack([grad_fn(i, half[:, i]) for i in range(X.shape[1])])
    return half - inputs.eta * grads


def round_fedndl3(X: np.ndarray, inputs: RoundInputs) -> np.ndarray:
    """Gossip the noisy gradients, then take the mixed step."""
    _check_shapes(X, inputs)
    if inputs.grads is None:
        raise ValueError("round_fedndl3 needs precomputed gradients")
    return X - inputs.eta * ((inputs.grads + inputs.noises) @ inputs.W.weights)


def _warmed(states: list[ClientState], W: MixingMatrix) -> list[ClientState]:
    """Fill cold tracking state: copies of neighbor parameters, zeroed history."""
    d = states[0].x.shape[0]
    out = []
    for i, s in enumerate(states):
        if s.delta_prev is not None and s.y_tilde_prev:
            out.append(s)
            continue
        hood = neighbors(W, i)
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
    """Noisy model update tracking round, computed client by client (test oracle)."""
    X = stack_states(states)
    _check_shapes(X, inputs)
    if inputs.grads is None:
        raise ValueError("round_fednmut needs precomputed gradients")
    ratio, limit = tracking_condition(inputs.mu, inputs.W.rho)
    if ratio > limit:
        warnings.warn(
            f"mu/(1-mu) = {ratio:.4g} exceeds rho/42 = {limit:.4g}; "
            "outside the guaranteed-convergence regime",
            RuntimeWarning,
            stacklevel=2,
        )

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
        deltas[:, i] = inputs.grads[:, i] - gossip
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


def round_fednmut_array(
    X: np.ndarray, y_tilde_prev: np.ndarray, delta_prev: np.ndarray, inputs: RoundInputs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One tracking round on the whole network: round_fednmut without the copies.

    y_tilde_prev and delta_prev are the previous round's broadcasts and
    Deltas, both zero before the first round. Returns (X', y_tilde,
    delta, B), with B the d x n correction that mu scales this round.
    """
    _check_shapes(X, inputs)
    if inputs.grads is None:
        raise ValueError("round_fednmut_array needs precomputed gradients")
    w = inputs.W.weights
    gossip = (X @ w - X) / inputs.eta
    delta = inputs.grads - gossip
    bias = y_tilde_prev @ w - gossip - delta_prev
    y_tilde = delta + inputs.mu * bias + inputs.noises
    return X - inputs.eta * y_tilde, y_tilde, delta, bias


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
    """Matrix/bias form of the tracking round, a test oracle for round_fednmut.

    It equals the tracking form only at a constant step size from a
    consensus start. Over 100 noisy rounds on 4 to 9 clients (d=16,
    eta0=0.05, mu=0.02), X drifts from it by 2e-4 to 3e-4 when eta decays
    by 0.9 every 10 rounds, and by about 5e-2 from independent starts.
    """
    _check_shapes(netstate.X, inputs)
    if inputs.grads is None:
        raise ValueError("round_fednmut_matrix needs precomputed gradients")
    w = inputs.W.weights
    n = netstate.X.shape[1]
    eta_b = netstate.eta_prev if netstate.eta_prev is not None else inputs.eta
    two_w_minus_i = 2.0 * w - np.eye(n)
    B = -((netstate.X - netstate.X_prev) @ two_w_minus_i) / eta_b - netstate.G_prev
    new_X = netstate.X @ w - inputs.eta * (inputs.grads + inputs.mu * B + inputs.noises)
    return NetworkState(
        X=new_X,
        B=B,
        X_prev=netstate.X.copy(),
        G_prev=inputs.grads.copy(),
        eta_prev=inputs.eta,
    )


def init_states(n: int, d: int, x0_mode: str, rng: np.random.Generator) -> np.ndarray:
    """Initial d x n parameter matrix, one column per client.

    Modes: zeros, shared_random (one draw copied to all clients), or
    independent_random (one draw per client, in client order).
    """
    if x0_mode == X0_ZEROS:
        return np.zeros((d, n))
    if x0_mode == X0_SHARED:
        return np.tile(rng.standard_normal(d)[:, None], (1, n))
    if x0_mode == X0_INDEPENDENT:
        return rng.standard_normal((n, d)).T.copy()
    raise ValueError(f"unknown x0 mode {x0_mode!r}, expected one of {X0_MODES}")
