"""One synchronous round of each decentralized update rule.

With X the d x n matrix of client parameter columns, G = grads(X) the
matching stochastic gradients (every rule calls grads once per round),
delta the channel noise (one draw per sender per round, seen identically
by every receiver), W the mixing matrix applied across columns, and eta
the step size:

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

The harness runs this form, round_fednmut_array. tests/oracles.py keeps
the per-client form with the copies, and the paper's matrix/bias form,
as test oracles.

Each round is a synchronous barrier: all outgoing quantities are
computed from round-start state before any update is applied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .topology import MixingMatrix

X0_ZEROS = "zeros"
X0_SHARED = "shared_random"
X0_INDEPENDENT = "independent_random"
X0_MODES = (X0_ZEROS, X0_SHARED, X0_INDEPENDENT)


@dataclass
class RoundInputs:
    """Everything one synchronous round consumes.

    grads(Z) maps a d x n point to the d x n matrix of every client's
    stochastic gradient there; a rule calls it exactly once per round.
    noises holds one column per client. Only the FedNMUT rules read mu.
    """

    eta: float
    W: MixingMatrix
    grads: Callable[[np.ndarray], np.ndarray]
    noises: np.ndarray
    mu: float = 0.0

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError(f"step size must be > 0, got eta={self.eta}")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError(f"mu must be in [0, 1), got {self.mu}")


def _check_shapes(X: np.ndarray, inputs: RoundInputs) -> None:
    n = X.shape[1]
    if inputs.W.weights.shape != (n, n):
        raise ValueError(f"dimension mismatch: {n} clients vs mixing matrix {inputs.W.weights.shape}")
    if inputs.noises.shape != X.shape:
        raise ValueError(f"dimension mismatch: noises {inputs.noises.shape} vs states {X.shape}")


def _gradients(Z: np.ndarray, inputs: RoundInputs) -> np.ndarray:
    """The round's one grads call, at the d x n point Z."""
    G = inputs.grads(Z)
    if G.shape != Z.shape:
        raise ValueError(f"dimension mismatch: grads {G.shape} vs states {Z.shape}")
    return G


def round_fedndl1(X: np.ndarray, inputs: RoundInputs) -> np.ndarray:
    """Local SGD half-step, then gossip of noisy parameters."""
    _check_shapes(X, inputs)
    return (X - inputs.eta * _gradients(X, inputs) + inputs.noises) @ inputs.W.weights


def round_fedndl2(X: np.ndarray, inputs: RoundInputs) -> np.ndarray:
    """Gossip noisy parameters first, then step with gradients at the gossiped point."""
    _check_shapes(X, inputs)
    half = (X + inputs.noises) @ inputs.W.weights
    return half - inputs.eta * _gradients(half, inputs)


def round_fedndl3(X: np.ndarray, inputs: RoundInputs) -> np.ndarray:
    """Gossip the noisy gradients, then take the mixed step."""
    _check_shapes(X, inputs)
    return X - inputs.eta * ((_gradients(X, inputs) + inputs.noises) @ inputs.W.weights)


def round_fednmut_array(
    X: np.ndarray, y_tilde_prev: np.ndarray, delta_prev: np.ndarray, inputs: RoundInputs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One tracking round on the whole network: the per-client rule without the copies.

    y_tilde_prev and delta_prev are the previous round's broadcasts and
    Deltas, both zero before the first round. Returns (X', y_tilde,
    delta, B), with B the d x n correction that mu scales this round.
    """
    _check_shapes(X, inputs)
    G = _gradients(X, inputs)
    w = inputs.W.weights
    gossip = (X @ w - X) / inputs.eta
    delta = G - gossip
    bias = y_tilde_prev @ w - gossip - delta_prev
    y_tilde = delta + inputs.mu * bias + inputs.noises
    return X - inputs.eta * y_tilde, y_tilde, delta, bias


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
