"""Gossip topologies and their mixing matrices.

Ring, torus, and fully connected graphs with uniform weights on the
nonzero entries (1/3, 1/5, and 1/n respectively). Every matrix is
symmetric and doubly stochastic by construction. The contraction factor
rho measures how much one gossip step shrinks client disagreement:

    ||(X - Xbar) W||_F^2 <= (1 - rho) ||X - Xbar||_F^2

with rho = 1 - lambda2^2, where lambda2 is the largest absolute
eigenvalue of W on the subspace orthogonal to the all-ones vector. Each
W is circulant or a Kronecker sum of circulants, so its spectrum is
known in closed form (Xiao & Boyd 2004; Boyd et al. 2006):
(1 + 2cos(2 pi j/n))/3 for j = 1..n-1 on the ring,
(1 + 2cos(2 pi a/k) + 2cos(2 pi b/k))/5 for (a, b) != (0, 0) on the k x k
torus, and 0 on the fully connected graph.

All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RING = "ring"
TORUS = "torus"
FULLY_CONNECTED = "full"
KINDS = (RING, TORUS, FULLY_CONNECTED)


# harness checks its config fields with this too; it sits here because harness imports topology
def require_integer(name: str, value) -> None:
    """Raise a TypeError naming the field unless value is an int or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TopologySpec:
    """Which communication graph to build and for how many clients."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        require_integer("n", self.n)
        if self.kind not in KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == RING and self.n < 3:
            raise ValueError(f"ring requires n >= 3, got n={self.n}")
        if self.kind == TORUS:
            k = math.isqrt(self.n)
            if k * k != self.n or k < 3:
                raise ValueError(f"torus requires n = k*k with k >= 3, got n={self.n}")
        if self.kind == FULLY_CONNECTED and self.n < 1:
            raise ValueError(f"{FULLY_CONNECTED} requires n >= 1, got n={self.n}")


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic gossip weights and their contraction factor.

    apply is the one gossip product: every rule, the contraction check
    and verify mix through it, so only this class knows W is dense.
    """

    weights: np.ndarray
    rho: float

    @property
    def n(self) -> int:
        """Number of clients, the side of W."""
        return self.weights.shape[0]

    def apply(self, X: np.ndarray) -> np.ndarray:
        """One gossip step on the d x n column matrix X: exactly X @ W."""
        return X @ self.weights


def build_mixing(spec: TopologySpec) -> MixingMatrix:
    """The mixing matrix of a topology spec, with rho from its closed-form spectrum.

    Ring row i has nonzeros 1/3 at {i-1, i, i+1} mod n. Torus rows have
    1/5 at self plus the four neighbors of a row-major k x k wrap-around
    grid. Fully connected is uniform 1/n. Each neighbor offset is one
    indexed assignment over all rows.
    """
    n = spec.n
    # others: W's eigenvalues besides the 1 of the all-ones direction
    if spec.kind == FULLY_CONNECTED:
        w, others = np.full((n, n), 1.0 / n), np.zeros(1)
    else:
        idx = np.arange(n)
        w = np.zeros((n, n))
        if spec.kind == RING:
            weight, cols = 1.0 / 3.0, [idx, (idx - 1) % n, (idx + 1) % n]
            others = (1.0 + 2.0 * np.cos(2.0 * np.pi * idx[1:] / n)) / 3.0
        else:
            k = math.isqrt(n)
            r, c = divmod(idx, k)
            steps = ((-1, 0), (1, 0), (0, -1), (0, 1))
            weight, cols = 0.2, [idx] + [(r + dr) % k * k + (c + dc) % k for dr, dc in steps]
            cos2 = 2.0 * np.cos(2.0 * np.pi * np.arange(k) / k)
            others = ((1.0 + cos2[:, None] + cos2[None, :]) / 5.0).ravel()[1:]  # drop (0, 0)
        for col in cols:
            w[idx, col] = weight
    w.flags.writeable = False
    lambda2 = float(np.max(np.abs(others)))
    return MixingMatrix(weights=w, rho=1.0 - lambda2 * lambda2)
