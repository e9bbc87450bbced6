"""Gossip topologies and their mixing matrices.

Ring, torus, and fully connected graphs with uniform weights on the
nonzero entries (1/3, 1/5, and 1/n respectively). Every matrix is
symmetric and doubly stochastic by construction. The contraction factor
rho measures how much one gossip step shrinks client disagreement:

    ||(X - Xbar) W||_F^2 <= (1 - rho) ||X - Xbar||_F^2

with rho = 1 - lambda2^2, where lambda2 is the largest absolute
eigenvalue of W on the subspace orthogonal to the all-ones vector.

All functions here are pure and safe to call from any thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

RING = "ring"
TORUS = "torus"
FULLY_CONNECTED = "fully_connected"
KINDS = (RING, TORUS, FULLY_CONNECTED)

# lambda2 >= 1 - this means the gossip graph is effectively disconnected
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class TopologySpec:
    """Which communication graph to build and for how many clients."""

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == RING and self.n < 3:
            raise ValueError(f"ring requires n >= 3, got n={self.n}")
        if self.kind == TORUS:
            k = math.isqrt(self.n)
            if k * k != self.n or k < 3:
                raise ValueError(f"torus requires n = k*k with k >= 3, got n={self.n}")
        if self.kind == FULLY_CONNECTED and self.n < 1:
            raise ValueError(f"fully_connected requires n >= 1, got n={self.n}")


@dataclass
class MixingMatrix:
    """Symmetric doubly stochastic gossip weights plus their contraction factor."""

    n: int
    weights: np.ndarray
    rho: float


def build_mixing(spec: TopologySpec) -> MixingMatrix:
    """Construct the mixing matrix for a topology spec.

    Ring row i has nonzeros 1/3 at {i-1, i, i+1} mod n. Torus rows have
    1/5 at self plus the four neighbors of a row-major k x k wrap-around
    grid. Fully connected is uniform 1/n.
    """
    n = spec.n
    w = np.zeros((n, n))
    if spec.kind == FULLY_CONNECTED:
        w[:] = 1.0 / n
    elif spec.kind == RING:
        for i in range(n):
            w[i, i] = 1.0 / 3.0
            w[i, (i - 1) % n] = 1.0 / 3.0
            w[i, (i + 1) % n] = 1.0 / 3.0
    else:
        k = math.isqrt(n)
        for r in range(k):
            for c in range(k):
                i = r * k + c
                w[i, i] = 0.2
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    w[i, (rr % k) * k + (cc % k)] = 0.2
    w.flags.writeable = False
    return MixingMatrix(n=n, weights=w, rho=spectral_contraction(w))


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

