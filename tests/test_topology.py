"""Mixing matrix construction, closed-form contraction factor, neighbor sets."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from oracles import spectral_contraction

from dflsim import topology
from dflsim.topology import (
    FULLY_CONNECTED,
    RING,
    TORUS,
    MixingMatrix,
    TopologySpec,
    build_mixing,
)

# every valid spec with n <= 256, plus the ring and torus at n = 1024
VALID_SPECS = (
    [TopologySpec(RING, n) for n in range(3, 257)]
    + [TopologySpec(TORUS, k * k) for k in range(3, 17)]
    + [TopologySpec(FULLY_CONNECTED, n) for n in range(1, 257)]
    + [TopologySpec(RING, 1024), TopologySpec(TORUS, 1024)]
)


def ring_rho_oracle(n: int) -> float:
    """Circulant eigenvalues (1 + 2cos(2 pi k / n)) / 3, independent of the eigensolver."""
    lams = [(1.0 + 2.0 * np.cos(2.0 * np.pi * k / n)) / 3.0 for k in range(1, n)]
    lam2 = max(abs(v) for v in lams)
    return 1.0 - lam2 * lam2


def torus_rho_oracle(k: int) -> float:
    """Product-of-cycles eigenvalues (1 + 2cos(2 pi k1/k) + 2cos(2 pi k2/k)) / 5."""
    lams = [
        abs((1.0 + 2.0 * np.cos(2.0 * np.pi * k1 / k) + 2.0 * np.cos(2.0 * np.pi * k2 / k)) / 5.0)
        for k1 in range(k)
        for k2 in range(k)
        if (k1, k2) != (0, 0)
    ]
    lam2 = max(lams)
    return 1.0 - lam2 * lam2


@pytest.mark.parametrize("kind", [RING, TORUS, FULLY_CONNECTED])
def test_symmetric_doubly_stochastic_n16(kind):
    w = build_mixing(TopologySpec(kind, 16)).weights
    assert np.array_equal(w, w.T)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
    assert w.min() >= 0.0


def test_full_graph_entries():
    w = build_mixing(TopologySpec(FULLY_CONNECTED, 16)).weights
    np.testing.assert_array_equal(w, np.full((16, 16), 1.0 / 16.0))


def test_full_graph_single_client():
    m = build_mixing(TopologySpec(FULLY_CONNECTED, 1))
    np.testing.assert_array_equal(m.weights, [[1.0]])
    assert m.rho == 1.0


@pytest.mark.parametrize("n", [3, 4, 5, 16, 64])
def test_ring_structure(n):
    w = build_mixing(TopologySpec(RING, n)).weights
    for i in range(n):
        hood = {(i - 1) % n, i, (i + 1) % n}
        for j in range(n):
            assert w[i, j] == (1.0 / 3.0 if j in hood else 0.0)


def test_torus_rows_have_five_fifths():
    w = build_mixing(TopologySpec(TORUS, 16)).weights
    for i in range(16):
        nz = np.nonzero(w[i])[0]
        assert len(nz) == 5
        assert np.all(w[i, nz] == 0.2)


def test_rho_against_analytic_oracles():
    ring = build_mixing(TopologySpec(RING, 16))
    torus = build_mixing(TopologySpec(TORUS, 16))
    full = build_mixing(TopologySpec(FULLY_CONNECTED, 16))
    assert abs(ring.rho - ring_rho_oracle(16)) <= 1e-9
    assert abs(torus.rho - torus_rho_oracle(4)) <= 1e-9
    assert abs(torus.rho - 0.64) <= 1e-9
    assert full.rho == 1.0
    # frozen values from the oracles
    assert abs(ring.rho - 0.0989187008424176) <= 1e-9


def test_neighbor_sets():
    # N(i) = {j : w_ij > 0}, self included
    ring = build_mixing(TopologySpec(RING, 16)).weights
    assert set(np.nonzero(ring[0] > 0)[0]) == {15, 0, 1}
    full4 = build_mixing(TopologySpec(FULLY_CONNECTED, 4)).weights
    assert set(np.nonzero(full4[2] > 0)[0]) == {0, 1, 2, 3}
    torus = build_mixing(TopologySpec(TORUS, 16)).weights
    assert set(np.nonzero(torus[0] > 0)[0]) == {0, 1, 3, 4, 12}


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_torus_neighbors_match_grid_adjacency_oracle(k):
    torus = build_mixing(TopologySpec(TORUS, k * k))
    for r in range(k):
        for c in range(k):
            i = r * k + c
            expected = {
                i,
                ((r - 1) % k) * k + c,
                ((r + 1) % k) * k + c,
                r * k + (c - 1) % k,
                r * k + (c + 1) % k,
            }
            assert set(np.nonzero(torus.weights[i] > 0)[0]) == expected


@pytest.mark.parametrize(
    "kind,n",
    [(RING, 2), (RING, 1), (TORUS, 8), (TORUS, 4), (TORUS, 15), (FULLY_CONNECTED, 0)],
)
def test_invalid_specs_rejected(kind, n):
    with pytest.raises(ValueError):
        TopologySpec(kind, n)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        TopologySpec("star", 4)


def test_degenerate_matrix_rejected():
    with pytest.raises(ValueError, match="degenerate"):
        spectral_contraction(np.eye(4))
    disconnected = np.zeros((4, 4))
    disconnected[:2, :2] = 0.5
    disconnected[2:, 2:] = 0.5
    with pytest.raises(ValueError, match="degenerate"):
        spectral_contraction(disconnected)


@pytest.mark.parametrize("kind", [RING, TORUS, FULLY_CONNECTED])
def test_contraction_inequality_random_matrices(kind):
    mixing = build_mixing(TopologySpec(kind, 16))
    rng = np.random.default_rng(42)
    bound = 1.0 - mixing.rho + 1e-9
    for _ in range(300):
        X = rng.standard_normal((8, 16))
        dev = X - X.mean(axis=1, keepdims=True)
        lhs = ((dev @ mixing.weights) ** 2).sum()
        assert lhs <= bound * (dev * dev).sum()


@pytest.mark.parametrize("kind", [RING, TORUS, FULLY_CONNECTED])
def test_gossip_preserves_mean(kind):
    mixing = build_mixing(TopologySpec(kind, 16))
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 16))
    np.testing.assert_allclose(
        (X @ mixing.weights.T).mean(axis=1), X.mean(axis=1), atol=1e-10
    )
    ones = np.ones(16)
    np.testing.assert_allclose(mixing.weights @ ones, ones, atol=1e-12)
    np.testing.assert_allclose(ones @ mixing.weights, ones, atol=1e-12)


def test_rho_matches_eigensolver_oracle():
    worst = max(abs(m.rho - spectral_contraction(m.weights)) for m in map(build_mixing, VALID_SPECS))
    assert worst <= 1e-12


def test_apply_is_bit_identical_to_the_dense_product():
    rng = np.random.default_rng(5)
    for spec in VALID_SPECS:
        m = build_mixing(spec)
        assert m.n == spec.n
        # C-ordered, and F-ordered like the harness's (n, d).T noise block
        for X in (rng.standard_normal((3, spec.n)), rng.standard_normal((spec.n, 3)).T):
            assert np.array_equal(m.apply(X), X @ m.weights), spec


def test_only_topology_reads_the_stored_weights():
    # every other module gossips through MixingMatrix.apply, so W's storage can change in one place
    sources = Path(topology.__file__).parent.glob("*.py")
    readers = sorted(p.name for p in sources if ".weights" in p.read_text())
    assert readers == ["topology.py"]


def test_mixing_holds_weights_and_rho_only():
    assert [f.name for f in dataclasses.fields(MixingMatrix)] == ["weights", "rho"]


def test_mixing_is_frozen():
    mixing = build_mixing(TopologySpec(RING, 9))
    with pytest.raises(dataclasses.FrozenInstanceError):
        mixing.rho = 1.0
    assert mixing.rho == build_mixing(TopologySpec(RING, 9)).rho


@pytest.mark.parametrize("kind", [RING, TORUS, FULLY_CONNECTED])
def test_build_needs_no_eigensolver(kind, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("build_mixing must not call an eigensolver")

    for name in ("eigvalsh", "eigh", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    mixing = build_mixing(TopologySpec(kind, 1024))
    assert mixing.weights.shape == (1024, 1024) and 0.0 < mixing.rho <= 1.0
