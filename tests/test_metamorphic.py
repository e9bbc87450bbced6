"""Metamorphic relations: properties of whole runs that need no second implementation."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsim import harness
from dflsim.algorithms import X0_INDEPENDENT, X0_MODES, X0_SHARED
from dflsim.data import Problem
from dflsim.harness import ALGORITHMS, LrSchedule, RunConfig, Setup, eta_at
from dflsim.objective import batch_gradients, sample_batches
from dflsim.topology import FULLY_CONNECTED, RING, TORUS, TopologySpec


def states(config: RunConfig, setup: Setup) -> list:
    """Every (X, B) that harness._rounds yields for repeat 0 of config on setup."""
    return [(X, B) for _, _, X, B in harness._rounds(config, 0, setup)]


@pytest.mark.parametrize("algorithm, kind, x0_mode", itertools.product(
    ALGORITHMS, (RING, TORUS, FULLY_CONNECTED), (X0_SHARED, X0_INDEPENDENT)))
def test_doubled_labels_x0_and_noise_deviation_double_every_state(monkeypatch, algorithm, kind,
                                                                   x0_mode):
    """Each step is linear in x0, the labels and the noise's deviation, and a scale by 2 is exact.

    So an affine offset anywhere in a round, or noise scaled by its variance
    instead of its deviation, breaks the relation.
    """
    config = RunConfig(algorithm=algorithm, topology=TopologySpec(kind, 9), d=6, m=72, rounds=40,
                       lr=LrSchedule(eta0=0.05), batch_size=3, noise_variance=0.01,
                       repeats=1, x0_mode=x0_mode)
    setup = harness._setup(config)
    original = states(config, setup)

    problem = setup.problem
    dataset = replace(problem.dataset, labels=2.0 * problem.dataset.labels)
    doubled = Setup(Problem(dataset, problem.shards, problem.lam), setup.smoothness_lower,
                    setup.mixing)
    init_states = harness.init_states
    monkeypatch.setattr(harness, "init_states", lambda *args: 2.0 * init_states(*args))
    scaled = states(replace(config, noise_variance=4 * config.noise_variance), doubled)

    assert len(scaled) == len(original) == config.rounds + 1
    for (X, B), (X2, B2) in zip(original, scaled):
        assert np.array_equal(X2, 2.0 * X)
        assert (B is None and B2 is None) or np.array_equal(B2, 2.0 * B)
    assert (algorithm == "fednmut") == (original[-1][1] is not None)


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from((RING, TORUS, FULLY_CONNECTED)), seed=st.integers(0, 2**32 - 1),
       noise_variance=st.sampled_from((0.0, 0.01)), x0_mode=st.sampled_from(X0_MODES),
       gamma=st.sampled_from((1.0, 0.7)))
def test_fedndl2_half_a_round_on_is_fedndl1(kind, seed, noise_variance, x0_mode, gamma):
    """FedNDL1 steps then gossips, FedNDL2 gossips then steps: each is the other half a round on.

    FedNDL2 started from X0 - eta_0 G_0(X0), given FedNDL1's noise of round t
    and its picks and step of round t+1, gossips to FedNDL1's X_{t+1} in every
    round t. Both compute the same operations in the same order, so the match
    is bit for bit; noise or picks wired to the wrong round break it. At
    gamma = 1 the step is constant and its shift changes nothing.
    """
    rounds = 30
    config = RunConfig(algorithm="fedndl1", topology=TopologySpec(kind, 9), d=6, m=72,
                       rounds=rounds + 1, lr=LrSchedule(eta0=0.05, gamma=gamma, decay_interval=4),
                       batch_size=3, noise_variance=noise_variance, repeats=1, master_seed=seed,
                       x0_mode=x0_mode)
    setup = harness._setup(config)
    points, grads = [], []  # every gradient call's point and result

    def recording(Z, problem, picks):
        grads.append(batch_gradients(Z, problem, picks))
        points.append(Z)
        return grads[-1]

    def one_block_ahead(stream, sizes, batch_size):
        if not points:  # FedNDL2's round 0: round 0's block is spent in its start
            sample_batches(stream, sizes, batch_size)
        return sample_batches(stream, sizes, batch_size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "batch_gradients", recording)
        first = [X for _, _, X, _ in harness._rounds(config, 0, setup)]
        start = first[0] - eta_at(config.lr, 0) * grads[0]
        points.clear()
        mp.setattr(harness, "init_states", lambda *args: start)
        mp.setattr(harness, "sample_batches", one_block_ahead)
        mp.setattr(harness, "eta_at", lambda schedule, t: eta_at(schedule, t + 1))
        for _ in harness._rounds(replace(config, algorithm="fedndl2", rounds=rounds), 0, setup):
            pass
    assert len(points) == rounds
    for t, gossiped in enumerate(points):
        assert np.array_equal(gossiped, first[t + 1])
