"""Metamorphic relations: properties of whole runs that need no second implementation."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from dflsim import harness
from dflsim.algorithms import X0_INDEPENDENT, X0_SHARED
from dflsim.data import Problem
from dflsim.harness import ALGORITHMS, LrSchedule, RunConfig, Setup
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
