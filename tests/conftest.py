"""Fixtures shared by every test module."""

import pytest

from dflsim import harness
from dflsim.topology import MixingMatrix


@pytest.fixture(autouse=True)
def empty_problem_memo():
    """Run each test from an empty problem memo, and leave none of its problems behind.

    Tests that count set-up calls then do not depend on the order they run in.
    """
    harness._problem.cache_clear()
    yield
    harness._problem.cache_clear()


@pytest.fixture
def apply_calls(monkeypatch):
    """Count gossip products: the returned list grows by one per MixingMatrix.apply call."""
    calls = []
    apply = MixingMatrix.apply

    def counting(self, X):
        calls.append(X.shape)
        return apply(self, X)

    monkeypatch.setattr(MixingMatrix, "apply", counting)
    return calls
