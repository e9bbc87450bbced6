"""Fixtures shared by every test module."""

import pytest

from dflsim import harness


@pytest.fixture(autouse=True)
def empty_problem_memo():
    """Run each test from an empty problem memo, and leave none of its problems behind.

    Tests that count set-up calls then do not depend on the order they run in.
    """
    harness._problem.cache_clear()
    yield
    harness._problem.cache_clear()
