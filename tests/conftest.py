"""The fork gate of `harness.forked`, forced open or shut, for the tests of both of its paths."""

import contextlib
import multiprocessing

import pytest

from normcontrol import harness

CAN_FORK = "fork" in multiprocessing.get_all_start_methods()

# The answers of harness._fork_allowed that a test of both paths runs under: open
# (a forked child) where this platform can fork, then shut (one process).
FORK_GATES = (True, False) if CAN_FORK else (False,)


@contextlib.contextmanager
def fork_gate(allowed: bool):
    """harness._fork_allowed forced to answer `allowed` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_fork_allowed", lambda *conditions: allowed)
        yield


@pytest.fixture
def forks(monkeypatch):
    """The fork gate forced open, so harness.forked makes a child even on one CPU;
    skipped where this platform cannot fork."""
    if not CAN_FORK:
        pytest.skip("this platform cannot fork")
    monkeypatch.setattr(harness, "_fork_allowed", lambda *conditions: True)
    return monkeypatch
