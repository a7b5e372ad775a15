"""Checks that hold after every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """A test must leave no exited child behind: whoever forks reaps."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    assert pid == 0, f"child process {pid} exited and was never reaped"
