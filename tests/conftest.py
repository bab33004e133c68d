import os
import random

import pytest

from liftlab.expr import VarId
from liftlab.geometry import Chart


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, such as a snapshot
    writer that outlived its run; a finished one is reaped here."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left child process {pid} (wait status {status})" if pid
                else "the test left a child process running")


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def xy():
    return VarId("x", 0), VarId("y", 1)


@pytest.fixture
def chart2():
    return Chart.make("x", "y")


@pytest.fixture
def chart3():
    return Chart.make("x", "y", "z")
