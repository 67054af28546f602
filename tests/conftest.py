import multiprocessing
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from schauderlab.domain_grid import make_grid


@pytest.fixture(scope="session")
def grid65():
    return make_grid(2, 1.0, 65)


@pytest.fixture(scope="session")
def grid129():
    return make_grid(2, 1.0, 129)


@pytest.fixture(scope="session")
def grid257():
    return make_grid(2, 1.0, 257)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


def traced_peak(fn, *args):
    """(fn(*args), the peak in bytes of the Python memory the call
    allocated). tracemalloc sees this process only."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _live_children() -> set:
    """Pids of this process's children that have not exited: the
    multiprocessing ones, and on Linux every one /proc lists."""
    live = {p.pid for p in multiprocessing.active_children()}
    for pid in {pid for path in Path("/proc/self/task").glob("*/children") for pid in path.read_text().split()}:
        try:
            state = Path("/proc", pid, "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:  # exited and reaped since it was listed
            continue
        if state != "Z":
            live.add(int(pid))
    return live


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process alive, such as a worker of an
    ensemble pool that was never joined."""
    before = _live_children()
    yield
    left = sorted(_live_children() - before)
    assert not left, f"child processes left running: {left}"
