"""Fixtures shared by the test modules."""

import os
import time
import tracemalloc
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def src_env() -> dict:
    """This process's environment with the repository's src/ first on
    PYTHONPATH, for a child interpreter that imports acdkit from the tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def assert_task_count():
    """assert_task_count(n) asserts that this process runs n threads.

    A thread that a product starts, or that a join or a pool stop ends,
    can show in /proc/self/task a moment after the call returns, on a
    loaded machine; so the count is read again until it is n or 10 s have
    passed, and the last count read is asserted."""
    def check(expected: int) -> None:
        deadline = time.monotonic() + 10.0
        while ((count := len(os.listdir("/proc/self/task"))) != expected
               and time.monotonic() < deadline):
            time.sleep(0.001)
        assert count == expected, f"{count} threads, expected {expected}"

    return check


@pytest.fixture
def traced_peak():
    """traced_peak(f, *args, **kwargs) calls f and returns (its result, the
    tracemalloc peak in bytes during the call); what the call returns is
    still allocated when the peak is read."""
    def call(f, *args, **kwargs):
        tracemalloc.start()
        try:
            result = f(*args, **kwargs)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return call
