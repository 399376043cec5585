import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_live_child_processes():
    """Fail a test that leaves a multiprocessing child running; the leftover
    children are stopped first, so that later tests are not blamed for them."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join()
    assert not children, f"the test left live child processes: {children}"


@pytest.fixture
def snapshot_pools(monkeypatch):
    """Two CPUs for the snapshot writer whatever the machine has, and a
    record of the pool sizes it makes."""
    from fairgame import learning

    made = []

    class RecordingPool(learning.ProcessPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(learning.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(learning, "ProcessPoolExecutor", RecordingPool)
    return made
