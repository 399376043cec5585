import multiprocessing
from contextlib import ExitStack

import pytest

from fairgame import parallel


def _scaled(item, factor, offset):
    """Module level, so that a pool can send it to its workers."""
    return (item * factor + offset, multiprocessing.parent_process() is not None)


@pytest.mark.parametrize(
    "cpus, num_items, min_items, pool",
    [
        (4, 3, 2, [3]),  # fewer items than CPUs: one worker per item
        (2, 5, 2, [2]),
        (2, 1, 2, []),  # below min_items
        (1, 5, 2, []),  # one CPU
    ],
)
def test_ordered_map_pool_policy(monkeypatch, recorded_pools, cpus, num_items, min_items, pool):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    items = list(range(num_items))
    with ExitStack() as stack:
        results = list(parallel.ordered_map(stack, _scaled, items, min_items, context=(3, 1)))
    assert recorded_pools == pool
    assert results == [(3 * k + 1, bool(pool)) for k in items]
    assert multiprocessing.active_children() == []
