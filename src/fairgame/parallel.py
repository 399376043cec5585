"""The one process-pool policy of the library: an in-order map that spreads
its items over the CPUs of a top-level process and runs in-process
elsewhere."""

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from functools import partial
from typing import Callable, Iterator, Sequence

# a pool worker's ``context``, set once per worker by ``_set_context``
_context: tuple = ()


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask)."""
    return len(os.sched_getaffinity(0))


def _set_context(context: tuple) -> None:
    global _context
    _context = context


def _call(fn: Callable, item):
    return fn(item, *_context)


def ordered_map(
    stack: ExitStack, fn: Callable, items: Sequence, min_items: int, context: tuple = ()
) -> Iterator:
    """``fn(item, *context)`` for each item, yielded in item order.

    The items run on a process pool of ``min(CPUs, len(items))`` workers
    when there are at least ``min_items`` of them, more than one CPU, and
    this process is not a multiprocessing child (a ``--jobs`` sweep worker
    or a pool worker, whose siblings already fill the CPUs); in-process
    otherwise. ``context`` reaches each worker once, through the pool's
    initializer, so a task carries only its item. The pool lives until
    ``stack`` closes, and a worker's error is raised where its result is
    read.
    """
    cpus = usable_cpus()
    if len(items) >= min_items and cpus > 1 and multiprocessing.parent_process() is None:
        pool = stack.enter_context(
            ProcessPoolExecutor(
                min(cpus, len(items)), initializer=_set_context, initargs=(context,)
            )
        )
        return pool.map(partial(_call, fn), items)
    return (fn(item, *context) for item in items)
