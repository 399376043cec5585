"""Reference tasks: fixed work that does not use fairgame, timed next to each
benchmark operation so that ``run.py`` can report operation times in
reference units.

On a shared host the same code runs up to 2x slower while neighbours are
busy, in phases that last from seconds to tens of minutes, and how much a
phase slows code depends on the kind of code: interpreted Python, dense
linear algebra and serialisation slow by different amounts. So each workload
names the tasks that do the same kind of work as its dominant layers
(``workloads.py``; the measured shares are in ``layers.json``), and the
operation's wall time is divided by the summed time of those tasks. Their
inputs never change, so their time measures only how fast the host runs that
kind of code at that moment, and a change to fairgame moves the ratio in the
same proportion as wall time.
"""

import hashlib
import json
import time

import numpy as np

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal(8)
_FLOATS = _rng.standard_normal(40_000).tolist()
# Shaped like one solve of exact_fair_gradient at S=400 with 3 actions.
_SYSTEM = np.eye(400) - 0.9 * _rng.dirichlet(np.ones(400), size=400)
_RHS = _rng.standard_normal((400, 1200))
# A 5-state, 3-agent game with 3 actions each, as in the verify suites.
_POLICY = _rng.dirichlet(np.ones(3), size=5)
_TRANSITIONS = _rng.dirichlet(np.ones(5), size=(5, 27))


def interpreter():
    """Per-step Python bookkeeping: integer arithmetic and dict updates."""
    total, counts = 0, {}
    for i in range(60_000):
        total += i * i % 7
        counts[i % 97] = counts.get(i % 97, 0) + i


def tiny_numpy():
    """Many numpy calls on 8-element arrays, as in per-step sampling."""
    x = _SMALL
    for _ in range(6_000):
        x = np.exp(x - x.max())
        x = x / x.sum()


def serialise():
    """JSON encoding of a list of floats and hashing of the bytes."""
    hashlib.sha256(json.dumps(_FLOATS).encode()).hexdigest()


def dense_solve():
    """One dense solve with many right-hand sides."""
    np.linalg.solve(_SYSTEM, _RHS)


def sampling():
    """Vectorised rollouts: row sampling and fancy-indexed accumulation over
    a batch of trajectories."""
    rng = np.random.default_rng(1)
    batch = 2048
    rows = np.arange(batch)
    grads = np.zeros((batch, 5, 3))
    states = rng.integers(0, 5, batch)
    for _ in range(80):
        cumulative = np.cumsum(_POLICY[states], axis=1)[:, :-1]
        actions = (rng.random((batch, 1)) > cumulative).sum(axis=1)
        grads[rows, states, actions] += 0.5
        grads[rows, states, :] -= 0.5 * _POLICY[states]
        joint = actions * 9
        cumulative = np.cumsum(_TRANSITIONS[states, joint], axis=1)[:, :-1]
        states = (rng.random((batch, 1)) > cumulative).sum(axis=1)


TASKS = {f.__name__: f for f in (interpreter, tiny_numpy, serialise, dense_solve, sampling)}


class Reference:
    """The named tasks, run once unmeasured when made. ``seconds`` repeats
    them until at least ``span`` seconds have passed, so that a long
    operation is compared with a sample of matching weight, and returns the
    mean time of one repetition."""

    def __init__(self, names: tuple):
        self.tasks = [TASKS[name] for name in names]
        self.run()

    def run(self):
        for task in self.tasks:
            task()

    def seconds(self, span: float = 0.0) -> float:
        began = time.perf_counter()
        repeats = 0
        while True:
            self.run()
            repeats += 1
            elapsed = time.perf_counter() - began
            if elapsed >= span:
                return elapsed / repeats
