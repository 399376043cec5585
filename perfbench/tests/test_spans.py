import sys

import numpy as np
import pytest

import fairgame
import fairgame.cli
from spans import Tracer, self_times
from worker import layer_metrics


def test_self_time_of_nested_tree():
    spans = [
        ["a", -1, 0.0, 10.0],
        ["b", 0, 1.0, 4.0],
        ["c", 1, 2.0, 3.0],
        ["b", 0, 5.0, 6.0],
        ["c", -1, 11.0, 12.0],
    ]
    assert self_times(spans) == {
        "a": [1, 10.0, 6.0],
        "b": [2, 4.0, 3.0],
        "c": [2, 2.0, 2.0],
    }


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ["parent", -1, 0.0, 10.0],
        ["child", 0, 1.0, 4.0],
        ["child", 0, 3.0, 5.0],
        ["child", 0, 9.0, 12.0],
    ]
    assert self_times(spans)["parent"] == [1, 10.0, 5.0]


def _bindings():
    owners = [m for n, m in sys.modules.items() if n == "fairgame" or n.startswith("fairgame.")]
    owners += [
        fairgame.envs.MiniCleanupEnv,
        fairgame.envs.RepeatedMatrixGameEnv,
        fairgame.envs.MarkovGameEnv,
        fairgame.markov.SoftmaxPolicyProfile,
        np.linalg,
    ]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


def test_every_wrapper_is_restored():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert fairgame.cli.train is not before[(id(fairgame.cli), "train")]
        assert np.linalg.solve is not before[(id(np.linalg), "solve")]
        wrapped = _bindings()
        assert sum(wrapped[key] is not before[key] for key in before) > 50
    assert _bindings().keys() == before.keys()
    assert all(value is before[key] for key, value in _bindings().items())


def test_restored_after_an_exception():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("inside")
    assert all(value is before[key] for key, value in _bindings().items())


def test_spans_and_counters_of_an_oracle_call():
    game = fairgame.random_markov_game(2, 4, (2, 3), 0.9, seed=0)
    policies = fairgame.SoftmaxPolicyProfile.uniform(4, (2, 3))
    tracer = Tracer()
    with tracer:
        fairgame.markov.fair_objective(game, policies, fairgame.AltruismWeights(0.5))
    taken = tracer.take()
    spans = taken["spans"]
    assert spans["markov.fair_objective"]["calls"] == 1
    assert spans["markov.solve_values"]["calls"] == 1
    assert spans["linalg.solve"]["calls"] == 1
    assert taken["counters"]["linalg.solve.rhs_columns"] == 2
    metrics = layer_metrics(taken, tracer.names, 0)
    assert metrics["envs.step.calls"] == 0
    assert metrics["linalg.solve.rhs_columns"] == 2
    outer = spans["markov.fair_objective"]
    inner = spans["markov.solve_values"]
    assert outer["self_s"] <= outer["total_s"] - inner["total_s"] + 1e-12
