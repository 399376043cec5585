"""The names that ``perfbench``'s span tracer binds to.

``perfbench/spans.py`` replaces ``cls.__dict__["step"]`` and ``["reset"]``
on each env class, ``SoftmaxPolicyProfile.__dict__["joint_probs"]``, and
every public function that the layer modules define; its per-layer rows
are named after them. A refactor that moves one of these names breaks
``perfbench --trace 1`` (a ``KeyError`` at install) or silently empties a
row, so the names are checked here.
"""

import inspect

import pytest

from fairgame import envs, learning
from fairgame.markov import SoftmaxPolicyProfile

ENV_CLASSES = ("MiniCleanupEnv", "RepeatedMatrixGameEnv", "MarkovGameEnv")
LEARNING_FUNCTIONS = (
    "collect_rollouts",
    "compute_gae",
    "combine_fair_advantages",
    "a2c_update",
    "ppo_update",
    "save_policy_snapshot",
)


@pytest.mark.parametrize("name", ENV_CLASSES)
def test_env_classes_define_step_and_reset(name):
    cls = getattr(envs, name)
    for method in ("step", "reset"):
        assert inspect.isfunction(vars(cls).get(method)), f"{name}.{method}"


def test_policy_profile_defines_joint_probs():
    assert inspect.isfunction(vars(SoftmaxPolicyProfile).get("joint_probs"))


@pytest.mark.parametrize("name", LEARNING_FUNCTIONS)
def test_learning_functions_are_public_module_functions(name):
    fn = vars(learning).get(name)
    assert inspect.isfunction(fn) and fn.__module__ == learning.__name__
