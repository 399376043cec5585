"""The names that ``perfbench``'s span tracer binds to.

``perfbench/spans.py`` replaces ``cls.__dict__["step"]`` and ``["reset"]``
on each env class, ``SoftmaxPolicyProfile.__dict__["joint_probs"]``, and
every public function that the layer modules define; its per-layer rows
are named after them. A refactor that moves one of these names breaks
``perfbench --trace 1`` (a ``KeyError`` at install) or silently empties a
row, so the names are checked here, and every per-layer function row that
``BENCHMARK.json`` declares is checked against its module.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from fairgame import envs, learning
from fairgame.markov import SoftmaxPolicyProfile

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
LAYER_MODULES = ("envs", "learning", "markov", "games", "metrics", "formats", "verify")
# rows named after env methods, a SoftmaxPolicyProfile method (both checked
# above) or the update counters, rather than a module function
NOT_FUNCTIONS = ("envs.step", "envs.reset", "markov.joint_probs", "learning.update")


def benchmark_function_rows() -> list[str]:
    """The distinct ``<layer>.<function>`` prefixes of the per-layer rows
    ``<layer>.<function>.<stat>`` of BENCHMARK.json whose layer is a module."""
    rows = json.loads(BENCHMARK.read_text())["per_layer"]
    prefixes = {".".join(row["name"].split(".")[:2]) for row in rows}
    return sorted(
        p for p in prefixes if p.split(".")[0] in LAYER_MODULES and p not in NOT_FUNCTIONS
    )

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


@pytest.mark.parametrize("row", benchmark_function_rows())
def test_benchmark_rows_name_public_module_functions(row):
    layer, name = row.split(".")
    module = importlib.import_module(f"fairgame.{layer}")
    fn = vars(module).get(name)
    assert not name.startswith("_") and inspect.isfunction(fn), row
    assert fn.__module__ == module.__name__, row
