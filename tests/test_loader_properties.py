"""Property tests: the file and spec loaders are total. Every generated input
either loads into a valid object, or is rejected with a SchemaError (files)
or a list of problems that each name a field (env specs, experiment
configs); no other exception escapes."""

import json
import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairgame.envs import random_markov_game
from fairgame.errors import DomainError, SchemaError
from fairgame.formats import (
    TRAIN_FIELDS,
    build_env_factory,
    load_experiment_config,
    load_game_file,
    load_markov_game,
    load_policy_snapshot,
    save_markov_game,
    validate_env_spec,
    validate_experiment_config,
)
from fairgame.games import NormalFormGame
from fairgame.learning import TrainConfig
from fairgame.markov import TabularMarkovGame

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

# JSON values of every kind, kept small so a valid-looking size stays cheap
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)
DELETE = object()


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as name:
        yield Path(name)


ENV_FIELDS = {
    "repeated_matrix": ["payoffs", "episode_length"],
    "mini_cleanup": [
        "width", "height", "num_agents", "river_rows", "regen_rate",
        "pollution_increment", "clean_amount", "pollution_threshold",
        "episode_length", "apple_reward", "base_reward",
    ],
    "random_markov": ["agents", "states", "actions", "gamma", "game_seed", "episode_length"],
    "markov_file": ["path", "episode_length"],
    "no_such_env": [],
}
PLAUSIBLE = st.integers(0, 5) | st.floats(0.0, 1.0) | st.lists(st.integers(1, 3), max_size=3)


@st.composite
def env_specs(draw):
    kind = draw(st.sampled_from(sorted(ENV_FIELDS)))
    spec = {"type": kind}
    for key in ENV_FIELDS[kind] + ["bogus"]:
        choice = draw(st.sampled_from(["omit", "plausible", "any"]))
        if choice == "plausible":
            spec[key] = draw(PLAUSIBLE)
        elif choice == "any":
            spec[key] = draw(JSON_VALUES)
    if kind == "repeated_matrix" and draw(st.booleans()):
        spec["payoffs"] = {k: draw(st.integers(1, 6) | LEAVES) for k in "TRSP"}
    if kind == "markov_file" and draw(st.booleans()):
        spec["path"] = draw(st.sampled_from(["", ".", "missing.json"]))
    return spec


@PROPERTY
@given(env_specs())
def test_env_spec_is_valid_or_names_its_fields(spec):
    problems = validate_env_spec(spec)
    assert all(p.startswith(("env.", "env:")) for p in problems), problems
    if not problems:
        env = build_env_factory(spec)(0)
        assert len(env.reset()) == env.num_agents
        assert env.episode_length >= 1


@PROPERTY
@given(env_specs() | JSON_VALUES)
@example({"type": []})
@example({"type": {}})
@example({"type": "repeated_matrix", "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2}, "x": 1})
def test_env_spec_validates_exactly_when_it_builds(spec):
    problems = validate_env_spec(spec)
    try:
        build_env_factory(spec)
    except SchemaError as exc:
        assert problems and str(exc) == "; ".join(problems)
    else:
        assert problems == []


@pytest.fixture(scope="module")
def markov_text(workdir):
    path = workdir / "game.json"
    save_markov_game(path, random_markov_game(2, 2, (2, 2), 0.9, seed=5))
    return path.read_text()


MARKOV_TARGETS = (
    [(key,) for key in ("agents", "states", "actions", "gamma", "rho0", "transitions", "rewards")]
    + [("transitions", key) for key in ("0,0,0", "1,1,1", "x,0", "0,-1,0", "2,0,0")]
    + [("rewards", key) for key in ("0,0,0,0", "1,1,1,1", "0,0", "3,0,0,0")]
)
# numbers of a Markov file, each retyped by an edit to its JSON string or boolean
MARKOV_NUMBERS = [
    ("gamma",),
    ("rho0", 0),
    ("rho0", 1),
    ("transitions", "0,0,0", 1),
    ("transitions", "1,1,1", 0),
    ("rewards", "0,0,0,0"),
    ("rewards", "1,1,1,1"),
]
MARKOV_EDITS = st.tuples(st.sampled_from(MARKOV_TARGETS), JSON_VALUES | st.just(DELETE)) | (
    st.tuples(st.sampled_from(MARKOV_NUMBERS), st.sampled_from([repr, bool]))
)


def _json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@PROPERTY
@given(st.lists(MARKOV_EDITS, min_size=1, max_size=3))
@example([(("agents",), float("inf"))])
@example([(("transitions", "0,0,0"), [float("nan"), float("nan")])])
@example([(("rho0",), [float("nan"), 1.0])])
@example([(("gamma",), repr)])
@example([(("gamma",), bool)])
@example([(("rho0", 0), repr)])
@example([(("rho0", 1), bool)])
@example([(("transitions", "0,0,0", 1), repr)])
@example([(("transitions", "1,1,1", 0), bool)])
@example([(("rewards", "0,0,0,0"), repr)])
@example([(("rewards", "1,1,1,1"), bool)])
def test_markov_file_loads_or_raises_schema_error(workdir, markov_text, edits):
    doc = json.loads(markov_text)
    for target, value in edits:
        owner = doc
        for key in target[:-1]:
            owner = owner.get(key) if isinstance(owner, dict) else None
        last = target[-1]
        if callable(value):
            try:
                owner[last] = value(owner[last])
            except (KeyError, IndexError, TypeError):
                pass  # an earlier edit removed or replaced the number's container
        elif not isinstance(owner, dict):
            continue
        elif value is DELETE:
            owner.pop(last, None)
        else:
            owner[last] = value
    path = workdir / "markov.json"
    # a fresh file per example: rewriting a non-empty file in place can
    # force a flush to disk (ext4's auto_da_alloc), which dominates the test
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    try:
        game = load_markov_game(path)
    except SchemaError as exc:
        assert str(path) in str(exc)
        return
    assert isinstance(game, TabularMarkovGame)
    for table in (game.transitions, game.rewards, game.initial_dist):
        assert np.isfinite(table).all()
    # a string or a boolean in any of the four numeric places is rejected
    numbers = [doc["gamma"], *doc["rho0"], *doc["rewards"].values()]
    numbers += [x for row in doc["transitions"].values() for x in row]
    assert all(map(_json_number, numbers))


TABLES = st.lists(
    st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True) | LEAVES, max_size=3),
             max_size=3),
    max_size=3,
)


@PROPERTY
@given(TABLES | JSON_VALUES)
def test_policy_snapshot_loads_or_raises_schema_error(workdir, doc):
    path = workdir / "snapshot.json"
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    try:
        policies = load_policy_snapshot(path)
    except SchemaError as exc:
        assert str(path) in str(exc)
        return
    assert len(policies.logits) == len(doc)
    for table in policies.logits:
        assert table.ndim == 2 and table.size > 0 and table.dtype == np.float64
        assert np.isfinite(table).all()


GAME_DOCS = [
    {"T": 5, "R": 3, "S": 1, "P": 2},
    {"players": 2, "strategies": [2, 2], "payoffs": [3, 3, 1, 5, 5, 1, 2, 2]},
    {"players": 1, "strategies": [3], "payoffs": [1.5, 2, 0.5]},
]
GAME_KEYS = ["T", "R", "S", "P", "players", "strategies", "payoffs", "bogus"]


@PROPERTY
@given(
    st.sampled_from(GAME_DOCS),
    st.lists(
        st.tuples(st.sampled_from(GAME_KEYS), PLAUSIBLE | JSON_VALUES | st.just(DELETE)),
        min_size=1,
        max_size=3,
    ),
)
@example(GAME_DOCS[0], [("T", "x")])
@example(GAME_DOCS[1], [("players", 2.0)])
@example(GAME_DOCS[1], [("payoffs", [1, 2, 3, 4, 5, 6, 7, float("inf")])])
def test_game_file_loads_or_raises_schema_error(workdir, base, edits):
    doc = dict(base)
    for key, value in edits:
        if value is DELETE:
            doc.pop(key, None)
        else:
            doc[key] = value
    path = workdir / "normal_form.json"
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    try:
        loaded = load_game_file(path)
    except SchemaError as exc:
        assert str(path) in str(exc)
        return
    game = loaded.game
    assert isinstance(game, NormalFormGame)
    assert game.payoffs.shape == game.strategy_counts + (game.num_players,)
    assert np.isfinite(game.payoffs).all()


def _config_doc(workdir) -> dict:
    return {
        "env": {
            "type": "repeated_matrix",
            "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2},
            "episode_length": 10,
        },
        "algorithm": "FairMAPPO",
        "objective": "ProportionalFair",
        "alpha": [0.0, 1.0],
        "seed": 3,
        "out": str(workdir / "runs"),
        "num_envs": 2,
        "learning_rate": 0.1,
        "normalize_advantages": False,
    }


CONFIG_KEYS = ["env", "algorithm", "objective", "alpha", "seed", "out", "bogus", *TRAIN_FIELDS]
CONFIG_FIELDS = tuple(k for k in CONFIG_KEYS if k != "bogus") + ("config",)


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.sampled_from(CONFIG_KEYS),
            PLAUSIBLE | JSON_VALUES | st.lists(PLAUSIBLE, max_size=2) | st.just(DELETE),
        ),
        min_size=1,
        max_size=4,
    )
)
@example([("num_envs", 2.5)])
@example([("alpha", [True])])
@example([("learning_rate", "0.1")])
@example([("critic_lr", None)])
def test_experiment_config_is_valid_or_names_its_fields(workdir, edits):
    doc = _config_doc(workdir)
    for key, value in edits:
        if value is DELETE:
            doc.pop(key, None)
        else:
            doc[key] = value
    problems = validate_experiment_config(doc)
    for problem in problems:
        assert problem.split(":")[0].split(".")[0] in CONFIG_FIELDS, problem
    path = workdir / "config.json"
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    if problems:
        with pytest.raises(SchemaError):
            load_experiment_config(path)
        return
    config = load_experiment_config(path)
    for alpha in config.alphas:
        train = config.train_config(alpha, config.seed)
        for f in fields(TrainConfig):
            value = getattr(train, f.name)
            if f.type in (int, bool):
                assert type(value) is f.type, f.name
            elif f.type in (float, float | None) and value is not None:
                assert type(value) in (int, float) and math.isfinite(value), f.name


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.sampled_from(CONFIG_KEYS),
            PLAUSIBLE | JSON_VALUES | st.lists(PLAUSIBLE, max_size=2) | st.just(DELETE),
        ),
        max_size=4,
    )
)
@example([("seed", -1)])
@example([("env", {"type": "repeated_matrix", "payoffs": {"T": "5", "R": 3, "S": 1, "P": 2}})])
def test_experiment_config_validates_exactly_when_it_loads(workdir, edits):
    doc = _config_doc(workdir)
    for key, value in edits:
        if value is DELETE:
            doc.pop(key, None)
        else:
            doc[key] = value
    problems = validate_experiment_config(doc)
    path = workdir / "config.json"
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    try:
        load_experiment_config(path)
    except SchemaError as exc:
        assert problems and str(exc) == "; ".join(problems)
    else:
        assert problems == []


# the TrainConfig fields a config sets once per sweep
SWEEP_SETTINGS = [f.name for f in fields(TrainConfig) if f.name != "alpha"]


@PROPERTY
@given(
    st.dictionaries(st.sampled_from(SWEEP_SETTINGS), PLAUSIBLE | JSON_VALUES, max_size=4),
    PLAUSIBLE | JSON_VALUES,
)
@example({"critic_init": 3}, 1)
@example({"seed": -1, "learning_rate": 0.7}, 2.0)
@example({"algorithm": "x", "ppo_epochs": True}, float("nan"))
def test_train_settings_load_exactly_when_they_construct(workdir, settings, alpha):
    doc = {**_config_doc(workdir), **settings, "alpha": [alpha]}
    values = {k: v for k, v in doc.items() if k in SWEEP_SETTINGS}
    path = workdir / "config.json"
    path.unlink(missing_ok=True)
    path.write_text(json.dumps(doc))
    try:
        expected = TrainConfig(alpha=alpha, **values)
    except DomainError as exc:
        assert validate_experiment_config(doc) == exc.problems
        with pytest.raises(SchemaError):
            load_experiment_config(path)
    else:
        config = load_experiment_config(path)
        assert config.train_config(config.alphas[0], config.seed) == expected
