"""External file formats: normal-form game files, Markov game files,
experiment configs, and run manifests with content hashes.
"""

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .envs import (
    MarkovGameEnv,
    MiniCleanupConfig,
    MiniCleanupEnv,
    RepeatedMatrixGameEnv,
    random_markov_game,
)
from .errors import DomainError, SchemaError
from .games import DilemmaPayoffs, NormalFormGame
from .learning import Algorithm, ObjectiveMode, TrainConfig
from .markov import SoftmaxPolicyProfile, TabularMarkovGame

# TrainConfig settings an experiment config may set; the other four are
# fixed per sweep item.
TRAIN_FIELDS = tuple(
    f.name for f in fields(TrainConfig) if f.name not in {"algorithm", "objective", "alpha", "seed"}
)


def read_json(path):
    """Parse a JSON file; malformed JSON is a SchemaError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number, not a boolean, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def load_policy_snapshot(path) -> SoftmaxPolicyProfile:
    """Read a policy snapshot: a JSON array of per-agent logit tables, each a
    nonempty 2-D array of finite numbers (states x actions). Anything else is
    a SchemaError naming the file."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise SchemaError(f"{path}: expected a JSON array of per-agent logit tables")
    tables = []
    for agent, table in enumerate(doc):
        try:
            array = np.asarray(table)
            valid = array.ndim == 2 and array.size > 0 and array.dtype.kind in "iuf"
        except ValueError:  # ragged nesting
            valid = False
        if not valid:
            raise SchemaError(f"{path}: agent {agent} table is not a 2-D array of numbers")
        array = array.astype(float)
        if not np.isfinite(array).all():
            raise SchemaError(f"{path}: agent {agent} table has a non-finite entry")
        tables.append(array)
    return SoftmaxPolicyProfile(tables)


@dataclass(frozen=True)
class LoadedGame:
    """A parsed game file; ``dilemma`` is set when the file used the
    shorthand {"T","R","S","P"} form."""

    game: NormalFormGame
    dilemma: DilemmaPayoffs | None = None


def load_game_file(path) -> LoadedGame:
    """Read a normal-form game: either {"players","strategies","payoffs"}
    with a flat row-major payoff list (player index innermost), or the 2x2
    dilemma shorthand {"T","R","S","P"}. Anything else is a SchemaError
    naming the file and the key."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    if {"T", "R", "S", "P"} <= set(doc):
        for key in ("T", "R", "S", "P"):
            if not _is_finite_number(doc[key]):
                raise SchemaError(f"{path}: {key} must be a finite number, got {doc[key]!r}")
        try:
            payoffs = DilemmaPayoffs(*(float(doc[k]) for k in ("T", "R", "S", "P")))
        except DomainError as exc:
            raise SchemaError(f"{path}: {exc}") from None
        return LoadedGame(game=payoffs.to_game(), dilemma=payoffs)
    missing = {"players", "strategies", "payoffs"} - set(doc)
    if missing:
        raise SchemaError(f"{path}: missing keys: {', '.join(sorted(missing))}")
    players, strategies, payoffs = doc["players"], doc["strategies"], doc["payoffs"]
    if not _is_int(players) or players < 1:
        raise SchemaError(f"{path}: players must be a positive integer, got {players!r}")
    if (
        not isinstance(strategies, list)
        or len(strategies) != players
        or not all(_is_int(c) and c >= 1 for c in strategies)
    ):
        raise SchemaError(f"{path}: strategies must list one positive integer per player")
    if not isinstance(payoffs, list) or not all(_is_finite_number(x) for x in payoffs):
        raise SchemaError(f"{path}: payoffs must be a flat list of finite numbers")
    strategies = tuple(strategies)
    expected = math.prod(strategies) * players
    if len(payoffs) != expected:
        raise SchemaError(
            f"{path}: payoffs has {len(payoffs)} entries, expected {expected}"
        )
    flat = np.asarray(payoffs, dtype=float)
    return LoadedGame(
        game=NormalFormGame(players, strategies, flat.reshape(strategies + (players,)))
    )


def save_markov_game(path, game: TabularMarkovGame) -> None:
    """Markov game file with joint actions keyed as comma-joined per-agent
    indices: transitions["s,a1,..,aN"] and rewards["i,s,a1,..,aN"]."""
    transitions = {}
    rewards = {}
    for s in range(game.num_states):
        for joint in range(game.num_joint_actions):
            actions = game.joint_action_tuple(joint)
            key = ",".join(str(x) for x in (s,) + actions)
            transitions[key] = game.transitions[s, joint].tolist()
            for agent in range(game.num_agents):
                rewards[f"{agent},{key}"] = float(game.rewards[agent, s, joint])
    doc = {
        "agents": game.num_agents,
        "states": game.num_states,
        "actions": list(game.action_counts),
        "gamma": game.discount,
        "rho0": game.initial_dist.tolist(),
        "transitions": transitions,
        "rewards": rewards,
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def _markov_key(path, kind: str, key: str, bounds: dict) -> list[int]:
    """The indices of a comma-joined Markov-file key, each checked against
    its named bound; any malformed or out-of-range key is a SchemaError."""
    try:
        parts = [int(x) for x in key.split(",")]
    except ValueError:
        raise SchemaError(f"{path}: {kind} key {key!r} is not comma-joined integers") from None
    if len(parts) != len(bounds):
        raise SchemaError(f"{path}: {kind} key {key!r} needs {','.join(bounds)}")
    for value, (name, bound) in zip(parts, bounds.items()):
        if not 0 <= value < bound:
            raise SchemaError(
                f"{path}: {kind} key {key!r}: {name} {value} outside [0, {bound - 1}]"
            )
    return parts


def load_markov_game(path) -> TabularMarkovGame:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    required = {"agents", "states", "actions", "gamma", "rho0", "transitions", "rewards"}
    missing = required - set(doc)
    if missing:
        raise SchemaError(f"{path}: missing keys: {', '.join(sorted(missing))}")
    for name in ("agents", "states"):
        if not _is_int(doc[name]) or doc[name] < 1:
            raise SchemaError(f"{path}: {name} must be a positive integer, got {doc[name]!r}")
    num_agents, num_states, counts = doc["agents"], doc["states"], doc["actions"]
    if (
        not isinstance(counts, list)
        or len(counts) != num_agents
        or not all(_is_int(c) and c >= 1 for c in counts)
    ):
        raise SchemaError(f"{path}: actions must list one positive integer per agent")
    counts = tuple(counts)
    for name in ("transitions", "rewards"):
        if not isinstance(doc[name], dict):
            raise SchemaError(f"{path}: {name} must be an object keyed by indices")
    joint_count = math.prod(counts)
    agent_bounds = {f"a{k + 1}": c for k, c in enumerate(counts)}
    transitions = np.zeros((num_states, joint_count, num_states))
    rewards = np.zeros((num_agents, num_states, joint_count))
    seen_t = np.zeros((num_states, joint_count), dtype=bool)
    seen_r = np.zeros((num_agents, num_states, joint_count), dtype=bool)
    for key, row in doc["transitions"].items():
        parts = _markov_key(path, "transition", key, {"state": num_states, **agent_bounds})
        s, actions = parts[0], tuple(parts[1:])
        try:
            row = np.asarray(row, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"{path}: transition {key!r} is not a list of numbers") from None
        if row.shape != (num_states,):
            raise SchemaError(
                f"{path}: transition {key!r} has shape {row.shape}, expected ({num_states},)"
            )
        joint = int(np.ravel_multi_index(actions, counts))
        transitions[s, joint] = row
        seen_t[s, joint] = True
    for key, value in doc["rewards"].items():
        parts = _markov_key(
            path, "reward", key, {"agent": num_agents, "state": num_states, **agent_bounds}
        )
        agent, s, actions = parts[0], parts[1], tuple(parts[2:])
        try:
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            raise SchemaError(f"{path}: reward {key!r} is not a number") from None
        joint = int(np.ravel_multi_index(actions, counts))
        rewards[agent, s, joint] = value
        seen_r[agent, s, joint] = True
    if not seen_t.all():
        raise SchemaError(f"{path}: transitions missing for some (state, joint action)")
    if not seen_r.all():
        raise SchemaError(f"{path}: rewards missing for some (agent, state, joint action)")
    try:
        initial = np.asarray(doc["rho0"], dtype=float).reshape(num_states)
        gamma = float(doc["gamma"])
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(
            f"{path}: rho0 must be {num_states} numbers and gamma a number"
        ) from None
    try:
        return TabularMarkovGame(
            num_agents=num_agents,
            num_states=num_states,
            action_counts=counts,
            transitions=transitions,
            rewards=rewards,
            initial_dist=initial,
            discount=gamma,
        )
    except DomainError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def validate_env_spec(spec) -> list[str]:
    """Every problem with an environment spec, by field."""
    problems = []
    if not isinstance(spec, dict):
        return ["env: expected an object"]
    kind = spec.get("type")

    def integer(key, minimum=1, required=False):
        """The spec's integer ``key`` if present and at least ``minimum``."""
        if key not in spec:
            if required:
                problems.append(f"env.{key}: required for {kind}")
        elif not _is_int(spec[key]) or spec[key] < minimum:
            sign = "positive" if minimum == 1 else "nonnegative"
            problems.append(f"env.{key}: must be a {sign} integer, got {spec[key]!r}")
        else:
            return spec[key]
        return None

    if kind == "repeated_matrix":
        payoffs = spec.get("payoffs")
        if not isinstance(payoffs, dict) or not {"T", "R", "S", "P"} <= set(payoffs):
            problems.append('env.payoffs: needs {"T","R","S","P"}')
        else:
            try:
                DilemmaPayoffs(*(float(payoffs[k]) for k in ("T", "R", "S", "P")))
            except Exception as exc:
                problems.append(f"env.payoffs: {exc}")
        integer("episode_length")
    elif kind == "mini_cleanup":
        known = {f.name: f.type for f in fields(MiniCleanupConfig)}
        unknown = set(spec) - set(known) - {"type"}
        if unknown:
            problems.append(f"env: unknown mini_cleanup fields: {', '.join(sorted(unknown))}")
        for key, field_type in known.items():
            if field_type is int:
                integer(key, minimum=0 if key == "river_rows" else 1)
            elif key in spec and not _is_finite_number(spec[key]):
                problems.append(f"env.{key}: must be a finite number, got {spec[key]!r}")
        if not problems:
            try:
                MiniCleanupConfig(**{k: v for k, v in spec.items() if k != "type"})
            except DomainError as exc:
                problems.append(f"env.{exc}")
    elif kind == "random_markov":
        agents = integer("agents", required=True)
        integer("states", required=True)
        integer("game_seed", minimum=0)
        integer("episode_length")
        actions = spec.get("actions")
        if "actions" not in spec:
            problems.append("env.actions: required for random_markov")
        elif (
            not isinstance(actions, list)
            or not all(_is_int(c) and c >= 1 for c in actions)
            or (agents is not None and len(actions) != agents)
        ):
            problems.append(f"env.actions: must list one positive integer per agent, got {actions!r}")
        gamma = spec.get("gamma")
        if "gamma" not in spec:
            problems.append("env.gamma: required for random_markov")
        elif not isinstance(gamma, (int, float)) or isinstance(gamma, bool) or not 0 <= gamma < 1:
            problems.append(f"env.gamma: must be a number in [0, 1), got {gamma!r}")
    elif kind == "markov_file":
        if "path" not in spec:
            problems.append("env.path: required for markov_file")
        elif not isinstance(spec["path"], str) or not Path(spec["path"]).is_file():
            problems.append(f"env.path: {spec['path']!r} is not a file")
        integer("episode_length")
    else:
        problems.append(f"env.type: unknown environment type {kind!r}")
    return problems


def build_env_factory(spec: dict) -> Callable[[int], object]:
    """An env constructor taking a seed, for the training collectors."""
    problems = validate_env_spec(spec)
    if problems:
        raise SchemaError("; ".join(problems))
    kind = spec["type"]
    length = spec.get("episode_length", 100)  # unused by mini_cleanup
    if kind == "repeated_matrix":
        payoffs = DilemmaPayoffs(
            *(float(spec["payoffs"][k]) for k in ("T", "R", "S", "P"))
        )

        def factory(seed: int):
            return RepeatedMatrixGameEnv(payoffs, length)

    elif kind == "mini_cleanup":
        config = MiniCleanupConfig(**{k: v for k, v in spec.items() if k != "type"})

        def factory(seed: int):
            return MiniCleanupEnv(config, seed)

    else:
        if kind == "random_markov":
            game = random_markov_game(
                spec["agents"],
                spec["states"],
                spec["actions"],
                float(spec["gamma"]),
                spec.get("game_seed", 0),
            )
        else:  # markov_file
            game = load_markov_game(spec["path"])

        def factory(seed: int):
            return MarkovGameEnv(game, length, seed)

    return factory


@dataclass
class ExperimentConfig:
    """A training experiment: environment, algorithm, objective, the alpha
    sweep, seed, output directory, and hyperparameter overrides."""

    env: dict
    algorithm: Algorithm
    objective: ObjectiveMode
    alphas: list[float]
    seed: int
    out: str
    overrides: dict = field(default_factory=dict)

    def train_config(self, alpha: float, seed: int) -> TrainConfig:
        return TrainConfig(
            algorithm=self.algorithm,
            objective=self.objective,
            alpha=alpha,
            seed=seed,
            **self.overrides,
        )


# JSON check and description per TrainConfig field type
_TRAIN_FIELD_TYPES = {
    int: (_is_int, "an integer"),
    float: (_is_finite_number, "a finite number"),
    float | None: (lambda v: v is None or _is_finite_number(v), "a finite number or null"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
}


def validate_experiment_config(doc) -> list[str]:
    """Total validation: one named error per invalid field."""
    problems = []
    if not isinstance(doc, dict):
        return ["config: expected a JSON object"]
    problems.extend(validate_env_spec(doc.get("env")))
    # membership in lists, not sets: JSON arrays and objects are unhashable
    algorithm = doc.get("algorithm", Algorithm.FAIR_MAA2C.value)
    if algorithm not in [a.value for a in Algorithm]:
        problems.append(f"algorithm: unknown value {algorithm!r}")
    objective = doc.get("objective", ObjectiveMode.PROPORTIONAL_FAIR.value)
    if objective not in [o.value for o in ObjectiveMode]:
        problems.append(f"objective: unknown value {objective!r}")
    alphas = doc.get("alpha", [1.0])
    if not isinstance(alphas, list) or not alphas:
        problems.append("alpha: must be a nonempty array")
    else:
        for value in alphas:
            if not _is_finite_number(value) or not 0.0 <= value <= 1.0:
                problems.append(f"alpha: sweep value {value!r} is not a number in [0, 1]")
    if "out" not in doc:
        problems.append("out: output directory required")
    elif not isinstance(doc["out"], str):
        problems.append(f"out: must be a path string, got {doc['out']!r}")
    if not _is_int(doc.get("seed", 0)):
        problems.append("seed: must be an integer")
    unknown = (
        set(doc)
        - {"env", "algorithm", "objective", "alpha", "seed", "out"}
        - set(TRAIN_FIELDS)
    )
    if unknown:
        problems.append(f"config: unknown fields: {', '.join(sorted(unknown))}")
    overrides = {k: doc[k] for k in TRAIN_FIELDS if k in doc}
    for f in fields(TrainConfig):
        if f.name in overrides:
            accepts, kind = _TRAIN_FIELD_TYPES[f.type]
            if not accepts(overrides[f.name]):
                problems.append(f"{f.name}: must be {kind}, got {overrides[f.name]!r}")
    if not problems:
        try:
            TrainConfig(
                algorithm=Algorithm(algorithm),
                objective=ObjectiveMode(objective),
                alpha=float(alphas[0]),
                seed=int(doc.get("seed", 0)),
                **overrides,
            )
        except DomainError as exc:
            # TrainConfig reports "invalid train config: <field>: ...; ..."
            problems.extend(str(exc).removeprefix("invalid train config: ").split("; "))
    return problems


def load_experiment_config(path, seed_override: int | None = None) -> ExperimentConfig:
    doc = read_json(path)
    problems = validate_experiment_config(doc)
    if problems:
        raise SchemaError("; ".join(problems))
    return ExperimentConfig(
        env=doc["env"],
        algorithm=Algorithm(doc.get("algorithm", Algorithm.FAIR_MAA2C.value)),
        objective=ObjectiveMode(doc.get("objective", ObjectiveMode.PROPORTIONAL_FAIR.value)),
        alphas=[float(a) for a in doc.get("alpha", [1.0])],
        seed=seed_override if seed_override is not None else int(doc.get("seed", 0)),
        out=str(doc["out"]),
        overrides={k: doc[k] for k in TRAIN_FIELDS if k in doc},
    )


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(
    run_dir,
    config_snapshot: dict,
    seed: int,
    started_at: str,
    finished_at: str,
    notes: dict | None = None,
) -> Path:
    """Record the run's config, seed, timestamps, and a hash inventory of
    every other file under the run directory."""
    from . import __version__

    run_dir = Path(run_dir)
    files = {}
    for entry in sorted(run_dir.rglob("*")):
        if entry.is_file() and entry.name != "manifest.json":
            files[str(entry.relative_to(run_dir))] = file_sha256(entry)
    manifest = {
        "config": config_snapshot,
        "library_version": __version__,
        "seed": seed,
        "started_at": started_at,
        "finished_at": finished_at,
        "files": files,
        "notes": notes or {},
    }
    path = run_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return path


def verify_manifest(run_dir) -> list[str]:
    """Re-hash the run directory against its manifest; returns mismatches."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text())
    problems = []
    for rel, expected in manifest["files"].items():
        target = run_dir / rel
        if not target.exists():
            problems.append(f"{rel}: missing")
        elif file_sha256(target) != expected:
            problems.append(f"{rel}: hash mismatch")
    return problems
