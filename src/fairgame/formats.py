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
from .errors import SchemaError
from .games import DilemmaPayoffs, NormalFormGame
from .learning import Algorithm, ObjectiveMode, TrainConfig
from .markov import TabularMarkovGame

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


@dataclass(frozen=True)
class LoadedGame:
    """A parsed game file; ``dilemma`` is set when the file used the
    shorthand {"T","R","S","P"} form."""

    game: NormalFormGame
    dilemma: DilemmaPayoffs | None = None


def load_game_file(path) -> LoadedGame:
    """Read a normal-form game: either {"players","strategies","payoffs"}
    with a flat row-major payoff list (player index innermost), or the 2x2
    dilemma shorthand {"T","R","S","P"}."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    if {"T", "R", "S", "P"} <= set(doc):
        payoffs = DilemmaPayoffs(
            float(doc["T"]), float(doc["R"]), float(doc["S"]), float(doc["P"])
        )
        return LoadedGame(game=payoffs.to_game(), dilemma=payoffs)
    missing = {"players", "strategies", "payoffs"} - set(doc)
    if missing:
        raise SchemaError(f"{path}: missing keys: {', '.join(sorted(missing))}")
    players = int(doc["players"])
    strategies = tuple(int(c) for c in doc["strategies"])
    flat = np.asarray(doc["payoffs"], dtype=float)
    expected = math.prod(strategies) * players
    if flat.size != expected:
        raise SchemaError(
            f"{path}: payoffs has {flat.size} entries, expected {expected}"
        )
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
    try:
        num_agents, num_states = int(doc["agents"]), int(doc["states"])
        counts = tuple(int(c) for c in doc["actions"])
    except (TypeError, ValueError):
        raise SchemaError(f"{path}: agents, states and actions must be integers") from None
    if num_agents < 1 or num_states < 1:
        raise SchemaError(f"{path}: agents and states must be at least 1")
    if len(counts) != num_agents or min(counts) < 1:
        raise SchemaError(f"{path}: actions must list one positive count per agent")
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
        except (TypeError, ValueError):
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
        except (TypeError, ValueError):
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
    except (TypeError, ValueError):
        raise SchemaError(
            f"{path}: rho0 must be {num_states} numbers and gamma a number"
        ) from None
    return TabularMarkovGame(
        num_agents=num_agents,
        num_states=num_states,
        action_counts=counts,
        transitions=transitions,
        rewards=rewards,
        initial_dist=initial,
        discount=gamma,
    )


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
        known = set(MiniCleanupConfig.__dataclass_fields__)
        unknown = set(spec) - known - {"type"}
        if unknown:
            problems.append(f"env: unknown mini_cleanup fields: {', '.join(sorted(unknown))}")
        else:
            try:
                MiniCleanupConfig(**{k: v for k, v in spec.items() if k != "type"})
            except Exception as exc:
                problems.append(f"env: {exc}")
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
        elif not Path(spec["path"]).exists():
            problems.append(f"env.path: {spec['path']} does not exist")
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
        params = dict(self.overrides)
        if "episode_length" not in params and "episode_length" in self.env:
            params["episode_length"] = int(self.env["episode_length"])
        return TrainConfig(
            algorithm=self.algorithm,
            objective=self.objective,
            alpha=alpha,
            seed=seed,
            **params,
        )


def validate_experiment_config(doc) -> list[str]:
    """Total validation: one named error per invalid field."""
    problems = []
    if not isinstance(doc, dict):
        return ["config: expected a JSON object"]
    problems.extend(validate_env_spec(doc.get("env")))
    algorithm = doc.get("algorithm", Algorithm.FAIR_MAA2C.value)
    if algorithm not in {a.value for a in Algorithm}:
        problems.append(f"algorithm: unknown value {algorithm!r}")
    objective = doc.get("objective", ObjectiveMode.PROPORTIONAL_FAIR.value)
    if objective not in {o.value for o in ObjectiveMode}:
        problems.append(f"objective: unknown value {objective!r}")
    alphas = doc.get("alpha", [1.0])
    if not isinstance(alphas, list) or not alphas:
        problems.append("alpha: must be a nonempty array")
    else:
        for value in alphas:
            if not isinstance(value, (int, float)) or not 0.0 <= float(value) <= 1.0:
                problems.append(f"alpha: sweep value {value!r} outside [0, 1]")
    if "out" not in doc:
        problems.append("out: output directory required")
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
    if not problems:
        try:
            TrainConfig(
                algorithm=Algorithm(algorithm),
                objective=ObjectiveMode(objective),
                alpha=float(alphas[0]),
                seed=int(doc.get("seed", 0)),
                **overrides,
            )
        except Exception as exc:
            problems.append(str(exc))
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
