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
from .errors import DomainError, SchemaError, _is_finite_number, _is_int
from .games import DilemmaPayoffs, NormalFormGame
from .learning import Algorithm, ObjectiveMode, TrainConfig
from .markov import SoftmaxPolicyProfile, TabularMarkovGame


def open_fresh(path, newline: str | None = None):
    """Open ``path`` for writing text as a new file: an existing file is
    unlinked first rather than truncated, because replacing a file's contents
    through truncation can cost a filesystem flush per file. A directory is
    left in place, so opening it fails with IsADirectoryError as ``open``
    would."""
    path = Path(path)
    if not path.is_dir():
        path.unlink(missing_ok=True)
    return open(path, "w", newline=newline)


def read_json(path):
    """Parse a JSON file; malformed JSON, or a directory in its place, is a
    SchemaError naming the file."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except IsADirectoryError:
        raise SchemaError(f"{path}: a directory, not a JSON file") from None


def _is_numbers(value, length: int) -> bool:
    """A list of ``length`` finite numbers."""
    return isinstance(value, list) and len(value) == length and all(map(_is_finite_number, value))


def _is_counts(value, length) -> bool:
    """A list of ``length`` positive integers (of any length when None)."""
    valid = isinstance(value, list) and all(_is_int(c) and c >= 1 for c in value)
    return valid and (length is None or len(value) == length)


# TrainConfig fields an experiment config may override; its algorithm,
# objective and seed keys hold for the whole sweep, and alpha is swept.
TRAIN_FIELDS = tuple(
    f.name for f in fields(TrainConfig) if f.name not in {"algorithm", "objective", "alpha", "seed"}
)


def _dilemma_payoffs(doc: dict) -> DilemmaPayoffs:
    """The 2x2 payoffs of a {"T","R","S","P"} object, each a finite, strictly
    positive number; a DomainError names the first bad key."""
    for key in ("T", "R", "S", "P"):
        if key not in doc:
            raise DomainError(f"{key} is missing")
        if not _is_finite_number(doc[key]):
            raise DomainError(f"{key} must be a finite number, got {doc[key]!r}")
    return DilemmaPayoffs(*(float(doc[k]) for k in ("T", "R", "S", "P")))


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
        try:
            payoffs = _dilemma_payoffs(doc)
        except DomainError as exc:
            raise SchemaError(f"{path}: {exc}") from None
        return LoadedGame(game=payoffs.to_game(), dilemma=payoffs)
    missing = {"players", "strategies", "payoffs"} - set(doc)
    if missing:
        raise SchemaError(f"{path}: missing keys: {', '.join(sorted(missing))}")
    players, strategies, payoffs = doc["players"], doc["strategies"], doc["payoffs"]
    if not _is_int(players) or players < 1:
        raise SchemaError(f"{path}: players must be a positive integer, got {players!r}")
    if not _is_counts(strategies, players):
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
    if not _is_counts(counts, num_agents):
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
        if not _is_numbers(row, num_states):
            raise SchemaError(f"{path}: transition {key!r} must be {num_states} finite numbers")
        joint = int(np.ravel_multi_index(actions, counts))
        transitions[s, joint] = row
        seen_t[s, joint] = True
    for key, value in doc["rewards"].items():
        parts = _markov_key(
            path, "reward", key, {"agent": num_agents, "state": num_states, **agent_bounds}
        )
        agent, s, actions = parts[0], parts[1], tuple(parts[2:])
        if not _is_finite_number(value):
            raise SchemaError(f"{path}: reward {key!r} must be a finite number, got {value!r}")
        joint = int(np.ravel_multi_index(actions, counts))
        rewards[agent, s, joint] = value
        seen_r[agent, s, joint] = True
    if not seen_t.all():
        raise SchemaError(f"{path}: transitions missing for some (state, joint action)")
    if not seen_r.all():
        raise SchemaError(f"{path}: rewards missing for some (agent, state, joint action)")
    if not _is_numbers(doc["rho0"], num_states):
        raise SchemaError(f"{path}: rho0 must be {num_states} finite numbers")
    if not _is_finite_number(doc["gamma"]):
        raise SchemaError(f"{path}: gamma must be a finite number, got {doc['gamma']!r}")
    try:
        return TabularMarkovGame(
            num_agents=num_agents,
            num_states=num_states,
            action_counts=counts,
            transitions=transitions,
            rewards=rewards,
            initial_dist=np.array(doc["rho0"], dtype=float),
            discount=float(doc["gamma"]),
        )
    except DomainError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _parse_env_spec(spec) -> tuple[list[str], Callable[[int], object] | None]:
    """Read an environment spec once, each field with its default: the
    problems by field, or none and the env constructor taking a seed."""
    if not isinstance(spec, dict):
        return ["env: expected an object"], None
    kind = spec.get("type")
    # membership in a tuple, not a set: JSON arrays and objects are unhashable
    if kind not in ("repeated_matrix", "mini_cleanup", "random_markov", "markov_file"):
        return [f"env.type: unknown environment type {kind!r}"], None
    problems = []
    known = {"type"}

    def read(key, accepts, expected, default=None):
        """The spec's ``key``, ``default`` when absent, or None after
        recording a problem (absent without a default, or not accepted)."""
        known.add(key)
        if key not in spec:
            if default is None:
                problems.append(f"env.{key}: required for {kind}")
                return None
            return default
        if not accepts(spec[key]):
            problems.append(f"env.{key}: must be {expected}, got {spec[key]!r}")
            return None
        return spec[key]

    def integer(key, default=None, minimum=1):
        sign = "positive" if minimum == 1 else "nonnegative"
        return read(key, lambda v: _is_int(v) and v >= minimum, f"a {sign} integer", default)

    # mini-CleanUp's episode_length is a MiniCleanupConfig field, checked there
    length = None if kind == "mini_cleanup" else integer("episode_length", 100)
    if kind == "repeated_matrix":
        raw = read("payoffs", lambda v: isinstance(v, dict), 'a {"T","R","S","P"} object')
        if raw is not None:
            try:
                payoffs = _dilemma_payoffs(raw)
            except DomainError as exc:
                problems.append(f"env.payoffs: {exc}")
        factory = lambda seed: RepeatedMatrixGameEnv(payoffs, length)  # noqa: E731
    elif kind == "mini_cleanup":
        names = [f.name for f in fields(MiniCleanupConfig)]
        known.update(names)
        try:
            config = MiniCleanupConfig(**{name: spec[name] for name in names if name in spec})
        except DomainError as exc:
            problems.extend(f"env.{problem}" for problem in exc.problems)
        factory = lambda seed: MiniCleanupEnv(config, seed)  # noqa: E731
    else:
        if kind == "random_markov":
            agents = integer("agents")
            states = integer("states")
            actions = read(
                "actions", lambda v: _is_counts(v, agents), "one positive integer per agent"
            )
            gamma = read(
                "gamma", lambda v: _is_finite_number(v) and 0 <= v < 1, "a number in [0, 1)"
            )
            game_seed = integer("game_seed", 0, minimum=0)
            if not problems:
                game = random_markov_game(agents, states, actions, float(gamma), game_seed)
        else:  # markov_file
            path = read("path", lambda v: isinstance(v, str) and Path(v).is_file(), "a file")
            if path is not None:
                try:
                    game = load_markov_game(path)
                except (SchemaError, OSError) as exc:
                    problems.append(f"env.path: {exc}")
        factory = lambda seed: MarkovGameEnv(game, length, seed)  # noqa: E731
    unknown = set(spec) - known
    if unknown:
        problems.append(f"env: unknown {kind} fields: {', '.join(sorted(map(str, unknown)))}")
    return problems, None if problems else factory


def validate_env_spec(spec) -> list[str]:
    """Every problem with an environment spec, by field."""
    return _parse_env_spec(spec)[0]


def build_env_factory(spec: dict) -> Callable[[int], object]:
    """An env constructor taking a seed, for the training collectors."""
    problems, factory = _parse_env_spec(spec)
    if problems:
        raise SchemaError("; ".join(problems))
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


def _parse_experiment_config(doc, seed_override=None) -> tuple[list[str], ExperimentConfig | None]:
    """Read an experiment config once: every problem by field, or none and
    the config. ``seed_override`` replaces the config's seed. The training
    settings are checked by building the TrainConfig of every sweep alpha."""
    if not isinstance(doc, dict):
        return ["config: expected a JSON object"], None
    problems = validate_env_spec(doc.get("env"))
    alphas = doc.get("alpha", [1.0])
    if not isinstance(alphas, list) or not alphas:
        problems.append("alpha: must be a nonempty array")
        alphas = [1.0]  # the other settings are still checked
    if "out" not in doc:
        problems.append("out: output directory required")
    elif not isinstance(doc["out"], str):
        problems.append(f"out: must be a path string, got {doc['out']!r}")
    elif not doc["out"]:
        problems.append("out: must be a nonempty path")
    unknown = set(doc) - {"env", "algorithm", "objective", "alpha", "seed", "out", *TRAIN_FIELDS}
    if unknown:
        problems.append(f"config: unknown fields: {', '.join(sorted(unknown))}")
    settings = {k: doc[k] for k in ("algorithm", "objective", "seed") if k in doc}
    overrides = {k: doc[k] for k in TRAIN_FIELDS if k in doc}
    for alpha in alphas:
        try:
            train_config = TrainConfig(alpha=alpha, **settings, **overrides)
        except DomainError as exc:
            problems += [p for p in exc.problems if p not in problems]
    if problems:
        return problems, None
    return [], ExperimentConfig(
        env=doc["env"],
        algorithm=train_config.algorithm,
        objective=train_config.objective,
        alphas=[float(a) for a in alphas],
        seed=train_config.seed if seed_override is None else seed_override,
        out=doc["out"],
        overrides=overrides,
    )


def validate_experiment_config(doc) -> list[str]:
    """Total validation: one named error per invalid field."""
    return _parse_experiment_config(doc)[0]


def load_experiment_config(path, seed_override: int | None = None) -> ExperimentConfig:
    problems, config = _parse_experiment_config(read_json(path), seed_override)
    if problems:
        raise SchemaError("; ".join(problems))
    return config


HASH_BLOCK_BYTES = 1 << 20


def file_sha256(path) -> str:
    """Hex sha256 of a file, read in blocks of ``HASH_BLOCK_BYTES``."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(HASH_BLOCK_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


def _numeric_profile() -> dict:
    """What a run's float bits depend on besides the code and config:
    numpy's version, its SIMD baseline and the SIMD targets it found on
    this CPU, the BLAS it links, and a short sha256 of ``np.exp`` and
    ``np.log`` over a fixed probe vector (their rounding follows the
    dispatch target). Two hosts whose digests differ can be told apart by
    it."""
    config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    probe = np.linspace(1e-3, 30.0, 4096)
    probe_hash = hashlib.sha256(np.exp(probe).tobytes() + np.log(probe).tobytes())
    return {
        "numpy": np.__version__,
        "simd_baseline": list(simd.get("baseline", [])),
        "simd_found": list(simd.get("found", [])),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "exp_log_sha256": probe_hash.hexdigest()[:16],
    }


def write_manifest(
    run_dir,
    config_snapshot: dict,
    seed: int,
    started_at: str,
    finished_at: str,
    notes: dict | None = None,
) -> Path:
    """Record the run's config, seed, timestamps, numeric profile
    (``_numeric_profile``) and a hash inventory of every other file under
    the run directory."""
    from . import __version__

    run_dir = Path(run_dir)
    files = {}
    for entry in sorted(run_dir.rglob("*")):
        if entry.is_file() and entry.name != "manifest.json":
            files[str(entry.relative_to(run_dir))] = file_sha256(entry)
    manifest = {
        "config": config_snapshot,
        "library_version": __version__,
        "numeric_profile": _numeric_profile(),
        "seed": seed,
        "started_at": started_at,
        "finished_at": finished_at,
        "files": files,
        "notes": notes or {},
    }
    path = run_dir / "manifest.json"
    with open_fresh(path) as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True))
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
