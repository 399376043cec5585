import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from fairgame.cli import main
from fairgame.envs import MiniCleanupConfig, random_markov_game
from fairgame.errors import DomainError, SchemaError
from fairgame.formats import (
    HASH_BLOCK_BYTES,
    _numeric_profile,
    build_env_factory,
    file_sha256,
    load_experiment_config,
    load_game_file,
    load_markov_game,
    load_policy_snapshot,
    open_fresh,
    save_markov_game,
    validate_env_spec,
    validate_experiment_config,
    verify_manifest,
    write_manifest,
)
from fairgame import cli, learning, metrics
from fairgame.cli import _sweep_shares
from fairgame.learning import TrainConfig, save_policy_snapshot, train
from fairgame.markov import SoftmaxPolicyProfile
from fairgame.metrics import emit_plot_data


def saved_markov_doc(tmp_path, game) -> dict:
    """The JSON document ``save_markov_game`` writes for ``game``, read back
    from a file of its own, so that a test writes its edit to a fresh path
    rather than rewriting that file in place."""
    source = tmp_path / "saved_markov.json"
    save_markov_game(source, game)
    return json.loads(source.read_text())


class TestGameFiles:
    def test_dilemma_shorthand(self, tmp_path):
        path = tmp_path / "pd.json"
        path.write_text(json.dumps({"T": 5, "R": 3, "S": 1, "P": 2}))
        loaded = load_game_file(path)
        assert loaded.dilemma is not None
        assert loaded.game.payoff(0, (1, 0)) == 5.0

    def test_general_format_row_major_player_innermost(self, tmp_path):
        path = tmp_path / "game.json"
        payoffs = [3, 3, 1, 5, 5, 1, 2, 2]  # PD(5,3,1,2) flattened
        path.write_text(
            json.dumps({"players": 2, "strategies": [2, 2], "payoffs": payoffs})
        )
        loaded = load_game_file(path)
        assert loaded.dilemma is None
        assert loaded.game.payoff(0, (0, 0)) == 3.0
        assert loaded.game.payoff(1, (0, 1)) == 5.0

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"players": 2, "strategies": [2, 2], "payoffs": [1, 2]}))
        with pytest.raises(SchemaError):
            load_game_file(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"players": 2,\n  "strategies": [2 2]}')
        with pytest.raises(SchemaError, match="line"):
            load_game_file(path)


class TestMarkovGameFiles:
    def test_round_trip(self, tmp_path):
        game = random_markov_game(2, 3, (2, 3), 0.92, seed=4)
        path = tmp_path / "markov.json"
        save_markov_game(path, game)
        loaded = load_markov_game(path)
        assert loaded.num_agents == game.num_agents
        assert loaded.action_counts == game.action_counts
        assert np.allclose(loaded.transitions, game.transitions)
        assert np.allclose(loaded.rewards, game.rewards)
        assert np.allclose(loaded.initial_dist, game.initial_dist)
        assert loaded.discount == game.discount

    def test_missing_entries_rejected(self, tmp_path):
        game = random_markov_game(2, 2, (2, 2), 0.9, seed=5)
        path = tmp_path / "markov.json"
        doc = saved_markov_doc(tmp_path, game)
        doc["transitions"].popitem()
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            load_markov_game(path)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("transitions", "x,0,0", [0.5, 0.5]),
            ("transitions", "0,0", [0.5, 0.5]),
            ("transitions", "-1,0,0", [0.5, 0.5]),
            ("transitions", "0,-1,0", [0.5, 0.5]),
            ("transitions", "2,0,0", [0.5, 0.5]),
            ("transitions", "0,0,2", [0.5, 0.5]),
            ("transitions", "0,0,0", [0.5]),
            ("transitions", "0,0,0", [[0.5, 0.5]]),
            ("transitions", "0,0,0", ["a", "b"]),
            ("transitions", "0,0,0", ["0.5", "0.5"]),
            ("transitions", "0,0,0", [True, False]),
            ("rewards", "0,x,0,0", 1.0),
            ("rewards", "2,0,0,0", 1.0),
            ("rewards", "0,0,-1,0", 1.0),
            ("rewards", "0,0,0,0", "high"),
            ("rewards", "0,0,0,0", "1.5"),
            ("rewards", "0,0,0,0", True),
        ],
    )
    def test_malformed_entry_names_key(self, tmp_path, section, key, value):
        game = random_markov_game(2, 2, (2, 2), 0.9, seed=5)
        path = tmp_path / "markov.json"
        doc = saved_markov_doc(tmp_path, game)
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=repr(key)):
            load_markov_game(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("agents", "two"),
            ("actions", [2]),
            ("states", 0),
            ("rho0", [1.0]),
            ("rho0", ["0.5", "0.5"]),
            ("rho0", [True, False]),
            ("gamma", "x"),
            ("gamma", "0.5"),
            ("gamma", True),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, field, value):
        game = random_markov_game(2, 2, (2, 2), 0.9, seed=5)
        path = tmp_path / "markov.json"
        doc = saved_markov_doc(tmp_path, game)
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=field):
            load_markov_game(path)


MISTYPED_CONFIG_FIELDS = [
    ("num_envs", 2.5),
    ("ppo_epochs", 1.5),
    ("total_steps", True),
    ("learning_rate", "0.1"),
    ("gamma", None),
    ("entropy_coef", [0.01]),
    ("v_floor", float("inf")),
    ("critic_lr", "0.1"),
    ("critic_lr", float("nan")),
    ("normalize_advantages", 1),
    ("alpha", [True]),
    ("alpha", [0.5, "1"]),
    ("out", 5),
]


class TestExperimentConfig:
    def base_doc(self, tmp_path):
        return {
            "env": {
                "type": "repeated_matrix",
                "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2},
                "episode_length": 10,
            },
            "algorithm": "FairMAA2C",
            "objective": "ProportionalFair",
            "alpha": [0.0, 1.0],
            "seed": 3,
            "out": str(tmp_path / "runs"),
            "total_steps": 40,
            "num_envs": 2,
        }

    def test_valid_config_loads(self, tmp_path):
        doc = self.base_doc(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = load_experiment_config(path)
        assert config.alphas == [0.0, 1.0]
        assert config.train_config(0.5, 9).alpha == 0.5

    def test_validation_is_total(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["algorithm"] = "Nonsense"
        doc["alpha"] = [2.5]
        doc["env"] = {"type": "unknown_env"}
        doc["bogus_field"] = 1
        problems = validate_experiment_config(doc)
        text = "\n".join(problems)
        assert "algorithm" in text
        assert "alpha" in text
        assert "env.type" in text
        assert "bogus_field" in text
        assert len(problems) >= 4

    def test_boolean_seed_rejected(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc["seed"] = True
        problems = validate_experiment_config(doc)
        assert any(p.startswith("seed:") for p in problems)

    @pytest.mark.parametrize("field, value", MISTYPED_CONFIG_FIELDS)
    def test_mistyped_field_named_and_train_exits_2(self, tmp_path, capsys, field, value):
        doc = self.base_doc(tmp_path)
        doc[field] = value
        problems = validate_experiment_config(doc)
        assert problems and all(p.startswith(f"{field}:") for p in problems), problems
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["train", str(path)]) == 2
        assert f"{field}:" in capsys.readouterr().err

    def test_range_problems_name_their_field(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc.update(learning_rate=-1.0, ppo_clip=1.5)
        problems = validate_experiment_config(doc)
        assert sorted(p.split(":")[0] for p in problems) == ["learning_rate", "ppo_clip"]

    def test_every_sweep_alpha_is_checked_and_problems_are_not_repeated(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc.update(alpha=[0.5, 2.0, True, 2.0], seed=-1)
        assert validate_experiment_config(doc) == [
            "seed: must be a nonnegative integer, got -1",
            "alpha: must lie in [0, 1], got 2.0",
            "alpha: must be a finite number, got True",
        ]

    def test_typed_fields_accept_json_forms(self, tmp_path):
        doc = self.base_doc(tmp_path)
        doc.update(critic_init=3, critic_lr=None, normalize_advantages=True, alpha=[0, 1])
        assert validate_experiment_config(doc) == []

    @pytest.mark.parametrize("field, value", [("ppo_value_clip", True), ("episode_length", 7)])
    def test_removed_train_field_is_unknown(self, tmp_path, capsys, field, value):
        doc = self.base_doc(tmp_path)
        doc[field] = value
        problems = validate_experiment_config(doc)
        assert problems == [f"config: unknown fields: {field}"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["train", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        doc = self.base_doc(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config = load_experiment_config(path, seed_override=77)
        assert config.seed == 77

    def test_env_factories(self, tmp_path):
        matrix = build_env_factory(
            {"type": "repeated_matrix", "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2}}
        )(0)
        assert matrix.num_agents == 2
        cleanup = build_env_factory(
            {"type": "mini_cleanup", "width": 4, "height": 4, "num_agents": 2}
        )(1)
        assert cleanup.num_agents == 2
        markov = build_env_factory(
            {
                "type": "random_markov",
                "agents": 2,
                "states": 3,
                "actions": [2, 2],
                "gamma": 0.9,
                "episode_length": 5,
            }
        )(2)
        assert markov.num_states == 3


RANDOM_MARKOV = {"type": "random_markov", "agents": 2, "states": 3, "actions": [2, 2], "gamma": 0.9}
PD_SPEC = {"type": "repeated_matrix", "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2}}
MINI_CLEANUP = {"type": "mini_cleanup", "width": 4, "height": 4, "num_agents": 2}

MALFORMED_ENV_SPECS = [
    (PD_SPEC, "episode_length", "abc"),
    (PD_SPEC, "episode_length", 0),
    (PD_SPEC, "episode_length", 2.5),
    (PD_SPEC, "episode_length", True),
    (RANDOM_MARKOV, "episode_length", -1),
    (RANDOM_MARKOV, "agents", "two"),
    (RANDOM_MARKOV, "agents", 0),
    (RANDOM_MARKOV, "states", 1.5),
    (RANDOM_MARKOV, "game_seed", "x"),
    (RANDOM_MARKOV, "game_seed", -1),
    (RANDOM_MARKOV, "actions", "2,2"),
    (RANDOM_MARKOV, "actions", [2]),
    (RANDOM_MARKOV, "actions", [2, 0]),
    (RANDOM_MARKOV, "actions", [2, "2"]),
    (RANDOM_MARKOV, "gamma", "0.9"),
    (RANDOM_MARKOV, "gamma", 1.0),
    (RANDOM_MARKOV, "gamma", -0.1),
    (RANDOM_MARKOV, "gamma", True),
    ({"type": "markov_file"}, "episode_length", "abc"),
    (MINI_CLEANUP, "width", "8"),
    (MINI_CLEANUP, "episode_length", "abc"),
    (MINI_CLEANUP, "episode_length", 2.5),
    (MINI_CLEANUP, "num_agents", 0),
    (MINI_CLEANUP, "num_agents", True),
    (MINI_CLEANUP, "num_agents", 17),
    (MINI_CLEANUP, "river_rows", -1),
    (MINI_CLEANUP, "river_rows", 5),
    (MINI_CLEANUP, "regen_rate", "0.1"),
    (MINI_CLEANUP, "regen_rate", 1.5),
    (MINI_CLEANUP, "base_reward", 0),
    (MINI_CLEANUP, "pollution_increment", float("nan")),
    (PD_SPEC, "payoffs", {"T": "5", "R": 3, "S": 1, "P": 2}),
    (PD_SPEC, "payoffs", {"T": True, "R": 3, "S": 1, "P": 2}),
    (PD_SPEC, "payoffs", {"T": [5], "R": 3, "S": 1, "P": 2}),
    (PD_SPEC, "payoffs", {"T": 5, "R": float("nan"), "S": 1, "P": 2}),
    (PD_SPEC, "payoffs", {"T": 5, "R": 3, "S": 0, "P": 2}),
    (PD_SPEC, "payoffs", {"T": 5, "R": 3, "S": 1}),
]
MALFORMED_IDS = [f"{base['type']}-{key}-{value!r}" for base, key, value in MALFORMED_ENV_SPECS]


class TestDirectConstruction:
    """Constructing the config dataclasses rejects the cases the JSON loaders
    reject, with one DomainError naming each invalid field."""

    @staticmethod
    def problems(config_class, **values) -> list[str]:
        """The problems of the DomainError that construction raises, each
        also in its message."""
        with pytest.raises(DomainError) as info:
            config_class(**values)
        for problem in info.value.problems:
            assert problem in str(info.value)
        return info.value.problems

    @pytest.mark.parametrize(
        "field, value",
        # a sweep's alphas are checked one by one
        [(f, v) for f, v in MISTYPED_CONFIG_FIELDS if f not in ("alpha", "out")]
        + [("alpha", True), ("alpha", "1")]
        + [
            ("ppo_epochs", True),
            ("entropy_coef", float("nan")),
            ("critic_init", float("inf")),
            ("lr_floor", float("inf")),
            ("algorithm", "x"),
            ("objective", "x"),
            ("seed", -1),
        ],
    )
    def test_train_config_names_the_field(self, field, value):
        (problem,) = self.problems(TrainConfig, **{field: value})
        assert problem.startswith(f"{field}:")

    def test_train_config_names_every_range_problem(self):
        problems = self.problems(TrainConfig, learning_rate=-1.0, ppo_clip=1.5)
        assert [p.split(":")[0] for p in problems] == ["learning_rate", "ppo_clip"]

    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for base, key, value in MALFORMED_ENV_SPECS if base is MINI_CLEANUP]
        + [("width", 2.5), ("apple_reward", float("inf"))],
    )
    def test_mini_cleanup_config_names_the_field_as_the_loader_does(self, key, value):
        spec = {**MINI_CLEANUP, key: value}
        values = {k: v for k, v in spec.items() if k != "type"}
        (problem,) = self.problems(MiniCleanupConfig, **values)
        assert problem.startswith(f"{key}:")
        assert validate_env_spec(spec) == [f"env.{problem}"]


class TestEnvSpecValidation:
    def spec(self, tmp_path, base, key, value):
        spec = dict(base, **{key: value})
        if spec["type"] == "markov_file":
            spec["path"] = str(tmp_path / "markov.json")
            save_markov_game(spec["path"], random_markov_game(2, 2, (2, 2), 0.9, seed=5))
        return spec

    @pytest.mark.parametrize("base, key, value", MALFORMED_ENV_SPECS, ids=MALFORMED_IDS)
    def test_rejected_by_field(self, tmp_path, base, key, value):
        problems = validate_env_spec(self.spec(tmp_path, base, key, value))
        assert len(problems) == 1
        assert problems[0].startswith(f"env.{key}:")

    @pytest.mark.parametrize("base, key, value", MALFORMED_ENV_SPECS, ids=MALFORMED_IDS)
    def test_eval_and_train_exit_2(self, tmp_path, capsys, base, key, value):
        spec = self.spec(tmp_path, base, key, value)
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(spec))
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(1, (2, 2)))
        assert main(["eval", str(snapshot), "--env", str(env_path)]) == 2
        assert f"env.{key}:" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"env": spec, "out": str(tmp_path / "runs")}))
        assert main(["train", str(config)]) == 2
        assert f"env.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"T": "5", "R": 3, "S": 1, "P": 2}, "T"),
            ({"T": 5, "R": True, "S": 1, "P": 2}, "R"),
            ({"T": 5, "R": 3, "S": [1], "P": 2}, "S"),
            ({"T": 5, "R": 3, "S": 1, "P": float("nan")}, "P"),
            ({"T": 5, "R": 3, "S": 0, "P": 2}, "S"),
            ({"T": 5, "R": 3, "S": 1}, "P"),
        ],
    )
    def test_payoff_problem_names_its_key(self, doc, key):
        (problem,) = validate_env_spec(dict(PD_SPEC, payoffs=doc))
        assert problem.startswith(f"env.payoffs: {key}") or f" {key}=" in problem

    @pytest.mark.parametrize("base", [PD_SPEC, MINI_CLEANUP, RANDOM_MARKOV, {"type": "markov_file"}])
    def test_unknown_key_rejected_for_every_kind(self, tmp_path, capsys, base):
        spec = self.spec(tmp_path, base, "episode_lenght", 50)
        assert validate_env_spec(spec) == [f"env: unknown {base['type']} fields: episode_lenght"]
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(spec))
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(1, (2, 2)))
        assert main(["eval", str(snapshot), "--env", str(env_path)]) == 2
        assert "episode_lenght" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"env": spec, "out": str(tmp_path / "runs")}))
        assert main(["train", str(config)]) == 2
        assert "episode_lenght" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("kind", [[], {}, ["repeated_matrix"], None, 3])
    def test_unhashable_or_unknown_type_named(self, kind):
        spec = dict(PD_SPEC, type=kind)
        assert validate_env_spec(spec) == [f"env.type: unknown environment type {kind!r}"]
        with pytest.raises(SchemaError, match="env.type"):
            build_env_factory(spec)

    def test_markov_file_parsed_before_any_run_directory(self, tmp_path, capsys):
        game_path = tmp_path / "markov.json"
        game_path.write_text(json.dumps({"agents": 2, "states": 2}))
        spec = {"type": "markov_file", "path": str(game_path)}
        (problem,) = validate_env_spec(spec)
        assert problem.startswith(f"env.path: {game_path}: missing keys")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"env": spec, "out": str(tmp_path / "runs")}))
        assert main(["train", str(config)]) == 2
        assert str(game_path) in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "gamma", "0.5"),
            (None, "rho0", [True, False]),
            ("rewards", "0,0,0,0", "1.5"),
            ("transitions", "1,1,1", ["0.5", "0.5"]),
        ],
    )
    def test_markov_file_string_or_boolean_number_exits_2(
        self, tmp_path, capsys, section, key, value
    ):
        game_path = tmp_path / "markov.json"
        doc = saved_markov_doc(tmp_path, random_markov_game(2, 2, (2, 2), 0.9, seed=5))
        (doc if section is None else doc[section])[key] = value
        game_path.write_text(json.dumps(doc))
        spec = {"type": "markov_file", "path": str(game_path)}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"env": spec, "out": str(tmp_path / "runs")}))
        assert main(["train", str(config)]) == 2
        assert key in capsys.readouterr().err.split(str(game_path), 1)[1]
        assert not (tmp_path / "runs").exists()

    def test_random_markov_defaults_accepted(self):
        assert validate_env_spec(RANDOM_MARKOV) == []
        assert validate_env_spec(dict(RANDOM_MARKOV, gamma=0, game_seed=0)) == []


MALFORMED_SNAPSHOTS = [
    "{not json",
    '{"a": 1}',
    "[[[1.0, \"x\"]], [[0, 0]]]",
    "[[1.0, 2.0]]",
    "[[[1.0], [1.0, 2.0]]]",
    "[[[true, false]]]",
    "[[]]",
    "[[[NaN, 0.0]]]",
    "[[[1.0, Infinity]]]",
]


class TestPolicySnapshotFiles:
    @pytest.mark.parametrize("text", MALFORMED_SNAPSHOTS)
    def test_malformed_snapshot_rejected(self, tmp_path, capsys, text):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text(text)
        with pytest.raises(SchemaError, match=str(snapshot)):
            load_policy_snapshot(snapshot)
        env_spec = tmp_path / "env.json"
        env_spec.write_text(json.dumps(PD_SPEC))
        assert main(["eval", str(snapshot), "--env", str(env_spec)]) == 2
        assert str(snapshot) in capsys.readouterr().err

    def test_integer_tables_load_as_floats(self, tmp_path):
        snapshot = tmp_path / "snap.json"
        snapshot.write_text("[[[1, 2]], [[0.5, -3]]]")
        policies = load_policy_snapshot(snapshot)
        assert [t.dtype for t in policies.logits] == [np.float64, np.float64]
        assert policies.logits[1].tolist() == [[0.5, -3.0]]


class TestManifest:
    def test_write_and_verify(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "log.csv").write_text("step\n1\n")
        write_manifest(run_dir, {"alpha": 1.0}, seed=3, started_at="t0", finished_at="t1")
        assert verify_manifest(run_dir) == []
        (run_dir / "log.csv").unlink()  # a fresh file, not the old one rewritten in place
        (run_dir / "log.csv").write_text("step\n2\n")
        problems = verify_manifest(run_dir)
        assert problems and "log.csv" in problems[0]

    def test_numeric_profile_is_recorded_and_stable(self, tmp_path):
        profiles = []
        for name in ("a", "b"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            write_manifest(run_dir, {}, seed=0, started_at="t0", finished_at="t1")
            profiles.append(json.loads((run_dir / "manifest.json").read_text())["numeric_profile"])
        assert profiles[0] == profiles[1] == _numeric_profile() == _numeric_profile()
        assert set(profiles[0]) == {
            "numpy", "simd_baseline", "simd_found", "blas", "exp_log_sha256"
        }
        assert profiles[0]["numpy"] == np.__version__
        assert len(profiles[0]["exp_log_sha256"]) == 16

    @pytest.mark.parametrize("size", [0, 3, 3 * HASH_BLOCK_BYTES + 12345])
    def test_hash_matches_contents(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        target = tmp_path / "x.bin"
        target.write_bytes(data)
        assert file_sha256(target) == hashlib.sha256(data).hexdigest()


class TestCliAnalyze:
    def test_pd_report(self, tmp_path, capsys):
        game_file = tmp_path / "pd.json"
        game_file.write_text(json.dumps({"T": 5, "R": 3, "S": 1, "P": 2}))
        out_file = tmp_path / "report.json"
        code = main(
            ["analyze", str(game_file), "--alpha", "0.2,0.6", "--out", str(out_file)]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert json.loads(out_file.read_text()) == report
        assert report["class"] == "PrisonersDilemma"
        assert report["alpha_g"] == pytest.approx(0.46497, abs=5e-5)
        assert report["alpha_g_bruteforce"] == pytest.approx(0.46497, abs=2e-5)
        assert report["ts_le_r2"] is True
        assert report["pure_nash"] == [[1, 1]]
        assert report["transformed"]["0.2"]["has_social_optimum"] is False
        assert report["transformed"]["0.6"]["has_social_optimum"] is True

    @pytest.mark.parametrize("resolution", ["inf", "nan", "0", "-0.1"])
    def test_non_finite_or_nonpositive_resolution_exits_2(self, tmp_path, capsys, resolution):
        game_file = tmp_path / "pd.json"
        game_file.write_text(json.dumps({"T": 5, "R": 3, "S": 1, "P": 2}))
        assert main(["analyze", str(game_file), "--resolution", resolution]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: grid_resolution must be positive and finite" in captured.err
        assert captured.err.rstrip().endswith(f"got {float(resolution)}")

    def test_subnormal_resolution_exits_2(self, tmp_path, capsys):
        game_file = tmp_path / "pd.json"
        game_file.write_text(json.dumps({"T": 5, "R": 3, "S": 1, "P": 2}))
        assert main(["analyze", str(game_file), "--resolution", "1e-320"]) == 2
        assert "error: grid_resolution must be at least" in capsys.readouterr().err

    def test_general_game_level_is_an_exact_grid_point(self, tmp_path, capsys):
        game_file = tmp_path / "general.json"
        game_file.write_text(json.dumps(
            {"players": 2, "strategies": [2, 2], "payoffs": [3, 3.5, 1, 5, 5, 1, 2, 2]}
        ))
        assert main(["analyze", str(game_file), "--resolution", "1e-3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_g_bruteforce"] == 408 * 1e-3
        # a resolution small against the level: the scan starts next to it
        assert main(["analyze", str(game_file), "--resolution", "1e-9"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["alpha_g_bruteforce"] == 407759199 * 1e-9

    def test_stag_hunt_alpha_zero(self, tmp_path, capsys):
        game_file = tmp_path / "stag.json"
        game_file.write_text(json.dumps({"T": 3, "R": 4, "S": 1, "P": 2}))
        assert main(["analyze", str(game_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["class"] == "StagHunt"
        assert report["alpha_g"] == 0.0

    def test_zero_payoff_exits_validation(self, tmp_path, capsys):
        game_file = tmp_path / "zero.json"
        game_file.write_text(json.dumps({"T": 5, "R": 3, "S": 0, "P": 2}))
        assert main(["analyze", str(game_file)]) == 2
        err = capsys.readouterr().err
        assert "positive" in err

    def test_general_game_report(self, tmp_path, capsys):
        game_file = tmp_path / "coord.json"
        game_file.write_text(
            json.dumps(
                {
                    "players": 2,
                    "strategies": [2, 2],
                    "payoffs": [2, 2, 0.5, 0.5, 0.5, 0.5, 1, 1],
                }
            )
        )
        assert main(["analyze", str(game_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "class" not in report
        assert report["pure_nash"] == [[0, 0], [1, 1]]

    def test_missing_file(self, capsys):
        assert main(["analyze", "no_such_file.json"]) == 2

    def test_out_naming_a_directory_exits_2_before_the_report(self, tmp_path, capsys):
        game_file = tmp_path / "pd.json"
        game_file.write_text(json.dumps({"T": 5, "R": 3, "S": 1, "P": 2}))
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        assert main(["analyze", str(game_file), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --out {out_dir}: a directory" in captured.err
        assert list(out_dir.iterdir()) == []

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        game_file = tmp_path / "game.json"
        game_file.write_bytes(b"\xff\xfe{}")
        assert main(["analyze", str(game_file)]) == 2
        assert f"{game_file}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [",", "0.5,,", ",0.5", "", "x", "0.2,half", "1.5", "-0.1", "nan"])
    def test_malformed_alpha_list_exits_2(self, tmp_path, capsys, raw):
        game_file = tmp_path / "pd.json"
        game_file.write_text(json.dumps({"T": 5, "R": 3, "S": 1, "P": 2}))
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", str(game_file), "--alpha", raw])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--alpha" in err
        assert "expected comma-separated numbers in [0, 1]" in err

    def test_alpha_list_accepts_bounds_and_spaces(self, tmp_path, capsys):
        game_file = tmp_path / "pd.json"
        game_file.write_text(json.dumps({"T": 5, "R": 3, "S": 1, "P": 2}))
        assert main(["analyze", str(game_file), "--alpha", "0, 1 ,0.5"]) == 0
        assert list(json.loads(capsys.readouterr().out)["transformed"]) == ["0", "1", "0.5"]

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"T": "x", "R": 3, "S": 1, "P": 2}, "T"),
            ({"T": 5, "R": True, "S": 1, "P": 2}, "R"),
            ({"T": 5, "R": 3, "S": None, "P": 2}, "S"),
            ({"T": 5, "R": 3, "S": 1, "P": [2]}, "P"),
            ({"T": 5, "R": 3, "S": 1, "P": float("inf")}, "P"),
            ({"T": 5, "R": 3, "S": -1, "P": 2}, "S"),
            ({"players": "2", "strategies": [2, 2], "payoffs": [1] * 8}, "players"),
            ({"players": True, "strategies": [2], "payoffs": [1] * 2}, "players"),
            ({"players": 0, "strategies": [], "payoffs": []}, "players"),
            ({"players": 2, "strategies": [2, 1.5], "payoffs": [1] * 6}, "strategies"),
            ({"players": 2, "strategies": [2], "payoffs": [1] * 4}, "strategies"),
            ({"players": 2, "strategies": 2, "payoffs": [1] * 8}, "strategies"),
            ({"players": 2, "strategies": [2, 0], "payoffs": []}, "strategies"),
            ({"players": 2, "strategies": [2, 2], "payoffs": [[1] * 4] * 2}, "payoffs"),
            ({"players": 2, "strategies": [2, 2], "payoffs": [1] * 7 + ["x"]}, "payoffs"),
            ({"players": 2, "strategies": [2, 2], "payoffs": [1] * 7 + [float("nan")]}, "payoffs"),
            ({"players": 2, "strategies": [2, 2], "payoffs": "12345678"}, "payoffs"),
        ],
    )
    def test_malformed_game_exits_2_naming_file_and_key(self, tmp_path, capsys, doc, key):
        game_file = tmp_path / "game.json"
        game_file.write_text(json.dumps(doc))
        assert main(["analyze", str(game_file)]) == 2
        err = capsys.readouterr().err
        assert str(game_file) in err
        assert key in err.split(str(game_file), 1)[1]


class TestOpenFresh:
    def test_replaces_rather_than_truncates(self, tmp_path):
        target = tmp_path / "log.csv"
        target.write_text("old\n")
        os.link(target, tmp_path / "link")
        with open_fresh(target) as handle:
            handle.write("new\n")
        assert target.read_text() == "new\n"
        # the old file lives on under its other name: it was unlinked, not rewritten
        assert (tmp_path / "link").read_text() == "old\n"

    def test_missing_target_is_created(self, tmp_path):
        with open_fresh(tmp_path / "fresh.csv", newline="") as handle:
            handle.write("x\n")
        assert (tmp_path / "fresh.csv").read_text() == "x\n"

    def test_directory_target_is_left_in_place(self, tmp_path):
        target = tmp_path / "log.csv"
        target.mkdir()
        (target / "inside").write_text("kept")
        with pytest.raises(IsADirectoryError):
            open_fresh(target)
        assert (target / "inside").read_text() == "kept"


class TestCliTrainEvalPlot:
    def write_config(self, tmp_path, name="config.json", **overrides):
        doc = {
            "env": {
                "type": "repeated_matrix",
                "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2},
                "episode_length": 10,
            },
            "algorithm": "FairMAA2C",
            "alpha": [0.0, 1.0],
            "seed": 5,
            "out": str(tmp_path / "runs"),
            "total_steps": 40,
            "num_envs": 2,
            "learning_rate": 0.5,
            "critic_lr": 0.2,
            "critic_init": 30.0,
        }
        doc.update(overrides)
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    def test_sweep_produces_runs_and_manifests(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["train", str(config)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["runs"]) == 2
        for record in out["runs"]:
            assert record["status"] == "ok"
            run_dir = tmp_path / "runs" / record["run_id"]
            for name in ("config.json", "log.csv", "snapshot.json", "manifest.json"):
                assert (run_dir / name).exists()
            assert (run_dir / "panels" / "panel_gini.csv").exists()
            assert verify_manifest(run_dir) == []

    def test_determinism_modulo_timestamps(self, tmp_path, capsys):
        config_a = self.write_config(tmp_path, "config_a.json", out=str(tmp_path / "runs_a"))
        assert main(["train", str(config_a)]) == 0
        config_b = self.write_config(tmp_path, "config_b.json", out=str(tmp_path / "runs_b"))
        assert main(["train", str(config_b)]) == 0
        capsys.readouterr()
        for run_id in os.listdir(tmp_path / "runs_a"):
            if not (tmp_path / "runs_a" / run_id).is_dir():
                continue
            a = json.loads((tmp_path / "runs_a" / run_id / "manifest.json").read_text())
            b = json.loads((tmp_path / "runs_b" / run_id / "manifest.json").read_text())
            assert a["files"] == b["files"]
            assert a["seed"] == b["seed"]

    def test_rerun_into_same_out_gives_same_bytes(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        runs = tmp_path / "runs"

        def contents():
            # manifest.json and sweep.json carry timestamps
            return {
                str(path.relative_to(runs)): path.read_bytes()
                for path in sorted(runs.rglob("*"))
                if path.is_file() and path.name not in ("manifest.json", "sweep.json")
            }

        assert main(["train", str(config)]) == 0
        first = contents()
        assert main(["train", str(config)]) == 0
        capsys.readouterr()
        assert {name.rsplit("/", 1)[-1] for name in first} >= {
            "config.json", "log.csv", "snapshot.json", "panel_gini.csv", "panel_gini.svg"
        }
        assert contents() == first
        for run_dir in runs.iterdir():
            if run_dir.is_dir():
                assert verify_manifest(run_dir) == []

    @pytest.mark.parametrize("inside", [False, True])
    def test_out_that_is_not_a_directory_exits_2(self, tmp_path, capsys, inside):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out = taken / "sub" if inside else taken
        config = self.write_config(tmp_path, out=str(out))
        assert main(["train", str(config)]) == 2
        assert f"error: out: {out} is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]

    def test_empty_out_exits_2_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # an empty path would put every run directory and sweep.json in the
        # working directory
        config = self.write_config(tmp_path, out="")
        monkeypatch.chdir(tmp_path)
        assert main(["train", str(config)]) == 2
        assert "error: out: must be a nonempty path" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("run_id", ["FairMAA2C_alpha0_seed5", "FairMAA2C_alpha1_seed6"])
    def test_run_dir_that_is_a_file_exits_2_before_any_item_trains(
        self, tmp_path, capsys, run_id
    ):
        runs = tmp_path / "runs"
        runs.mkdir()
        taken = runs / run_id
        taken.write_text("not a directory")
        config = self.write_config(tmp_path)
        assert main(["train", str(config), "--jobs", "2"]) == 2
        assert f"error: out: {taken} is not a directory" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"
        assert [p for p in runs.rglob("*") if p.is_file()] == [taken]

    def test_fairgame_seed_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FAIRGAME_SEED", "99")
        config = self.write_config(tmp_path, alpha=[1.0])
        assert main(["train", str(config)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["runs"][0]["run_id"].endswith("seed99")

    def test_negative_config_seed_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, seed=-1)
        assert validate_experiment_config(json.loads(config.read_text())) == [
            "seed: must be a nonnegative integer, got -1"
        ]
        assert main(["train", str(config)]) == 2
        assert "seed:" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("raw", ["-3", "x", "", "1.5"])
    def test_malformed_fairgame_seed_exits_2(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("FAIRGAME_SEED", raw)
        config = self.write_config(tmp_path)
        assert main(["train", str(config)]) == 2
        assert "FAIRGAME_SEED" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_eval_negative_seed_exits_2(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(1, (2, 2)))
        env_spec = tmp_path / "env.json"
        env_spec.write_text(json.dumps(PD_SPEC))
        assert main(["eval", str(snapshot), "--env", str(env_spec), "--seed", "-2"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path, alpha=[3.0])
        assert main(["train", str(config)]) == 2

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_training_fails_every_item(self, tmp_path, capsys):
        config = self.write_config(tmp_path, learning_rate=1e308, critic_init=0.0)
        assert main(["train", str(config)]) == 1
        runs = json.loads(capsys.readouterr().out)["runs"]
        assert [r["status"] for r in runs] == ["failed", "failed"]
        for record in runs:
            assert record["error"] == "DomainError: update 0, agent 0: non-finite logits"
            run_dir = tmp_path / "runs" / record["run_id"]
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert manifest["notes"]["error"] == record["error"]
            assert not (run_dir / "log.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failed_item_leaves_the_others_of_its_batch_unchanged(
        self, tmp_path, capsys, monkeypatch
    ):
        # the alpha 0.5 item's fair advantages turn NaN from its third
        # update: it fails with the error its run raises alone, and the two
        # other items of its batch write what a clean sweep writes
        overrides = {"alpha": [0.0, 0.5, 1.0], "total_steps": 200}

        def outputs(out):
            config = self.write_config(tmp_path, name=f"{out}.json", out=str(tmp_path / out),
                                       **overrides)
            code = main(["train", str(config)])
            runs = json.loads(capsys.readouterr().out)["runs"]
            files = {
                (r["run_id"], path.relative_to(r["dir"]).as_posix()): path.read_bytes()
                for r in runs
                for path in sorted(Path(r["dir"]).rglob("*"))
                if path.name in ("log.csv", "snapshot.json") or path.parent.name == "panels"
            }
            return code, runs, files

        _, clean_runs, clean = outputs("clean")
        combine = learning.combine_fair_advantages

        def poisoning(advantages, critic, buffer, alphas, *rest):
            combined, floor_hits = combine(advantages, critic, buffer, alphas, *rest)
            if buffer.policy_version >= 2:
                combined[np.asarray(alphas) == 0.5] *= np.nan
            return combined, floor_hits

        monkeypatch.setattr(learning, "combine_fair_advantages", poisoning)
        code, runs, files = outputs("faulty")
        assert code == 0
        assert [r["status"] for r in runs] == ["ok", "failed", "ok"]
        config = load_experiment_config(tmp_path / "faulty.json")
        with pytest.raises(DomainError) as alone:
            train(build_env_factory(config.env), config.train_config(0.5, config.seed + 1))
        assert str(alone.value).startswith("update 2, agent 0: non-finite ")
        failed = runs[1]
        assert failed["error"] == f"DomainError: {alone.value}"
        manifest = json.loads((Path(failed["dir"]) / "manifest.json").read_text())
        assert manifest["notes"]["error"] == failed["error"]
        assert not (Path(failed["dir"]) / "log.csv").exists()
        healthy = {key: data for key, data in clean.items() if key[0] != failed["run_id"]}
        assert len(healthy) == 16
        assert files == healthy

    def test_eval_uniform_snapshot_cooperation_quarter(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(1, (2, 2)))
        env_spec = tmp_path / "env.json"
        env_spec.write_text(
            json.dumps(
                {
                    "type": "repeated_matrix",
                    "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2},
                    "episode_length": 100,
                }
            )
        )
        code = main(
            ["eval", str(snapshot), "--env", str(env_spec), "--episodes", "100"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        # 10^4 joint steps; joint cooperation frequency ~ 0.25 within 3 SE
        freq = report["joint_action_frequencies"]["0,0"]
        se = (0.25 * 0.75 / 10_000) ** 0.5
        assert abs(freq - 0.25) <= 4 * se
        assert report["cooperation_rate"][0] == pytest.approx(0.5, abs=0.05)

    def test_eval_shape_mismatch_exits_2(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(2, (2, 2)))
        env_spec = tmp_path / "env.json"
        env_spec.write_text(
            json.dumps(
                {"type": "repeated_matrix", "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2}}
            )
        )
        assert main(["eval", str(snapshot), "--env", str(env_spec)]) == 2

    def test_eval_refuses_a_snapshot_over_the_full_cleanup_index(self, tmp_path, capsys):
        # snapshots written before the dense observation index hold a row per
        # full (cell, bucket, window) index: 2048 on a 1x1 grid, of which 8
        # can occur
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(2048, (6,)))
        env_spec = tmp_path / "env.json"
        env_spec.write_text(json.dumps(
            {"type": "mini_cleanup", "width": 1, "height": 1, "num_agents": 1, "river_rows": 0}
        ))
        assert main(["eval", str(snapshot), "--env", str(env_spec)]) == 2
        err = capsys.readouterr().err
        assert "(2048, 6)" in err and "(8, 6)" in err

    def test_eval_zero_episodes_exits_2(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(1, (2, 2)))
        env_spec = tmp_path / "env.json"
        env_spec.write_text(
            json.dumps(
                {"type": "repeated_matrix", "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2}}
            )
        )
        code = main(["eval", str(snapshot), "--env", str(env_spec), "--episodes", "0"])
        assert code == 2
        assert "--episodes" in capsys.readouterr().err

    def test_eval_malformed_markov_file_exits_2(self, tmp_path, capsys):
        game = random_markov_game(2, 2, (2, 2), 0.9, seed=5)
        game_path = tmp_path / "markov.json"
        doc = saved_markov_doc(tmp_path, game)
        doc["transitions"]["0,-1,0"] = [0.5, 0.5]
        game_path.write_text(json.dumps(doc))
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(2, (2, 2)))
        env_spec = tmp_path / "env.json"
        env_spec.write_text(json.dumps({"type": "markov_file", "path": str(game_path)}))
        assert main(["eval", str(snapshot), "--env", str(env_spec)]) == 2
        assert "'0,-1,0'" in capsys.readouterr().err

    def test_eval_malformed_env_json_exits_2(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(1, (2, 2)))
        env_spec = tmp_path / "env.json"
        env_spec.write_text("{not json")
        assert main(["eval", str(snapshot), "--env", str(env_spec)]) == 2
        err = capsys.readouterr().err
        assert str(env_spec) in err
        assert "invalid JSON at line 1" in err

    def test_plot_command(self, tmp_path, capsys):
        config = self.write_config(tmp_path, alpha=[1.0])
        assert main(["train", str(config)]) == 0
        out = json.loads(capsys.readouterr().out)
        log = os.path.join(out["runs"][0]["dir"], "log.csv")
        assert main(["plot", log, "--out", str(tmp_path / "panels"), "--window", "5"]) == 0
        assert (tmp_path / "panels" / "panel_total.svg").exists()


SWEEP_CONFIGS = {
    "pd": {
        "env": {**PD_SPEC, "episode_length": 10},
        "algorithm": "FairMAA2C",
        "alpha": [0.0, 1.0],
        "total_steps": 1400,
        "num_envs": 2,
        "learning_rate": 0.5,
        "critic_lr": 0.2,
        "critic_init": 30.0,
    },
    "mini_cleanup": {
        "env": {**MINI_CLEANUP, "num_agents": 3, "episode_length": 12},
        "algorithm": "FairMAPPO",
        "alpha": [0.5],
        "total_steps": 720,
        "num_envs": 3,
        "learning_rate": 1.0,
        "critic_lr": 0.2,
        "critic_init": 1.0,
        "policy_init_scale": 1.0,
    },
}


class TestSweepPanels:
    """A sweep item draws its panels from the episode table ``train``
    returns, not from the log it has written."""

    def run_sweep(self, tmp_path, name) -> list:
        doc = {**SWEEP_CONFIGS[name], "seed": 3, "out": str(tmp_path / "runs")}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["train", str(config)]) == 0
        records = json.loads((tmp_path / "runs" / "sweep.json").read_text())["runs"]
        for record in records:  # unread here, and 12 MB for mini-CleanUp
            (tmp_path / "runs" / record["run_id"] / "snapshot.json").unlink(missing_ok=True)
        return records

    @pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
    def test_panels_equal_those_plotted_from_the_log(self, tmp_path, capsys, name):
        for record in self.run_sweep(tmp_path, name):
            assert record["status"] == "ok"
            run_dir = tmp_path / "runs" / record["run_id"]
            replotted = emit_plot_data(run_dir / "log.csv", tmp_path / "replot" / record["run_id"])
            assert len(replotted) == 6
            for path in replotted:
                assert (run_dir / "panels" / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("name", sorted(SWEEP_CONFIGS))
    def test_sweep_does_not_read_its_log(self, tmp_path, capsys, monkeypatch, name):
        def unreadable(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(metrics, "_read_log", unreadable)
        records = self.run_sweep(tmp_path, name)
        assert [record["status"] for record in records] == ["ok"] * len(records)


# sha256 of the printed report, recorded before single-state envs were
# collected as one block: eval's per-episode collect_rollouts([env]) must
# reproduce it byte for byte
PINNED_EVAL_REPORTS = {
    "repeated_matrix": (
        {**PD_SPEC, "episode_length": 37},
        (2, 2),
        "96fe477e5f0b90fc3ed985166126a44430943ea0a7ed965d2b27cdfd5a80a4da",
    ),
    "random_markov_one_state": (
        {**RANDOM_MARKOV, "agents": 3, "states": 1, "actions": [2, 3, 4], "game_seed": 7,
         "episode_length": 23},
        (2, 3, 4),
        "e39bf04aee7a822270c1d06430159514840631f2f1a85ece2fe1785a43dbe192",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_EVAL_REPORTS))
def test_eval_report_is_pinned(tmp_path, capsys, name):
    spec, counts, digest = PINNED_EVAL_REPORTS[name]
    rng = np.random.default_rng(9)
    snapshot = tmp_path / "snap.json"
    save_policy_snapshot(snapshot, SoftmaxPolicyProfile([rng.normal(size=(1, k)) for k in counts]))
    env_spec = tmp_path / "env.json"
    env_spec.write_text(json.dumps(spec))
    argv = ["eval", str(snapshot), "--env", str(env_spec), "--episodes", "50", "--seed", "4"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_eval_stacks_the_snapshot_once(tmp_path, capsys, monkeypatch):
    # the tables go into their action-group arrays once per invocation,
    # not once per episode
    spec, counts, _ = PINNED_EVAL_REPORTS["random_markov_one_state"]
    snapshot = tmp_path / "snap.json"
    save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(1, counts))
    env_spec = tmp_path / "env.json"
    env_spec.write_text(json.dumps(spec))
    stacked = []

    def counting_grouped(logits):
        stacked.append(len(logits))
        return learning._grouped(logits)

    monkeypatch.setattr(cli, "_grouped", counting_grouped)
    argv = ["eval", str(snapshot), "--env", str(env_spec), "--episodes", "20", "--seed", "4"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["episodes"] == 20
    assert stacked == [3]


# sha256 of the printed report, recorded while mini-CleanUp was still
# collected by a per-step loop over its scalar step: 50 episodes of one env
# (lockstep with E = 1) that share the env's generator must reproduce it
PINNED_CLEANUP_EVAL_REPORT = "ac6715f9be32a353ac1978b9522470f64b7985992e785f98f6d3551bf1441e07"


def test_mini_cleanup_eval_report_is_pinned(tmp_path, capsys):
    spec = {"type": "mini_cleanup", "width": 3, "height": 3, "num_agents": 2,
            "river_rows": 1, "regen_rate": 0.3, "pollution_increment": 0.05,
            "clean_amount": 0.2, "pollution_threshold": 0.7, "episode_length": 30}
    rng = np.random.default_rng(9)
    # the rows the dense observation index keeps of a table drawn over the
    # full 18432-row index, which the report was pinned with; one decimal
    # per logit keeps the snapshot small
    env = build_env_factory(spec)(0)
    full = [np.round(rng.normal(size=(len(env.observation_mask), 6)), 1) for _ in range(2)]
    logits = [table[env.observation_mask] for table in full]
    snapshot = tmp_path / "snap.json"
    snapshot.write_text(json.dumps([table.tolist() for table in logits]))
    env_spec = tmp_path / "env.json"
    env_spec.write_text(json.dumps(spec))
    argv = ["eval", str(snapshot), "--env", str(env_spec), "--episodes", "50", "--seed", "4"]
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert 0.0 < json.loads(report)["gini"]["mean"]
    assert hashlib.sha256(report.encode()).hexdigest() == PINNED_CLEANUP_EVAL_REPORT


LOG_HEADER = "step,episode,agent,return,apples,gini,actor_loss,critic_loss,entropy,floor_hits\n"
LOG_ROWS = [
    "100,0,0,10.0,1.0,0.1,0.1,0.2,0.6,0\n",
    "100,0,1,11.0,2.0,0.1,0.1,0.2,0.6,0\n",
    "200,1,0,12.0,3.0,0.2,0.1,0.2,0.6,0\n",
    "200,1,1,13.0,4.0,0.2,0.1,0.2,0.6,0\n",
]


class TestCliPlotMalformedLog:
    def plot(self, tmp_path, content: bytes, out=None):
        log = tmp_path / "log.csv"
        log.write_bytes(content)
        out = out or tmp_path / "panels"
        return log, out, main(["plot", str(log), "--out", str(out)])

    def test_well_formed_log_plots(self, tmp_path, capsys):
        _, out, code = self.plot(tmp_path, (LOG_HEADER + "".join(LOG_ROWS)).encode())
        assert code == 0
        assert (out / "panel_gini.svg").exists()

    @pytest.mark.parametrize(
        "row, line, column, cell",
        [
            (1, 3, "step", "abc"),
            (2, 4, "apples", "x"),
            (0, 2, "episode", "1.5"),
            (1, 3, "agent", ""),
            (2, 4, "gini", "none"),
        ],
    )
    def test_bad_cell_names_file_line_and_column(
        self, tmp_path, capsys, row, line, column, cell
    ):
        cells = LOG_ROWS[row].rstrip("\n").split(",")
        cells[LOG_HEADER.rstrip("\n").split(",").index(column)] = cell
        rows = list(LOG_ROWS)
        rows[row] = ",".join(cells) + "\n"
        log, out, code = self.plot(tmp_path, (LOG_HEADER + "".join(rows)).encode())
        assert code == 2
        err = capsys.readouterr().err
        assert f"{log}: line {line}, column {column}:" in err
        assert repr(cell) in err
        assert not out.exists()

    def test_missing_episode_agent_row_names_file_and_episode(self, tmp_path, capsys):
        log, out, code = self.plot(tmp_path, (LOG_HEADER + "".join(LOG_ROWS[:3])).encode())
        assert code == 2
        assert f"error: {log}: episode 1 has no row for agent(s) 1" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_episode_agent_row_names_file_episode_and_column(self, tmp_path, capsys):
        rows = LOG_ROWS + ["200,1,1,14.0,5.0,0.2,0.1,0.2,0.6,0\n"]
        log, out, code = self.plot(tmp_path, (LOG_HEADER + "".join(rows)).encode())
        assert code == 2
        assert (
            f"error: {log}: line 6, episode 1, column agent: a second row for agent 1"
            in capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            ("step", "300", "300 differs from the episode's earlier 200"),
            ("gini", "0.25", "0.25 differs from the episode's earlier 0.2"),
        ],
    )
    def test_per_episode_value_disagreement_names_file_episode_and_column(
        self, tmp_path, capsys, column, cell, message
    ):
        cells = LOG_ROWS[3].rstrip("\n").split(",")
        cells[LOG_HEADER.rstrip("\n").split(",").index(column)] = cell
        rows = LOG_ROWS[:3] + [",".join(cells) + "\n"]
        log, out, code = self.plot(tmp_path, (LOG_HEADER + "".join(rows)).encode())
        assert code == 2
        assert (
            f"error: {log}: line 5, episode 1, column {column}: {message}"
            in capsys.readouterr().err
        )
        assert not out.exists()

    def test_nan_gini_agreeing_within_an_episode_plots(self, tmp_path, capsys):
        gini_index = LOG_HEADER.rstrip("\n").split(",").index("gini")
        rows = []
        for row in LOG_ROWS:
            cells = row.rstrip("\n").split(",")
            if cells[1] == "1":
                cells[gini_index] = "nan"
            rows.append(",".join(cells) + "\n")
        _, out, code = self.plot(tmp_path, (LOG_HEADER + "".join(rows)).encode())
        assert code == 0
        assert (out / "panel_gini.csv").exists()

    def test_short_row_names_its_line(self, tmp_path, capsys):
        log, _, code = self.plot(tmp_path, (LOG_HEADER + LOG_ROWS[0] + "300,2\n").encode())
        assert code == 2
        assert f"{log}: line 3, column agent: expected an integer, got None" in (
            capsys.readouterr().err
        )

    def test_non_utf8_log_exits_2(self, tmp_path, capsys):
        log, out, code = self.plot(tmp_path, LOG_HEADER.encode() + b"100,0,0,\xff\n")
        assert code == 2
        err = capsys.readouterr().err
        assert f"{log}: log CSV is not UTF-8 text" in err
        assert not out.exists()

    def test_oversized_field_exits_2(self, tmp_path, capsys):
        big = "100,0,0,1.0,1.0," + "9" * 200_000 + ",0,0,0,0\n"
        log, _, code = self.plot(tmp_path, (LOG_HEADER + LOG_ROWS[0] + big).encode())
        assert code == 2
        assert f"{log}: line 3: field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"", b"step,episode\n1,0\n"])
    def test_missing_header_or_columns_name_the_file(self, tmp_path, capsys, content):
        log, _, code = self.plot(tmp_path, content)
        assert code == 2
        assert f"error: {log}: log CSV" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_window_below_one_exits_2_on_a_header_only_log(self, tmp_path, capsys, window):
        log = tmp_path / "log.csv"
        log.write_text(LOG_HEADER)
        out = tmp_path / "panels"
        with pytest.raises(SystemExit) as exit_info:
            main(["plot", str(log), "--out", str(out), "--window", window])
        assert exit_info.value.code == 2
        assert "--window" in capsys.readouterr().err
        assert not out.exists()

    def test_log_that_is_a_directory_exits_2(self, tmp_path, capsys):
        log = tmp_path / "logdir"
        log.mkdir()
        assert main(["plot", str(log), "--out", str(tmp_path / "panels")]) == 2
        assert f"{log}: a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("inside", [False, True])
    def test_out_naming_a_file_exits_2(self, tmp_path, capsys, inside):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        out = taken / "panels" if inside else taken
        _, _, code = self.plot(tmp_path, (LOG_HEADER + "".join(LOG_ROWS)).encode(), out=out)
        assert code == 2
        assert f"error: {out}: not a directory" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"


class TestDirectoryGivenAsInputFile:
    @pytest.mark.parametrize("entry", ["analyze", "train", "eval_snapshot", "eval_env"])
    def test_exits_2_naming_the_directory(self, tmp_path, capsys, entry):
        directory = tmp_path / "inputdir"
        directory.mkdir()
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(snapshot, SoftmaxPolicyProfile.uniform(1, (2, 2)))
        env_spec = tmp_path / "env.json"
        env_spec.write_text(json.dumps(PD_SPEC))
        argv = {
            "analyze": ["analyze", str(directory)],
            "train": ["train", str(directory)],
            "eval_snapshot": ["eval", str(directory), "--env", str(env_spec)],
            "eval_env": ["eval", str(snapshot), "--env", str(directory)],
        }[entry]
        assert main(argv) == 2
        assert f"error: {directory}: a directory, not a JSON file" in capsys.readouterr().err


class TestParallelSweep:
    def test_jobs_flag_produces_same_runs(self, tmp_path, capsys):
        self.assert_jobs_agree(tmp_path, capsys, self.config_doc(tmp_path / "runs"))

    def test_jobs_flag_produces_same_mini_cleanup_runs(self, tmp_path, capsys, recorded_pools):
        # 3 agents x 32768 states: 24 snapshot blocks per item, which the
        # --jobs 2 sweep pool's workers format in-process and the --jobs 1
        # run in a pool per item
        doc = {
            **SWEEP_CONFIGS["mini_cleanup"], "alpha": [0.5, 1.0], "total_steps": 72,
            "seed": 3, "out": str(tmp_path / "runs"),
        }
        self.assert_jobs_agree(tmp_path, capsys, doc)
        assert recorded_pools == [2, 2, 2]

    def test_jobs_flag_produces_same_runs_on_an_uneven_split(self, tmp_path, capsys):
        # --jobs 2 on 3 items: one worker trains items 0 and 1 as one batch,
        # the other item 2 alone; --jobs 1 trains all three as one batch
        doc = self.config_doc(tmp_path / "runs")
        doc["alpha"] = [0.0, 0.5, 1.0]
        self.assert_jobs_agree(tmp_path, capsys, doc)

    @pytest.mark.parametrize("name, jobs, shares", [
        ("pd_sweep.json", 1, [[[0, 1, 2]]]),
        ("pd_sweep.json", 2, [[[0, 1]], [[2]]]),
        ("pd_sweep.json", 3, [[[0]], [[1]], [[2]]]),
        ("mini_cleanup_pf_vs_uw.json", 1, [[[0], [1], [2]]]),
        ("mini_cleanup_pf_vs_uw.json", 2, [[[0], [1]], [[2]]]),
    ])
    def test_shares_and_batches_of_the_shipped_configs(self, name, jobs, shares):
        # contiguous shares, run on at most min(CPUs, shares) workers; a
        # mini-CleanUp run's tables exceed the batch cap, so its runs train
        # one per batch
        config = load_experiment_config(Path(__file__).resolve().parent.parent / "configs" / name)
        assert _sweep_shares(config, jobs) == shares

    @staticmethod
    def assert_jobs_agree(tmp_path, capsys, doc):
        """``--jobs 2`` and ``--jobs 1`` write the same log, snapshot and
        panels, byte for byte (by sha256), for every sweep item. Each
        snapshot is deleted once hashed."""
        outputs = {}
        for jobs in ("2", "1"):
            doc["out"] = str(tmp_path / f"runs_jobs{jobs}")
            config = tmp_path / f"config_jobs{jobs}.json"
            config.write_text(json.dumps(doc))
            assert main(["train", str(config), "--jobs", jobs]) == 0
            runs = json.loads(capsys.readouterr().out)["runs"]
            assert [r["status"] for r in runs] == ["ok"] * len(doc["alpha"])
            outputs[jobs] = {
                (r["run_id"], path.relative_to(r["dir"]).as_posix()): file_sha256(path)
                for r in runs
                for path in sorted(Path(r["dir"]).rglob("*"))
                if path.name in ("log.csv", "snapshot.json") or path.parent.name == "panels"
            }
            for r in runs:
                (Path(r["dir"]) / "snapshot.json").unlink()
        assert len(outputs["1"]) == 8 * len(doc["alpha"])
        assert outputs["2"] == outputs["1"]

    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_jobs_below_one_exits_2(self, tmp_path, capsys, jobs):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.config_doc(tmp_path / "runs")))
        with pytest.raises(SystemExit) as exit_info:
            main(["train", str(config), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_pool_has_no_more_workers_than_items(
        self, tmp_path, capsys, recorded_pools, monkeypatch
    ):
        # 64 CPUs and --jobs 64, so only the cap on the two items keeps the
        # pool at two workers
        from fairgame import parallel

        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(64)))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.config_doc(tmp_path / "runs")))
        assert main(["train", str(config), "--jobs", "64"]) == 0
        capsys.readouterr()
        assert recorded_pools == [2]

    @staticmethod
    def config_doc(out):
        return {
            "env": {
                "type": "repeated_matrix",
                "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2},
                "episode_length": 10,
            },
            "algorithm": "FairMAA2C",
            "alpha": [0.0, 1.0],
            "seed": 5,
            "out": str(out),
            "total_steps": 40,
            "num_envs": 2,
            "learning_rate": 0.5,
            "critic_lr": 0.2,
            "critic_init": 30.0,
        }


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        import subprocess
        import sys

        game_file = tmp_path / "pd.json"
        game_file.write_text(json.dumps({"T": 5, "R": 3, "S": 1, "P": 2}))
        proc = subprocess.run(
            [sys.executable, "-m", "fairgame.cli", "analyze", str(game_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["class"] == "PrisonersDilemma"


class TestCliVerify:
    def test_gini_suite_passes(self, capsys):
        assert main(["verify", "gini"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert reports[0]["suite"] == "gini"
        assert reports[0]["passed"] is True

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["verify", "nonsense"]) == 2


class TestDeterministicEvalGini:
    def test_deterministic_cooperators_zero_gini(self, tmp_path, capsys):
        snapshot = tmp_path / "snap.json"
        save_policy_snapshot(
            snapshot,
            SoftmaxPolicyProfile([np.array([[60.0, 0.0]]), np.array([[60.0, 0.0]])]),
        )
        env_spec = tmp_path / "env.json"
        env_spec.write_text(
            json.dumps(
                {
                    "type": "repeated_matrix",
                    "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2},
                    "episode_length": 50,
                }
            )
        )
        assert main(["eval", str(snapshot), "--env", str(env_spec), "--episodes", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["gini"]["mean"] == 0.0
        assert report["return"]["mean"] == pytest.approx([150.0, 150.0])
