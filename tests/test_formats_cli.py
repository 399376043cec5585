import json
import os

import numpy as np
import pytest

from fairgame.cli import main
from fairgame.envs import random_markov_game
from fairgame.errors import SchemaError
from fairgame.formats import (
    build_env_factory,
    file_sha256,
    load_experiment_config,
    load_game_file,
    load_markov_game,
    load_policy_snapshot,
    save_markov_game,
    validate_env_spec,
    validate_experiment_config,
    verify_manifest,
    write_manifest,
)
from fairgame.learning import save_policy_snapshot
from fairgame.markov import SoftmaxPolicyProfile


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
        save_markov_game(path, game)
        doc = json.loads(path.read_text())
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
            ("rewards", "0,x,0,0", 1.0),
            ("rewards", "2,0,0,0", 1.0),
            ("rewards", "0,0,-1,0", 1.0),
            ("rewards", "0,0,0,0", "high"),
        ],
    )
    def test_malformed_entry_names_key(self, tmp_path, section, key, value):
        game = random_markov_game(2, 2, (2, 2), 0.9, seed=5)
        path = tmp_path / "markov.json"
        save_markov_game(path, game)
        doc = json.loads(path.read_text())
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=repr(key)):
            load_markov_game(path)

    @pytest.mark.parametrize(
        "field, value",
        [("agents", "two"), ("actions", [2]), ("states", 0), ("rho0", [1.0]), ("gamma", "x")],
    )
    def test_malformed_header_rejected(self, tmp_path, field, value):
        game = random_markov_game(2, 2, (2, 2), 0.9, seed=5)
        path = tmp_path / "markov.json"
        save_markov_game(path, game)
        doc = json.loads(path.read_text())
        doc[field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=field):
            load_markov_game(path)


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

    @pytest.mark.parametrize(
        "field, value",
        [
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
        ],
    )
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
]
MALFORMED_IDS = [f"{base['type']}-{key}-{value!r}" for base, key, value in MALFORMED_ENV_SPECS]


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
        (run_dir / "log.csv").write_text("step\n2\n")
        problems = verify_manifest(run_dir)
        assert problems and "log.csv" in problems[0]

    def test_hash_matches_contents(self, tmp_path):
        target = tmp_path / "x.bin"
        target.write_bytes(b"abc")
        import hashlib

        assert file_sha256(target) == hashlib.sha256(b"abc").hexdigest()


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


class TestCliTrainEvalPlot:
    def write_config(self, tmp_path, **overrides):
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
        path = tmp_path / "config.json"
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
        config_a = self.write_config(tmp_path, out=str(tmp_path / "runs_a"))
        assert main(["train", str(config_a)]) == 0
        config_b = self.write_config(tmp_path, out=str(tmp_path / "runs_b"))
        assert main(["train", str(config_b)]) == 0
        capsys.readouterr()
        for run_id in os.listdir(tmp_path / "runs_a"):
            if not (tmp_path / "runs_a" / run_id).is_dir():
                continue
            a = json.loads((tmp_path / "runs_a" / run_id / "manifest.json").read_text())
            b = json.loads((tmp_path / "runs_b" / run_id / "manifest.json").read_text())
            assert a["files"] == b["files"]
            assert a["seed"] == b["seed"]

    def test_fairgame_seed_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FAIRGAME_SEED", "99")
        config = self.write_config(tmp_path, alpha=[1.0])
        assert main(["train", str(config)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["runs"][0]["run_id"].endswith("seed99")

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
            manifest = json.loads((tmp_path / "runs" / record["run_id"] / "manifest.json").read_text())
            assert manifest["notes"]["error"] == record["error"]

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
        save_markov_game(game_path, game)
        doc = json.loads(game_path.read_text())
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


class TestParallelSweep:
    def test_jobs_flag_produces_same_runs(self, tmp_path, capsys):
        doc = {
            "env": {
                "type": "repeated_matrix",
                "payoffs": {"T": 5, "R": 3, "S": 1, "P": 2},
                "episode_length": 10,
            },
            "algorithm": "FairMAA2C",
            "alpha": [0.0, 1.0],
            "seed": 5,
            "out": str(tmp_path / "runs_par"),
            "total_steps": 40,
            "num_envs": 2,
            "learning_rate": 0.5,
            "critic_lr": 0.2,
            "critic_init": 30.0,
        }
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert main(["train", str(config), "--jobs", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert {r["status"] for r in out["runs"]} == {"ok"}
        doc["out"] = str(tmp_path / "runs_seq")
        config.write_text(json.dumps(doc))
        assert main(["train", str(config)]) == 0
        capsys.readouterr()
        for run_id in os.listdir(tmp_path / "runs_par"):
            if not (tmp_path / "runs_par" / run_id).is_dir():
                continue
            par = (tmp_path / "runs_par" / run_id / "log.csv").read_bytes()
            seq = (tmp_path / "runs_seq" / run_id / "log.csv").read_bytes()
            assert par == seq


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
