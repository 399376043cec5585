import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fairgame.envs import (
    CLEAN,
    DOWN,
    NOOP,
    RIGHT,
    UP,
    MarkovGameEnv,
    MiniCleanupConfig,
    MiniCleanupEnv,
    RepeatedMatrixGameEnv,
    _CleanupBatch,
    _lockstep,
    matrix_markov_game,
    random_markov_game,
    scripted_trajectory,
)
from fairgame.errors import DomainError
from fairgame.games import DilemmaPayoffs
from fairgame.learning import Algorithm, EpisodeTable, TrainConfig, collect_rollouts, train
from fairgame.markov import SoftmaxPolicyProfile, TabularMarkovGame, solve_values

DATA = Path(__file__).parent / "data"
PD = DilemmaPayoffs(5, 3, 1, 2)


class TestRepeatedMatrixEnv:
    def test_payoff_table(self):
        env = RepeatedMatrixGameEnv(PD, 10)
        env.reset()
        assert env.step((0, 0)).rewards == pytest.approx([3.0, 3.0])
        assert env.step((1, 0)).rewards == pytest.approx([5.0, 1.0])
        assert env.step((0, 1)).rewards == pytest.approx([1.0, 5.0])
        assert env.step((1, 1)).rewards == pytest.approx([2.0, 2.0])

    def test_each_step_returns_its_own_reward_array(self):
        env = RepeatedMatrixGameEnv(PD, 10)
        env.reset()
        first = env.step((0, 0)).rewards
        first[:] = -1.0
        assert env.step((0, 0)).rewards.tolist() == [3.0, 3.0]

    def test_joint_rewards_are_float64_read_only_and_match_step(self):
        env = RepeatedMatrixGameEnv(PD, 10)
        table = env.joint_rewards
        assert table.shape == (2, 2, 2) and table.dtype == np.float64
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0
        env.reset()
        for joint in np.ndindex(2, 2):
            step = env.step(joint).rewards
            assert step.dtype == np.float64
            assert step.tolist() == table[joint].tolist()

    def test_markov_game_pays_as_the_env_on_random_payoffs(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p = DilemmaPayoffs(*rng.uniform(0.1, 10.0, size=4))
            table = RepeatedMatrixGameEnv(p, 10).joint_rewards
            game = matrix_markov_game(p, float(rng.uniform(0.0, 0.99)))
            for j in range(game.num_joint_actions):
                a1, a2 = game.joint_action_tuple(j)
                assert game.rewards[:, 0, j].tolist() == table[a1, a2].tolist()
            # (C, D): agent 0 is the sucker, agent 1 is tempted
            assert table[0, 1].tolist() == [p.S, p.T]

    def test_export_and_solve_cooperation_value(self):
        game = matrix_markov_game(PD, 0.9)
        policies = SoftmaxPolicyProfile(
            [np.array([[50.0, 0.0]]), np.array([[50.0, 0.0]])]
        )
        values = solve_values(game, policies).state_values
        assert values == pytest.approx(np.array([[30.0], [30.0]]), abs=1e-6)

    def test_episode_return_matches_markov_value_within_truncation(self):
        length = 100
        gamma = 0.9
        env = RepeatedMatrixGameEnv(PD, length)
        env.reset()
        discounted = sum(gamma**t * env.step((0, 0)).rewards[0] for t in range(length))
        game = matrix_markov_game(PD, gamma)
        policies = SoftmaxPolicyProfile(
            [np.array([[60.0, 0.0]]), np.array([[60.0, 0.0]])]
        )
        value = solve_values(game, policies).state_values[0, 0]
        bound = gamma**length * 5.0 / (1 - gamma)
        assert abs(value - discounted) <= bound + 1e-6


def place_agent(env, agent, row, col):
    """Move one agent of a mini-CleanUp env, which keeps its state as a
    batch of one env."""
    env._batch.rows[0, agent], env._batch.cols[0, agent] = row, col


def place_apple(env, row, col):
    env._batch.apples[0, row + 1, col + 1] = True  # the grid sits inside a 1-cell border


class TestMiniCleanup:
    def small_config(self, **overrides):
        defaults = dict(
            width=4,
            height=4,
            num_agents=2,
            river_rows=1,
            regen_rate=0.2,
            pollution_increment=0.02,
            clean_amount=0.15,
            pollution_threshold=0.6,
            episode_length=50,
        )
        defaults.update(overrides)
        return MiniCleanupConfig(**defaults)

    def test_zero_regen_means_base_reward_only(self):
        env = MiniCleanupEnv(self.small_config(regen_rate=0.0), seed=0)
        env.reset()
        for _ in range(20):
            step = env.step((NOOP, NOOP))
            assert step.rewards == pytest.approx([0.01, 0.01])
        assert env.apple_count == 0

    def test_pollution_at_threshold_stops_spawning(self):
        config = self.small_config(
            pollution_increment=0.5, clean_amount=0.0, pollution_threshold=0.6
        )
        env = MiniCleanupEnv(config, seed=1)
        env.reset()
        for _ in range(30):
            env.step((NOOP, NOOP))
        spawned, _, _ = env.conservation_counts
        assert spawned == 0  # pollution jumps to 1.0 on the first step

    def test_pollution_clamped_to_unit_interval(self):
        config = self.small_config(pollution_increment=0.9, clean_amount=5.0)
        env = MiniCleanupEnv(config, seed=2)
        env.reset()
        values = []
        rng = np.random.default_rng(0)
        for _ in range(30):
            actions = rng.integers(0, 6, size=2)
            env.step(actions)
            values.append(env.pollution)
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_cleaning_requires_river_position(self):
        config = self.small_config(regen_rate=0.0, pollution_increment=0.0, clean_amount=0.3)
        env = MiniCleanupEnv(config, seed=3)
        env.reset()
        place_agent(env, 0, 3, 0)  # orchard row
        place_agent(env, 1, 0, 0)  # river row
        before = env.pollution
        env.step((CLEAN, NOOP))
        assert env.pollution == pytest.approx(before)  # orchard clean does nothing
        env.step((NOOP, CLEAN))
        assert env.pollution == pytest.approx(max(before - 0.3, 0.0))

    def test_conservation(self):
        env = MiniCleanupEnv(self.small_config(), seed=4)
        rng = np.random.default_rng(1)
        for episode in range(3):
            env.reset()
            for _ in range(50):
                env.step(rng.integers(0, 6, size=2))
            spawned, harvested, remaining = env.conservation_counts
            assert harvested == spawned - remaining

    def test_rewards_strictly_positive(self):
        env = MiniCleanupEnv(self.small_config(), seed=5)
        env.reset()
        rng = np.random.default_rng(2)
        for _ in range(100):
            step = env.step(rng.integers(0, 6, size=2))
            assert np.all(step.rewards > 0.0)

    def test_lower_index_wins_contested_apple(self):
        config = self.small_config(regen_rate=0.0)
        env = MiniCleanupEnv(config, seed=6)
        env.reset()
        place_apple(env, 2, 1)
        place_agent(env, 0, 2, 0)
        place_agent(env, 1, 2, 2)
        step = env.step((RIGHT, 2))  # both enter (2, 1); LEFT == 2
        assert step.info["apples"].tolist() == [1, 0]

    def test_determinism_same_seed_same_trajectory(self):
        config = self.small_config()
        script = np.random.default_rng(3).integers(0, 6, size=(50, 2))
        first = scripted_trajectory(MiniCleanupEnv(config, seed=9), script, seed=42)
        second = scripted_trajectory(MiniCleanupEnv(config, seed=77), script, seed=42)
        assert first == second

    def test_more_agents_than_cells_rejected(self):
        with pytest.raises(DomainError):
            MiniCleanupConfig(width=2, height=2, num_agents=5)

    def test_observation_components(self):
        config = self.small_config(regen_rate=0.0, pollution_increment=0.0)
        env = MiniCleanupEnv(config, seed=8)
        env.reset()
        place_agent(env, 0, 2, 2)
        place_agent(env, 1, 0, 0)
        place_apple(env, 1, 1)  # NW neighbor of agent 0 -> highest bitmap bit
        obs = env._batch.observations()[0]
        full = np.flatnonzero(env.observation_mask)[obs]  # the dense index's inverse
        cell = 2 * 4 + 2
        bucket = 1  # pollution 0.5 with threshold 0.6: in [theta/2, theta)
        assert full[0] == (cell * 4 + bucket) * 512 + (1 << 8)

    def test_golden_trajectory(self):
        # locked reference run: config, seed, and script are frozen
        config = MiniCleanupConfig(
            width=5,
            height=5,
            num_agents=1,
            river_rows=1,
            regen_rate=0.3,
            pollution_increment=0.05,
            clean_amount=0.2,
            pollution_threshold=0.8,
            episode_length=40,
        )
        script = [[int(a)] for a in (UP, UP, UP, UP, CLEAN, CLEAN, DOWN, RIGHT, DOWN, RIGHT) * 4]
        records = scripted_trajectory(MiniCleanupEnv(config, seed=0), script, seed=1234)
        golden = [
            json.loads(line)
            for line in (DATA / "cleanup_golden.jsonl").read_text().splitlines()
        ]
        assert records == golden


def enumerate_observations(width, height, river_rows):
    """Every full index (cell * 4 + bucket) * 512 + window, the window's
    top-left cell the highest bit, whose window shows apples only on cells
    of the grid below the river, in increasing order."""
    found = []
    for cell in range(width * height):
        row, col = divmod(cell, width)
        allowed = [
            window for window in range(512)
            if all(
                not (window >> (8 - k)) & 1
                or (river_rows <= row + k // 3 - 1 < height and 0 <= col + k % 3 - 1 < width)
                for k in range(9)
            )
        ]
        for bucket in range(4):
            found.extend((cell * 4 + bucket) * 512 + window for window in allowed)
    return found


class FullIndexBatch(_CleanupBatch):
    """Reports each agent's full index, decoded from the dense one through
    ``full``, the test's enumeration."""

    def observations(self, corners=None):
        return self.full[super().observations(corners)]


class FullIndexEnv(MiniCleanupEnv):
    """Mini-CleanUp observed through the full (cell, bucket, window) index,
    with a table row for every full index and no ``observation_mask``."""

    def __init__(self, config, seed=0):
        super().__init__(config, seed)
        grid = (config.width, config.height, config.river_rows)
        self.full = np.array(enumerate_observations(*grid))
        self.num_states = len(self.observation_mask)
        self.observation_mask = None

    def reset(self, seed=None):
        super().reset(seed)
        self._batch.__class__ = FullIndexBatch
        self._batch.full = self.full
        return tuple(self._batch.observations()[0].tolist())


class TestObservationIndex:
    @pytest.mark.parametrize("width, height, river_rows, count", [
        (8, 8, 2, 54784),  # the shipped grid
        (3, 3, 2, 140),
        (3, 3, 0, None),
        (4, 3, 3, 4 * 3 * 4),  # all river: only the empty window
        (1, 1, 0, None),
        (1, 1, 1, 4),
        (5, 1, 0, None),
        (1, 5, 2, None),
    ])
    def test_map_equals_the_enumeration(self, width, height, river_rows, count):
        config = MiniCleanupConfig(width=width, height=height, num_agents=1, river_rows=river_rows)
        env = MiniCleanupEnv(config)
        expected = enumerate_observations(width, height, river_rows)
        mask = env.observation_mask
        assert len(mask) == width * height * 4 * 512 and not mask.flags.writeable
        assert np.flatnonzero(mask).tolist() == expected
        assert env.num_states == len(expected) == (count or len(expected))
        # every reachable full index maps to its rank, increasing with it
        ranks = env._batch._ranks
        assert ranks[expected].tolist() == list(range(len(expected)))
        assert (ranks[~mask] == -1).all() and not ranks.flags.writeable

    def test_envs_of_one_grid_share_one_map(self):
        first = MiniCleanupEnv(MiniCleanupConfig(), seed=0)
        second = MiniCleanupEnv(MiniCleanupConfig(regen_rate=0.5), seed=1)
        assert first.observation_mask is second.observation_mask
        assert first._batch._ranks is second._batch._ranks

    def test_random_play_on_the_shipped_grid_stays_in_range(self):
        envs = [MiniCleanupEnv(MiniCleanupConfig(), seed=e) for e in range(4)]
        env = envs[0]
        full = np.flatnonzero(env.observation_mask)
        policies = SoftmaxPolicyProfile.uniform(env.num_states, env.action_counts)
        rng = np.random.default_rng(0)
        for _ in range(3):
            buffer, _, apples = collect_rollouts(envs, policies, rng)
            for observations in (buffer.observations, buffer.next_observations):
                assert observations.dtype == np.int64
                assert 0 <= observations.min() and observations.max() < env.num_states
            # the last observations decode to the cells the envs end in
            cells = full[buffer.next_observations[:, -1]] // (4 * 512)
            assert cells.tolist() == [e.agent_cells for e in envs]
        assert apples.sum() > 0

    def test_training_on_the_full_index_gives_the_same_run(self):
        config = MiniCleanupConfig(
            width=3, height=3, num_agents=2, river_rows=2, regen_rate=0.3, episode_length=20
        )
        train_config = TrainConfig(
            algorithm=Algorithm.FAIR_MAPPO, alpha=0.5, learning_rate=1.0, critic_lr=0.2,
            critic_init=1.0, policy_init_scale=1.0, num_envs=3, total_steps=180,
            normalize_advantages=True, seed=7,
        )
        dense = train(lambda seed: MiniCleanupEnv(config, seed), train_config)
        full = train(lambda seed: FullIndexEnv(config, seed), train_config)
        assert dense.table.apples.sum() > 0
        for name in (f.name for f in fields(EpisodeTable)):
            ours, theirs = getattr(dense.table, name), getattr(full.table, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name
        rows = enumerate_observations(3, 3, 2)
        assert [t.shape for t in dense.policies.logits] == [(140, 6)] * 2
        assert [t.shape for t in full.policies.logits] == [(18432, 6)] * 2
        assert [t.tobytes() for t in dense.policies.logits] == [
            t[rows].tobytes() for t in full.policies.logits
        ]
        assert dense.critics.tobytes() == full.critics[:, rows].tobytes()


class TestMarkovGameEnv:
    def test_observations_are_global_state(self):
        game = random_markov_game(2, 3, (2, 2), 0.9, seed=11)
        env = MarkovGameEnv(game, episode_length=5, seed=0)
        obs = env.reset()
        assert obs[0] == obs[1]
        step = env.step((0, 1))
        assert step.observations[0] == step.observations[1]

    def test_rewards_from_table(self):
        game = random_markov_game(2, 3, (2, 2), 0.9, seed=12)
        env = MarkovGameEnv(game, episode_length=5, seed=1)
        state = env.reset()[0]
        step = env.step((1, 0))
        joint = game.joint_action_index((1, 0))
        assert step.rewards == pytest.approx(game.rewards[:, state, joint])


    def test_single_state_joint_rewards_match_step(self):
        game = random_markov_game(3, 1, (2, 3, 4), 0.9, seed=13)
        env = MarkovGameEnv(game, episode_length=30, seed=2)
        table = env.joint_rewards
        assert table.shape == (2, 3, 4, 3) and table.dtype == np.float64
        assert not table.flags.writeable
        env.reset()
        for joint in np.ndindex(2, 3, 4):
            assert env.step(joint).rewards.tolist() == table[joint].tolist()

    def test_many_states_have_no_joint_rewards(self):
        env = MarkovGameEnv(random_markov_game(2, 3, (2, 2), 0.9, seed=14), 5)
        assert env.joint_rewards is None

    @pytest.mark.parametrize("num_envs", [1, 7])
    def test_next_states_equal_per_env_choice_calls(self, num_envs):
        # rows with leading, inner and trailing zero probabilities, and a
        # one-hot row: E envs stepped as one batch draw, state for state and
        # bit for bit, what one Generator.choice per env per step draws, and
        # leave every env's generator where those calls leave it
        base = random_markov_game(2, 5, (2, 2), 0.9, seed=15)
        transitions = base.transitions.copy()
        zeros = [[0], [2], [4], [0, 1, 4], [0, 1, 2, 4]]
        for k, (state, joint) in enumerate(np.ndindex(5, 4)):
            transitions[state, joint, zeros[k % len(zeros)]] = 0.0
        transitions /= transitions.sum(axis=-1, keepdims=True)
        game = TabularMarkovGame(2, 5, (2, 2), transitions, base.rewards, base.initial_dist, 0.9)
        seeds = [31 + e for e in range(num_envs)]
        envs = [MarkovGameEnv(game, 100, seed) for seed in seeds]
        actions = np.random.default_rng(0).integers(0, 2, size=(100, num_envs, 2))
        with _lockstep(envs) as batch:
            states = [batch.states.copy()]
            for step_actions in actions:
                batch.step(step_actions)
                states.append(batch.states.copy())
        rngs = [np.random.default_rng(seed) for seed in seeds]
        expected = [[rng.choice(5, p=game.initial_dist) for rng in rngs]]
        for step_actions in actions:
            joint = [game.joint_action_index(tuple(a)) for a in step_actions.tolist()]
            expected.append([
                rng.choice(5, p=transitions[state, j])
                for rng, state, j in zip(rngs, expected[-1], joint)
            ])
        assert np.array(states).tolist() == np.array(expected).tolist()
        for env, rng in zip(envs, rngs):
            assert env._batch.rngs[0].bit_generator.state == rng.bit_generator.state

    def test_a_uniform_on_a_cumulative_entry_draws_as_choice(self):
        # Generator.choice(S, p=row) divides the cumulative row by its last
        # entry and takes searchsorted(side="right") of its one double; a
        # uniform equal to an entry, before or after that division, draws
        # what it draws (a row whose cumulative sum ends below 1, and one
        # with zero probabilities, so entries repeat)
        rows = np.array([[0.1] * 10, [0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.25, 0.0]])
        assert np.cumsum(rows[0])[-1] < 1.0
        game = TabularMarkovGame(
            1, 10, (2,), np.repeat(rows[None], 10, axis=0), np.ones((1, 10, 2)),
            np.eye(10)[0], 0.9,
        )
        env = MarkovGameEnv(game, episode_length=5)
        env.reset()
        for action, row in enumerate(rows):
            cdf = np.cumsum(row)
            normalized = cdf / cdf[-1]
            entries = [u for u in (*cdf, *normalized) if u < 1.0]  # random() is below 1
            for u in [0.0, np.nextafter(1.0, 0.0), *entries]:
                env._batch.rngs = [StubUniform(u)]
                expected = int(normalized.searchsorted(u, side="right"))
                assert env.step([action]).observations == (expected,)


class StubUniform:
    """Hands out one fixed double per ``random()`` call."""

    def __init__(self, u):
        self.u = float(u)

    def random(self):
        return self.u


class TestRandomMarkovGame:
    def test_invariants_hold(self):
        for seed in range(20):
            game = random_markov_game(2, 4, (2, 3), 0.9, seed=seed)
            assert np.allclose(game.transitions.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(game.rewards > 0.1 - 1e-12)
            assert np.all(game.rewards <= 1.0)

    def test_seed_determinism(self):
        a = random_markov_game(2, 3, (2, 2), 0.9, seed=5)
        b = random_markov_game(2, 3, (2, 2), 0.9, seed=5)
        assert np.array_equal(a.transitions, b.transitions)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.initial_dist, b.initial_dist)

    def test_single_state_transitions(self):
        game = random_markov_game(2, 1, (2, 2), 0.9, seed=6)
        assert np.allclose(game.transitions, 1.0)
