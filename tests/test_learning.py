import csv
import dataclasses
import inspect
import json
import multiprocessing
import re
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgame import learning
from fairgame.envs import (
    DOWN,
    UP,
    MarkovGameEnv,
    MiniCleanupConfig,
    MiniCleanupEnv,
    RepeatedMatrixGameEnv,
    random_markov_game,
)
from fairgame.errors import DomainError, StaleBufferError
from fairgame.formats import load_policy_snapshot
from fairgame.games import DilemmaPayoffs
from fairgame.learning import (
    SNAPSHOT_BLOCK_ROWS,
    Algorithm,
    ObjectiveMode,
    RolloutBuffer,
    TrainConfig,
    _combined_advantages,
    _critic_regression_step,
    _fair_coefficients,
    _non_finite,
    _policy_gradient_update,
    _train_runs,
    a2c_update,
    collect_rollouts,
    combine_fair_advantages,
    combine_utilitarian_advantages,
    compute_gae,
    ppo_update,
    save_policy_snapshot,
    train,
    write_log_csv,
)
from fairgame.markov import (
    AltruismWeights,
    SoftmaxPolicyProfile,
    TabularMarkovGame,
    _softmax,
    exact_fair_gradient,
    solve_values,
)
from fairgame.metrics import gini

PD = DilemmaPayoffs(5, 3, 1, 2)


def single_transition_buffer(
    reward: float, v_s: float, v_next: float, num_agents: int = 1
) -> tuple[RolloutBuffer, np.ndarray]:
    buffer = RolloutBuffer(
        observations=np.zeros((1, 1, num_agents), dtype=np.int64),
        actions=np.zeros((1, 1, num_agents), dtype=np.int64),
        rewards=np.full((1, 1, num_agents), reward),
        next_observations=np.ones((1, 1, num_agents), dtype=np.int64),
        policy_version=0,
    )
    critic = np.array([[v_s, v_next]] * num_agents, dtype=float)
    return buffer, critic


def with_version(buffer: RolloutBuffer, version: int) -> RolloutBuffer:
    """The same transitions, relabelled as collected under ``version``."""
    return RolloutBuffer(
        buffer.observations, buffer.actions, buffer.rewards, buffer.next_observations, version
    )


def one_run_combination(advantages, critics, buffer, config):
    """One run's configured (E*T, N) combination and its floor hits."""
    coefficients = _fair_coefficients([config.alpha], len(critics))
    (combined,), (floor_hits,) = _combined_advantages(
        advantages, critics, buffer, [config], coefficients
    )
    return combined, floor_hits


def collect_pd_buffer(policies, episode_length=20, num_envs=3, seed=0):
    envs = [RepeatedMatrixGameEnv(PD, episode_length) for _ in range(num_envs)]
    rng = np.random.default_rng(seed)
    return collect_rollouts(envs, policies, rng)


class TestComputeGae:
    def test_single_transition_delta(self):
        buffer, critic = single_transition_buffer(reward=1.0, v_s=2.0, v_next=3.0)
        advantages, returns = compute_gae(buffer, critic, gamma=0.9, lam=0.5)
        assert advantages.shape == returns.shape == (1, 1, 1)
        assert advantages[0, 0, 0] == pytest.approx(1.0 + 0.9 * 3.0 - 2.0)
        assert returns[0, 0, 0] == pytest.approx(advantages[0, 0, 0] + 2.0)

    def test_lambda_zero_is_td_residual(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies)
        critic = np.array([[5.0], [7.0]])
        advantages, _ = compute_gae(buffer, critic, gamma=0.9, lam=0.0)
        expected = buffer.rewards + 0.9 * np.array([5.0, 7.0]) - np.array([5.0, 7.0])
        assert np.allclose(advantages, expected)

    def test_lambda_one_zero_critic_is_reward_to_go(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies, episode_length=5, num_envs=1)
        critic = np.zeros((2, 1))
        advantages, _ = compute_gae(buffer, critic, gamma=0.9, lam=1.0)
        rewards = buffer.rewards[0]
        expected = np.zeros_like(rewards)
        acc = np.zeros(2)
        for t in range(4, -1, -1):
            acc = rewards[t] + 0.9 * acc
            expected[t] = acc
        assert np.allclose(advantages[0], expected)

    @pytest.mark.parametrize("num_envs, length", [(0, 5), (2, 0)])
    def test_empty_buffer_rejected(self, num_envs, length):
        empty = np.zeros((num_envs, length, 1), dtype=np.int64)
        buffer = RolloutBuffer(empty, empty, empty.astype(float), empty, 0)
        with pytest.raises(DomainError):
            compute_gae(buffer, np.zeros((1, 1)), 0.9, 0.95)

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 100, 2), (10, 100, 3), (3, 7, 5)])
    @pytest.mark.parametrize("gamma, lam", [(0.9, 0.0), (0.95, 0.95), (1.0, 1.0)])
    def test_bit_identical_to_numpy_step_loop(self, shape, gamma, lam):
        buffer, critic = exact_delta_buffer(special_deltas(shape, seed=sum(shape)))
        advantages, returns = compute_gae(buffer, critic, gamma, lam)
        expected_advantages, expected_returns = numpy_step_loop_gae(buffer, critic, gamma, lam)
        assert advantages.shape == returns.shape == shape
        assert advantages.flags.c_contiguous
        assert advantages.tobytes() == expected_advantages.tobytes()
        assert returns.tobytes() == expected_returns.tobytes()

    @pytest.mark.parametrize("gamma", [0.0, 0.9, 0.95, 1.0])
    def test_exact_delta_buffer_reproduces_signed_zeros(self, gamma):
        deltas = special_deltas((3, 7, 5), seed=0)
        zeros = np.signbit(deltas[deltas == 0.0])
        assert zeros.any() and not zeros.all()
        buffer, critic = exact_delta_buffer(deltas)
        table = critic[0]
        v, v_next = table[buffer.observations], table[buffer.next_observations]
        delta = buffer.rewards + gamma * v_next - v
        assert delta.tobytes() == deltas.tobytes()


def numpy_step_loop_gae(buffer, critic, gamma, lam):
    """GAE as one numpy call per time step on (E, N) vectors: the reference
    the per-lane recursion of ``compute_gae`` must match bit for bit."""
    num_envs, length, num_agents = buffer.observations.shape

    def values(obs):
        return np.stack([critic[j][obs[..., j]] for j in range(num_agents)], axis=-1)

    v = values(buffer.observations)
    delta = buffer.rewards + gamma * values(buffer.next_observations) - v
    advantages = np.empty_like(delta)
    acc = np.zeros((num_envs, num_agents))
    for t in range(length - 1, -1, -1):
        acc = delta[:, t] + gamma * lam * acc
        advantages[:, t] = acc
    return advantages, advantages + v


def special_deltas(shape, seed):
    """Normal deltas with about a quarter replaced by +-0.0 and +-1e300."""
    rng = np.random.default_rng(seed)
    deltas = rng.normal(scale=10.0, size=shape)
    specials = np.array([0.0, -0.0, 1e300, -1e300])
    mask = rng.random(shape) < 0.25
    deltas[mask] = rng.choice(specials, size=int(mask.sum()))
    deltas.flat[0] = -0.0
    deltas.flat[-1] = 0.0
    return deltas


def exact_delta_buffer(deltas):
    """A buffer and critic whose TD residuals equal ``deltas`` exactly, signed
    zeros included: every step moves from a state valued +0.0 to one valued
    -0.0, so delta = (r + gamma * -0.0) - 0.0 = r for any gamma in [0, 1].
    The rewards are set after construction, because the buffer only admits
    positive rewards and compute_gae accepts any."""
    ones = np.ones(deltas.shape, dtype=np.int64)
    buffer = RolloutBuffer(ones - 1, ones - 1, ones.astype(float), ones, 0)
    buffer.rewards = deltas.copy()
    critic = np.array([[0.0, -0.0]] * deltas.shape[2])
    return buffer, critic


class TestCombineAdvantages:
    def test_hand_computed(self):
        buffer, _ = single_transition_buffer(1.0, 0.0, 0.0, num_agents=2)
        critic = np.array([[10.0, 0.0], [8.0, 0.0]])
        advantages = np.array([[[2.0, -4.0]]])
        (combined,), floor_hits = combine_fair_advantages(
            advantages, critic, buffer, _fair_coefficients([0.5], 2), v_floor=1e-3
        )
        assert combined[0, 0, 0] == pytest.approx(2.0 / 10.0 + 0.5 * (-4.0 / 8.0))
        assert combined[0, 0, 1] == pytest.approx(-4.0 / 8.0 + 0.5 * (2.0 / 10.0))
        assert floor_hits.tolist() == [0]

    def test_alpha_zero_self_normalization(self):
        buffer, _ = single_transition_buffer(1.0, 0.0, 0.0, num_agents=2)
        critic = np.array([[4.0, 0.0], [5.0, 0.0]])
        advantages = np.array([[[2.0, -4.0]]])
        (combined,), _ = combine_fair_advantages(
            advantages, critic, buffer, _fair_coefficients([0.0], 2), 1e-3
        )
        assert combined[0, 0] == pytest.approx([2.0 / 4.0, -4.0 / 5.0])

    def test_zero_advantages(self):
        buffer, critic = single_transition_buffer(1.0, 3.0, 3.0, num_agents=2)
        combined, _ = combine_fair_advantages(
            np.zeros((1, 1, 2)), critic, buffer, _fair_coefficients([0.7], 2), 1e-3
        )
        assert not combined.any()

    def test_floor_hits_counted(self):
        buffer, _ = single_transition_buffer(1.0, 0.0, 0.0, num_agents=2)
        critic = np.array([[0.0, 0.0], [5.0, 0.0]])
        _, floor_hits = combine_fair_advantages(
            np.ones((1, 1, 2)), critic, buffer, _fair_coefficients([1.0], 2), v_floor=1e-3
        )
        assert floor_hits.tolist() == [1]

    def test_alpha_one_shared_signal(self):
        buffer, _ = single_transition_buffer(1.0, 0.0, 0.0, num_agents=3)
        critic = np.array([[2.0, 0.0]] * 3)
        advantages = np.array([[[1.0, -2.0, 0.5]]])
        combined, _ = combine_fair_advantages(
            advantages, critic, buffer, _fair_coefficients([1.0], 3), 1e-3
        )
        assert np.allclose(combined[..., 0], combined[..., 1])
        assert np.allclose(combined[..., 0], combined[..., 2])

    def test_stacked_runs_equal_each_run_alone(self):
        # R runs combined at once: each run's block is the one-run formula
        # (advantages / v0) @ C.T on its lanes, bit for bit, with its floor hits
        rng = np.random.default_rng(5)
        for _ in range(60):
            E, T, N, R, S = (int(rng.integers(1, k)) for k in (4, 30, 5, 5, 4))
            obs = rng.integers(0, S, size=(E, T, R * N))
            buffer = RolloutBuffer(obs, obs, np.ones(obs.shape), obs, 0)
            critic = rng.uniform(-1.0, 40.0, size=(R * N, S))
            advantages = rng.normal(scale=10.0, size=(E, T, R * N))
            alphas = rng.uniform(0.0, 1.0, R)
            combined, floor_hits = combine_fair_advantages(
                advantages, critic, buffer, _fair_coefficients(alphas, N), 0.5
            )
            assert combined.shape == (R, E, T, N)
            for r in range(R):
                lane = slice(r * N, (r + 1) * N)
                coeffs = np.full((N, N), alphas[r])
                np.fill_diagonal(coeffs, 1.0)
                v0 = critic[lane][np.arange(N), obs[:, 0, lane]]
                expected = (advantages[..., lane] / np.maximum(v0, 0.5)[:, None, :]) @ coeffs.T
                assert combined[r].tobytes() == expected.tobytes()
                assert floor_hits[r] == (v0 < 0.5).sum()

    def test_utilitarian_sum(self):
        advantages = np.array([[1.0, -2.0], [0.5, 0.5]])
        combined = combine_utilitarian_advantages(advantages)
        assert combined == pytest.approx(np.array([[-1.0, -1.0], [1.0, 1.0]]))


def reference_collect(envs, policies, rng):
    """The per-step collector that ``collect_rollouts`` replaced, kept as its
    reference: every env is reset and stepped alone through its scalar
    ``step``, and agent i takes ``bisect_right`` of its uniform on the
    cumulative softmax row of its observation, clipped to the last action.
    Returns what ``collect_rollouts`` returns."""
    num_envs, length, num_agents = len(envs), envs[0].episode_length, envs[0].num_agents
    shape = (num_envs, length, num_agents)
    uniforms = rng.random(shape).tolist()
    observations = np.empty(shape, dtype=np.int64)
    actions = np.empty(shape, dtype=np.int64)
    rewards = np.empty(shape)
    next_observations = np.empty(shape, dtype=np.int64)
    apples = np.zeros((num_envs, num_agents))
    has_apples = False
    for e, env in enumerate(envs):
        obs = env.reset()
        visited, taken, paid = [obs], [], []
        for us in uniforms[e]:
            action = []
            for i in range(num_agents):
                cum = np.cumsum(_softmax(policies.logits[i][obs[i]])).tolist()
                action.append(min(bisect_right(cum, us[i]), len(cum) - 1))
            step = env.step(action)
            obs = step.observations
            visited.append(obs)
            taken.append(action)
            paid.append(step.rewards)
            if "apples" in step.info:
                has_apples = True
                apples[e] += step.info["apples"]
        path = np.array(visited, dtype=np.int64)
        observations[e], next_observations[e] = path[:-1], path[1:]
        actions[e], rewards[e] = taken, paid
    buffer = RolloutBuffer(observations, actions, rewards, next_observations, policies.version)
    return buffer, rewards.sum(axis=1), apples if has_apples else None


class CountingEnv:
    """Test stand-in that delegates to a single-state ``env`` and counts the
    steps taken through its scalar ``step``."""

    def __init__(self, env):
        self.env, self.num_states, self.steps = env, 1, 0
        self.num_agents, self.action_counts = env.num_agents, env.action_counts
        self.episode_length, self.joint_rewards = env.episode_length, env.joint_rewards

    def reset(self, seed=None):
        return self.env.reset(seed)

    def step(self, actions):
        self.steps += 1
        return self.env.step(actions)


class StubRng:
    """Hands out one fixed block of uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, shape):
        assert shape == self.uniforms.shape
        return self.uniforms.copy()


def asymmetric_pd_game() -> TabularMarkovGame:
    """A one-state PD whose agents have different payoffs: agent 0 has
    (T, R, S, P) = (5, 3, 1, 2), agent 1 (4.5, 2.75, 0.5, 1.25)."""
    return TabularMarkovGame(
        num_agents=2,
        num_states=1,
        action_counts=(2, 2),
        transitions=np.ones((1, 4, 1)),
        rewards=np.array([[[3.0, 1.0, 5.0, 2.0]], [[2.75, 4.5, 0.5, 1.25]]]),
        initial_dist=np.array([1.0]),
        discount=0.9,
    )


SINGLE_STATE_ENVS = {
    "pd_int_payoffs": lambda: RepeatedMatrixGameEnv(PD, 23),
    "pd_asymmetric": lambda: MarkovGameEnv(asymmetric_pd_game(), 23, seed=4),
    "random_3_agents": lambda: MarkovGameEnv(
        random_markov_game(3, 1, (2, 3, 4), 0.9, seed=8), 23, seed=5
    ),
}


def collect_block_and_reference(make_env, policies, make_rng, num_envs=3):
    """collect_rollouts and the per-step reference on two lists of the same
    single-state envs; returns both results and both env lists."""
    block_envs = [CountingEnv(make_env()) for _ in range(num_envs)]
    reference_envs = [CountingEnv(make_env()) for _ in range(num_envs)]
    block = collect_rollouts(block_envs, policies, make_rng())
    reference = reference_collect(reference_envs, policies, make_rng())
    return block, reference, block_envs, reference_envs


def assert_same_collection(collected, reference):
    (a, returns_a, apples_a), (b, returns_b, apples_b) = collected, reference
    for name in ("observations", "actions", "rewards", "next_observations"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.policy_version == b.policy_version
    assert returns_a.shape == returns_b.shape == a.rewards.shape[::2]
    assert returns_a.tobytes() == returns_b.tobytes()
    assert (apples_a is None) == (apples_b is None)
    if apples_a is not None:
        assert apples_a.dtype == apples_b.dtype and apples_a.shape == apples_b.shape
        assert apples_a.tobytes() == apples_b.tobytes()


def tied_uniforms(policies, shape, seed):
    """Uniforms from ``seed`` with every third one per agent moved onto a
    cumulative probability of that agent's row, 0.0 included, so that the
    sampling rule decides each of those draws."""
    uniforms = np.random.default_rng(seed).random(shape)
    for i, logits in enumerate(policies.logits):
        ties = np.concatenate([[0.0], np.cumsum(_softmax(logits[0]))[:-1]])
        lane = uniforms[..., i].reshape(-1)
        lane[::3] = np.resize(ties, len(lane[::3]))
        uniforms[..., i] = lane.reshape(shape[:-1])
    return uniforms


class TestSingleStateCollection:
    @pytest.mark.parametrize("name", sorted(SINGLE_STATE_ENVS))
    def test_block_equals_per_step_loop(self, name):
        make_env = SINGLE_STATE_ENVS[name]
        counts = make_env().action_counts
        policies = SoftmaxPolicyProfile.random(1, counts, np.random.default_rng(1), scale=1.0)
        policies.version = 3
        tied = tied_uniforms(policies, (3, 23, len(counts)), seed=7)
        for make_rng in (lambda: np.random.default_rng(7), lambda: StubRng(tied)):
            block, reference, block_envs, reference_envs = collect_block_and_reference(
                make_env, policies, make_rng
            )
            assert_same_collection(block, reference)
            assert [env.steps for env in block_envs] == [0, 0, 0]
            assert [env.steps for env in reference_envs] == [23, 23, 23]

    def test_ties_skip_zero_probability_and_top_is_clipped(self):
        # agent 0: probabilities (0.5, 0, 0.5), so a uniform of exactly 0.5
        # passes the zero-probability action; agent 1: ten actions of 0.1,
        # whose cumulative sum ends at 1 - 2**-53, so the largest uniform
        # passes every entry and is clipped to the last action
        policies = SoftmaxPolicyProfile([np.array([[0.0, -800.0, 0.0]]), np.zeros((1, 10))])
        top = 1.0 - 2.0**-53
        cum = np.cumsum(policies.probs(1)[0])
        assert policies.probs(0)[0, 1] == 0.0 and cum[-1] == top
        uniforms = [[[0.0, cum[3]], [0.5, cum[0]], [0.25, top], [top, 0.0], [0.5, cum[8]]]]
        game = random_markov_game(2, 1, (3, 10), 0.9, seed=9)
        block, reference, block_envs, _ = collect_block_and_reference(
            lambda: MarkovGameEnv(game, 5, seed=0),
            policies,
            lambda: StubRng(uniforms),
            num_envs=1,
        )
        assert_same_collection(block, reference)
        assert block[0].actions[0].tolist() == [[0, 4], [2, 1], [0, 9], [2, 0], [2, 9]]
        assert block_envs[0].steps == 0


def env_generator_state(env):
    return env._batch.rngs[0].bit_generator.state


def cleanup_state(env):
    return env.pollution, env.agent_cells, env.apple_cells, env.conservation_counts


# mini-CleanUp grids for the lockstep cases, each with an episode of 30 steps
LOCKSTEP_CLEANUP = {
    "shipped_8x8": dict(),
    "regen_zero": dict(width=3, height=3, river_rows=1, regen_rate=0.0),
    # every empty orchard cell grows an apple while pollution is low
    "regen_one": dict(width=3, height=2, river_rows=1, regen_rate=1.0, pollution_threshold=1.0),
    # pollution moves in exact steps of 1/8: it sits on the threshold (0.75,
    # where spawning stops) and on the bucket edges 0.375 and 0.875, and is
    # clamped at 0 and 1
    "dyadic_pollution": dict(
        width=3, height=4, river_rows=2, regen_rate=0.5, pollution_increment=0.125,
        clean_amount=0.25, pollution_threshold=0.75,
    ),
    # a 2x2 orchard full of apples: agents meet on one cell and walk into walls
    "contested_2x2": dict(width=2, height=2, river_rows=0, regen_rate=1.0),
}


def lockstep_cleanup_envs(name, num_envs, num_agents):
    config = MiniCleanupConfig(
        **{"num_agents": num_agents, "episode_length": 30, **LOCKSTEP_CLEANUP[name]}
    )
    return [MiniCleanupEnv(config, seed=100 + e) for e in range(num_envs)]


def check_cleanup_lockstep(name, num_envs, num_agents, seed):
    """``assert_lockstep_equals_reference`` on one mini-CleanUp grid under
    seeded random policies; returns the reference's buffers."""
    make_envs = lambda: lockstep_cleanup_envs(name, num_envs, num_agents)  # noqa: E731
    env = make_envs()[0]
    policies = SoftmaxPolicyProfile.random(
        env.num_states, env.action_counts, np.random.default_rng(seed), scale=2.0
    )
    policies.version = 5
    return assert_lockstep_equals_reference(make_envs, policies, seed=seed)


def assert_lockstep_equals_reference(make_envs, policies, seed, episodes=2):
    """Two episodes in a row from collect_rollouts and from the per-step
    reference on fresh copies of the same envs: the buffers, the returns and
    apples, the shared generator and every env's generator and final state
    must agree bit for bit. Returns the reference's buffers."""
    envs, reference_envs = make_envs(), make_envs()
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    buffers = []
    for _ in range(episodes):
        reference = reference_collect(reference_envs, policies, reference_rng)
        assert_same_collection(collect_rollouts(envs, policies, rng), reference)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        for env, reference_env in zip(envs, reference_envs):
            assert env_generator_state(env) == env_generator_state(reference_env)
            if isinstance(env, MiniCleanupEnv):
                assert cleanup_state(env) == cleanup_state(reference_env)
            else:
                assert env._batch.states.tolist() == reference_env._batch.states.tolist()
        buffers.append(reference[0])
    return buffers


class TestLockstepCollection:
    @pytest.mark.parametrize("num_agents", [1, 3])
    @pytest.mark.parametrize("num_envs", [1, 3, 10])
    @pytest.mark.parametrize("name", sorted(LOCKSTEP_CLEANUP))
    def test_mini_cleanup_equals_per_step_reference(self, name, num_envs, num_agents):
        check_cleanup_lockstep(name, num_envs, num_agents, seed=num_envs + num_agents)

    def test_cases_reach_the_edges_they_name(self):
        """The dyadic case visits all four pollution buckets (so pollution sat
        on the threshold); the contested case has agents share an apple cell
        and walk into the grid's walls."""
        buffers = check_cleanup_lockstep("dyadic_pollution", 10, 3, seed=13)
        buckets = {int(b) for buffer in buffers for b in np.unique(buffer.observations // 512 % 4)}
        assert buckets == {0, 1, 2, 3}
        for buffer in check_cleanup_lockstep("contested_2x2", 10, 3, seed=13):
            cells = buffer.next_observations // (4 * 512)  # (E, T, N)
            shared = (cells[..., :, None] == cells[..., None, :]).sum(axis=-1) > 1
            harvest = buffer.rewards > 0.5
            assert (shared & harvest).any()
            rows, actions = buffer.observations // (4 * 512) // 2, buffer.actions
            assert ((rows == 0) & (actions == UP)).any()
            assert ((rows == 1) & (actions == DOWN)).any()

    def test_an_env_listed_twice_is_rejected(self):
        env = lockstep_cleanup_envs("regen_zero", 1, 1)[0]
        policies = SoftmaxPolicyProfile.uniform(env.num_states, env.action_counts)
        with pytest.raises(DomainError, match="listed twice"):
            collect_rollouts([env, env], policies, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "num_agents, num_states, counts",
        [(1, 4, (3,)), (2, 3, (2, 2)), (2, 6, (1, 3)), (3, 5, (2, 3, 4))],
    )
    @pytest.mark.parametrize("num_envs", [1, 3, 10])
    def test_markov_game_equals_per_step_reference(
        self, num_envs, num_agents, num_states, counts
    ):
        game = random_markov_game(num_agents, num_states, counts, 0.9, seed=num_states)
        policies = SoftmaxPolicyProfile.random(
            num_states, counts, np.random.default_rng(num_envs), scale=2.0
        )
        assert_lockstep_equals_reference(
            lambda: [MarkovGameEnv(game, 17, seed=40 + e) for e in range(num_envs)],
            policies,
            seed=num_envs,
        )


class TestEpisodeBlocks:
    def test_returns_are_each_episodes_reward_sums(self):
        policies = SoftmaxPolicyProfile.random(1, (2, 2), np.random.default_rng(2), scale=1.0)
        for num_envs, length in ((1, 1), (3, 20), (5, 101)):
            buffer, returns, apples = collect_pd_buffer(policies, length, num_envs)
            assert apples is None
            expected = np.stack([buffer.rewards[e].sum(axis=0) for e in range(num_envs)])
            assert returns.tobytes() == expected.tobytes()

    def test_mini_cleanup_apples_are_the_reported_harvests(self):
        env_config = MiniCleanupConfig(episode_length=50)
        envs = [MiniCleanupEnv(env_config, seed) for seed in range(3)]
        replay = [MiniCleanupEnv(env_config, seed) for seed in range(3)]
        policies = SoftmaxPolicyProfile.random(
            envs[0].num_states, envs[0].action_counts, np.random.default_rng(3), scale=1.0
        )
        buffer, returns, apples = collect_rollouts(envs, policies, np.random.default_rng(4))
        assert returns.shape == apples.shape == (3, 3) and apples.any()
        for e, env in enumerate(replay):
            env.reset()
            harvested = np.zeros(3)
            for action in buffer.actions[e]:
                harvested += env.step(action).info["apples"]
            assert apples[e].tobytes() == harvested.tobytes()
            assert returns[e].tobytes() == buffer.rewards[e].sum(axis=0).tobytes()


def make_config(**overrides):
    defaults = dict(
        algorithm=Algorithm.FAIR_MAA2C,
        alpha=0.5,
        learning_rate=0.1,
        critic_lr=0.1,
        gamma=0.9,
        gae_lambda=0.95,
        num_envs=2,
        total_steps=400,
        seed=0,
        critic_init=30.0,
        entropy_coef=0.01,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestA2CUpdate:
    def test_stale_buffer_rejected(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies)
        critics = np.full((2, 1), 30.0)
        policies.version += 1
        with pytest.raises(StaleBufferError):
            a2c_update(policies, critics, buffer, make_config())

    def test_zero_advantages_leave_actor_unchanged(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies)
        # constant rewards would still give nonzero GAE; zero them via a
        # critic whose value matches the geometric fixed point of a constant
        # reward stream: impossible for mixed payoffs, so zero the advantage
        # path directly with alpha=0, v_floor absorbing, and identical
        # rewards by forcing a degenerate payoff matrix
        flat = RepeatedMatrixGameEnv(DilemmaPayoffs(2, 2, 2, 2), 20)
        rng = np.random.default_rng(0)
        buffer, _, _ = collect_rollouts([flat, flat], policies, rng)
        critics = np.full((2, 1), 2.0 / (1 - 0.9))
        before = [l.copy() for l in policies.logits]
        a2c_update(policies, critics, buffer, make_config())
        for old, new in zip(before, policies.logits):
            assert np.allclose(old, new, atol=1e-12)

    def test_critic_constant_returns_geometric_rate(self):
        # lambda=1 with a constant per-step reward r makes the TD(lambda)
        # return R_t constant across a long episode tail; per visited state
        # the critic error contracts by (1 - 2 lr)
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        flat = RepeatedMatrixGameEnv(DilemmaPayoffs(2, 2, 2, 2), 30)
        rng = np.random.default_rng(1)
        buffer, _, _ = collect_rollouts([flat], policies, rng)
        lr = 0.1
        config = make_config(
            learning_rate=lr, critic_lr=lr, gae_lambda=1.0, gamma=0.0, lr_floor=lr
        )
        critics = np.full((2, 1), 10.0)
        target = 2.0  # gamma=0 return is the immediate reward
        errors = []
        for _ in range(4):
            errors.append(critics[0, 0] - target)
            buffer = with_version(buffer, policies.version)
            a2c_update(policies, critics, buffer, config, progress=0.0)
        for before, after in zip(errors, errors[1:]):
            assert after == pytest.approx(before * (1 - 2 * lr), rel=1e-9)

    def test_positive_advantage_raises_logit(self):
        # single-state bandit: action 0 pays more, its logit must increase
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies, episode_length=50, num_envs=4, seed=3)
        critics = np.full((2, 1), 27.5)  # near the uniform-play value
        before = policies.logits[0].copy()
        config = make_config(alpha=0.0, gae_lambda=0.0, learning_rate=1.0, critic_lr=0.1)
        a2c_update(policies, critics, buffer, config)
        # defection (action 1) strictly dominates for alpha=0
        assert policies.logits[0][0, 1] > before[0, 1]

    def test_probability_conservation_after_updates(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        critics = np.full((2, 1), 30.0)
        config = make_config()
        for seed in range(5):
            buffer, _, _ = collect_pd_buffer(policies, seed=seed)
            a2c_update(policies, critics, buffer, config)
        for i in range(2):
            assert np.allclose(policies.probs(i).sum(axis=1), 1.0, atol=1e-12)

    def test_version_bumped(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies)
        critics = np.full((2, 1), 30.0)
        a2c_update(policies, critics, buffer, make_config())
        assert policies.version == 1


class TestUpdateSchedules:
    @pytest.mark.parametrize("objective", list(ObjectiveMode))
    def test_normalized_advantages_are_centred_with_unit_spread(self, objective):
        policies = SoftmaxPolicyProfile.random(1, (2, 2), np.random.default_rng(2), scale=1.0)
        buffer, _, _ = collect_pd_buffer(policies, episode_length=30, num_envs=4, seed=5)
        critics = np.full((2, 1), 30.0)
        config = make_config(normalize_advantages=True, objective=objective)
        advantages, _ = compute_gae(buffer, critics, config.gamma, config.gae_lambda)
        combined, _ = one_run_combination(advantages, critics, buffer, config)
        assert combined.shape == (buffer.num_steps, 2)
        assert np.all(np.abs(combined.mean(axis=0)) <= 1e-12)
        assert np.all(np.abs(combined.std(axis=0) - 1.0) <= 1e-6)

    @pytest.mark.parametrize("num_agents", [1, 2])
    def test_runs_are_combined_and_normalized_as_alone(self, num_agents):
        # three runs (PF, UW, PF) combined and normalized at once, on
        # advantages of wide dynamic range: each run's block is what its own
        # lanes give alone, bit for bit, a one-agent run's sums included
        rng = np.random.default_rng(8)
        shape = (2, 40, 3 * num_agents)
        obs = rng.integers(0, 3, size=shape)
        critic = rng.uniform(0.5, 40.0, size=(shape[2], 3))
        advantages = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
        configs = [
            make_config(alpha=alpha, objective=objective, normalize_advantages=True)
            for alpha, objective in (
                (0.2, ObjectiveMode.PROPORTIONAL_FAIR),
                (0.5, ObjectiveMode.UTILITARIAN_WELFARE),
                (0.9, ObjectiveMode.PROPORTIONAL_FAIR),
            )
        ]
        coefficients = _fair_coefficients([c.alpha for c in configs], num_agents)
        buffer = RolloutBuffer(obs, obs, np.ones(shape), obs, 0)
        combined, floor_hits = _combined_advantages(
            advantages, critic, buffer, configs, coefficients
        )
        for r, config in enumerate(configs):
            lane = slice(r * num_agents, (r + 1) * num_agents)
            own = np.ascontiguousarray(obs[..., lane])
            alone, hits = one_run_combination(
                np.ascontiguousarray(advantages[..., lane]), critic[lane],
                RolloutBuffer(own, own, np.ones(own.shape), own, 0), config,
            )
            assert combined[r].tobytes() == alone.tobytes()
            assert floor_hits[r] == hits

    def test_logit_step_decays_to_the_floor_rate(self):
        """From uniform (zero) logits the step is lr * grad exactly, so the
        step at progress 1 is lr_floor / learning_rate times that at 0."""
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies, seed=4)
        config = make_config(learning_rate=0.5, lr_floor=0.02)
        steps = []
        for progress in (0.0, 1.0):
            moved = policies.copy()
            a2c_update(moved, np.full((2, 1), 30.0), buffer, config, progress)
            steps.append([m - b for m, b in zip(moved.logits, policies.logits)])
        ratio = config.lr_floor / config.learning_rate
        for early, late in zip(*steps):
            assert np.any(early != 0.0)
            np.testing.assert_allclose(late, ratio * early, rtol=1e-12, atol=0.0)


class TestPPOUpdate:
    @pytest.mark.parametrize("entropy_coef", [0.0, 0.05])
    def test_first_epoch_matches_a2c_direction(self, entropy_coef):
        # a non-uniform start, where the entropy gradient is nonzero
        policies_a = SoftmaxPolicyProfile([np.array([[0.4, -0.3]]), np.array([[-0.2, 0.5]])])
        buffer, _, _ = collect_pd_buffer(policies_a, seed=5)
        critics_a = np.full((2, 1), 30.0)
        critics_b = critics_a.copy()
        policies_b = policies_a.copy()
        config_a2c = make_config(entropy_coef=entropy_coef)
        config_ppo = make_config(
            algorithm=Algorithm.FAIR_MAPPO, entropy_coef=entropy_coef, ppo_epochs=1
        )
        a2c_update(policies_a, critics_a, buffer, config_a2c)
        buffer_b = with_version(buffer, policies_b.version)
        ppo_update(policies_b, critics_b, buffer_b, config_ppo)
        for a, b in zip(policies_a.logits, policies_b.logits):
            assert np.allclose(a, b, atol=1e-12)

    def test_zero_advantages_no_actor_change(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        flat = RepeatedMatrixGameEnv(DilemmaPayoffs(2, 2, 2, 2), 20)
        rng = np.random.default_rng(2)
        buffer, _, _ = collect_rollouts([flat, flat], policies, rng)
        critics = np.full((2, 1), 20.0)
        before = [l.copy() for l in policies.logits]
        config = make_config(
            algorithm=Algorithm.FAIR_MAPPO, entropy_coef=0.0, ppo_epochs=4
        )
        ppo_update(policies, critics, buffer, config)
        for old, new in zip(before, policies.logits):
            assert np.allclose(old, new, atol=1e-12)

    def test_ratio_clipped_after_many_epochs(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies, episode_length=50, num_envs=4, seed=7)
        critics = np.full((2, 1), 27.5)
        old_probs = [policies.probs(i).copy() for i in range(2)]
        config = make_config(
            algorithm=Algorithm.FAIR_MAPPO,
            entropy_coef=0.0,
            ppo_epochs=60,
            learning_rate=2.0,
            critic_lr=0.01,
            ppo_clip=0.2,
            normalize_advantages=True,
        )
        fair = fair_advantages(critics, buffer, config)
        clipped = [
            clipped_fraction(logits, policies.logits, buffer, fair, config.ppo_clip)
            for logits in epoch_start_logits(ppo_update, policies, critics, buffer, config)[:-1]
        ]
        assert sum(fraction > 0.0 for fraction in clipped) >= 5  # the clip binds
        ppo_update(policies, critics, buffer, config)
        obs, actions = buffer.flat()
        for i in range(2):
            new_probs = policies.probs(i)
            ratio = new_probs[obs[:, i], actions[:, i]] / old_probs[i][obs[:, i], actions[:, i]]
            positive = fair[:, i] > 0
            negative = fair[:, i] < 0
            assert np.all(ratio[positive] <= 1.2 + 0.1)
            assert np.all(ratio[negative] >= 0.8 - 0.1)

    def test_stale_buffer_rejected(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies)
        critics = np.full((2, 1), 30.0)
        policies.version += 3
        with pytest.raises(StaleBufferError):
            ppo_update(policies, critics, buffer, make_config(algorithm=Algorithm.FAIR_MAPPO))

    def test_zero_probability_taken_action_rejected(self):
        # exp(-1e4) underflows: the buffer's action 0 has probability exactly 0
        buffer, critics = single_transition_buffer(1.0, 10.0, 10.0)
        policies = SoftmaxPolicyProfile([np.array([[-1e4, 0.0], [0.0, 0.0]])])
        assert policies.probs(0)[0, 0] == 0.0
        before = policies.logits[0].copy()
        with pytest.raises(DomainError, match="zero probability"):
            ppo_update(policies, critics, buffer, make_config(algorithm=Algorithm.FAIR_MAPPO))
        assert np.array_equal(policies.logits[0], before)
        assert policies.version == 0

    @pytest.mark.parametrize("counts", [(2, 2), (3, 2, 3)])
    def test_zero_probability_names_the_first_faulty_agent(self, counts):
        # agent 1 takes an action of probability exactly 0; with counts
        # (3, 2, 3) agent 2, stacked with agent 0, does as well
        buffer, critics = single_transition_buffer(1.0, 10.0, 10.0, num_agents=len(counts))
        policies = SoftmaxPolicyProfile.uniform(2, counts)
        for agent in range(1, len(counts)):
            policies.logits[agent][0, 0] = -1e4
        before = [table.copy() for table in [*policies.logits, critics]]
        with pytest.raises(DomainError, match="^agent 1: .* zero probability to 1 taken"):
            ppo_update(policies, critics, buffer, make_config(algorithm=Algorithm.FAIR_MAPPO))
        after = [*policies.logits, critics]
        assert [a.tobytes() for a in after] == [b.tobytes() for b in before]
        assert policies.version == 0


def per_sample_update_core(policies, critics, buffer, config, progress, epochs, clip):
    """The policy-gradient core one agent at a time, with the softmax, logs,
    entropy and entropy gradient taken per sample rather than per visited
    row, and the gradient and critic sums scattered per sample with
    ``np.add.at``: the reference ``a2c_update`` and ``ppo_update`` must match
    bit for bit."""
    lr = config.learning_rate_at(progress)
    critic_lr = config.critic_lr_at(progress)
    obs, actions = buffer.flat()
    advantages, returns = compute_gae(buffer, critics, config.gamma, config.gae_lambda)
    fair, floor_hits = one_run_combination(advantages, critics, buffer, config)
    num_agents = obs.shape[1]
    returns = returns.reshape(-1, num_agents)
    batch = obs.shape[0]
    taken = np.arange(batch)
    old_log = [
        np.log(_softmax(policies.logits[i][obs[:, i]])[taken, actions[:, i]])
        for i in range(num_agents)
    ]
    rows_of = [np.unique(obs[:, i], return_inverse=True) for i in range(num_agents)]
    diag = {"floor_hits": floor_hits}
    for _ in range(epochs):
        diag["actor_loss"], diag["critic_loss"], diag["entropy"] = [], [], []
        for i in range(num_agents):
            visited, inverse = rows_of[i]
            rows = _softmax(policies.logits[i][obs[:, i]])
            log_taken = np.log(np.clip(rows[taken, actions[:, i]], 1e-300, None))
            w = fair[:, i]
            if clip is None:
                coeff = w
                actor_loss = -(w * log_taken).mean()
            else:
                ratio = np.exp(log_taken - old_log[i])
                clipped_out = ((w > 0) & (ratio > 1.0 + clip)) | ((w < 0) & (ratio < 1.0 - clip))
                coeff = np.where(clipped_out, 0.0, ratio * w)
                surrogate = np.minimum(ratio * w, np.clip(ratio, 1.0 - clip, 1.0 + clip) * w)
                actor_loss = -surrogate.mean()
            grad = np.zeros((len(visited), rows.shape[1]))
            np.add.at(grad, (inverse, actions[:, i]), coeff / batch)
            np.add.at(grad, inverse, -(coeff[:, None] * rows) / batch)
            log_rows = np.log(np.clip(rows, 1e-300, None))
            entropy = -(rows * log_rows).sum(axis=1)
            if config.entropy_coef > 0.0:
                ent_grad = -rows * (log_rows + entropy[:, None])
                np.add.at(grad, inverse, config.entropy_coef * ent_grad / batch)
            diag["actor_loss"].append(float(actor_loss))
            diag["entropy"].append(float(entropy.mean()))
            policies.logits[i][visited] += lr * grad
            critic_loss = scattered_critic_step(
                critics[i], returns[:, i], critic_lr, visited, inverse
            )
            diag["critic_loss"].append(critic_loss)
        policies.version += 1
    return diag


def assert_same_update(update, epochs, clip, policies, critics, buffer, config, progress):
    """``update`` and the per-sample reference, each from copies of the same
    policies and critics, leave identical logits, critics and diagnostics."""
    ref_policies, ref_critics = policies.copy(), critics.copy()
    expected = per_sample_update_core(
        ref_policies, ref_critics, buffer, config, progress, epochs, clip
    )
    diag = update(policies, critics, buffer, config, progress=progress)
    assert diag == expected
    got = [*policies.logits, critics]
    want = [*ref_policies.logits, ref_critics]
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    assert policies.version == ref_policies.version


def update_of(config):
    """The update that ``config``'s algorithm runs, and its core's epochs and
    clip."""
    if config.algorithm is Algorithm.FAIR_MAA2C:
        return a2c_update, 1, None
    return ppo_update, config.ppo_epochs, config.ppo_clip


class TestUpdateCoreBitIdentical:
    def test_a2c_on_pd_batches(self):
        config = TrainConfig(
            algorithm=Algorithm.FAIR_MAA2C, alpha=0.8, learning_rate=8.0, critic_lr=0.2,
            entropy_coef=0.02, num_envs=2, total_steps=2000, critic_init=50.0,
        )
        policies = SoftmaxPolicyProfile([np.array([[0.4, -0.3]]), np.array([[-0.2, 0.5]])])
        critics = np.full((2, 1), 50.0)
        for seed in range(10):
            buffer, _, _ = collect_pd_buffer(policies, episode_length=100, num_envs=2, seed=seed)
            assert_same_update(
                a2c_update, 1, None, policies, critics, buffer, config, progress=seed / 10
            )

    def test_ppo_with_entropy_on_mini_cleanup_batches(self):
        env_config = MiniCleanupConfig(episode_length=60)
        envs = [MiniCleanupEnv(env_config, seed) for seed in range(3)]
        config = TrainConfig(
            algorithm=Algorithm.FAIR_MAPPO, alpha=0.5, learning_rate=2.0, critic_lr=0.2,
            entropy_coef=0.01, ppo_epochs=4, num_envs=3, total_steps=1000,
            critic_init=1.0, normalize_advantages=True,
        )
        rng = np.random.default_rng(11)
        policies = SoftmaxPolicyProfile.random(
            envs[0].num_states, envs[0].action_counts, rng, scale=1.0
        )
        critics = np.full((envs[0].num_agents, envs[0].num_states), 1.0)
        for update_index in range(3):
            buffer, _, _ = collect_rollouts(envs, policies, rng)
            obs, _ = buffer.flat()
            for i in range(obs.shape[1]):
                assert len(np.unique(obs[:, i])) < obs.shape[0]  # rows repeat
            assert_same_update(
                ppo_update, 4, 0.2, policies, critics, buffer, config, progress=update_index / 3
            )

    @pytest.mark.parametrize("counts", [(2, 3), (3, 2, 3)])
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_agents_with_different_action_counts(self, counts, algorithm):
        # (3, 2, 3) stacks agents 0 and 2 apart from agent 1
        game = random_markov_game(len(counts), 16, counts, 0.9, seed=5)
        envs = [MarkovGameEnv(game, 30, seed=k) for k in range(3)]
        config = TrainConfig(
            algorithm=algorithm, alpha=0.7, learning_rate=2.0, critic_lr=0.2,
            entropy_coef=0.02, ppo_epochs=3, num_envs=3, total_steps=900, critic_init=5.0,
        )
        update, epochs, clip = update_of(config)
        rng = np.random.default_rng(13)
        policies = SoftmaxPolicyProfile.random(16, counts, rng, scale=1.0)
        critics = np.full((len(counts), 16), 5.0)
        for update_index in range(3):
            buffer, _, _ = collect_rollouts(envs, policies, rng)
            assert_same_update(
                update, epochs, clip, policies, critics, buffer, config, progress=update_index / 3
            )

    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_normalized_utilitarian_advantages(self, algorithm):
        config = TrainConfig(
            algorithm=algorithm, objective=ObjectiveMode.UTILITARIAN_WELFARE,
            normalize_advantages=True, learning_rate=2.0, critic_lr=0.2, entropy_coef=0.02,
            ppo_epochs=3, num_envs=2, total_steps=2000, critic_init=50.0,
        )
        update, epochs, clip = update_of(config)
        policies = SoftmaxPolicyProfile([np.array([[0.4, -0.3]]), np.array([[-0.2, 0.5]])])
        critics = np.full((2, 1), 50.0)
        for seed in range(5):
            buffer, _, _ = collect_pd_buffer(policies, episode_length=100, num_envs=2, seed=seed)
            assert_same_update(
                update, epochs, clip, policies, critics, buffer, config, progress=seed / 5
            )

    def test_learning_scatters_with_no_add_at(self):
        assert "add.at" not in inspect.getsource(learning)


def scattered_critic_step(table, targets, lr, visited, inverse):
    """``_critic_regression_step`` with its sums and counts scattered onto
    zeros by ``np.add.at`` and its MSE from ``np.mean``: the reference for
    its bincount form."""
    values = table[visited]
    mse = float(np.mean((values[inverse] - targets) ** 2))
    sums = np.zeros(len(visited))
    counts = np.zeros(len(visited))
    np.add.at(sums, inverse, targets)
    np.add.at(counts, inverse, 1.0)
    table[visited] = values - lr * 2.0 * (values - sums / counts)
    return mse


class TestCriticRegressionStep:
    def assert_matches_scatter(self, table, obs, targets, lr):
        visited, inverse = np.unique(obs, return_inverse=True)
        expected_table = table.copy()
        expected = scattered_critic_step(expected_table, targets, lr, visited, inverse)
        table[visited], squared = _critic_regression_step(
            table[visited], targets[None], lr, inverse, np.bincount(inverse)
        )
        mse = float(squared.sum() / squared.size)
        assert mse == expected or (np.isnan(mse) and np.isnan(expected))
        assert table.tobytes() == expected_table.tobytes()

    def test_random_batches_with_repeated_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            num_states = int(rng.integers(1, 40))
            batch = int(rng.integers(1, 500))
            table = rng.normal(0.0, 10.0, num_states)
            obs = rng.integers(0, num_states, batch)
            targets = rng.normal(0.0, 10.0, batch) * 10.0 ** rng.integers(-8, 9, batch)
            self.assert_matches_scatter(table, obs, targets, float(rng.uniform(0.01, 0.49)))

    def test_single_visited_row(self):
        rng = np.random.default_rng(1)
        for batch in (1, 2, 2000):
            table = np.array([50.0, -1.0, 3.0])
            obs = np.full(batch, 1)
            self.assert_matches_scatter(table, obs, rng.uniform(1.0, 5.0, batch), 0.2)

    def test_large_table_with_few_visited_rows(self):
        rng = np.random.default_rng(2)
        table = rng.normal(0.0, 1.0, 131072)
        obs = rng.choice(131072, 7, replace=False)[rng.integers(0, 7, 3000)]
        self.assert_matches_scatter(table, obs, rng.normal(5.0, 2.0, 3000), 0.1)


def fair_advantages(critics, buffer, config):
    """The (E*T, N) fair advantages an update computes before its epochs."""
    advantages, _ = compute_gae(buffer, critics, config.gamma, config.gae_lambda)
    return one_run_combination(advantages, critics, buffer, config)[0]


def epoch_start_logits(update, policies, critics, buffer, config):
    """The logit tables at the start of each of ``config.ppo_epochs`` epochs
    and after the last: epoch e's start is an e-epoch update on copies."""
    starts = [[t.copy() for t in policies.logits]]
    for epochs in range(1, config.ppo_epochs + 1):
        moved = policies.copy()
        update(moved, critics.copy(), buffer, dataclasses.replace(config, ppo_epochs=epochs))
        starts.append(moved.logits)
    return starts


def log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def taken_log_probs(table, obs, actions):
    return log_softmax(table[obs])[np.arange(len(obs)), actions]


def surrogate_objective(table, obs, actions, old_log, fair, clip, entropy_coef):
    """One agent's objective written from its definition:
    L = mean_t min(rho_t A_t, clip(rho_t, 1 - clip, 1 + clip) A_t)
        + entropy_coef * mean_t H(pi(.|o_t)),
    with rho_t = pi(a_t|o_t) / pi_old(a_t|o_t); ``clip=None`` keeps rho_t A_t."""
    ratio = np.exp(taken_log_probs(table, obs, actions) - old_log)
    surrogate = ratio * fair
    if clip is not None:
        surrogate = np.minimum(surrogate, np.clip(ratio, 1.0 - clip, 1.0 + clip) * fair)
    log_probs = log_softmax(table[obs])
    entropy = -(np.exp(log_probs) * log_probs).sum(axis=1)
    return surrogate.mean() + entropy_coef * entropy.mean()


def central_differences(loss, table, rows, h=1e-5):
    """d loss / d table on ``rows``, zero elsewhere."""
    grad = np.zeros_like(table)
    for r in rows:
        for k in range(table.shape[1]):
            plus, minus = table.copy(), table.copy()
            plus[r, k] += h
            minus[r, k] -= h
            grad[r, k] = (loss(plus) - loss(minus)) / (2.0 * h)
    return grad


def clipped_fraction(logits, old_logits, buffer, fair, clip):
    """The share of (sample, agent) pairs whose clipped surrogate is flat at
    ``logits``: rho > 1 + clip where A > 0, or rho < 1 - clip where A < 0."""
    obs, actions = buffer.flat()
    flat = []
    for i, table in enumerate(logits):
        ratio = np.exp(
            taken_log_probs(table, obs[:, i], actions[:, i])
            - taken_log_probs(old_logits[i], obs[:, i], actions[:, i])
        )
        w = fair[:, i]
        flat.append(((w > 0) & (ratio > 1.0 + clip)) | ((w < 0) & (ratio < 1.0 - clip)))
    return float(np.mean(flat))


def assert_steps_ascend_the_loss(update, clip, policies, critics, buffer, config):
    """Each epoch's logit step is lr times the central differences of the
    surrogate objective at that epoch's start, to 1e-6 relative, with no
    ratio within 1e-3 of a kink. Returns the clipped fraction per epoch."""
    obs, actions = buffer.flat()
    fair = fair_advantages(critics, buffer, config)
    lr = config.learning_rate_at(0.0)
    old = policies.logits
    starts = epoch_start_logits(update, policies, critics, buffer, config)
    fractions = []
    for before, after in zip(starts, starts[1:]):
        for i in range(obs.shape[1]):
            old_log = taken_log_probs(old[i], obs[:, i], actions[:, i])
            ratio = np.exp(taken_log_probs(before[i], obs[:, i], actions[:, i]) - old_log)
            if clip is not None:
                assert np.abs(np.abs(ratio - 1.0) - clip).min() > 1e-3  # off the kinks

            def loss(table):
                return surrogate_objective(
                    table, obs[:, i], actions[:, i], old_log, fair[:, i], clip,
                    config.entropy_coef,
                )

            expected = lr * central_differences(loss, before[i], np.unique(obs[:, i]))
            step = after[i] - before[i]
            assert np.abs(step - expected).max() <= 1e-6 * np.abs(expected).max()
        if clip is not None:
            fractions.append(clipped_fraction(before, old, buffer, fair, clip))
    return fractions


def small_markov_batch(policies_seed):
    """Two 12-step episodes of a 16-state, (2, 3)-action random game from
    random logits, in which rows repeat and some rows go unvisited."""
    game = random_markov_game(2, 16, (2, 3), 0.9, seed=3)
    envs = [MarkovGameEnv(game, 12, seed=k) for k in range(2)]
    rng = np.random.default_rng(policies_seed)
    policies = SoftmaxPolicyProfile.random(16, game.action_counts, rng, scale=1.0)
    buffer, _, _ = collect_rollouts(envs, policies, rng)
    obs, _ = buffer.flat()
    assert all(len(np.unique(obs[:, i])) < min(16, len(obs)) for i in range(2))
    return policies, np.full((2, 16), 5.0), buffer


class TestUpdateCoreAscendsTheLoss:
    """The update core against an oracle built from the loss alone: PPO's
    clipped surrogate and A2C's (rho = 1) objective, differentiated by
    central differences."""

    def test_ppo_on_a_pd_batch_where_the_clip_binds(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies, episode_length=50, num_envs=4, seed=7)
        critics = np.full((2, 1), 27.5)
        config = make_config(
            algorithm=Algorithm.FAIR_MAPPO, entropy_coef=0.05, ppo_epochs=4,
            learning_rate=8.0, critic_lr=0.01, ppo_clip=0.2, normalize_advantages=True,
        )
        fractions = assert_steps_ascend_the_loss(
            ppo_update, 0.2, policies, critics, buffer, config
        )
        assert fractions[0] == 0.0  # rho = 1 at the first epoch
        assert all(0.1 <= f <= 0.5 for f in fractions[1:]), fractions

    def test_ppo_on_a_multi_state_batch(self):
        policies, critics, buffer = small_markov_batch(policies_seed=21)
        config = make_config(
            algorithm=Algorithm.FAIR_MAPPO, entropy_coef=0.05, ppo_epochs=3,
            learning_rate=2.0, critic_lr=0.2, ppo_clip=0.2,
        )
        assert_steps_ascend_the_loss(ppo_update, 0.2, policies, critics, buffer, config)

    @pytest.mark.parametrize("batch", ["pd", "multi_state"])
    def test_a2c(self, batch):
        if batch == "pd":
            policies = SoftmaxPolicyProfile([np.array([[0.4, -0.3]]), np.array([[-0.2, 0.5]])])
            buffer, _, _ = collect_pd_buffer(policies, episode_length=50, num_envs=4, seed=7)
            critics = np.full((2, 1), 27.5)
        else:
            policies, critics, buffer = small_markov_batch(policies_seed=22)
        config = make_config(entropy_coef=0.05, learning_rate=2.0, critic_lr=0.2, ppo_epochs=1)
        assert_steps_ascend_the_loss(a2c_update, None, policies, critics, buffer, config)


class TestTrain:
    def factory(self, seed):
        return RepeatedMatrixGameEnv(PD, 20)

    def test_zero_steps_returns_initial_policies(self):
        config = make_config(total_steps=0, critic_init=30)  # an int init gives a float critic
        result = train(self.factory, config)
        assert result.table.step.shape == result.table.gini.shape == (0,)
        assert result.table.returns.shape == result.table.apples.shape == (0, 2)
        assert result.episodes == 0
        for logits in result.policies.logits:
            assert not logits.any()
        assert result.critics.dtype == np.float64
        assert result.critics.tolist() == [[30.0], [30.0]]  # (N, S), at critic_init

    def test_log_schema_and_determinism(self, tmp_path):
        config = make_config(total_steps=400, seed=11)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_log_csv(first, train(self.factory, config).table)
        write_log_csv(second, train(self.factory, config).table)
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text().splitlines()[0]
        assert header == "step,episode,agent,return,apples,gini,actor_loss,critic_loss,entropy,floor_hits"

    def test_different_seeds_differ(self, tmp_path):
        a = train(self.factory, make_config(total_steps=400, seed=1))
        b = train(self.factory, make_config(total_steps=400, seed=2))
        assert a.table.returns.shape == b.table.returns.shape
        assert not np.array_equal(a.table.returns, b.table.returns)

    def test_snapshot_round_trip(self, tmp_path):
        config = make_config(total_steps=200)
        path = tmp_path / "snapshot.json"
        result = train(self.factory, config)
        save_policy_snapshot(path, result.policies)
        loaded = load_policy_snapshot(path)
        for a, b in zip(result.policies.logits, loaded.logits):
            assert np.allclose(a, b, atol=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_update_raises(self):
        # a huge step overflows the logits on the first update
        config = make_config(learning_rate=1e308, critic_lr=0.2, critic_init=0.0)
        with pytest.raises(DomainError, match="update 0, agent 0: non-finite logits"):
            train(self.factory, config)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_logits_name_their_agent_on_a_multi_state_game(self, monkeypatch):
        # agent 1's fair advantages turn NaN on a 4-state game: the visited
        # rows of agents 0 and 1 are checked as one stack, and agent 1 is named
        combine = learning.combine_fair_advantages

        def poisoning(advantages, critic, buffer, coefficients, v_floor):
            combined, floor_hits = combine(advantages, critic, buffer, coefficients, v_floor)
            combined[..., 1] = np.nan
            return combined, floor_hits

        monkeypatch.setattr(learning, "combine_fair_advantages", poisoning)
        game = random_markov_game(2, 4, (2, 2), 0.9, seed=3)
        with pytest.raises(DomainError, match="^update 0, agent 1: non-finite logits$"):
            train(lambda seed: MarkovGameEnv(game, 10, seed), make_config())

    @pytest.mark.parametrize("name", ["critic", "actor_loss", "critic_loss", "entropy"])
    def test_non_finite_check_names_the_value(self, name):
        # one stack of agents 0 and 1, with one touched row each (the agent
        # of each touched row, its logits and critic entries); the rows
        # of ``losses`` are the actor loss, critic loss and entropy
        logits, values, losses = np.zeros((2, 2)), np.ones(2), np.full((3, 2), 0.5)
        if name == "critic":
            values[1] = np.inf
        else:
            losses[["actor_loss", "critic_loss", "entropy"].index(name), 1] = np.nan
        touched = [(np.array([0, 1]), logits, values)]
        assert _non_finite(touched, losses) == {1: name}

    def test_non_finite_check_goes_in_agent_order(self):
        # agents 0 and 2 share a stack (one touched row and two), agent 1
        # has its own (two rows): agent 2's logits and agent 1's entropy are
        # non-finite, and both are named
        losses = np.full((3, 3), 0.5)
        losses[2, 1] = np.inf
        logits = np.zeros((3, 2))
        logits[2, 1] = np.nan
        touched = [
            (np.array([0, 2, 2]), logits, np.ones(3)),
            (np.array([1, 1]), np.zeros((2, 3)), np.ones(2)),
        ]
        assert _non_finite(touched, losses) == {1: "entropy", 2: "logits"}
        losses[2, 1] = 0.5
        losses[0, 2] = np.nan  # an agent's tables come before its losses
        assert _non_finite(touched, losses) == {2: "logits"}

    def test_update_error_names_its_update(self, monkeypatch):
        # train reaches the update core directly, and the third update raises
        calls = []
        core = learning._policy_gradient_update

        def failing_third_update(*args, **kwargs):
            calls.append(1)
            diagnostics = core(*args, **kwargs)
            if len(calls) == 3:
                raise DomainError("agent 1: non-finite critic")
            return diagnostics

        monkeypatch.setattr(learning, "_policy_gradient_update", failing_third_update)
        with pytest.raises(DomainError, match="^update 2, agent 1: non-finite critic$"):
            train(self.factory, make_config(total_steps=400))

    def test_gini_once_per_episode(self, monkeypatch):
        # one stacked call per update, on that update's (E, N) block of
        # episodes: each episode's Gini is still computed once
        shapes = []

        def counting_gini(consumptions):
            shapes.append(np.shape(consumptions))
            return gini(consumptions)

        monkeypatch.setattr(learning, "gini", counting_gini)
        result = train(self.factory, make_config(total_steps=400))
        assert result.episodes > 0
        assert shapes == [(2, 2)] * len(result.table.floor_hits)
        assert result.table.gini.shape == (result.episodes,)
        assert result.table.apples.shape == (result.episodes, 2)

    @pytest.mark.parametrize("env", ["pd", "mini_cleanup"])
    def test_stacked_gini_is_each_episodes_gini(self, env):
        if env == "pd":
            result = train(self.factory, make_config(total_steps=400))
            assert not result.table.apples.any()  # no apples: the Gini of returns
            consumptions = result.table.returns
        else:
            env_config = MiniCleanupConfig(episode_length=40)  # 3 agents
            result = train(
                lambda seed: MiniCleanupEnv(env_config, seed),
                make_config(num_envs=3, total_steps=480, critic_init=1.0),
            )
            consumptions = result.table.apples
            assert consumptions.shape == (12, 3) and consumptions.any()
        expected = np.array([gini(row) for row in consumptions])
        assert result.table.gini.tobytes() == expected.tobytes()

    def test_gini_error_stops_training_at_its_update(self, monkeypatch):
        updates = []
        core = learning._policy_gradient_update  # what train calls per update

        def counting_update(*args, **kwargs):
            updates.append(1)
            return core(*args, **kwargs)

        def failing_gini(consumptions):
            raise DomainError("gini: negative consumption")

        monkeypatch.setattr(learning, "_policy_gradient_update", counting_update)
        monkeypatch.setattr(learning, "gini", failing_gini)
        with pytest.raises(DomainError, match="negative consumption"):
            train(self.factory, make_config(total_steps=400))
        assert len(updates) == 1

    def test_episode_table_matches_the_log(self, tmp_path):
        # 400 steps of 2 collectors x 20-step episodes: 10 updates of 2 episodes
        log = tmp_path / "log.csv"
        result = train(self.factory, make_config(total_steps=400))
        write_log_csv(log, result.table)
        table = result.table
        assert np.array_equal(table.update, np.repeat(np.arange(10), 2))
        assert np.array_equal(table.step, 40 * (table.update + 1))
        assert table.actor_loss.shape == table.critic_loss.shape == table.entropy.shape == (10, 2)
        assert table.floor_hits.shape == (10,)
        with open(log, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2 * result.episodes
        for row in rows:
            e, agent = int(row["episode"]), int(row["agent"])
            u = table.update[e]
            assert int(row["step"]) == table.step[e]
            assert float(row["return"]) == table.returns[e, agent]
            assert float(row["apples"]) == table.apples[e, agent]
            assert float(row["gini"]) == table.gini[e]
            assert float(row["actor_loss"]) == table.actor_loss[u, agent]
            assert float(row["critic_loss"]) == table.critic_loss[u, agent]
            assert float(row["entropy"]) == table.entropy[u, agent]
            assert int(row["floor_hits"]) == table.floor_hits[u]

    def test_invalid_config_rejected(self):
        with pytest.raises(DomainError):
            make_config(gamma=1.5)
        with pytest.raises(DomainError):
            make_config(ppo_clip=0.0)
        with pytest.raises(DomainError):
            make_config(gae_lambda=1.5)
        with pytest.raises(DomainError, match="seed: must be a nonnegative integer, got -1"):
            make_config(seed=-1)


TABLE_FIELDS = ("step", "returns", "apples", "gini", "update", "actor_loss", "critic_loss",
                "entropy", "floor_hits")


def assert_same_run(batched, alone):
    """One run of a batch and the same run trained alone agree byte for
    byte: every logit table, the critic, every episode table array, and the
    step, episode and version counts."""
    assert [t.tobytes() for t in batched.policies.logits] == [
        t.tobytes() for t in alone.policies.logits
    ]
    assert batched.critics.shape == alone.critics.shape
    assert batched.critics.tobytes() == alone.critics.tobytes()
    for name in TABLE_FIELDS:
        ours, theirs = getattr(batched.table, name), getattr(alone.table, name)
        assert ours.shape == theirs.shape and ours.dtype == theirs.dtype, name
        assert ours.tobytes() == theirs.tobytes(), name
    assert (batched.steps, batched.episodes, batched.policies.version) == (
        alone.steps, alone.episodes, alone.policies.version
    )


# (env factory, the configs of one batch): every case trains at least two
# updates per run, and the runs differ in alpha, objective or seed
BATCH_CASES = {
    "pd_a2c_three_alphas": (
        lambda seed: RepeatedMatrixGameEnv(PD, 20),
        [
            make_config(alpha=alpha, seed=seed, learning_rate=2.0)
            for alpha, seed in ((0.0, 4), (0.8, 5), (1.0, 6))
        ],
    ),
    "markov_ppo_pf_and_uw": (
        lambda seed: MarkovGameEnv(random_markov_game(3, 3, (2, 2, 2), 0.9, seed=2), 15, seed),
        [
            make_config(
                algorithm=Algorithm.FAIR_MAPPO, alpha=alpha, objective=objective, seed=seed,
                normalize_advantages=True, learning_rate=1.0, policy_init_scale=0.5,
                num_envs=3, total_steps=450, ppo_epochs=3,
            )
            for alpha, objective, seed in (
                (0.3, ObjectiveMode.PROPORTIONAL_FAIR, 1),
                (0.3, ObjectiveMode.UTILITARIAN_WELFARE, 2),
                (1.0, ObjectiveMode.PROPORTIONAL_FAIR, 3),
            )
        ],
    ),
    "two_action_groups": (
        lambda seed: MarkovGameEnv(random_markov_game(2, 4, (2, 3), 0.9, seed=6), 12, seed),
        [
            make_config(alpha=alpha, seed=seed, learning_rate=1.0, total_steps=240)
            for alpha, seed in ((0.2, 0), (0.9, 5))
        ],
    ),
    "one_agent_markov_ppo_normalized": (
        # long episodes: numpy sums a lone one-agent run's 1000 samples
        # pairwise, so a reduction across the runs' lanes would round apart
        lambda seed: MarkovGameEnv(random_markov_game(1, 3, (3,), 0.9, seed=4), 500, seed),
        [
            make_config(
                algorithm=Algorithm.FAIR_MAPPO, alpha=alpha, seed=seed, num_envs=2,
                total_steps=2000, normalize_advantages=True, policy_init_scale=0.5,
            )
            for alpha, seed in ((0.0, 1), (0.5, 2), (1.0, 3))
        ],
    ),
    "mini_cleanup_3x3_ppo": (
        lambda seed: MiniCleanupEnv(
            MiniCleanupConfig(width=3, height=3, num_agents=2, river_rows=1, episode_length=20),
            seed,
        ),
        [
            make_config(
                algorithm=Algorithm.FAIR_MAPPO, alpha=alpha, seed=seed, learning_rate=1.0,
                critic_init=1.0, policy_init_scale=1.0, num_envs=3, total_steps=180,
                normalize_advantages=True,
            )
            for alpha, seed in ((0.5, 7), (1.0, 8))
        ],
    ),
}


def lone_outcome(factory, config):
    """What ``train`` returns for ``config``, or the DomainError it raises."""
    try:
        return train(factory, config)
    except DomainError as exc:
        return exc


class TestTrainRuns:
    @pytest.mark.parametrize("case", sorted(BATCH_CASES))
    def test_batch_equals_separate_runs(self, case):
        factory, configs = BATCH_CASES[case]
        batched = _train_runs(factory, configs)
        assert len(batched) == len(configs)
        for result, config in zip(batched, configs):
            assert len(result.table.floor_hits) >= 2
            assert_same_run(result, train(factory, config))

    def test_mini_cleanup_pair_shares_one_batch(self):
        factory, configs = BATCH_CASES["mini_cleanup_3x3_ppo"]
        assert learning._runs_per_batch(factory(0)) >= len(configs)

    def test_batch_size_under_the_table_cap(self):
        shipped = MiniCleanupEnv(MiniCleanupConfig())  # 3 x 131072 x 6 logits
        assert learning._runs_per_batch(shipped) == 1
        pd = RepeatedMatrixGameEnv(PD, 20)  # 2 x 1 x 2 logits
        assert learning._runs_per_batch(pd) == learning._BATCH_TABLE_ENTRIES // 4

    @pytest.mark.parametrize("field, value", [("learning_rate", 0.2), ("num_envs", 3)])
    def test_runs_differing_in_a_shared_field_are_refused(self, field, value):
        configs = [make_config(), make_config(alpha=0.9, **{field: value})]
        with pytest.raises(DomainError, match=f"^batched runs differ in {field}$"):
            _train_runs(lambda seed: RepeatedMatrixGameEnv(PD, 20), configs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("case, failing", [
        ("pd_a2c_three_alphas", 1), ("markov_ppo_pf_and_uw", 2),
    ])
    def test_a_non_finite_run_leaves_and_the_others_go_on(self, case, failing, monkeypatch):
        # one run's fair advantages turn NaN from its third update on: it
        # fails there with the error it raises alone, and the others finish
        factory, configs = BATCH_CASES[case]
        poisoned = configs[failing]
        epochs = poisoned.ppo_epochs if poisoned.algorithm is Algorithm.FAIR_MAPPO else 1
        combine = learning.combine_fair_advantages

        def poisoning(advantages, critic, buffer, coefficients, v_floor):
            combined, floor_hits = combine(advantages, critic, buffer, coefficients, v_floor)
            if buffer.policy_version >= 2 * epochs:
                combined[coefficients[:, 0, 1] == poisoned.alpha] *= np.nan
            return combined, floor_hits

        monkeypatch.setattr(learning, "combine_fair_advantages", poisoning)
        batched = _train_runs(factory, configs)
        lone = [lone_outcome(factory, config) for config in configs]
        assert str(lone[failing]).startswith("update 2, agent 0: non-finite ")
        assert isinstance(batched[failing], DomainError)
        assert str(batched[failing]) == str(lone[failing])
        for k, config in enumerate(configs):
            if k != failing:
                assert_same_run(batched[k], lone[k])

    def test_a_failed_gini_fails_only_its_run(self, monkeypatch):
        # the Gini of run 2's episodes of update 3 fails, in the stacked
        # call and alone
        factory, configs = BATCH_CASES["pd_a2c_three_alphas"]
        target = train(factory, configs[2]).table.returns[6:8]

        def failing_gini(consumptions):
            rows = np.asarray(consumptions)
            if any(np.array_equal(rows[k : k + 2], target) for k in range(0, len(rows), 2)):
                raise DomainError("gini: injected")
            return gini(consumptions)

        monkeypatch.setattr(learning, "gini", failing_gini)
        batched = _train_runs(factory, configs)
        lone = [lone_outcome(factory, config) for config in configs]
        assert str(lone[2]) == "gini: injected"
        assert isinstance(batched[2], DomainError) and str(batched[2]) == str(lone[2])
        for k in (0, 1):
            assert_same_run(batched[k], lone[k])

    def test_zero_probability_run_fails_the_update_untouched(self):
        # two PPO runs side by side; run 1's buffer policy gives agent 1's
        # taken action 1 zero probability, so the core raises the error run
        # 1 raises alone before it touches any table
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _, _ = collect_pd_buffer(policies, num_envs=2)
        assert (buffer.actions[..., 1] == 1).any()
        wide_logits = [np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)),
                       np.array([[0.0, -800.0]])]
        groups = learning._grouped(wide_logits)  # one group: every agent has 2 actions
        wide = SoftmaxPolicyProfile(list(groups[0][1]))
        wide_buffer = RolloutBuffer(
            *(np.concatenate([a, a], axis=-1) for a in (
                buffer.observations, buffer.actions, buffer.rewards, buffer.next_observations
            )),
            0,
        )
        configs = [make_config(algorithm=Algorithm.FAIR_MAPPO, alpha=a) for a in (0.5, 1.0)]
        critics = np.full((4, 1), 30.0)
        count = int((buffer.actions[..., 1] == 1).sum())
        message = (
            f"agent 1: the current policy assigns zero probability to {count} taken "
            "action(s) in the buffer"
        )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _policy_gradient_update(
                wide, groups, critics, wide_buffer, configs, _fair_coefficients([0.5, 1.0], 2),
                0.5, configs[0].ppo_epochs, configs[0].ppo_clip,
            )
        assert [t.tobytes() for t in wide.logits] == [t.tobytes() for t in wide_logits]
        assert (critics == 30.0).all()
        assert wide.version == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("runs, poisoned, batches", [
        ((0, 1, 2), None, [3]), ((0, 1, 2), 0.8, [3, 1, 1, 1]), ((1,), 0.8, [1]),
    ])
    def test_only_a_failing_batch_retrains_its_runs(self, runs, poisoned, batches, monkeypatch):
        # a healthy batch trains once; a batch of R runs with a failing one
        # trains again once per run, alone; a failing lone run is not retried
        factory, configs = BATCH_CASES["pd_a2c_three_alphas"]
        configs = [configs[k] for k in runs]
        calls = []
        train_batch = learning._train_batch
        combine = learning.combine_fair_advantages

        def counting_batch(env_factory, batch_configs):
            calls.append(len(batch_configs))
            return train_batch(env_factory, batch_configs)

        def poisoning(advantages, critic, buffer, coefficients, v_floor):
            combined, floor_hits = combine(advantages, critic, buffer, coefficients, v_floor)
            combined[coefficients[:, 0, 1] == poisoned] *= np.nan
            return combined, floor_hits

        monkeypatch.setattr(learning, "_train_batch", counting_batch)
        monkeypatch.setattr(learning, "combine_fair_advantages", poisoning)
        outcomes = _train_runs(factory, configs)
        assert calls == batches
        for outcome, config in zip(outcomes, configs):
            if config.alpha == poisoned:
                assert str(outcome) == "update 0, agent 0: non-finite logits"
            else:
                assert_same_run(outcome, train(factory, config))


@st.composite
def batch_problems(draw):
    """A small env factory and the configs of one batch: 1 to 4 runs with
    distinct alphas and seeds and drawn objectives, on a random Markov game
    (1 to 3 agents of 2 or 3 actions, so one or two action groups, and 1 to
    4 states) or on a 3x3 mini-CleanUp, under A2C or PPO."""
    length = draw(st.integers(3, 8))
    if draw(st.booleans()):
        num_agents = draw(st.integers(1, 3))
        counts = draw(st.lists(st.integers(2, 3), min_size=num_agents, max_size=num_agents))
        game = random_markov_game(
            num_agents, draw(st.integers(1, 4)), counts, 0.9, seed=draw(st.integers(0, 99))
        )

        def factory(seed):
            return MarkovGameEnv(game, length, seed)
    else:
        env_config = MiniCleanupConfig(
            width=3, height=3, num_agents=2, river_rows=1, episode_length=length
        )

        def factory(seed):
            return MiniCleanupEnv(env_config, seed)
    runs = draw(st.integers(1, 4))
    alphas = draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0]), min_size=runs, max_size=runs, unique=True
    ))
    seeds = draw(st.lists(st.integers(0, 50), min_size=runs, max_size=runs, unique=True))
    objectives = draw(st.lists(st.sampled_from(list(ObjectiveMode)), min_size=runs, max_size=runs))
    num_envs = draw(st.integers(1, 3))
    shared = dict(
        algorithm=draw(st.sampled_from(list(Algorithm))),
        num_envs=num_envs,
        total_steps=draw(st.integers(2, 3)) * num_envs * length,
        policy_init_scale=draw(st.sampled_from([0.0, 0.5, 1.0])),
        normalize_advantages=draw(st.booleans()),
        learning_rate=draw(st.sampled_from([0.1, 1.0])),
        critic_init=1.0,
        ppo_epochs=2,
    )
    configs = [
        make_config(alpha=alpha, objective=objective, seed=seed, **shared)
        for alpha, objective, seed in zip(alphas, objectives, seeds)
    ]
    return factory, configs


class TestBatchProperty:
    @settings(max_examples=80)  # the conftest profile draws the same examples every run
    @given(batch_problems())
    def test_batch_equals_separate_runs(self, problem):
        factory, configs = problem
        batched = _train_runs(factory, configs)
        for outcome, config in zip(batched, configs):
            lone = lone_outcome(factory, config)
            if isinstance(lone, DomainError):
                assert str(outcome) == str(lone)
            else:
                assert_same_run(outcome, lone)


class TestBatchTables:
    @pytest.mark.parametrize("scale", [0.0, 0.5, 1.0])
    def test_group_fill_gives_each_runs_profile_bits(self, scale):
        # three runs on mixed action counts (2, 3, 2): with no update, each
        # run's tables are what it draws alone, in agent order, from its rng
        game = random_markov_game(3, 4, (2, 3, 2), 0.9, seed=1)

        def factory(seed):
            return MarkovGameEnv(game, 5, seed)

        configs = [make_config(alpha=a, seed=s, policy_init_scale=scale, total_steps=0)
                   for a, s in ((0.0, 3), (0.5, 4), (1.0, 5))]
        results = _train_runs(factory, configs)
        for result, config in zip(results, configs):
            if scale > 0.0:
                rng = learning._Run(factory, config).rng
                expected = SoftmaxPolicyProfile.random(4, (2, 3, 2), rng, scale=scale)
            else:
                expected = SoftmaxPolicyProfile.uniform(4, (2, 3, 2))
            ours = result.policies.logits
            assert [t.tobytes() for t in ours] == [t.tobytes() for t in expected.logits]
        # the tables are views of one array per action count, across runs
        views = [table for result in results for table in result.policies.logits]
        two, three = views[0].base, views[1].base
        assert two.shape == (6, 4, 2) and three.shape == (3, 4, 3)
        assert [table.base is two for table in views] == [True, False, True] * 3
        assert all(views[i].base is three for i in (1, 4, 7))

    def test_one_update_allocates_no_table_copy(self):
        # one PPO update of the shipped mini-CleanUp tables (3 x 131072 x 6
        # float64, 18.9 MB) peaks below 1.3x the tables, the (3, 131072)
        # critic's 3.1 MB included: neither the batch start nor the update
        # copies a table, which would add at least 6.3 MB
        import tracemalloc

        env_config = MiniCleanupConfig()
        config = make_config(
            algorithm=Algorithm.FAIR_MAPPO, policy_init_scale=1.0, num_envs=2,
            total_steps=2 * env_config.episode_length, critic_init=1.0,
        )
        table_bytes = 3 * 131072 * 6 * 8
        tracemalloc.start()
        try:
            train(lambda seed: MiniCleanupEnv(env_config, seed), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * table_bytes, (peak, table_bytes)


class TestScoreFunctionSanity:
    def test_on_policy_score_mean_near_zero(self):
        rng = np.random.default_rng(21)
        policies = SoftmaxPolicyProfile.random(1, (2, 2), rng)
        buffer, _, _ = collect_pd_buffer(policies, episode_length=100, num_envs=20, seed=9)
        _, actions = buffer.flat()
        for i in range(2):
            probs = policies.probs(i)[0]
            scores = np.eye(2)[actions[:, i]] - probs
            mean = scores.mean(axis=0)
            se = scores.std(axis=0, ddof=1) / np.sqrt(len(scores))
            assert np.all(np.abs(mean) <= 3.5 * se + 1e-12)


class TestEstimatorAlignment:
    def test_a2c_direction_aligns_with_exact_gradient(self):
        # oracle critics substituted: the sampled actor step should point
        # with the exact fair gradient in nearly all trials
        trials = 40
        aligned = 0
        for trial in range(trials):
            game = random_markov_game(2, 3, (2, 2), 0.9, seed=100 + trial)
            rng = np.random.default_rng(200 + trial)
            policies = SoftmaxPolicyProfile.random(3, (2, 2), rng, scale=0.5)
            bundle = solve_values(game, policies)
            critics = bundle.state_values.copy()
            # 200 episodes, one from each of 200 envs collected in lockstep
            seeds = np.random.SeedSequence(300 + trial).spawn(200)
            envs = [MarkovGameEnv(game, episode_length=50, seed=seed) for seed in seeds]
            buffer, _, _ = collect_rollouts(envs, policies, rng)
            weights = AltruismWeights(0.6)
            exact = exact_fair_gradient(game, policies, weights)
            lr = 1e-3
            config = TrainConfig(
                algorithm=Algorithm.FAIR_MAA2C,
                alpha=0.6,
                learning_rate=lr,
                critic_lr=1e-9,
                lr_floor=lr,
                gamma=0.9,
                gae_lambda=1.0,
                num_envs=1,
                total_steps=10_000,
                seed=0,
                entropy_coef=0.0,
            )
            before = [l.copy() for l in policies.logits]
            a2c_update(policies, critics, buffer, config, progress=0.0)
            inner = 0.0
            for i in range(2):
                step_direction = (policies.logits[i] - before[i]) / lr
                inner += float((step_direction * exact.per_agent[i]).sum())
            aligned += inner > 0.0
        assert aligned >= int(0.95 * trials)


class TestFairDynamicsConsistency:
    """The learners ascend the log-value objective whose symmetric rest point
    on the repeated PD solves (1+p)/(3-p) = alpha for payoffs (5,3,1,2); the
    sampled dynamics must land on the exact-gradient oracle's prediction."""

    def _train_pd(self, alpha, seed=3, steps=40_000, lr=16.0):
        config = TrainConfig(
            algorithm=Algorithm.FAIR_MAA2C,
            alpha=alpha,
            learning_rate=lr,
            critic_lr=0.2,
            gamma=0.95,
            gae_lambda=0.95,
            entropy_coef=0.0,
            num_envs=2,
            total_steps=steps,
            seed=seed,
            critic_init=50.0,
        )
        result = train(lambda s: RepeatedMatrixGameEnv(PD, 100), config)
        return [float(result.policies.probs(i)[0, 0]) for i in range(2)]

    def test_alpha_08_rest_point_matches_oracle(self):
        rest_point = 7.0 / 9.0  # (1+p)/(3-p) = 0.8
        for p in self._train_pd(0.8):
            assert p == pytest.approx(rest_point, abs=0.05)

    def test_alpha_one_sustains_high_cooperation(self):
        for p in self._train_pd(1.0):
            assert p > 0.85

    def test_alpha_zero_defects(self):
        for p in self._train_pd(0.0, steps=20_000, lr=8.0):
            assert p < 0.1


class TestSnapshotFiles:
    """The snapshot writer, in-process and across a pool of two workers."""

    BLOCK_EDGES = [
        1,
        SNAPSHOT_BLOCK_ROWS - 1,
        SNAPSHOT_BLOCK_ROWS,
        SNAPSHOT_BLOCK_ROWS + 1,
        2 * SNAPSHOT_BLOCK_ROWS + 1,
    ]

    @staticmethod
    def assert_written_as_one_dump(path, logits):
        save_policy_snapshot(path, SoftmaxPolicyProfile(logits))
        assert path.read_bytes() == json.dumps([table.tolist() for table in logits]).encode()
        assert multiprocessing.active_children() == []

    def assert_block_edges_written_exactly(self, path, num_rows):
        rng = np.random.default_rng(num_rows)
        # three tables: at least three blocks, more than the two CPUs
        logits = [
            rng.normal(size=(num_rows, 1)),
            rng.normal(size=(num_rows, 3)) * 1e3,
            rng.normal(size=(num_rows, 2)) * 1e-3,
        ]
        logits[1][0] = [-0.0, 1e-300, 1e16]
        logits[0][-1] = -0.0
        self.assert_written_as_one_dump(path, logits)
        loaded = load_policy_snapshot(path).logits
        assert [t.tobytes() for t in loaded] == [t.tobytes() for t in logits]

    def test_snapshot_is_json_array(self, tmp_path):
        policies = SoftmaxPolicyProfile.uniform(2, (2, 3))
        path = tmp_path / "snap.json"
        save_policy_snapshot(path, policies)
        data = json.loads(path.read_text())
        assert isinstance(data, list) and len(data) == 2
        assert np.asarray(data[1]).shape == (2, 3)

    @pytest.mark.parametrize("num_rows", BLOCK_EDGES)
    def test_streamed_bytes_equal_one_dump_and_load_exactly(
        self, tmp_path, snapshot_pools, monkeypatch, num_rows
    ):
        # a multiprocessing child (a --jobs sweep worker) makes no pool
        monkeypatch.setattr(learning.multiprocessing, "parent_process", lambda: object())
        self.assert_block_edges_written_exactly(tmp_path / "snap.json", num_rows)
        assert snapshot_pools == []

    @pytest.mark.parametrize("num_rows", BLOCK_EDGES)
    def test_pooled_bytes_equal_one_dump_and_load_exactly(
        self, tmp_path, snapshot_pools, num_rows
    ):
        self.assert_block_edges_written_exactly(tmp_path / "snap.json", num_rows)
        assert snapshot_pools == [2]

    def test_pooled_empty_table_between_nonempty_ones(self, tmp_path, snapshot_pools):
        rng = np.random.default_rng(0)
        logits = [
            rng.normal(size=(5, 2)),
            np.zeros((0, 3)),
            rng.normal(size=(SNAPSHOT_BLOCK_ROWS + 1, 1)),
        ]
        path = tmp_path / "snap.json"
        self.assert_written_as_one_dump(path, logits)
        assert snapshot_pools == [2]
        assert [np.asarray(t).tobytes() for t in json.loads(path.read_text())] == [
            t.tobytes() for t in logits
        ]

    def test_few_blocks_are_formatted_in_process(self, tmp_path, snapshot_pools):
        # one block per agent, as in the PD sweep: no more blocks than CPUs
        self.assert_written_as_one_dump(tmp_path / "snap.json", [np.ones((1, 2)), np.ones((3, 2))])
        assert snapshot_pools == []

    def test_worker_error_propagates(self, tmp_path, snapshot_pools, monkeypatch):
        monkeypatch.setattr(learning, "_json_rows", _rows_failing_in_workers)
        logits = [np.ones((SNAPSHOT_BLOCK_ROWS + 1, 2)) for _ in range(2)]
        with pytest.raises(ValueError, match="formatting failed in a worker"):
            save_policy_snapshot(tmp_path / "snap.json", SoftmaxPolicyProfile(logits))
        assert snapshot_pools == [2]
        assert multiprocessing.active_children() == []


def _rows_failing_in_workers(block):
    """A block formatter that fails in a pool worker (module level, so that
    the pool can send it to its workers)."""
    if multiprocessing.parent_process() is not None:
        raise ValueError("formatting failed in a worker")
    return json.dumps(block.tolist())[1:-1]
