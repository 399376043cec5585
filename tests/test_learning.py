import numpy as np
import pytest

from fairgame.envs import MarkovGameEnv, random_markov_game, repeated_matrix_env
from fairgame.errors import DomainError, StaleBufferError
from fairgame.formats import load_policy_snapshot
from fairgame.games import DilemmaPayoffs
from fairgame.learning import (
    Algorithm,
    CriticTable,
    ObjectiveMode,
    RolloutBuffer,
    TrainConfig,
    a2c_update,
    collect_rollouts,
    combine_fair_advantages,
    combine_utilitarian_advantages,
    compute_gae,
    ppo_update,
    save_policy_snapshot,
    train,
)
from fairgame.markov import (
    AltruismWeights,
    SoftmaxPolicyProfile,
    exact_fair_gradient,
    solve_values,
)

PD = DilemmaPayoffs(5, 3, 1, 2)


def single_transition_buffer(
    reward: float, v_s: float, v_next: float, num_agents: int = 1
) -> tuple[RolloutBuffer, CriticTable]:
    buffer = RolloutBuffer(
        observations=np.zeros((1, 1, num_agents), dtype=np.int64),
        actions=np.zeros((1, 1, num_agents), dtype=np.int64),
        rewards=np.full((1, 1, num_agents), reward),
        next_observations=np.ones((1, 1, num_agents), dtype=np.int64),
        policy_version=0,
    )
    critic = CriticTable([np.array([v_s, v_next]) for _ in range(num_agents)])
    return buffer, critic


def with_version(buffer: RolloutBuffer, version: int) -> RolloutBuffer:
    """The same transitions, relabelled as collected under ``version``."""
    return RolloutBuffer(
        buffer.observations, buffer.actions, buffer.rewards, buffer.next_observations, version
    )


def collect_pd_buffer(policies, episode_length=20, num_envs=3, seed=0):
    envs = [repeated_matrix_env(PD, episode_length) for _ in range(num_envs)]
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
        buffer, _ = collect_pd_buffer(policies)
        critic = CriticTable([np.array([5.0]), np.array([7.0])])
        advantages, _ = compute_gae(buffer, critic, gamma=0.9, lam=0.0)
        expected = buffer.rewards + 0.9 * np.array([5.0, 7.0]) - np.array([5.0, 7.0])
        assert np.allclose(advantages, expected)

    def test_lambda_one_zero_critic_is_reward_to_go(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _ = collect_pd_buffer(policies, episode_length=5, num_envs=1)
        critic = CriticTable([np.zeros(1), np.zeros(1)])
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
            compute_gae(buffer, CriticTable([np.zeros(1)]), 0.9, 0.95)


class TestCombineAdvantages:
    def test_hand_computed(self):
        buffer, _ = single_transition_buffer(1.0, 0.0, 0.0, num_agents=2)
        critic = CriticTable([np.array([10.0, 0.0]), np.array([8.0, 0.0])])
        advantages = np.array([[[2.0, -4.0]]])
        combined, floor_hits = combine_fair_advantages(
            advantages, critic, buffer, alpha=0.5, v_floor=1e-3
        )
        assert combined[0, 0, 0] == pytest.approx(2.0 / 10.0 + 0.5 * (-4.0 / 8.0))
        assert combined[0, 0, 1] == pytest.approx(-4.0 / 8.0 + 0.5 * (2.0 / 10.0))
        assert floor_hits == 0

    def test_alpha_zero_self_normalization(self):
        buffer, _ = single_transition_buffer(1.0, 0.0, 0.0, num_agents=2)
        critic = CriticTable([np.array([4.0, 0.0]), np.array([5.0, 0.0])])
        advantages = np.array([[[2.0, -4.0]]])
        combined, _ = combine_fair_advantages(advantages, critic, buffer, 0.0, 1e-3)
        assert combined[0, 0] == pytest.approx([2.0 / 4.0, -4.0 / 5.0])

    def test_zero_advantages(self):
        buffer, critic = single_transition_buffer(1.0, 3.0, 3.0, num_agents=2)
        combined, _ = combine_fair_advantages(
            np.zeros((1, 1, 2)), critic, buffer, 0.7, 1e-3
        )
        assert not combined.any()

    def test_floor_hits_counted(self):
        buffer, _ = single_transition_buffer(1.0, 0.0, 0.0, num_agents=2)
        critic = CriticTable([np.array([0.0, 0.0]), np.array([5.0, 0.0])])
        _, floor_hits = combine_fair_advantages(
            np.ones((1, 1, 2)), critic, buffer, 1.0, v_floor=1e-3
        )
        assert floor_hits == 1

    def test_alpha_one_shared_signal(self):
        buffer, _ = single_transition_buffer(1.0, 0.0, 0.0, num_agents=3)
        critic = CriticTable([np.array([2.0, 0.0]) for _ in range(3)])
        advantages = np.array([[[1.0, -2.0, 0.5]]])
        combined, _ = combine_fair_advantages(advantages, critic, buffer, 1.0, 1e-3)
        assert np.allclose(combined[..., 0], combined[..., 1])
        assert np.allclose(combined[..., 0], combined[..., 2])

    def test_utilitarian_sum(self):
        advantages = np.array([[1.0, -2.0], [0.5, 0.5]])
        combined = combine_utilitarian_advantages(advantages)
        assert combined == pytest.approx(np.array([[-1.0, -1.0], [1.0, 1.0]]))


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
        buffer, _ = collect_pd_buffer(policies)
        critics = CriticTable.constant(2, 1, 30.0)
        policies.version += 1
        with pytest.raises(StaleBufferError):
            a2c_update(policies, critics, buffer, make_config())

    def test_zero_advantages_leave_actor_unchanged(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _ = collect_pd_buffer(policies)
        # constant rewards would still give nonzero GAE; zero them via a
        # critic whose value matches the geometric fixed point of a constant
        # reward stream: impossible for mixed payoffs, so zero the advantage
        # path directly with alpha=0, v_floor absorbing, and identical
        # rewards by forcing a degenerate payoff matrix
        flat = repeated_matrix_env(DilemmaPayoffs(2, 2, 2, 2), 20)
        rng = np.random.default_rng(0)
        buffer, _ = collect_rollouts([flat, flat], policies, rng)
        critics = CriticTable.constant(2, 1, 2.0 / (1 - 0.9))
        before = [l.copy() for l in policies.logits]
        a2c_update(policies, critics, buffer, make_config())
        for old, new in zip(before, policies.logits):
            assert np.allclose(old, new, atol=1e-12)

    def test_critic_constant_returns_geometric_rate(self):
        # lambda=1 with a constant per-step reward r makes the TD(lambda)
        # return R_t constant across a long episode tail; per visited state
        # the critic error contracts by (1 - 2 lr)
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        flat = repeated_matrix_env(DilemmaPayoffs(2, 2, 2, 2), 30)
        rng = np.random.default_rng(1)
        buffer, _ = collect_rollouts([flat], policies, rng)
        lr = 0.1
        config = make_config(
            learning_rate=lr, critic_lr=lr, gae_lambda=1.0, gamma=0.0, lr_floor=lr
        )
        critics = CriticTable.constant(2, 1, 10.0)
        target = 2.0  # gamma=0 return is the immediate reward
        errors = []
        for _ in range(4):
            errors.append(critics.values[0][0] - target)
            buffer = with_version(buffer, policies.version)
            a2c_update(policies, critics, buffer, config, progress=0.0)
        for before, after in zip(errors, errors[1:]):
            assert after == pytest.approx(before * (1 - 2 * lr), rel=1e-9)

    def test_positive_advantage_raises_logit(self):
        # single-state bandit: action 0 pays more, its logit must increase
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _ = collect_pd_buffer(policies, episode_length=50, num_envs=4, seed=3)
        critics = CriticTable.constant(2, 1, 27.5)  # near the uniform-play value
        before = policies.logits[0].copy()
        config = make_config(alpha=0.0, gae_lambda=0.0, learning_rate=1.0, critic_lr=0.1)
        a2c_update(policies, critics, buffer, config)
        # defection (action 1) strictly dominates for alpha=0
        assert policies.logits[0][0, 1] > before[0, 1]

    def test_probability_conservation_after_updates(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        critics = CriticTable.constant(2, 1, 30.0)
        config = make_config()
        for seed in range(5):
            buffer, _ = collect_pd_buffer(policies, seed=seed)
            a2c_update(policies, critics, buffer, config)
        for i in range(2):
            assert np.allclose(policies.probs(i).sum(axis=1), 1.0, atol=1e-12)

    def test_version_bumped(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _ = collect_pd_buffer(policies)
        critics = CriticTable.constant(2, 1, 30.0)
        a2c_update(policies, critics, buffer, make_config())
        assert policies.version == 1


class TestPPOUpdate:
    @pytest.mark.parametrize("entropy_coef", [0.0, 0.05])
    def test_first_epoch_matches_a2c_direction(self, entropy_coef):
        # a non-uniform start, where the entropy gradient is nonzero
        policies_a = SoftmaxPolicyProfile([np.array([[0.4, -0.3]]), np.array([[-0.2, 0.5]])])
        buffer, _ = collect_pd_buffer(policies_a, seed=5)
        critics_a = CriticTable.constant(2, 1, 30.0)
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
        flat = repeated_matrix_env(DilemmaPayoffs(2, 2, 2, 2), 20)
        rng = np.random.default_rng(2)
        buffer, _ = collect_rollouts([flat, flat], policies, rng)
        critics = CriticTable.constant(2, 1, 20.0)
        before = [l.copy() for l in policies.logits]
        config = make_config(
            algorithm=Algorithm.FAIR_MAPPO, entropy_coef=0.0, ppo_epochs=4
        )
        ppo_update(policies, critics, buffer, config)
        for old, new in zip(before, policies.logits):
            assert np.allclose(old, new, atol=1e-12)

    def test_ratio_clipped_after_many_epochs(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        buffer, _ = collect_pd_buffer(policies, episode_length=50, num_envs=4, seed=7)
        critics = CriticTable.constant(2, 1, 27.5)
        old_probs = [policies.probs(i).copy() for i in range(2)]
        from fairgame.learning import _combined_advantages

        advantages, _ = compute_gae(buffer, critics, 0.9, 0.95)
        config = make_config(
            algorithm=Algorithm.FAIR_MAPPO,
            entropy_coef=0.0,
            ppo_epochs=60,
            learning_rate=2.0,
            critic_lr=0.01,
            ppo_clip=0.2,
        )
        fair, _ = _combined_advantages(advantages, critics, buffer, config)
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
        buffer, _ = collect_pd_buffer(policies)
        critics = CriticTable.constant(2, 1, 30.0)
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


class TestTrain:
    def factory(self, seed):
        return repeated_matrix_env(PD, 20)

    def test_zero_steps_returns_initial_policies(self):
        config = make_config(total_steps=0)
        result = train(self.factory, config)
        assert result.log_rows == []
        assert result.episodes == 0
        for logits in result.policies.logits:
            assert not logits.any()

    def test_log_schema_and_determinism(self, tmp_path):
        config = make_config(total_steps=400, seed=11)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        train(self.factory, config, log_path=first)
        train(self.factory, config, log_path=second)
        assert first.read_bytes() == second.read_bytes()
        header = first.read_text().splitlines()[0]
        assert header == "step,episode,agent,return,apples,gini,actor_loss,critic_loss,entropy,floor_hits"

    def test_different_seeds_differ(self, tmp_path):
        a = train(self.factory, make_config(total_steps=400, seed=1))
        b = train(self.factory, make_config(total_steps=400, seed=2))
        assert any(
            ra["return"] != rb["return"] for ra, rb in zip(a.log_rows, b.log_rows)
        )

    def test_snapshot_round_trip(self, tmp_path):
        config = make_config(total_steps=200)
        path = tmp_path / "snapshot.json"
        result = train(self.factory, config, snapshot_path=path)
        loaded = load_policy_snapshot(path)
        for a, b in zip(result.policies.logits, loaded.logits):
            assert np.allclose(a, b, atol=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_update_raises(self, tmp_path):
        # a huge step overflows the logits on the first update
        config = make_config(learning_rate=1e308, critic_lr=0.2, critic_init=0.0)
        log = tmp_path / "log.csv"
        with pytest.raises(DomainError, match="update 0, agent 0: non-finite logits"):
            train(self.factory, config, log_path=log)
        assert not log.exists()

    def test_invalid_config_rejected(self):
        with pytest.raises(DomainError):
            make_config(gamma=1.5)
        with pytest.raises(DomainError):
            make_config(ppo_clip=0.0)
        with pytest.raises(DomainError):
            make_config(gae_lambda=1.5)


class TestScoreFunctionSanity:
    def test_on_policy_score_mean_near_zero(self):
        rng = np.random.default_rng(21)
        policies = SoftmaxPolicyProfile.random(1, (2, 2), rng)
        buffer, _ = collect_pd_buffer(policies, episode_length=100, num_envs=20, seed=9)
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
            critics = CriticTable([bundle.state_values[j].copy() for j in range(2)])
            # 200 consecutive episodes of one env: one collector per episode
            env = MarkovGameEnv(game, episode_length=50, seed=300 + trial)
            buffer, _ = collect_rollouts([env] * 200, policies, rng)
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
        result = train(lambda s: repeated_matrix_env(PD, 100), config)
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
    def test_snapshot_is_json_array(self, tmp_path):
        policies = SoftmaxPolicyProfile.uniform(2, (2, 3))
        path = tmp_path / "snap.json"
        save_policy_snapshot(path, policies)
        import json

        data = json.loads(path.read_text())
        assert isinstance(data, list) and len(data) == 2
        assert np.asarray(data[1]).shape == (2, 3)
