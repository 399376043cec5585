import math

import numpy as np
import pytest

from fairgame.envs import matrix_markov_game, random_markov_game
from fairgame.errors import DomainError
from fairgame.games import DilemmaPayoffs
from fairgame.markov import (
    _MC_CHUNK,
    AltruismWeights,
    BaselineCheckResult,
    FairGradient,
    SoftmaxPolicyProfile,
    TabularMarkovGame,
    _draw,
    baseline_zero_check,
    bellman_apply,
    default_horizon,
    exact_fair_gradient,
    fair_advantage,
    fair_objective,
    joint_policy_prob,
    mc_fair_gradient,
    policy_averaged_dynamics,
    proportional_fair_state_value,
    solve_values,
)
from fairgame.verify import (
    finite_difference_fair_gradient,
    gradient_tolerance_ok,
    random_game_and_policies,
)


def _score_marginals(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    q_table: np.ndarray,
    agent: int,
) -> np.ndarray:
    """E over joint actions of Q_j(s, a) restricted to agent's action = a_i,
    shape (S, A_i): the sufficient statistic for the softmax score expectation.
    """
    joint = policies.joint_probs()  # (S, A)
    weighted = (joint * q_table).reshape(
        (game.num_states,) + game.action_counts
    )
    axes = tuple(k + 1 for k in range(game.num_agents) if k != agent)
    return weighted.sum(axis=axes)


def fixed_point_fair_gradient(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    weights: AltruismWeights,
    objective_agent: int | None = None,
) -> FairGradient:
    """Reference construction: the per-state score expectation
    G_{i,j}(s) = E[grad log pi_i(a_i|s) Q_j(s,a)] placed on a dense (S, S, A_i)
    block diagonal, the fixed point of g = G + gamma P_pi g solved with
    S*A_i right-hand sides per (i, j), and
    grad_i J = sum_j c_i(j) E_{s0}[ g_{i,j}(s0) / V_j(s0) ].
    """
    bundle = solve_values(game, policies)
    p_pi, _ = policy_averaged_dynamics(game, policies)
    system = np.eye(game.num_states) - game.discount * p_pi
    n, s_count = game.num_agents, game.num_states
    grads: list[np.ndarray] = []
    diag = np.arange(s_count)
    for i in range(n):
        probs_i = policies.probs(i)
        a_i = game.action_counts[i]
        grad = np.zeros((s_count, a_i))
        for j in range(n):
            index = i if objective_agent is None else objective_agent
            coeff = float(weights.coefficients(index, n)[j])
            if coeff == 0.0:
                continue
            marginal = _score_marginals(game, policies, bundle.action_values[j], i)
            immediate = np.zeros((s_count, s_count, a_i))
            immediate[diag, diag, :] = (
                marginal - probs_i * bundle.state_values[j][:, None]
            )
            fixed_point = np.linalg.solve(system, immediate.reshape(s_count, -1))
            start_weights = game.initial_dist / bundle.state_values[j]
            grad += coeff * (start_weights @ fixed_point).reshape(s_count, a_i)
        grads.append(grad)
    return FairGradient(grads)


def _sample_rows(row_probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one index per row of a matrix of row distributions."""
    cdf = np.cumsum(row_probs, axis=1)
    u = rng.random(row_probs.shape[0])
    return np.minimum(
        (u[:, None] > cdf).sum(axis=1), row_probs.shape[1] - 1
    ).astype(np.int64)


def reference_mc_fair_gradient(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    weights: AltruismWeights,
    num_rollouts: int,
    horizon: int | None = None,
    seed: int = 0,
    truncation_tol: float = 1e-6,
) -> FairGradient:
    """Reference estimator: per-step cumulative sums of gathered rows and a
    dense (rollouts, S, A_i) scatter of both score terms at every step."""
    if num_rollouts < 1:
        raise DomainError("num_rollouts must be at least 1")
    if horizon is None:
        horizon = default_horizon(game.discount, game.max_reward, truncation_tol)
    bundle = solve_values(game, policies)
    probs = policies.all_probs()
    coeffs = np.stack(
        [weights.coefficients(i, game.num_agents) for i in range(game.num_agents)]
    )  # (N, N)
    rng = np.random.default_rng(seed)
    shapes = [(game.num_states, c) for c in game.action_counts]
    total = [np.zeros(shape) for shape in shapes]
    total_sq = [np.zeros(shape) for shape in shapes]

    remaining = num_rollouts
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        remaining -= m
        rollout_grads = [np.zeros((m,) + shape) for shape in shapes]
        rows = np.arange(m)
        states = _sample_rows(np.tile(game.initial_dist, (m, 1)), rng)
        # 1 / V_j(s0) per rollout, fixed for the whole trajectory
        inv_v0 = 1.0 / bundle.state_values[:, states]  # (N, m)
        gamma_t = 1.0
        for _ in range(horizon):
            actions = [
                _sample_rows(probs[i][states], rng) for i in range(game.num_agents)
            ]
            joint = np.ravel_multi_index(tuple(actions), game.action_counts)
            q_ratio = bundle.action_values[:, states, joint] * inv_v0  # (N, m)
            kappa = gamma_t * (coeffs @ q_ratio)  # (N, m)
            for i in range(game.num_agents):
                rollout_grads[i][rows, states, actions[i]] += kappa[i]
                rollout_grads[i][rows, states, :] -= kappa[i][:, None] * probs[i][states]
            states = _sample_rows(game.transitions[states, joint], rng)
            gamma_t *= game.discount
        for i in range(game.num_agents):
            total[i] += rollout_grads[i].sum(axis=0)
            total_sq[i] += (rollout_grads[i] ** 2).sum(axis=0)

    means, errors = [], []
    for i in range(game.num_agents):
        mean = total[i] / num_rollouts
        if num_rollouts > 1:
            variance = (total_sq[i] - num_rollouts * mean**2) / (num_rollouts - 1)
            variance = np.maximum(variance, 0.0)
            se = np.sqrt(variance / num_rollouts)
        else:
            se = np.full_like(mean, np.inf)
        means.append(mean)
        errors.append(se)
    return FairGradient(means, errors)


def reference_baseline_zero_check(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    baseline_fn,
    num_samples: int,
    seed: int = 0,
) -> list[BaselineCheckResult]:
    """Reference baseline check, sampling through _sample_rows."""
    if num_samples < 2:
        raise DomainError("num_samples must be at least 2")
    rng = np.random.default_rng(seed)
    f = np.array([float(baseline_fn(s)) for s in range(game.num_states)])
    results = []
    for i in range(game.num_agents):
        probs = policies.probs(i)  # (S, A_i)
        a_i = probs.shape[1]
        residual = float(
            np.abs(f[:, None] * (probs - probs * probs.sum(axis=1, keepdims=True))).max()
        )
        actions = _sample_rows(
            np.repeat(probs, num_samples, axis=0), rng
        ).reshape(game.num_states, num_samples)
        one_hot = np.eye(a_i)[actions]  # (S, n, A_i)
        scores = one_hot - probs[:, None, :]
        samples = f[:, None, None] * scores
        mean = samples.mean(axis=1)
        se = samples.std(axis=1, ddof=1) / math.sqrt(num_samples)
        results.append(
            BaselineCheckResult(
                analytic=np.zeros((game.num_states, a_i)),
                quadrature_residual=residual,
                mc_mean=mean,
                mc_se=se,
            )
        )
    return results


def single_state_game(reward: float = 1.0, gamma: float = 0.9) -> TabularMarkovGame:
    return TabularMarkovGame(
        num_agents=1,
        num_states=1,
        action_counts=(1,),
        transitions=np.ones((1, 1, 1)),
        rewards=np.full((1, 1, 1), reward),
        initial_dist=np.array([1.0]),
        discount=gamma,
    )


class TestGameValidation:
    def test_bad_transition_rows(self):
        with pytest.raises(DomainError):
            TabularMarkovGame(
                1, 2, (1,), np.full((2, 1, 2), 0.4), np.ones((1, 2, 1)), [0.5, 0.5], 0.9
            )

    def test_nonpositive_reward_rejected(self):
        with pytest.raises(DomainError):
            TabularMarkovGame(
                1, 1, (1,), np.ones((1, 1, 1)), np.zeros((1, 1, 1)), [1.0], 0.9
            )

    def test_discount_must_be_below_one(self):
        with pytest.raises(DomainError):
            single_state_game(gamma=1.0)

    def test_joint_action_round_trip(self):
        game = random_markov_game(3, 2, (2, 3, 2), 0.9, seed=0)
        for joint in range(game.num_joint_actions):
            assert game.joint_action_index(game.joint_action_tuple(joint)) == joint


class TestJointPolicy:
    def test_uniform_two_agents(self):
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        for joint in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert joint_policy_prob(policies, 0, joint) == pytest.approx(0.25)

    def test_single_agent_equals_own_probability(self):
        policies = SoftmaxPolicyProfile([np.array([[0.3, -0.2, 1.1]])])
        probs = policies.probs(0)[0]
        for action in range(3):
            assert joint_policy_prob(policies, 0, (action,)) == pytest.approx(
                probs[action]
            )

    def test_skewed_softmax_joint(self):
        # second agent logits (0, ln 3) -> (0.25, 0.75); first uniform
        policies = SoftmaxPolicyProfile(
            [np.zeros((1, 2)), np.array([[0.0, math.log(3)]])]
        )
        assert policies.probs(1)[0] == pytest.approx([0.25, 0.75])
        joint = policies.joint_probs()[0]
        assert joint == pytest.approx([0.125, 0.375, 0.125, 0.375])

    def test_conditionals_sum_to_one(self):
        rng = np.random.default_rng(0)
        policies = SoftmaxPolicyProfile.random(4, (2, 3), rng, scale=3.0)
        for i in range(2):
            assert np.allclose(policies.probs(i).sum(axis=1), 1.0, atol=1e-12)


class TestBellman:
    def test_zero_values_give_expected_reward(self):
        game, policies = random_game_and_policies(np.random.default_rng(1))
        result = bellman_apply(game, policies, np.zeros((game.num_agents, game.num_states)))
        _, r_bar = policy_averaged_dynamics(game, policies)
        assert np.allclose(result, r_bar)

    def test_geometric_fixed_point(self):
        game = single_state_game(reward=1.0, gamma=0.9)
        policies = SoftmaxPolicyProfile.uniform(1, (1,))
        assert bellman_apply(game, policies, np.array([[10.0]])) == pytest.approx(
            np.array([[10.0]])
        )

    def test_solve_is_fixed_point(self):
        game, policies = random_game_and_policies(np.random.default_rng(2))
        values = solve_values(game, policies).state_values
        assert np.max(np.abs(bellman_apply(game, policies, values) - values)) < 1e-9

    def test_contraction(self):
        rng = np.random.default_rng(3)
        game, policies = random_game_and_policies(rng)
        for _ in range(25):
            v1 = rng.normal(size=(game.num_agents, game.num_states))
            v2 = rng.normal(size=(game.num_agents, game.num_states))
            gap = np.max(np.abs(v1 - v2))
            mapped = np.max(
                np.abs(bellman_apply(game, policies, v1) - bellman_apply(game, policies, v2))
            )
            assert mapped <= game.discount * gap + 1e-12

    def test_iteration_error_bound(self):
        game, policies = random_game_and_policies(np.random.default_rng(4))
        exact = solve_values(game, policies).state_values
        scale = game.max_reward / (1.0 - game.discount)
        values = np.zeros_like(exact)
        for k in range(1, 30):
            values = bellman_apply(game, policies, values)
            assert np.max(np.abs(values - exact)) <= game.discount**k * scale + 1e-9


class TestSolveValues:
    def test_single_state(self):
        game = single_state_game(reward=1.0, gamma=0.9)
        policies = SoftmaxPolicyProfile.uniform(1, (1,))
        bundle = solve_values(game, policies)
        assert bundle.state_values == pytest.approx(np.array([[10.0]]))

    def test_two_absorbing_states(self):
        transitions = np.zeros((2, 1, 2))
        transitions[0, 0, 0] = 1.0
        transitions[1, 0, 1] = 1.0
        game = TabularMarkovGame(
            1, 2, (1,), transitions, np.array([[[1.0], [2.0]]]), [0.5, 0.5], 0.5
        )
        policies = SoftmaxPolicyProfile.uniform(2, (1,))
        bundle = solve_values(game, policies)
        assert bundle.state_values == pytest.approx(np.array([[2.0, 4.0]]))

    def test_value_is_policy_average_of_q(self):
        game, policies = random_game_and_policies(np.random.default_rng(5))
        bundle = solve_values(game, policies)
        joint = policies.joint_probs()
        averaged = np.einsum("sa,nsa->ns", joint, bundle.action_values)
        assert np.allclose(averaged, bundle.state_values, atol=1e-9)

    def test_value_bounds(self):
        for seed in range(10):
            game, policies = random_game_and_policies(np.random.default_rng(seed))
            values = solve_values(game, policies).state_values
            assert np.all(values > 0.0)
            assert np.all(values <= game.max_reward / (1.0 - game.discount) + 1e-12)

    def test_monte_carlo_return_agreement(self):
        # empirical discounted returns agree with the linear solve
        game, policies = random_game_and_policies(
            np.random.default_rng(6), max_agents=2, max_states=4, max_actions=2
        )
        bundle = solve_values(game, policies)
        rng = np.random.default_rng(7)
        horizon = default_horizon(game.discount, game.max_reward, 1e-4)
        start = int(np.argmax(game.initial_dist))
        n = 4000
        totals = np.zeros((game.num_agents, n))
        for k in range(n):
            state = start
            gamma_t = 1.0
            for _ in range(horizon):
                actions = tuple(
                    int(rng.choice(len(p), p=p))
                    for p in (policies.probs(i)[state] for i in range(game.num_agents))
                )
                joint = game.joint_action_index(actions)
                totals[:, k] += gamma_t * game.rewards[:, state, joint]
                state = int(rng.choice(game.num_states, p=game.transitions[state, joint]))
                gamma_t *= game.discount
        mean = totals.mean(axis=1)
        se = totals.std(axis=1, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - bundle.state_values[:, start]) <= 3 * se + 1e-3)


class TestFairObjective:
    def test_two_agents_value_ten(self):
        game = TabularMarkovGame(
            2, 1, (1, 1), np.ones((1, 1, 1)), np.ones((2, 1, 1)), [1.0], 0.9
        )
        policies = SoftmaxPolicyProfile.uniform(1, (1, 1))
        objectives = fair_objective(game, policies, AltruismWeights(1.0))
        assert objectives == pytest.approx([2 * math.log(10.0)] * 2)

    def test_alpha_zero_depends_on_self_only(self):
        game, policies = random_game_and_policies(np.random.default_rng(8))
        objectives = fair_objective(game, policies, AltruismWeights(0.0))
        values = solve_values(game, policies).state_values
        expected = np.log(values) @ game.initial_dist
        assert objectives == pytest.approx(expected)

    def test_alpha_one_identical_across_agents(self):
        game, policies = random_game_and_policies(np.random.default_rng(9))
        objectives = fair_objective(game, policies, AltruismWeights(1.0))
        assert all(j == objectives[0] for j in objectives)

    def test_proportional_fair_state_value(self):
        game, policies = random_game_and_policies(np.random.default_rng(10))
        pf = proportional_fair_state_value(game, policies)
        values = solve_values(game, policies).state_values
        assert pf == pytest.approx(np.log(values).sum(axis=0))

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            AltruismWeights(1.2)


class TestExactGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            game, policies = random_game_and_policies(rng)
            weights = AltruismWeights(float(rng.uniform(0, 1)))
            exact = exact_fair_gradient(game, policies, weights)
            reference = finite_difference_fair_gradient(game, policies, weights)
            for e, f in zip(exact.per_agent, reference):
                assert gradient_tolerance_ok(e, f)

    def test_uniform_rewards_zero_gradient(self):
        # identical rewards for every state/action: J is policy-independent
        game = TabularMarkovGame(
            2,
            2,
            (2, 2),
            np.full((2, 4, 2), 0.5),
            np.full((2, 2, 4), 1.0),
            [0.5, 0.5],
            0.9,
        )
        policies = SoftmaxPolicyProfile.random((2), (2, 2), np.random.default_rng(1))
        gradient = exact_fair_gradient(game, policies, AltruismWeights(0.7))
        for table in gradient.per_agent:
            assert np.max(np.abs(table)) < 1e-12

    def test_alpha_one_objective_index_irrelevant(self):
        game, policies = random_game_and_policies(np.random.default_rng(12))
        weights = AltruismWeights(1.0)
        base = exact_fair_gradient(game, policies, weights, objective_agent=0)
        for k in range(1, game.num_agents):
            other = exact_fair_gradient(game, policies, weights, objective_agent=k)
            for a, b in zip(base.per_agent, other.per_agent):
                assert np.array_equal(a, b)


class TestOccupancyMatchesFixedPoint:
    """The occupancy-measure gradient against the fixed-point construction
    it replaces, to 1e-12 relative error per agent."""

    @pytest.mark.parametrize("num_states", [1, 7, 40])
    @pytest.mark.parametrize("counts", [(3,), (3, 2), (2, 3, 2)])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_agrees_with_reference(self, num_states, counts, alpha):
        seed = 100 * len(counts) + num_states
        game = random_markov_game(len(counts), num_states, counts, 0.93, seed=seed)
        games = [game]
        if num_states > 1:
            # zero start probability on every other state
            initial = game.initial_dist.copy()
            initial[::2] = 0.0
            games.append(
                TabularMarkovGame(
                    game.num_agents, num_states, counts, game.transitions,
                    game.rewards, initial / initial.sum(), game.discount,
                )
            )
        policies = SoftmaxPolicyProfile.random(
            num_states, counts, np.random.default_rng(seed), scale=1.0
        )
        weights = AltruismWeights(alpha)
        for current in games:
            for objective_agent in [None, *range(len(counts))]:
                new = exact_fair_gradient(current, policies, weights, objective_agent)
                old = fixed_point_fair_gradient(current, policies, weights, objective_agent)
                for a, b in zip(new.per_agent, old.per_agent):
                    assert a.shape == b.shape
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


class TestMonteCarloGradient:
    def test_within_three_se_of_exact(self):
        rng = np.random.default_rng(13)
        game, policies = random_game_and_policies(
            rng, max_agents=2, max_states=3, max_actions=2, gamma_range=(0.8, 0.9)
        )
        weights = AltruismWeights(0.5)
        exact = exact_fair_gradient(game, policies, weights)
        estimate = mc_fair_gradient(
            game, policies, weights, 40_000, seed=3, truncation_tol=1e-5
        )
        for mean, se, reference in zip(
            estimate.per_agent, estimate.std_errors, exact.per_agent
        ):
            assert np.all(np.abs(mean - reference) <= 3.5 * se + 1e-4)

    def test_gamma_zero_single_step(self):
        # gamma=0: the estimator reduces to one-step score-weighted rewards
        payoffs = DilemmaPayoffs(5, 3, 1, 2)
        game = matrix_markov_game(payoffs, 0.0)
        policies = SoftmaxPolicyProfile.uniform(1, (2, 2))
        weights = AltruismWeights(0.0)
        estimate = mc_fair_gradient(game, policies, weights, 100_000, seed=4)
        exact = exact_fair_gradient(game, policies, weights)
        for mean, se, reference in zip(
            estimate.per_agent, estimate.std_errors, exact.per_agent
        ):
            assert np.all(np.abs(mean - reference) <= 3.5 * se + 1e-6)

    def test_saturated_policy_low_variance(self):
        payoffs = DilemmaPayoffs(5, 3, 1, 2)
        game = matrix_markov_game(payoffs, 0.5)
        logits = [np.array([[40.0, 0.0]]), np.array([[40.0, 0.0]])]
        policies = SoftmaxPolicyProfile(logits)
        estimate = mc_fair_gradient(game, policies, AltruismWeights(1.0), 2000, seed=5)
        for mean, se in zip(estimate.per_agent, estimate.std_errors):
            assert np.max(np.abs(mean)) < 1e-8
            assert np.max(se) < 1e-8

    def test_zero_rollouts_rejected(self):
        game = single_state_game()
        policies = SoftmaxPolicyProfile.uniform(1, (1,))
        with pytest.raises(DomainError):
            mc_fair_gradient(game, policies, AltruismWeights(0.5), 0)

    def test_default_horizon_bound(self):
        for gamma in (0.0, 0.5, 0.9, 0.99):
            horizon = default_horizon(gamma, 1.0, 1e-6)
            assert gamma**horizon * 1.0 / (1.0 - gamma if gamma else 1.0) <= 1e-6 or gamma == 0.0


def _max_normalised_gap(new: list[np.ndarray], old: list[np.ndarray]) -> float:
    """Largest per-agent max|new - old| / max|old| (inf entries must match)."""
    gaps = []
    for a, b in zip(new, old):
        assert a.shape == b.shape
        finite = np.isfinite(b)
        assert np.array_equal(np.isfinite(a), finite)
        scale = np.max(np.abs(b[finite])) if finite.any() else 1.0
        gaps.append(np.max(np.abs(a[finite] - b[finite]), initial=0.0) / scale)
    return max(gaps)


def _criterion_six_game(index: int) -> tuple[TabularMarkovGame, SoftmaxPolicyProfile]:
    rng = np.random.default_rng(300 + index)
    return random_game_and_policies(
        rng, max_agents=2, max_states=3, max_actions=2, gamma_range=(0.8, 0.9)
    )


def _three_agent_game() -> tuple[TabularMarkovGame, SoftmaxPolicyProfile]:
    game = random_markov_game(3, 4, (3, 3, 3), 0.85, seed=41)
    return game, SoftmaxPolicyProfile.random(4, (3, 3, 3), np.random.default_rng(42))


def _gamma_zero_game() -> tuple[TabularMarkovGame, SoftmaxPolicyProfile]:
    game = matrix_markov_game(DilemmaPayoffs(5, 3, 1, 2), 0.0)
    return game, SoftmaxPolicyProfile.random(1, (2, 2), np.random.default_rng(43))


class TestMonteCarloMatchesReference:
    """The accumulator estimator against the per-step scatter it replaces:
    the same sampled trajectories, means and SEs within 1e-12 max-normalised."""

    @pytest.mark.parametrize(
        "make_game, num_rollouts, alpha",
        [
            (lambda: _criterion_six_game(0), 20_000, 0.0),
            (lambda: _criterion_six_game(1), 20_000, 0.5),
            (lambda: _criterion_six_game(2), 20_000, 1.0),
            (_three_agent_game, 3_000, 0.5),
            (_gamma_zero_game, 20_000, 0.3),
            (lambda: _criterion_six_game(3), 12_345, 0.5),
            (lambda: _criterion_six_game(4), 1, 0.5),
            (_three_agent_game, 1, 1.0),
        ],
        ids=["crit6-a", "crit6-b", "crit6-c", "three-agents", "gamma-zero",
             "partial-chunk", "one-rollout", "one-rollout-three-agents"],
    )
    def test_agrees_with_reference(self, make_game, num_rollouts, alpha):
        game, policies = make_game()
        weights = AltruismWeights(alpha)
        new = mc_fair_gradient(game, policies, weights, num_rollouts, seed=9, truncation_tol=1e-5)
        old = reference_mc_fair_gradient(
            game, policies, weights, num_rollouts, seed=9, truncation_tol=1e-5
        )
        assert _max_normalised_gap(new.per_agent, old.per_agent) <= 1e-12
        assert _max_normalised_gap(new.std_errors, old.std_errors) <= 1e-12
        if num_rollouts == 1:
            assert all(np.all(np.isinf(se)) for se in new.std_errors)

    def test_partial_chunk_is_exercised(self):
        assert 12_345 % _MC_CHUNK != 0

    @pytest.mark.parametrize("num_actions", [1, 2, 5])
    def test_draw_matches_reference_sampler(self, num_actions):
        rng = np.random.default_rng(num_actions)
        row_probs = rng.random((3000, num_actions))
        # zero-probability entries, including leading and trailing ones
        row_probs[rng.random(row_probs.shape) < 0.3] = 0.0
        row_probs[::7, 0] = 0.0
        row_probs[::11, -1] = 0.0
        row_probs[row_probs.sum(axis=1) == 0.0, num_actions // 2] = 1.0
        row_probs /= row_probs.sum(axis=1, keepdims=True)
        for seed in range(3):
            drawn = _draw(np.cumsum(row_probs, axis=1), np.random.default_rng(seed))
            expected = _sample_rows(row_probs, np.random.default_rng(seed))
            assert drawn.dtype == expected.dtype
            assert np.array_equal(drawn, expected)
            assert np.all(row_probs[np.arange(len(drawn)), drawn] > 0.0)

    @pytest.mark.parametrize("index", range(3))
    def test_baseline_check_bit_identical(self, index):
        rng = np.random.default_rng(500 + index)
        game, policies = random_game_and_policies(rng, max_states=3)
        levels = rng.uniform(0.5, 5.0, size=game.num_states)
        args = (game, policies, lambda s: float(levels[s]), 5_000)
        new = baseline_zero_check(*args, seed=index)
        old = reference_baseline_zero_check(*args, seed=index)
        assert len(new) == len(old)
        for a, b in zip(new, old):
            assert a.quadrature_residual == b.quadrature_residual
            assert np.array_equal(a.analytic, b.analytic)
            assert np.array_equal(a.mc_mean, b.mc_mean)
            assert np.array_equal(a.mc_se, b.mc_se)


class TestFairAdvantage:
    def _bundle(self):
        game, policies = random_game_and_policies(np.random.default_rng(14))
        return game, solve_values(game, policies)

    def test_zero_advantages(self):
        game, bundle = self._bundle()
        zeroed = type(bundle)(
            state_values=bundle.state_values,
            action_values=bundle.state_values[:, :, None]
            * np.ones_like(bundle.action_values),
            advantages=np.zeros_like(bundle.advantages),
        )
        value = fair_advantage(zeroed, AltruismWeights(0.9), 0, 0, 0, 0)
        assert value == 0.0

    def test_alpha_zero_normalizes_by_own_value(self):
        game, bundle = self._bundle()
        value = fair_advantage(bundle, AltruismWeights(0.0), 1, 0, 1, 0)
        expected = bundle.advantages[1, 0, 1] / bundle.state_values[1, 0]
        assert value == pytest.approx(expected)

    def test_hand_computed_example(self):
        state_values = np.array([[10.0], [4.0]])
        action_values = state_values[:, :, None] + np.array([[[1.0]], [[-2.0]]])
        bundle_type = type(self._bundle()[1])
        bundle = bundle_type(
            state_values=state_values,
            action_values=action_values,
            advantages=action_values - state_values[:, :, None],
        )
        value = fair_advantage(bundle, AltruismWeights(1.0), 0, 0, 0, 0)
        assert value == pytest.approx(1.0 / 10.0 - 2.0 / 4.0)

    def test_floor_warns(self):
        state_values = np.array([[1e-6]])
        action_values = np.array([[[1.0]]])
        bundle_type = type(self._bundle()[1])
        bundle = bundle_type(
            state_values=state_values,
            action_values=action_values,
            advantages=action_values - state_values[:, :, None],
        )
        with pytest.warns(RuntimeWarning):
            value = fair_advantage(bundle, AltruismWeights(0.0), 0, 0, 0, 0)
        assert value == pytest.approx((1.0 - 1e-6) / 1e-3)


class TestBaselineZero:
    def test_analytic_exactly_zero_and_mc_consistent(self):
        rng = np.random.default_rng(15)
        game, policies = random_game_and_policies(rng, max_states=3)
        results = baseline_zero_check(game, policies, lambda s: 1.5 + s, 20_000, seed=6)
        for result in results:
            assert not result.analytic.any()
            assert result.quadrature_residual <= 1e-12
            assert np.all(np.abs(result.mc_mean) <= 3.5 * result.mc_se + 1e-12)

    def test_constant_zero_baseline(self):
        game, policies = random_game_and_policies(np.random.default_rng(16), max_states=3)
        results = baseline_zero_check(game, policies, lambda s: 0.0, 100, seed=7)
        for result in results:
            assert not result.mc_mean.any()
            assert not result.mc_se.any()


class TestGradientOperatorContraction:
    def test_one_application_contracts(self):
        rng = np.random.default_rng(17)
        game, policies = random_game_and_policies(rng)
        p_pi, _ = policy_averaged_dynamics(game, policies)
        for _ in range(20):
            g1 = rng.normal(size=(game.num_states, 5))
            g2 = rng.normal(size=(game.num_states, 5))
            mapped_gap = game.discount * p_pi @ (g1 - g2)
            sup = np.max(np.linalg.norm(g1 - g2, axis=1))
            mapped_sup = np.max(np.linalg.norm(mapped_gap, axis=1))
            assert mapped_sup <= game.discount * sup + 1e-12
