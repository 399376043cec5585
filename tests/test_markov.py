import bisect
import hashlib
import math
import multiprocessing

import numpy as np
import pytest

from fairgame import markov, parallel
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
    _compared_columns,
    _draw,
    baseline_zero_check,
    bellman_apply,
    default_horizon,
    exact_fair_gradient,
    fair_objective,
    mc_fair_gradient,
    policy_averaged_dynamics,
    solve_values,
)
from fairgame.verify import (
    finite_difference_fair_gradient,
    gradient_tolerance_ok,
    random_game_and_policies,
    verify_bellman,
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
            coeff = 1.0 if j == index else weights.alpha
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
    """Sample one index per row of a matrix of row distributions: the number
    of cumulative entries <= u, clipped to the last index (``bisect_right``)."""
    cdf = np.cumsum(row_probs, axis=1)
    u = rng.random(row_probs.shape[0])
    return np.minimum(
        (cdf <= u[:, None]).sum(axis=1), row_probs.shape[1] - 1
    ).astype(np.int64)


def _choice_rows(row_probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``Generator.choice(K, p=row)`` for each row, given the uniform that
    call draws: the row's cumulative sum divided by its last entry, and the
    number of its entries <= u (``searchsorted(side="right")``)."""
    cdf = np.cumsum(row_probs, axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= u[:, None]).sum(axis=1)


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
    probs = [policies.probs(i) for i in range(game.num_agents)]
    coeffs = np.array([
        [1.0 if i == j else weights.alpha for j in range(game.num_agents)]
        for i in range(game.num_agents)
    ])  # c_i(j), (N, N)
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
            kappa = gamma_t * (coeffs[:, :, None] * q_ratio).sum(axis=1)  # (N, m)
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

    def test_suite_probe_stacks_match_single_tables_bit_for_bit(self):
        """verify_bellman's 50 games at its seed: one (100, 2, N, S) probe
        draw is the stream of 100 per-pair (v1, v2) draws, and mapping it as
        one stack gives each table's single-call result to the bit."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            game, policies = random_game_and_policies(rng)
            shape = (game.num_agents, game.num_states)
            scale = game.max_reward / (1.0 - game.discount)
            state = rng.bit_generator.state
            pairs = [[rng.uniform(-scale, scale, size=shape) for _ in range(2)] for _ in range(100)]
            rng.bit_generator.state = state
            probes = rng.uniform(-scale, scale, size=(100, 2) + shape)
            assert np.array_equal(probes, np.array(pairs))
            single = np.array([[bellman_apply(game, policies, v) for v in pair] for pair in pairs])
            stacked = bellman_apply(game, policies, probes)
            assert stacked.shape == probes.shape
            assert np.array_equal(stacked.view(np.uint64), single.view(np.uint64))

    def test_flat_and_two_d_values_map_alike(self):
        game, policies = random_game_and_policies(np.random.default_rng(6))
        values = np.random.default_rng(7).normal(size=(game.num_agents, game.num_states))
        two_d = bellman_apply(game, policies, values)
        assert two_d.shape == values.shape
        assert np.array_equal(bellman_apply(game, policies, values.ravel()), two_d)
        assert np.array_equal(bellman_apply(game, policies, values.tolist()), two_d)
        assert np.array_equal(bellman_apply(game, policies, values[None, None])[0, 0], two_d)

    def test_misshaped_stack_raises(self):
        game = random_markov_game(2, 3, (2, 2), 0.9, seed=0)
        policies = SoftmaxPolicyProfile.uniform(3, (2, 2))
        for shape in [(4, 3, 2), (4, 2, 4), (4, 1, 2, 3, 1)]:
            with pytest.raises(DomainError, match=r"\(\.\.\., 2, 3\)"):
                bellman_apply(game, policies, np.zeros(shape))
        with pytest.raises(ValueError):  # one table of the wrong size, as before stacks
            bellman_apply(game, policies, np.zeros((5, 2)))

    def test_iteration_error_bound(self):
        game, policies = random_game_and_policies(np.random.default_rng(4))
        exact = solve_values(game, policies).state_values
        scale = game.max_reward / (1.0 - game.discount)
        values = np.zeros_like(exact)
        for k in range(1, 30):
            values = bellman_apply(game, policies, values)
            assert np.max(np.abs(values - exact)) <= game.discount**k * scale + 1e-9


def _columns_reversed(original):
    """``_averaged_dynamics`` with the columns of P_pi reversed."""

    def mutant(game, joint):
        p_pi, r_bar = original(game, joint)
        return p_pi[:, ::-1], r_bar

    return mutant


def _agents_reversed(profile):
    """``joint_probs`` taking the outer product over agents in reverse order."""
    result = profile.probs(profile.num_agents - 1)
    for agent in range(profile.num_agents - 2, -1, -1):
        result = result[:, :, None] * profile.probs(agent)[:, None, :]
        result = result.reshape(result.shape[0], -1)
    return result


class TestVerifyBellmanIsIndependent:
    """The residual check must catch a defect in the evaluator it checks:
    each mutant changes what ``solve_values`` solves, and a residual built
    from the same helpers would cancel it out."""

    def test_passes_on_the_evaluator(self):
        report = verify_bellman(num_games=5, num_pairs=5)
        assert report.passed

    @pytest.mark.parametrize("mutant", ["p_pi_columns_reversed", "joint_agents_reversed"])
    def test_residual_fails_under_mutant(self, monkeypatch, mutant):
        if mutant == "p_pi_columns_reversed":
            monkeypatch.setattr(
                markov, "_averaged_dynamics", _columns_reversed(markov._averaged_dynamics)
            )
        else:
            monkeypatch.setattr(SoftmaxPolicyProfile, "joint_probs", _agents_reversed)
        checks = {c.name: c for c in verify_bellman(num_games=5, num_pairs=5).checks}
        assert not checks["fixed_point_residual"].passed
        # the other two are property checks, which any stochastic P_pi passes
        assert checks["contraction_factor"].passed
        assert checks["iteration_error_bound"].passed


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
        horizon = default_horizon(game.discount, game.max_reward, 1e-4)
        start = int(np.argmax(game.initial_dist))
        n = 4000
        # one rollout's calls of rng.choice in order (each agent's action,
        # then the transition, at every step), as one block of uniforms
        uniforms = np.random.default_rng(7).random((n, horizon, game.num_agents + 1))
        totals = np.zeros((game.num_agents, n))
        states = np.full(n, start)
        gamma_t = 1.0
        for t in range(horizon):
            actions = tuple(
                _choice_rows(policies.probs(i)[states], uniforms[:, t, i])
                for i in range(game.num_agents)
            )
            joint = np.ravel_multi_index(actions, game.action_counts)
            totals += gamma_t * game.rewards[:, states, joint]
            states = _choice_rows(game.transitions[states, joint], uniforms[:, t, -1])
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

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            AltruismWeights(1.2)


class TestStackedObjective:
    """``fair_objective`` on a profile whose tables carry stack axes gives
    each profile of the stack its own call's objective, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("num_states", [1, 3, 5, 50])
    def test_stack_on_one_agent_matches_per_profile_calls(self, seed, num_states):
        rng = np.random.default_rng(seed)
        counts = tuple(int(c) for c in rng.integers(2, 4, size=2 + seed % 2))
        game = random_markov_game(len(counts), num_states, counts, 0.9, seed=seed)
        policies = SoftmaxPolicyProfile.random(num_states, counts, rng)
        weights = AltruismWeights(float(rng.uniform(0.0, 1.0)))
        agent = seed % game.num_agents
        stack = policies.logits[agent] + rng.normal(size=(4,) + policies.logits[agent].shape)
        logits = list(policies.logits)
        logits[agent] = stack
        stacked = fair_objective(game, SoftmaxPolicyProfile(logits), weights)
        assert stacked.shape == (4, game.num_agents)
        for k in range(4):
            logits[agent] = stack[k]
            single = fair_objective(game, SoftmaxPolicyProfile(logits), weights)
            assert single.shape == (game.num_agents,)
            assert stacked[k].tobytes() == single.tobytes()

    def test_stack_axes_of_two_agents_broadcast(self):
        rng = np.random.default_rng(21)
        game, policies = random_game_and_policies(rng, max_agents=2)
        weights = AltruismWeights(0.3)
        first = rng.normal(size=(3, 1) + policies.logits[0].shape)
        second = rng.normal(size=(2,) + policies.logits[1].shape)
        stacked = fair_objective(game, SoftmaxPolicyProfile([first, second]), weights)
        assert stacked.shape == (3, 2, 2)
        for a in range(3):
            for b in range(2):
                single = fair_objective(
                    game, SoftmaxPolicyProfile([first[a, 0], second[b]]), weights
                )
                assert stacked[a, b].tobytes() == single.tobytes()


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_bad_seed_rejected(self, seed):
        game = single_state_game()
        policies = SoftmaxPolicyProfile.uniform(1, (1,))
        with pytest.raises(DomainError, match="seed"):
            mc_fair_gradient(game, policies, AltruismWeights(0.5), 10, seed=seed)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_nonpositive_horizon_rejected(self, horizon):
        game = single_state_game()
        policies = SoftmaxPolicyProfile.uniform(1, (1,))
        with pytest.raises(DomainError, match="horizon"):
            mc_fair_gradient(game, policies, AltruismWeights(0.5), 10, horizon=horizon)

    def test_default_horizon_bound(self):
        for gamma in (0.0, 0.5, 0.9, 0.99):
            horizon = default_horizon(gamma, 1.0, 1e-6)
            assert gamma**horizon * 1.0 / (1.0 - gamma if gamma else 1.0) <= 1e-6 or gamma == 0.0

    @pytest.mark.parametrize("gamma", [0.0, 0.9])
    @pytest.mark.parametrize("tol", [0.0, -1e-6, float("nan")])
    def test_default_horizon_rejects_nonpositive_tol(self, gamma, tol):
        with pytest.raises(DomainError, match="tol"):
            default_horizon(gamma, 1.0, tol)

    @pytest.mark.parametrize("gamma", [0.0, 0.9])
    @pytest.mark.parametrize("max_reward", [0.0, -2.0])
    def test_default_horizon_rejects_nonpositive_max_reward(self, gamma, max_reward):
        with pytest.raises(DomainError, match="max_reward"):
            default_horizon(gamma, max_reward, 1e-6)


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

    @pytest.mark.parametrize(
        "case, per_agent_sha, std_errors_sha",
        [
            (
                "verify-montecarlo-alpha-1",
                "0f0b3c5b1bd1a81c2faa0e2dd12369539a45cd5ea008bb7c1b00ad8f4471a830",
                "2f618a633e199bb9074d91c9f152f6b982d27b3670a15766ce07b22517796113",
            ),
            (
                "three-agents-partial-chunk",
                "7a0e28ad1cefdf22dbfb8ce267223f93d3554edc4a3a8dbe98467cad493eec2a",
                "0fa751dee2528c859dec48aed1d248044e8bdff386cc2de7b448e4ce78e60ce4",
            ),
        ],
        ids=["verify-montecarlo-alpha-1", "three-agents-partial-chunk"],
    )
    def test_estimates_are_pinned(self, case, per_agent_sha, std_errors_sha):
        """Pinned bytes of two estimates: how the draws gather their rows and
        how kappa is scattered may change, but not one sampled trajectory or
        one rounding of the sums."""
        if case == "verify-montecarlo-alpha-1":
            # verify_montecarlo(num_games=1) draws its alpha=0 game first
            rng = np.random.default_rng(3)
            for _ in range(2):
                game, policies = random_game_and_policies(
                    rng, max_agents=2, max_states=3, max_actions=2, gamma_range=(0.8, 0.9)
                )
                seed = int(rng.integers(2**31))
            args = (AltruismWeights(1.0), 100_000)
        else:
            game, policies = _three_agent_game()
            seed, args = 9, (AltruismWeights(0.5), 12_345)
        estimate = mc_fair_gradient(game, policies, *args, seed=seed, truncation_tol=1e-5)

        def digest(arrays):
            h = hashlib.sha256()
            for a in arrays:
                h.update(np.ascontiguousarray(a).tobytes())
            return h.hexdigest()

        assert digest(estimate.per_agent) == per_agent_sha
        assert digest(estimate.std_errors) == std_errors_sha

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
        columns = _compared_columns(np.cumsum(row_probs, axis=1))
        assert len(columns) == num_actions - 1
        for seed in range(3):
            drawn = _draw(columns, np.random.default_rng(seed).random(len(row_probs)))
            expected = _sample_rows(row_probs, np.random.default_rng(seed))
            assert drawn.dtype == expected.dtype
            assert np.array_equal(drawn, expected)
            assert np.all(row_probs[np.arange(len(drawn)), drawn] > 0.0)

    @pytest.mark.parametrize("num_actions", [1, 2, 5])
    def test_broadcast_draw_matches_repeated_rows(self, num_actions):
        """n draws per row from one (S, 1, K) cumulative table are the draws
        from that table repeated to S*n rows."""
        rows = np.random.default_rng(num_actions).random((4, num_actions))
        cdf = np.cumsum(rows / rows.sum(axis=1, keepdims=True), axis=1)
        u = np.random.default_rng(8).random((4, 500))
        drawn = _draw(_compared_columns(cdf[:, None, :]), u)
        repeated = _draw(_compared_columns(np.repeat(cdf, 500, axis=0)), u.reshape(2000))
        assert drawn.dtype == repeated.dtype == np.int64
        assert np.array_equal(drawn, repeated.reshape(4, 500))

    def test_draw_ties_follow_bisect_right(self):
        """A uniform equal to a cumulative value counts that entry, so it
        passes the action the entry closes: u = 0.0 skips a leading
        zero-probability action, and the top clips to the last action."""
        probs = np.array([0.0, 0.25, 0.0, 0.5, 0.25])
        cdf = np.cumsum(probs)
        u = np.array([0.0, *cdf, 0.1, 0.3, 0.9, np.nextafter(1.0, 0.0)])
        drawn = _draw(_compared_columns(cdf), u)
        expected = [min(bisect.bisect_right(cdf.tolist(), x), len(cdf) - 1) for x in u]
        assert drawn.tolist() == expected
        assert drawn.tolist()[:6] == [1, 1, 3, 3, 4, 4]
        assert np.all(probs[drawn] > 0.0)

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


    @pytest.mark.parametrize(
        "counts, num_samples",
        # one action, whose samples are all (signed) zeros; and sample counts
        # that fill one slab of rows, and spill into a second and a third
        [((1, 3), 5_000), ((2, 1, 2), 5_000), ((2, 3), 8_192), ((3, 2), 20_000)],
    )
    def test_baseline_check_bit_identical_across_slabs(self, counts, num_samples):
        rng = np.random.default_rng(len(counts) + num_samples)
        game = random_markov_game(len(counts), 3, counts, 0.9, seed=num_samples)
        policies = SoftmaxPolicyProfile.random(3, counts, rng, scale=1.0)
        levels = rng.uniform(-5.0, 5.0, size=game.num_states)
        args = (game, policies, lambda s: float(levels[s]), num_samples)
        new = baseline_zero_check(*args, seed=4)
        old = reference_baseline_zero_check(*args, seed=4)
        for a, b in zip(new, old, strict=True):
            assert np.array_equal(a.mc_mean, b.mc_mean)
            assert np.array_equal(a.mc_se, b.mc_se)


def _mixed_actions_game() -> tuple[TabularMarkovGame, SoftmaxPolicyProfile]:
    game = random_markov_game(2, 3, (2, 4), 0.8, seed=44)
    return game, SoftmaxPolicyProfile.random(3, (2, 4), np.random.default_rng(45))


def _estimate_on(monkeypatch, mode, *args, **kwargs):
    """``mc_fair_gradient(*args, **kwargs)`` with its chunks in-process (one
    CPU), on one pool worker, or on two (two CPUs), and the pool sizes it
    made."""
    made = []

    class Pool(parallel.ProcessPoolExecutor):
        def __init__(self, max_workers, **pool_kwargs):
            workers = 1 if mode == "one-worker" else max_workers
            made.append(workers)
            super().__init__(workers, **pool_kwargs)

    cpus = {0} if mode == "in-process" else {0, 1}
    with monkeypatch.context() as patch:
        patch.setattr(parallel.os, "sched_getaffinity", lambda pid: cpus)
        patch.setattr(parallel, "ProcessPoolExecutor", Pool)
        return mc_fair_gradient(*args, **kwargs), made


def _estimate_bytes(estimate: FairGradient) -> list[bytes]:
    return [a.tobytes() for a in estimate.per_agent + estimate.std_errors]


class TestParallelChunks:
    """Chunks run anywhere give the serial pass's estimate, bit for bit."""

    @pytest.mark.parametrize(
        "make_game, num_rollouts",
        [
            (lambda: _criterion_six_game(5), 5_000),
            (lambda: _criterion_six_game(3), 12_345),
            (_three_agent_game, 20_001),
            (_mixed_actions_game, 15_000),
            (_gamma_zero_game, 25_000),
            (lambda: _criterion_six_game(4), 1),
        ],
        ids=["one-chunk", "partial-chunk", "three-agents", "mixed-action-counts",
             "gamma-zero", "one-rollout"],
    )
    def test_bit_identical_in_process_and_on_pools(self, monkeypatch, make_game, num_rollouts):
        game, policies = make_game()
        args = (game, policies, AltruismWeights(0.5), num_rollouts)
        chunks = -(-num_rollouts // _MC_CHUNK)
        results = {}
        for mode, workers in (("in-process", []), ("one-worker", [1]), ("two-workers", [2])):
            estimate, made = _estimate_on(monkeypatch, mode, *args, seed=9, truncation_tol=1e-5)
            assert made == (workers if mode != "in-process" and chunks >= 2 else [])
            results[mode] = _estimate_bytes(estimate)
            assert multiprocessing.active_children() == []
        assert results["one-worker"] == results["in-process"]
        assert results["two-workers"] == results["in-process"]
        old = reference_mc_fair_gradient(*args, seed=9, truncation_tol=1e-5)
        assert _max_normalised_gap(estimate.per_agent, old.per_agent) <= 1e-12
        assert _max_normalised_gap(estimate.std_errors, old.std_errors) <= 1e-12

    def test_jumped_chunks_draw_the_serial_stream(self, monkeypatch):
        """Each chunk's generator, advanced to its offset, yields the
        uniforms that the serial stream holds there: one initial-state
        uniform per rollout, then N + 1 per step."""
        game, policies = _three_agent_game()
        seen, original = [], markov._mc_chunk

        def recording_chunk(chunk, tables):
            seen.append((chunk, tables.seed, tables.uniforms_per_rollout))
            return original(chunk, tables)

        monkeypatch.setattr(markov, "_mc_chunk", recording_chunk)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
        horizon, num_rollouts = 3, 2 * _MC_CHUNK + 7
        mc_fair_gradient(game, policies, AltruismWeights(0.5), num_rollouts, horizon, seed=21)
        per_rollout = 1 + horizon * (game.num_agents + 1)
        assert [chunk for chunk, *_ in seen] == [
            (_MC_CHUNK, 0),
            (_MC_CHUNK, _MC_CHUNK * per_rollout),
            (7, 2 * _MC_CHUNK * per_rollout),
        ]
        serial = np.random.default_rng(21).random(num_rollouts * per_rollout)
        for (m, offset), seed, uniforms_per_rollout in seen:
            assert (seed, uniforms_per_rollout) == (21, per_rollout)
            jumped = np.random.Generator(np.random.PCG64(seed))
            jumped.bit_generator.advance(offset)
            drawn = jumped.random(m * per_rollout)
            assert drawn.tobytes() == serial[offset:offset + m * per_rollout].tobytes()

    def test_multiprocessing_child_runs_chunks_in_process(self, monkeypatch):
        game, policies = _criterion_six_game(3)
        args = (game, policies, AltruismWeights(1.0), 12_345)
        expected, _ = _estimate_on(monkeypatch, "in-process", *args, seed=9)
        # a --jobs sweep worker or a pool worker: its siblings fill the CPUs
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        estimate, made = _estimate_on(monkeypatch, "two-workers", *args, seed=9)
        assert made == []
        assert _estimate_bytes(estimate) == _estimate_bytes(expected)


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


    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True])
    def test_bad_seed_rejected(self, seed):
        game, policies = random_game_and_policies(np.random.default_rng(16), max_states=3)
        with pytest.raises(DomainError, match="seed"):
            baseline_zero_check(game, policies, lambda s: 1.0, 100, seed=seed)


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
