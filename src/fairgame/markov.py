"""Tabular Markov games and the exact oracle layer: policy evaluation by
linear solve, the log-value fair objective, and exact/Monte-Carlo fair policy
gradients, the exact one from the discounted occupancy measure.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

V_FLOOR_DEFAULT = 1e-3
_MC_CHUNK = 10_000


@dataclass(frozen=True)
class TabularMarkovGame:
    """Finite Markov game with dense transition and reward tables.

    ``transitions`` has shape (num_states, num_joint_actions, num_states) and
    ``rewards`` (num_agents, num_states, num_joint_actions), with joint
    actions flattened row-major over per-agent actions (last agent fastest).
    Rewards must be strictly positive and the discount strictly below 1.
    """

    num_agents: int
    num_states: int
    action_counts: tuple[int, ...]
    transitions: np.ndarray
    rewards: np.ndarray
    initial_dist: np.ndarray
    discount: float

    def __post_init__(self):
        counts = tuple(int(c) for c in self.action_counts)
        if len(counts) != self.num_agents or any(c < 1 for c in counts):
            raise DomainError("action_counts needs one positive entry per agent")
        joint = math.prod(counts)
        transitions = np.asarray(self.transitions, dtype=float).reshape(
            self.num_states, joint, self.num_states
        )
        rewards = np.asarray(self.rewards, dtype=float).reshape(
            self.num_agents, self.num_states, joint
        )
        initial = np.asarray(self.initial_dist, dtype=float).reshape(self.num_states)
        # comparisons written so that NaN fails them
        if not np.all(transitions >= 0.0):
            raise DomainError("transition probabilities must be nonnegative")
        row_sums = transitions.sum(axis=-1)
        if not np.all(np.abs(row_sums - 1.0) <= 1e-12):
            raise DomainError("every transition row must sum to 1 within 1e-12")
        if not abs(initial.sum() - 1.0) <= 1e-12 or not np.all(initial >= 0.0):
            raise DomainError("initial distribution must sum to 1 within 1e-12")
        if not np.all(rewards > 0.0) or not np.all(np.isfinite(rewards)):
            raise DomainError("rewards must be strictly positive and finite")
        if not 0.0 <= self.discount < 1.0:
            raise DomainError("discount must lie in [0, 1)")
        for array in (transitions, rewards, initial):
            array.setflags(write=False)
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "initial_dist", initial)

    @property
    def num_joint_actions(self) -> int:
        return math.prod(self.action_counts)

    @property
    def max_reward(self) -> float:
        return float(self.rewards.max())

    def joint_action_index(self, actions: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(actions), self.action_counts))

    def joint_action_tuple(self, index: int) -> tuple[int, ...]:
        return tuple(int(a) for a in np.unravel_index(index, self.action_counts))


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by the maximum for stability."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class SoftmaxPolicyProfile:
    """Per-agent logit tables; agent i's policy is the row-wise softmax of
    logits[i], shape (num_states, num_actions_i).

    The version counter tracks in-place parameter updates so on-policy
    consumers can detect stale rollout data.
    """

    logits: list[np.ndarray]
    version: int = 0

    @classmethod
    def uniform(cls, num_states: int, action_counts: Sequence[int]) -> "SoftmaxPolicyProfile":
        return cls([np.zeros((num_states, int(c))) for c in action_counts])

    @classmethod
    def random(
        cls, num_states: int, action_counts: Sequence[int], rng: np.random.Generator,
        scale: float = 0.5,
    ) -> "SoftmaxPolicyProfile":
        return cls([scale * rng.standard_normal((num_states, int(c))) for c in action_counts])

    @property
    def num_agents(self) -> int:
        return len(self.logits)

    def probs(self, agent: int) -> np.ndarray:
        """Action probabilities for one agent, shape (num_states, num_actions)."""
        return _softmax(self.logits[agent])

    def all_probs(self) -> list[np.ndarray]:
        return [self.probs(i) for i in range(self.num_agents)]

    def joint_probs(self) -> np.ndarray:
        """Joint action probabilities per state, shape (num_states, prod(actions))."""
        result = self.probs(0)
        for agent in range(1, self.num_agents):
            result = result[:, :, None] * self.probs(agent)[:, None, :]
            result = result.reshape(result.shape[0], -1)
        return result

    def copy(self) -> "SoftmaxPolicyProfile":
        return SoftmaxPolicyProfile([l.copy() for l in self.logits], self.version)


@dataclass(frozen=True)
class ValueBundle:
    """Exact V, Q, and advantage tables for one policy profile."""

    state_values: np.ndarray  # (num_agents, num_states)
    action_values: np.ndarray  # (num_agents, num_states, num_joint_actions)
    advantages: np.ndarray  # (num_agents, num_states, num_joint_actions)


@dataclass(frozen=True)
class AltruismWeights:
    """Altruism level alpha with coefficients 1 toward self, alpha toward others."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha={self.alpha} outside [0, 1]")

    def coefficients(self, agent: int, num_agents: int) -> np.ndarray:
        c = np.full(num_agents, self.alpha)
        c[agent] = 1.0
        return c


@dataclass
class FairGradient:
    """Per-agent gradient tensors matching each logit table's shape.

    Monte Carlo estimates additionally carry per-coordinate standard errors.
    """

    per_agent: list[np.ndarray]
    std_errors: list[np.ndarray] | None = None


def joint_policy_prob(
    policies: SoftmaxPolicyProfile, state: int, joint_action: Sequence[int]
) -> float:
    """Product over agents of pi_i(a_i | s)."""
    prob = 1.0
    for agent, action in enumerate(joint_action):
        prob *= float(policies.probs(agent)[state, action])
    return prob


def _averaged_dynamics(
    game: TabularMarkovGame, joint: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P_pi (S, S) and r_bar (N, S) from joint action probabilities (S, A)."""
    p_pi = np.einsum("sa,sat->st", joint, game.transitions)
    r_bar = np.einsum("sa,nsa->ns", joint, game.rewards)
    return p_pi, r_bar


def policy_averaged_dynamics(
    game: TabularMarkovGame, policies: SoftmaxPolicyProfile
) -> tuple[np.ndarray, np.ndarray]:
    """Policy-averaged transition matrix (S, S) and mean rewards (N, S)."""
    return _averaged_dynamics(game, policies.joint_probs())


def bellman_apply(
    game: TabularMarkovGame, policies: SoftmaxPolicyProfile, values: np.ndarray
) -> np.ndarray:
    """One application of the policy-evaluation operator to per-agent values:

    (T_i V_i)(s) = sum_a pi(a|s) [ r_i(s,a) + gamma * sum_s' P(s'|s,a) V_i(s') ]
    """
    values = np.asarray(values, dtype=float).reshape(game.num_agents, game.num_states)
    p_pi, r_bar = policy_averaged_dynamics(game, policies)
    return r_bar + game.discount * values @ p_pi.T


def _evaluate(
    game: TabularMarkovGame, joint: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation system I - gamma P_pi (S, S) and V (N, S) solving it
    against r_bar, from joint action probabilities (S, A)."""
    p_pi, r_bar = _averaged_dynamics(game, joint)
    system = np.eye(game.num_states) - game.discount * p_pi
    return system, np.linalg.solve(system, r_bar.T).T


def _action_values(game: TabularMarkovGame, state_values: np.ndarray) -> np.ndarray:
    """Q_i(s,a) = r_i(s,a) + gamma * P(.|s,a) . V_i, shape (N, S, A), as one
    matrix product against the (S*A, S) transition table."""
    s_count, joint_count = game.num_states, game.num_joint_actions
    flat = game.transitions.reshape(s_count * joint_count, s_count)
    continuation = (state_values @ flat.T).reshape(game.num_agents, s_count, joint_count)
    return game.rewards + game.discount * continuation


def solve_values(game: TabularMarkovGame, policies: SoftmaxPolicyProfile) -> ValueBundle:
    """Exact policy evaluation: V_i solves (I - gamma P_pi) V_i = r_bar_i,
    then Q_i(s,a) = r_i(s,a) + gamma * P(.|s,a) . V_i and A_i = Q_i - V_i.
    """
    _, state_values = _evaluate(game, policies.joint_probs())
    action_values = _action_values(game, state_values)
    advantages = action_values - state_values[:, :, None]
    return ValueBundle(state_values, action_values, advantages)


def proportional_fair_state_value(
    game: TabularMarkovGame, policies: SoftmaxPolicyProfile
) -> np.ndarray:
    """Per-state sum over agents of log V_j(s) under exact values."""
    _, values = _evaluate(game, policies.joint_probs())
    return np.log(values).sum(axis=0)


def fair_objective(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    weights: AltruismWeights,
) -> np.ndarray:
    """Per-agent objective J_i = E_{s0~rho0}[ sum_j c_i(j) log V_j(s0) ]."""
    _, values = _evaluate(game, policies.joint_probs())
    if np.any(values <= 0.0):
        raise AssertionError("positive rewards must yield positive values")
    log_v0 = np.log(values) @ game.initial_dist  # (N,)
    return np.array(
        [
            float(weights.coefficients(i, game.num_agents) @ log_v0)
            for i in range(game.num_agents)
        ]
    )


def exact_fair_gradient(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    weights: AltruismWeights,
    objective_agent: int | None = None,
) -> FairGradient:
    """Exact gradient of the fair objective for every agent's parameters.

    The per-state score expectation G_{i,j}(s, a_i) = marginal_{i,j}(s, a_i)
    - pi_i(a_i|s) V_j(s), with marginal_{i,j} the expectation of Q_j(s, a)
    over the other agents' actions, is analytic for tabular softmax policies.
    Its discounted accumulation over trajectories is the fixed point of
    g = G + gamma P_pi g. Because G acts on one state at a time, that fixed
    point weighted by rho0 / V_j is d_j(s) G_{i,j}(s, .), where the
    discounted occupancy d_j solves the adjoint system
    (I - gamma P_pi)^T d_j = rho0 / V_j (the occupancy form of the policy
    gradient theorem). One policy evaluation and one adjoint solve with N
    right-hand sides serve every agent, in O(S*A) memory:
    grad_i J = sum_j c_i(j) d_j(s) G_{i,j}(s, a_i).

    With objective_agent=k the gradient of J_k with respect to every agent's
    parameters is returned instead of each agent's own objective.
    """
    n, s_count = game.num_agents, game.num_states
    joint = policies.joint_probs()
    system, state_values = _evaluate(game, joint)
    occupancy = np.linalg.solve(system.T, (game.initial_dist / state_values).T).T  # (N, S)
    weighted = (joint * _action_values(game, state_values)).reshape(
        (n, s_count) + game.action_counts
    )
    grads: list[np.ndarray] = []
    for i in range(n):
        index = i if objective_agent is None else objective_agent
        coeffs = weights.coefficients(index, n)
        axes = tuple(k + 2 for k in range(n) if k != i)
        marginals = weighted.sum(axis=axes)  # (N, S, A_i)
        score = marginals - policies.probs(i) * state_values[:, :, None]
        grads.append(np.einsum("j,js,jsa->sa", coeffs, occupancy, score))
    return FairGradient(grads)


def default_horizon(gamma: float, max_reward: float, tol: float = 1e-6) -> int:
    """Smallest horizon with gamma^T * R_max / (1 - gamma) below tol."""
    if gamma == 0.0:
        return 1
    bound = tol * (1.0 - gamma) / max_reward
    return max(1, math.ceil(math.log(bound) / math.log(gamma)))


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample one index per row of cumulative row distributions (m, K): one
    uniform draw per row, counted against the row's first K-1 entries."""
    u = rng.random(cdf.shape[0])
    index = np.zeros(cdf.shape[0], dtype=np.int64)
    for k in range(cdf.shape[1] - 1):
        index += u > cdf[:, k]
    return index


def mc_fair_gradient(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    weights: AltruismWeights,
    num_rollouts: int,
    horizon: int | None = None,
    seed: int = 0,
    truncation_tol: float = 1e-6,
) -> FairGradient:
    """Monte Carlo estimate of the fair policy gradient with an oracle critic.

    Samples truncated trajectories and averages
    sum_t gamma^t grad log pi_i(a_{i,t}|s_t) * sum_j c_i(j) Q_j(s_t, a_t) / V_j(s0)
    with Q and V taken from solve_values. Returns the per-coordinate mean and
    standard error over rollouts.

    With kappa_{i,t} = gamma^t sum_j c_i(j) Q_j(s_t, a_t) / V_j(s0), one
    rollout's gradient is g_i = K_i - (sum_a K_i(., a)) pi_i, where
    K_i(s, a) sums kappa_{i,t} over the steps at state s with action a. So each
    step adds kappa into one accumulator entry per rollout and agent, and the
    baseline term is applied once per chunk. Rows are drawn from the
    cumulative policy, transition and initial tables, built once per call.
    """
    if num_rollouts < 1:
        raise DomainError("num_rollouts must be at least 1")
    if horizon is None:
        horizon = default_horizon(game.discount, game.max_reward, truncation_tol)
    bundle = solve_values(game, policies)
    n, s_count, counts = game.num_agents, game.num_states, game.action_counts
    probs = policies.all_probs()
    coeffs = np.stack([weights.coefficients(i, n) for i in range(n)])  # (N, N)
    policy_cdfs = [np.cumsum(p, axis=1) for p in probs]
    transition_cdf = np.cumsum(game.transitions, axis=2).reshape(-1, s_count)
    initial_cdf = np.cumsum(game.initial_dist)
    q_values = bundle.action_values.reshape(n, -1)  # (N, S*A)
    rng = np.random.default_rng(seed)
    total = [np.zeros((s_count, c)) for c in counts]
    total_sq = [np.zeros((s_count, c)) for c in counts]

    remaining = num_rollouts
    while remaining > 0:
        m = min(_MC_CHUNK, remaining)
        remaining -= m
        taken = [np.zeros(m * s_count * c) for c in counts]  # K_i, flat (m, S, A_i)
        row_offsets = np.arange(m) * s_count
        states = _draw(np.broadcast_to(initial_cdf, (m, s_count)), rng)
        # 1 / V_j(s0) per rollout, fixed for the whole trajectory
        inv_v0 = 1.0 / bundle.state_values[:, states]  # (N, m)
        gamma_t = 1.0
        for _ in range(horizon):
            actions = [_draw(policy_cdfs[i].take(states, axis=0), rng) for i in range(n)]
            rows = row_offsets + states
            state_action = states  # becomes s * prod(A) + joint action, row-major
            for i, count in enumerate(counts):
                state_action = state_action * count + actions[i]
            kappa = gamma_t * (coeffs @ (q_values.take(state_action, axis=1) * inv_v0))
            for i, count in enumerate(counts):
                taken[i][rows * count + actions[i]] += kappa[i]
            states = _draw(transition_cdf.take(state_action, axis=0), rng)
            gamma_t *= game.discount
        for i, count in enumerate(counts):
            k_table = taken[i].reshape(m, s_count, count)
            rollout_grads = k_table - k_table.sum(axis=2, keepdims=True) * probs[i]
            total[i] += rollout_grads.sum(axis=0)
            total_sq[i] += (rollout_grads**2).sum(axis=0)

    means, errors = [], []
    for i in range(n):
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


def fair_advantage(
    values: ValueBundle,
    weights: AltruismWeights,
    agent: int,
    state: int,
    joint_action: int,
    initial_state: int,
    v_floor: float = V_FLOOR_DEFAULT,
) -> float:
    """Weighted normalized advantage sum_j c_i(j) A_j(s, a) / V_j(s0).

    Exact values are positive by construction; the floor only engages for
    degenerate inputs (e.g. learned critics) and emits a warning when it does.
    """
    num_agents = values.state_values.shape[0]
    coeffs = weights.coefficients(agent, num_agents)
    v0 = values.state_values[:, initial_state].copy()
    if np.any(v0 < v_floor):
        warnings.warn(
            "initial-state value below floor; clamping for the fair advantage",
            RuntimeWarning,
            stacklevel=2,
        )
        v0 = np.maximum(v0, v_floor)
    return float(coeffs @ (values.advantages[:, state, joint_action] / v0))


@dataclass(frozen=True)
class BaselineCheckResult:
    """Outcome of the baseline-term check for one agent.

    ``analytic`` is the closed-form expectation, the zero tensor: the score
    expectation telescopes, sum_a grad pi(a|s) = grad 1 = 0. The quadrature
    residual is the numerically summed expectation, reported as a float-noise
    diagnostic. MC arrays have shape (num_states, num_actions).
    """

    analytic: np.ndarray
    quadrature_residual: float
    mc_mean: np.ndarray
    mc_se: np.ndarray


def baseline_zero_check(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    baseline_fn: Callable[[int], float],
    num_samples: int,
    seed: int = 0,
) -> list[BaselineCheckResult]:
    """Check E_{a~pi(.|s)}[grad log pi_i(a_i|s) f(s)] = 0 per agent and state.

    Returns, per agent, the analytic expectation (exactly zero), the numeric
    quadrature residual, and a Monte Carlo estimate with standard errors.
    """
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
        actions = _draw(
            np.repeat(np.cumsum(probs, axis=1), num_samples, axis=0), rng
        ).reshape(game.num_states, num_samples)
        one_hot = np.eye(a_i).take(actions, axis=0)  # (S, n, A_i)
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
