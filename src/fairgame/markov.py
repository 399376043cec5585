"""Tabular Markov games and the exact oracle layer: policy evaluation by
linear solve, the log-value fair objective, and exact/Monte-Carlo fair policy
gradients, the exact one from the discounted occupancy measure.
"""

import math
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .games import _altruistic
from .parallel import ordered_map

_MC_CHUNK = 10_000
_SLAB_ROWS = 8192


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

    @cached_property
    def _next_state_cdf(self) -> np.ndarray:
        """The compared columns (see ``_compared_columns``) of the cumulative
        transition rows as one read-only (S*J, S-1) array, row s*J + j for
        state s and joint action j, each row divided by its last entry as
        ``Generator.choice`` divides it. Built once per game, on first use."""
        cdf = np.cumsum(self.transitions, axis=2).reshape(-1, self.num_states)
        cdf = np.ascontiguousarray((cdf / cdf[:, -1:])[:, :-1])
        cdf.setflags(write=False)
        return cdf

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

    A table may carry leading stack axes, shape (..., num_states,
    num_actions_i): ``joint_probs`` and ``fair_objective`` then broadcast
    the agents' stack axes and treat each profile of the stack as a
    single-profile call treats it, bit for bit. The other consumers take
    unstacked tables.

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
        """Action probabilities for one agent, shape (..., num_states, num_actions)."""
        return _softmax(self.logits[agent])

    def joint_probs(self) -> np.ndarray:
        """Joint action probabilities per state, shape (..., num_states,
        prod(actions)), the stack axes of the agents' tables broadcast."""
        result = self.probs(0)
        for agent in range(1, self.num_agents):
            result = result[..., :, None] * self.probs(agent)[..., None, :]
            result = result.reshape(result.shape[:-2] + (-1,))
        return result

    def copy(self) -> "SoftmaxPolicyProfile":
        return SoftmaxPolicyProfile([l.copy() for l in self.logits], self.version)


@dataclass(frozen=True)
class ValueBundle:
    """Exact V and Q tables for one policy profile."""

    state_values: np.ndarray  # (num_agents, num_states)
    action_values: np.ndarray  # (num_agents, num_states, num_joint_actions)


@dataclass(frozen=True)
class AltruismWeights:
    """Altruism level alpha: coefficient c_i(j) = 1 toward self (j = i) and
    alpha toward others, applied as ``games._altruistic``."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError(f"alpha={self.alpha} outside [0, 1]")


@dataclass
class FairGradient:
    """Per-agent gradient tensors matching each logit table's shape.

    Monte Carlo estimates additionally carry per-coordinate standard errors.
    """

    per_agent: list[np.ndarray]
    std_errors: list[np.ndarray] | None = None


def _averaged_dynamics(
    game: TabularMarkovGame, joint: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P_pi (..., S, S) and r_bar (..., N, S) from joint action
    probabilities (..., S, A)."""
    p_pi = np.einsum("...sa,sat->...st", joint, game.transitions)
    r_bar = np.einsum("...sa,nsa->...ns", joint, game.rewards)
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

    ``values`` is one (N, S) table, the same N*S entries flat, or a stack of
    tables of shape (..., N, S); P_pi and r_bar are built once per call and
    every table of a stack is mapped, each as a single-table call maps it.
    """
    n, s_count = game.num_agents, game.num_states
    values = np.asarray(values, dtype=float)
    if values.ndim > 2 and values.shape[-2:] != (n, s_count):
        raise DomainError(
            f"values: a stack of tables needs shape (..., {n}, {s_count}), got {values.shape}"
        )
    values = values.reshape(values.shape[:-2] + (n, s_count))
    p_pi, r_bar = policy_averaged_dynamics(game, policies)
    return r_bar + game.discount * values @ p_pi.T


def _evaluate(
    game: TabularMarkovGame, joint: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The evaluation system I - gamma P_pi (..., S, S) and V (..., N, S)
    solving it against r_bar, from joint action probabilities (..., S, A):
    one batched solve for a stack."""
    p_pi, r_bar = _averaged_dynamics(game, joint)
    system = np.eye(game.num_states) - game.discount * p_pi
    values = np.linalg.solve(system, np.swapaxes(r_bar, -1, -2))
    return system, np.swapaxes(values, -1, -2)


def _action_values(game: TabularMarkovGame, state_values: np.ndarray) -> np.ndarray:
    """Q_i(s,a) = r_i(s,a) + gamma * P(.|s,a) . V_i, shape (N, S, A), as one
    matrix product against the (S*A, S) transition table."""
    s_count, joint_count = game.num_states, game.num_joint_actions
    flat = game.transitions.reshape(s_count * joint_count, s_count)
    continuation = (state_values @ flat.T).reshape(game.num_agents, s_count, joint_count)
    return game.rewards + game.discount * continuation


def solve_values(game: TabularMarkovGame, policies: SoftmaxPolicyProfile) -> ValueBundle:
    """Exact policy evaluation: V_i solves (I - gamma P_pi) V_i = r_bar_i,
    then Q_i(s,a) = r_i(s,a) + gamma * P(.|s,a) . V_i.
    """
    _, state_values = _evaluate(game, policies.joint_probs())
    return ValueBundle(state_values, _action_values(game, state_values))


def fair_objective(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    weights: AltruismWeights,
) -> np.ndarray:
    """Per-agent objective J_i = E_{s0~rho0}[ sum_j c_i(j) log V_j(s0) ]
    = (1 - alpha) L_i + alpha sum_j L_j with L_j = E_{s0}[log V_j(s0)],
    shape (N,), or (..., N) for a profile whose tables carry stack axes:
    one evaluation for the whole stack, each entry bit for bit that of the
    profile's own single call."""
    _, values = _evaluate(game, policies.joint_probs())
    if np.any(values <= 0.0):
        raise AssertionError("positive rewards must yield positive values")
    return _altruistic(np.log(values) @ game.initial_dist, weights.alpha)


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
    grad_i J = sum_j c_i(j) d_j(s) G_{i,j}(s, a_i), the altruistic transform
    (``games._altruistic``) of the terms d_j G_{i,j} over j.

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
        axes = tuple(k + 2 for k in range(n) if k != i)
        marginals = weighted.sum(axis=axes)  # (N, S, A_i)
        score = marginals - policies.probs(i) * state_values[:, :, None]
        terms = occupancy[:, :, None] * score  # d_j G_{i,j}, (N, S, A_i)
        grads.append(_altruistic(terms, weights.alpha, axis=0)[index])
    return FairGradient(grads)


def default_horizon(gamma: float, max_reward: float, tol: float = 1e-6) -> int:
    """Smallest horizon with gamma^T * R_max / (1 - gamma) below tol."""
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if not max_reward > 0.0:
        raise DomainError(f"max_reward must be positive, got {max_reward}")
    if gamma == 0.0:
        return 1
    bound = tol * (1.0 - gamma) / max_reward
    return max(1, math.ceil(math.log(bound) / math.log(gamma)))


def _compared_columns(cdf: np.ndarray) -> list[np.ndarray]:
    """The first K-1 columns of cumulative row distributions (..., K), each
    contiguous: the only entries ``_draw`` compares against."""
    return [np.ascontiguousarray(cdf[..., k]) for k in range(cdf.shape[-1] - 1)]


def _draw(columns: Sequence[np.ndarray], u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling: one index per uniform in ``u``, the number of
    compared columns (see ``_compared_columns``) that are <= it, each column
    broadcast to ``u``, so a column of shape (S, 1) serves n draws per row.
    This is ``bisect_right`` on the cumulative row clipped to its last index:
    a uniform equal to a cumulative value passes the action that value
    closes."""
    if not columns:
        return np.zeros(u.shape, dtype=np.int64)
    index = (u >= columns[0]).astype(np.int64)
    for column in columns[1:]:
        index += u >= column
    return index


def _check_seed(seed) -> int:
    """A seed for ``np.random.PCG64``: a nonnegative integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    return int(seed)


@dataclass(frozen=True)
class _RolloutTables:
    """What every rollout chunk of one ``mc_fair_gradient`` call reads:
    the seed, the horizon, the discount and the tables built once per call."""

    seed: int
    horizon: int
    discount: float
    action_counts: tuple[int, ...]
    probs: list[np.ndarray]  # pi_i, (S, A_i) each
    alpha: float
    policy_columns: list[list[np.ndarray]]  # (S,) each
    transition_columns: list[np.ndarray]  # (S*A,) each
    initial_columns: list[np.ndarray]  # (1,) each
    q_values: np.ndarray  # (N, S*A)
    state_values: np.ndarray  # (N, S)

    @property
    def uniforms_per_rollout(self) -> int:
        """One initial-state uniform, then one per agent and one for the
        transition at every step."""
        return 1 + self.horizon * (len(self.action_counts) + 1)


def _mc_chunk(
    chunk: tuple[int, int], tables: _RolloutTables
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One chunk of m rollouts whose uniforms start ``offset`` draws into the
    seed's PCG64 stream: per agent, the sum over the chunk's rollouts of the
    rollout gradients and of their squares, each (S, A_i).

    The chunk draws, in order, m initial-state uniforms, then per step m per
    agent and m for the transitions: the calls a serial pass over every
    chunk makes, so chunks run anywhere and in any order give its samples.
    """
    m, offset = chunk
    rng = np.random.Generator(np.random.PCG64(tables.seed))
    rng.bit_generator.advance(offset)
    counts, policy_columns = tables.action_counts, tables.policy_columns
    s_count = tables.state_values.shape[1]
    taken = [np.zeros(m * s_count * c) for c in counts]  # K_i, flat (m, S, A_i)
    row_offsets = np.arange(m) * s_count
    states = _draw(tables.initial_columns, rng.random(m))
    # 1 / V_j(s0) per rollout, fixed for the whole trajectory
    inv_v0 = 1.0 / tables.state_values[:, states]  # (N, m)
    gamma_t = 1.0
    for _ in range(tables.horizon):
        actions = [
            _draw([c.take(states) for c in columns], rng.random(m))
            for columns in policy_columns
        ]
        rows = row_offsets + states
        state_action = states  # becomes s * prod(A) + joint action, row-major
        for i, count in enumerate(counts):
            state_action = state_action * count + actions[i]
        kappa = tables.q_values.take(state_action, axis=1)  # (N, m)
        kappa *= inv_v0
        _altruistic(kappa, tables.alpha, axis=0)
        kappa *= gamma_t
        for i, count in enumerate(counts):
            # one entry per rollout, so each is added once
            np.add.at(taken[i], rows * count + actions[i], kappa[i])
        states = _draw([c.take(state_action) for c in tables.transition_columns], rng.random(m))
        gamma_t *= tables.discount
    sums = []
    for i, count in enumerate(counts):
        k_table = taken[i].reshape(m, s_count, count)
        rollout_grads = k_table - k_table.sum(axis=2, keepdims=True) * tables.probs[i]
        sums.append((rollout_grads.sum(axis=0), (rollout_grads**2).sum(axis=0)))
    return sums


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
    baseline term is applied once per chunk. Each draw gathers, per visited
    row, only the columns it compares: the first K-1 cumulative columns of
    the policy, transition and initial tables, built once per call.

    Rollouts run in chunks of ``_MC_CHUNK`` (``_mc_chunk``), each from its
    own jumped slice of the seed's PCG64 stream, on a process pool across
    the CPUs (``parallel.ordered_map``); their sums are added in chunk
    order, so the estimate is that of one serial pass, bit for bit, for
    any worker count.
    """
    if num_rollouts < 1:
        raise DomainError("num_rollouts must be at least 1")
    seed = _check_seed(seed)
    if horizon is None:
        horizon = default_horizon(game.discount, game.max_reward, truncation_tol)
    if horizon < 1:
        raise DomainError(f"horizon must be at least 1, got {horizon}")
    bundle = solve_values(game, policies)
    n, s_count, counts = game.num_agents, game.num_states, game.action_counts
    probs = [policies.probs(i) for i in range(n)]
    tables = _RolloutTables(
        seed=seed,
        horizon=horizon,
        discount=game.discount,
        action_counts=counts,
        probs=probs,
        alpha=weights.alpha,
        policy_columns=[_compared_columns(np.cumsum(p, axis=1)) for p in probs],
        transition_columns=_compared_columns(
            np.cumsum(game.transitions, axis=2).reshape(-1, s_count)
        ),
        initial_columns=_compared_columns(np.cumsum(game.initial_dist)),
        q_values=bundle.action_values.reshape(n, -1),
        state_values=bundle.state_values,
    )
    chunks = [
        (min(_MC_CHUNK, num_rollouts - done), done * tables.uniforms_per_rollout)
        for done in range(0, num_rollouts, _MC_CHUNK)
    ]
    total = [np.zeros((s_count, c)) for c in counts]
    total_sq = [np.zeros((s_count, c)) for c in counts]
    with ExitStack() as stack:
        for sums in ordered_map(stack, _mc_chunk, chunks, min_items=2, context=(tables,)):
            for i, (grad_sum, square_sum) in enumerate(sums):
                total[i] += grad_sum
                total_sq[i] += square_sum

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


def _sample_column_sums(
    tables: np.ndarray, rows: np.ndarray, center: np.ndarray | None = None
) -> np.ndarray:
    """Column sums over samples k of the gathered rows tables[rows[k]],
    flattened to one (n, S*A) matrix, or of their squared deviations from
    ``center``. Rows are gathered ``_SLAB_ROWS`` samples at a time and each
    slab is reduced over axis 0 with the running sum added into its first
    row, so every column adds its samples one after another in sample
    order: the sums of one axis-0 reduction per state of its (n, A) block,
    in rows S*A wide."""
    total = None
    for start in range(0, len(rows), _SLAB_ROWS):
        slab = tables.take(rows[start:start + _SLAB_ROWS], axis=0)
        slab = slab.reshape(len(slab), -1)
        if center is not None:
            slab -= center
            np.square(slab, out=slab)
        if total is not None:
            slab[0] += total
        total = np.add.reduce(slab, axis=0)
    return total


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
    s_count = game.num_states
    rng = np.random.default_rng(_check_seed(seed))
    f = np.array([float(baseline_fn(s)) for s in range(s_count)])
    results = []
    for i in range(game.num_agents):
        probs = policies.probs(i)  # (S, A_i)
        a_i = probs.shape[1]
        residual = float(
            np.abs(f[:, None] * (probs - probs * probs.sum(axis=1, keepdims=True))).max()
        )
        # one (S, n) block of uniforms per agent: the stream of S calls of
        # rng.random(n); actions[s, k] is the k-th draw at state s
        columns = _compared_columns(np.cumsum(probs, axis=1)[:, None, :])
        actions = _draw(columns, rng.random((s_count, num_samples)))
        # row s * A_i + a is f(s) (e_a - pi(.|s)), the sample of a draw of a at s,
        # so sample k gathers rows[k] = actions[:, k] + A_i * (0, ..., S-1)
        tables = (f[:, None, None] * (np.eye(a_i) - probs[:, None, :])).reshape(-1, a_i)
        actions += a_i * np.arange(s_count)[:, None]
        rows = np.ascontiguousarray(actions.T)  # (n, S)
        # np.mean and np.std(ddof=1)'s own steps, with the mean taken once
        mean = _sample_column_sums(tables, rows) / num_samples
        variance = _sample_column_sums(tables, rows, center=mean) / (num_samples - 1)
        mean = mean.reshape(s_count, a_i)
        se = (np.sqrt(variance) / math.sqrt(num_samples)).reshape(s_count, a_i)
        results.append(
            BaselineCheckResult(
                analytic=np.zeros((game.num_states, a_i)),
                quadrature_residual=residual,
                mc_mean=mean,
                mc_se=se,
            )
        )
    return results
