"""Sample-based training: fair multi-agent advantage actor-critic (A2C) and
clipped-surrogate PPO over tabular softmax actors and tabular TD critics,
with GAE and the initial-state-normalized fair advantage combination.
"""

import csv
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .envs import _lockstep
from .errors import DomainError, StaleBufferError, check_fields
from .markov import SoftmaxPolicyProfile, _compared_columns, _draw, _softmax
from .metrics import LOG_COLUMNS, gini


class Algorithm(str, Enum):
    FAIR_MAA2C = "FairMAA2C"
    FAIR_MAPPO = "FairMAPPO"


class ObjectiveMode(str, Enum):
    PROPORTIONAL_FAIR = "ProportionalFair"
    UTILITARIAN_WELFARE = "UtilitarianWelfare"


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run. Construction checks every
    field's type, finiteness and range, and raises one DomainError naming
    each invalid field; the config is frozen, and ``dataclasses.replace``
    derives a variant, checked the same way."""

    algorithm: Algorithm = Algorithm.FAIR_MAA2C
    alpha: float = 1.0
    learning_rate: float = 0.01
    critic_lr: float | None = None  # defaults to learning_rate; must stay < 0.5
    lr_floor: float = 1e-5
    gamma: float = 0.95
    gae_lambda: float = 0.95
    entropy_coef: float = 0.01
    ppo_clip: float = 0.2
    ppo_epochs: int = 4
    num_envs: int = 10
    total_steps: int = 100_000
    seed: int = 0
    v_floor: float = 1e-3
    critic_init: float = 0.0
    policy_init_scale: float = 0.0  # stdev of seeded random initial logits
    objective: ObjectiveMode = ObjectiveMode.PROPORTIONAL_FAIR
    normalize_advantages: bool = False

    def __post_init__(self):
        check_fields(self, (
            ("alpha", lambda c: 0.0 <= c.alpha <= 1.0, "must lie in [0, 1]"),
            ("learning_rate", lambda c: c.learning_rate > 0.0, "must be positive"),
            ("critic_lr", lambda c: c.critic_lr is None or 0.0 < c.critic_lr < 0.5,
             "must lie in (0, 0.5) for the per-state regression to contract"),
            ("critic_lr", lambda c: c.critic_lr is not None or c.learning_rate < 0.5,
             "required when learning_rate >= 0.5 (the shared rate would make the critic "
             "regression diverge)", "learning_rate"),
            ("lr_floor", lambda c: c.lr_floor > 0.0, "must be positive"),
            ("gamma", lambda c: 0.0 <= c.gamma < 1.0, "must lie in [0, 1)"),
            ("gae_lambda", lambda c: 0.0 <= c.gae_lambda <= 1.0, "must lie in [0, 1]"),
            ("entropy_coef", lambda c: c.entropy_coef >= 0.0, "must be nonnegative"),
            ("ppo_clip", lambda c: 0.0 < c.ppo_clip < 1.0, "must lie in (0, 1)"),
            ("ppo_epochs", lambda c: c.ppo_epochs >= 1, "must be at least 1"),
            ("num_envs", lambda c: c.num_envs >= 1, "must be at least 1"),
            ("total_steps", lambda c: c.total_steps >= 0, "must be nonnegative"),
            ("seed", lambda c: c.seed >= 0, "must be a nonnegative integer"),
            ("v_floor", lambda c: c.v_floor > 0.0, "must be positive"),
            ("policy_init_scale", lambda c: c.policy_init_scale >= 0.0, "must be nonnegative"),
        ))

    def learning_rate_at(self, progress: float) -> float:
        """Linear decay from the initial rate to the floor over total_steps."""
        frac = min(max(progress, 0.0), 1.0)
        return self.learning_rate + (self.lr_floor - self.learning_rate) * frac

    def critic_lr_at(self, progress: float) -> float:
        base = self.learning_rate if self.critic_lr is None else self.critic_lr
        frac = min(max(progress, 0.0), 1.0)
        return base + (min(self.lr_floor, base) - base) * frac


@dataclass
class RolloutBuffer:
    """One truncated episode per collector under one policy version, as
    (E, T, N) arrays: E episodes of T steps for N agents. Episodes truncate
    after T steps and never terminate, so ``observations[:, t + 1]`` equals
    ``next_observations[:, t]``."""

    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_observations: np.ndarray
    policy_version: int

    def __post_init__(self):
        if not np.all(self.rewards > 0.0):
            raise DomainError("rollout rewards must be strictly positive")

    @property
    def num_steps(self) -> int:
        return self.rewards.shape[0] * self.rewards.shape[1]

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """(observations, actions), each (E*T, N) in episode-major order."""
        num_agents = self.observations.shape[2]
        return (
            self.observations.reshape(-1, num_agents),
            self.actions.reshape(-1, num_agents),
        )


def collect_rollouts(
    envs: Sequence, policies: SoftmaxPolicyProfile, rng: np.random.Generator
) -> tuple[RolloutBuffer, np.ndarray, np.ndarray | None]:
    """One episode of ``episode_length`` steps from every collector, in fixed
    order for determinism, into (E, T, N) arrays.

    Returns the buffer and two (E, N) per-episode blocks: the undiscounted
    per-agent returns, and the apples harvested. The apples block is None
    when the envs report none (they come from one factory, so all report
    apples or none do).

    The shared rng draws only the (E, T, N) block of action uniforms; agent
    i samples the first action whose cumulative probability exceeds its
    uniform. There are two paths. When every env has a single state,
    nothing an action does can change an observation, so the whole block is
    sampled at once and its rewards are read from each env's
    ``joint_rewards`` table; those envs are neither reset nor stepped.
    Otherwise every env is reset and the E envs are stepped in lockstep as
    one batch (see ``envs._lockstep``), each drawing its own randomness from
    its own generator; their ``step`` methods are not called.
    """
    num_envs, length, num_agents = len(envs), envs[0].episode_length, envs[0].num_agents
    uniforms = rng.random((num_envs, length, num_agents))
    if all(env.num_states == 1 for env in envs):
        return _collect_single_state(envs, policies, uniforms)
    return _collect_lockstep(envs, policies, uniforms)


def _collect_lockstep(
    envs: Sequence, policies: SoftmaxPolicyProfile, uniforms: np.ndarray
) -> tuple[RolloutBuffer, np.ndarray, np.ndarray | None]:
    """``collect_rollouts`` for multi-state envs, stepped together. At each
    step the agents with the same number of actions sample their (E,)
    actions as one stack: their E observations' logit rows are gathered,
    and one ``markov._draw`` counts the compared columns of the cumulative
    softmax rows (row for row, ``bisect_right`` clipped to the last
    action)."""
    num_envs, length, num_agents = uniforms.shape
    groups = _action_groups(policies.logits)
    path = np.empty((num_envs, length + 1, num_agents), dtype=np.int64)
    actions = np.empty(uniforms.shape, dtype=np.int64)
    rewards = np.empty(uniforms.shape)
    apples = None
    with _lockstep(envs) as batch:
        path[:, 0] = batch.observations()
        for t in range(length):
            for agents in groups:
                rows = np.stack([policies.logits[i][path[:, t, i]] for i in agents])
                cum = np.cumsum(_softmax(rows), axis=-1)
                columns = list(cum.transpose(2, 0, 1)[:-1])
                actions[:, t, agents] = _draw(columns, uniforms[:, t, agents].T).T
            path[:, t + 1], rewards[:, t], harvests = batch.step(actions[:, t])
            if harvests is not None:
                apples = harvests if apples is None else apples + harvests
    observations = np.ascontiguousarray(path[:, :-1])
    next_observations = np.ascontiguousarray(path[:, 1:])
    buffer = RolloutBuffer(observations, actions, rewards, next_observations, policies.version)
    return buffer, rewards.sum(axis=1), None if apples is None else apples.astype(float)


def _action_groups(logits: Sequence[np.ndarray]) -> list[list[int]]:
    """The agents grouped by action count, each group in agent order and the
    groups in order of their first agent: the agents that collection and the
    update core stack together."""
    groups: dict[int, list[int]] = {}
    for i, table in enumerate(logits):
        groups.setdefault(table.shape[-1], []).append(i)
    return list(groups.values())


def _collect_single_state(
    envs: Sequence, policies: SoftmaxPolicyProfile, uniforms: np.ndarray
) -> tuple[RolloutBuffer, np.ndarray, None]:
    """``collect_rollouts`` for envs whose only observation is 0: each agent
    samples its (E, T) actions with one ``markov._draw`` on its cumulative
    softmax row (``bisect_right`` clipped to the last action), and the
    (E, T, N) rewards are one gather from the stacked joint reward tables.
    Such envs report no apples."""
    num_envs, _, num_agents = uniforms.shape
    actions = np.empty(uniforms.shape, dtype=np.int64)
    for i in range(num_agents):
        columns = _compared_columns(np.cumsum(_softmax(policies.logits[i][0])))
        actions[..., i] = _draw(columns, uniforms[..., i])
    tables = np.stack([env.joint_rewards for env in envs])
    episode = np.arange(num_envs)[:, None]
    rewards = tables[(episode, *np.moveaxis(actions, -1, 0))]
    zeros = np.zeros(uniforms.shape, dtype=np.int64)
    buffer = RolloutBuffer(zeros, actions, rewards, zeros.copy(), policies.version)
    return buffer, rewards.sum(axis=1), None


def compute_gae(
    buffer: RolloutBuffer, critic: np.ndarray, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """GAE(lambda) advantages and TD(lambda) returns, each (E, T, N), from
    the (N, S) critic, whose entry [j, s] is agent j's value of state s.

    delta_t = r_t + gamma * V(s_{t+1}) - V(s_t), accumulated backward over
    T as acc = delta_t + (gamma * lam) * acc, one (env, agent) lane at a time
    over Python floats. The lanes are independent and short, so a numpy call
    per step would cost more than its arithmetic; float64 arithmetic rounds
    the same either way, so the result is exact. Episodes only truncate, so
    the final step bootstraps with V of its next observation. Returns are
    advantages + V(s_t).
    """
    num_envs, length, num_agents = buffer.observations.shape
    if num_envs == 0 or length == 0:
        raise DomainError("buffer is empty")
    agents = np.arange(num_agents)
    v = critic[agents, buffer.observations]
    delta = buffer.rewards + gamma * critic[agents, buffer.next_observations] - v
    decay = gamma * lam
    lanes = []
    for lane in delta.transpose(0, 2, 1).reshape(-1, length).tolist():
        acc = 0.0
        backward = []
        for d in reversed(lane):
            acc = d + decay * acc
            backward.append(acc)
        lanes.append(backward)
    # lanes[e * N + j] holds lane (e, j) from the last step back to the first
    advantages = np.array(lanes).reshape(num_envs, num_agents, length)[..., ::-1]
    advantages = np.ascontiguousarray(advantages.transpose(0, 2, 1))
    return advantages, advantages + v


def combine_fair_advantages(
    advantages: np.ndarray,
    critic: np.ndarray,
    buffer: RolloutBuffer,
    alpha: float,
    v_floor: float,
) -> tuple[np.ndarray, int]:
    """Fair advantage A^F_{i,t} = sum_j c_i(j) A_{j,t} / max(V_j(s0), v_floor)
    over (E, T, N) advantages, with V_j(s0) the (N, S) critic's entry for
    agent j's initial observation of each episode.

    Returns the combined (E, T, N) array and the number of floored
    (episode, agent) denominators.
    """
    num_agents = advantages.shape[-1]
    coeffs = np.full((num_agents, num_agents), alpha)
    np.fill_diagonal(coeffs, 1.0)
    v0 = critic[np.arange(num_agents), buffer.observations[:, 0]]
    floor_hits = int((v0 < v_floor).sum())
    v0 = np.maximum(v0, v_floor)
    return (advantages / v0[:, None, :]) @ coeffs.T, floor_hits


def combine_utilitarian_advantages(advantages: np.ndarray) -> np.ndarray:
    """Unnormalized utilitarian combination: every agent ascends sum_j A_{j,t}."""
    total = advantages.sum(axis=-1, keepdims=True)
    return np.repeat(total, advantages.shape[-1], axis=-1)


def _combined_advantages(
    advantages: np.ndarray,
    critic: np.ndarray,
    buffer: RolloutBuffer,
    config: TrainConfig,
) -> tuple[np.ndarray, int]:
    """The configured combination of (E, T, N) advantages, flattened to
    (E*T, N) in the order of ``buffer.flat()``."""
    if config.objective is ObjectiveMode.UTILITARIAN_WELFARE:
        combined, floor_hits = combine_utilitarian_advantages(advantages), 0
    else:
        combined, floor_hits = combine_fair_advantages(
            advantages, critic, buffer, config.alpha, config.v_floor
        )
    combined = combined.reshape(-1, combined.shape[-1])
    if config.normalize_advantages:
        centered = combined - combined.mean(axis=0, keepdims=True)
        combined = centered / (centered.std(axis=0, keepdims=True) + 1e-8)
    return combined, floor_hits


def _critic_regression_step(
    values: np.ndarray,
    targets: np.ndarray,
    lr: float,
    inverse: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One descent step on each of n agents' per-state mean squared return
    error.

    Each visited state's value moves by -lr * d/dV mean_(t: s_t=s)(V - R_t)^2,
    so a constant-return state contracts its error by (1 - 2 lr) per step.
    ``values`` holds the n agents' visited entries, stacked, and ``targets``
    their (n, B) returns; sample k of ``targets.ravel()`` sits at entry
    ``inverse[k]``, and ``counts`` is ``np.bincount(inverse)``. The
    per-entry sums are one ``np.bincount``, which adds in sample order from
    0.0 as a scatter onto zeros would. Returns the stepped entries and the
    (n, B) pre-update squared errors, whose row means are the agents' MSEs.
    """
    flat = targets.ravel()
    squared = (values[inverse] - flat) ** 2
    sums = np.bincount(inverse, weights=flat, minlength=len(values))
    return values - lr * 2.0 * (values - sums / counts), squared.reshape(targets.shape)


class _AgentStack:
    """The agents with one action count, stacked for one update. Their B
    samples each run agent-major along one (n*B,) axis, and the table rows
    the batch visited run along one stacked axis: agent by agent, each
    agent's rows sorted, as one ``np.unique`` of the agent-offset keys
    ``k * S + obs`` orders them. ``inverse`` places each sample among the
    stacked rows, and ``blocks[k]`` holds agent ``agents[k]``'s rows, which
    are rows ``visited[k]`` of its logit table; ``critic_index`` indexes
    the same entries of the (N, S) critic at once. The batch is fixed across
    epochs, so all of this is built once per update, from (N, B)
    agent-major observations, actions, fair advantages and returns."""

    def __init__(
        self,
        agents: list[int],
        tables: Sequence[np.ndarray],
        obs: np.ndarray,
        actions: np.ndarray,
        fair: np.ndarray,
        returns: np.ndarray,
        entropy_coef: float,
    ):
        span = max(len(tables[i]) for i in agents)
        offsets = np.arange(0, span * (len(agents) + 1), span)
        keys = obs[agents] + offsets[:-1, None]
        rows, self.inverse = np.unique(keys.ravel(), return_inverse=True)
        bounds = np.searchsorted(rows, offsets).tolist()
        self.agents = agents
        self.blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        self.visited = [rows[block] - offset for block, offset in zip(self.blocks, offsets)]
        self.critic_index = (np.array(agents)[rows // span], rows % span)
        self.weights = fair[agents].ravel()
        self.targets = returns[agents]
        self.counts = np.bincount(self.inverse, minlength=len(rows))
        self.entropy_coef = entropy_coef
        # flat entries of the stacked (rows, actions) tables: each sample's
        # taken action, and its whole row laid out (actions, samples)
        width = tables[agents[0]].shape[-1]
        starts = self.inverse * width
        self.taken = starts + actions[agents].ravel()
        self.per_row = (starts + np.arange(width)[:, None]).ravel()
        terms = [self.taken, self.per_row] + ([self.per_row] if entropy_coef > 0.0 else [])
        self.entries = np.concatenate(terms)

    def gather(self, tables: Sequence[np.ndarray]) -> np.ndarray:
        return np.concatenate([tables[i][v] for i, v in zip(self.agents, self.visited)])

    def scatter(self, tables: Sequence[np.ndarray], stacked: np.ndarray) -> None:
        for i, v, block in zip(self.agents, self.visited, self.blocks):
            tables[i][v] = stacked[block]

    def taken_probs(self, logits: Sequence[np.ndarray]) -> np.ndarray:
        """The (n, B) probabilities the current policies give the taken
        actions."""
        probs = _softmax(self.gather(logits)).ravel()[self.taken]
        return probs.reshape(len(self.agents), -1)

    def step(
        self,
        policies: SoftmaxPolicyProfile,
        critics: np.ndarray,
        lr: float,
        critic_lr: float,
        clip: float | None,
        old_log: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One epoch's actor and critic steps for the stacked agents, written
        back to their tables. Returns the (3, n) actor losses, critic losses
        and mean entropies, and the stepped logit rows and critic entries."""
        batch = self.targets.shape[1]
        logits = self.gather(policies.logits)
        probs = _softmax(logits)
        log_probs = np.log(np.maximum(probs, 1e-300))
        log_taken = log_probs.ravel()[self.taken]
        w = self.weights
        if clip is None:
            coeff = w
            surrogate = w * log_taken
        else:
            ratio = np.exp(log_taken - old_log)
            clipped_out = ((w > 0) & (ratio > 1.0 + clip)) | ((w < 0) & (ratio < 1.0 - clip))
            coeff = np.where(clipped_out, 0.0, ratio * w)
            surrogate = np.minimum(ratio * w, np.clip(ratio, 1.0 - clip, 1.0 + clip) * w)
        entropy = -(probs * log_probs).sum(axis=1)
        sample_probs = probs.ravel()[self.per_row].reshape(-1, len(w))
        terms = [coeff / batch, (-(coeff * sample_probs) / batch).ravel()]
        if self.entropy_coef > 0.0:
            ent_grad = -probs * (log_probs + entropy[:, None])
            terms.append((self.entropy_coef * ent_grad / batch).ravel()[self.per_row])
        grad = np.bincount(self.entries, np.concatenate(terms), logits.size)
        logits = logits + lr * grad.reshape(logits.shape)
        self.scatter(policies.logits, logits)
        values, squared = _critic_regression_step(
            critics[self.critic_index], self.targets, critic_lr, self.inverse, self.counts
        )
        critics[self.critic_index] = values
        # each agent's three per-sample rows, summed over B at once; negation
        # is exact, so -surrogate sums to minus the surrogate's sum
        per_sample = np.concatenate([-surrogate, squared.ravel(), entropy[self.inverse]])
        return per_sample.reshape(3, -1, batch).sum(axis=2) / batch, logits, values


def _policy_gradient_update(
    policies: SoftmaxPolicyProfile,
    critics: np.ndarray,
    buffer: RolloutBuffer,
    config: TrainConfig,
    progress: float,
    epochs: int,
    clip: float | None,
) -> dict:
    """The fair policy-gradient core shared by A2C and PPO.

    Each of ``epochs`` passes ascends, per actor, the score-function step on
    the fixed fair advantages A^F (plus entropy regularization), then takes
    one regression step per critic on the fixed TD(lambda) returns. Both
    touch only the rows the batch visited. With ``clip`` set, each sample's
    weight is rho * A^F, with rho the ratio of the current to the buffer's
    policy, and it is zeroed where the clipped surrogate min(rho A^F,
    clip(rho, 1-clip, 1+clip) A^F) is flat.

    The agents with one action count take each pass as one stacked batch
    (``_AgentStack``); only the logit gathers and write-backs are per agent,
    and the (N, S) critic is read and written with one index. The softmax,
    its logs and the entropy are taken once per stacked row. A stack's
    actor gradient is one ``np.bincount`` over the taken-action terms, then
    the -coeff * pi terms, then the entropy terms, each in sample order:
    every gradient entry adds its samples in the order of three per-sample
    scatters, so no sum is reordered. The critic
    sums are one ``np.bincount`` too, and each agent's losses are a row of
    an agent-major (n, B) block.

    Raises DomainError, naming the agent, if the update leaves a non-finite
    logit or critic entry in a row it touched, or a non-finite diagnostic
    (see ``_check_finite``).
    """
    if buffer.policy_version != policies.version:
        raise StaleBufferError(
            f"buffer from policy version {buffer.policy_version}, "
            f"policies at {policies.version}"
        )
    lr = config.learning_rate_at(progress)
    critic_lr = config.critic_lr_at(progress)
    obs, actions = buffer.flat()
    advantages, returns = compute_gae(buffer, critics, config.gamma, config.gae_lambda)
    fair, floor_hits = _combined_advantages(advantages, critics, buffer, config)
    num_agents = obs.shape[1]
    returns = returns.reshape(-1, num_agents)
    stacks = [
        _AgentStack(
            agents, policies.logits, obs.T, actions.T, fair.T, returns.T, config.entropy_coef
        )
        for agents in _action_groups(policies.logits)
    ]
    old_log = [None] * len(stacks)
    if clip is not None:
        taken = [stack.taken_probs(policies.logits) for stack in stacks]
        zero = {
            i: int(np.sum(p <= 0.0))
            for stack, block in zip(stacks, taken)
            for i, p in zip(stack.agents, block)
            if not np.all(p > 0.0)
        }
        if zero:
            agent = min(zero)
            raise DomainError(
                f"agent {agent}: the current policy assigns zero probability to "
                f"{zero[agent]} taken action(s) in the buffer"
            )
        old_log = [np.log(block).ravel() for block in taken]

    losses = np.empty((3, num_agents))  # actor loss, critic loss, entropy
    for _ in range(epochs):
        touched = []
        for stack, old in zip(stacks, old_log):
            losses[:, stack.agents], logits, values = stack.step(
                policies, critics, lr, critic_lr, clip, old
            )
            touched.append((stack.agents, stack.blocks, logits, values))
        policies.version += 1
    _check_finite(touched, losses)
    actor_loss, critic_loss, entropy = losses.tolist()
    return {
        "floor_hits": floor_hits,
        "actor_loss": actor_loss,
        "critic_loss": critic_loss,
        "entropy": entropy,
    }


def _check_finite(touched: list[tuple], losses: np.ndarray) -> None:
    """Raise DomainError naming the first agent with a non-finite value
    among, in this order, its touched logit rows, its touched critic
    entries, and its actor loss, critic loss and entropy (the rows of
    ``losses``, one column per agent). ``touched`` holds per stack its
    agents, their row blocks, and its stepped logit rows and critic
    entries: each stacked array is one check, and an agent's block is
    checked only when its stack's check fails."""
    faults = {}
    for agents, blocks, *arrays in touched:
        for name, stacked in zip(("logits", "critic"), arrays):
            if not np.isfinite(stacked).all():
                for agent, block in zip(agents, blocks):
                    if not np.isfinite(stacked[block]).all():
                        faults.setdefault(agent, name)
    if not faults and np.isfinite(losses).all():
        return
    for agent, values in enumerate(losses.T.tolist()):
        if agent in faults:
            raise DomainError(f"agent {agent}: non-finite {faults[agent]}")
        for name, value in zip(("actor_loss", "critic_loss", "entropy"), values):
            if not math.isfinite(value):
                raise DomainError(f"agent {agent}: non-finite {name}")


def a2c_update(
    policies: SoftmaxPolicyProfile,
    critics: np.ndarray,
    buffer: RolloutBuffer,
    config: TrainConfig,
    progress: float = 0.0,
) -> dict:
    """One fair A2C step: the shared policy-gradient core for one unclipped
    epoch, ascending E_t[A^F_{i,t} log pi_i(a_{i,t}|o_{i,t})] plus
    ``entropy_coef`` times the policy entropy per actor (advantages detached)
    and descending the squared TD-return error per critic. Requires an
    on-policy buffer. Raises DomainError, naming the agent, if the step
    leaves a non-finite value in a row it touched or a non-finite loss or
    entropy."""
    return _policy_gradient_update(
        policies, critics, buffer, config, progress, epochs=1, clip=None
    )


def ppo_update(
    policies: SoftmaxPolicyProfile,
    critics: np.ndarray,
    buffer: RolloutBuffer,
    config: TrainConfig,
    progress: float = 0.0,
) -> dict:
    """Fair PPO: the shared policy-gradient core for ppo_epochs passes of the
    clipped surrogate min(rho A^F, clip(rho, 1-eps, 1+eps) A^F) plus entropy
    regularization, with per-agent probability ratios against the buffer's
    policy. Raises DomainError, naming the agent, before any update if that
    policy gives a taken action zero probability, and after the update if it
    leaves a non-finite value in a row it touched or a non-finite loss or
    entropy."""
    return _policy_gradient_update(
        policies, critics, buffer, config, progress, config.ppo_epochs, config.ppo_clip
    )


@dataclass
class EpisodeTable:
    """A run's per-episode outcomes over E episodes, N agents and U updates.
    Update u consumed the contiguous block of episodes e with
    ``update[e] == u``; its diagnostics are kept once, in row u."""

    step: np.ndarray  # (E,) env steps consumed when the episode's update ran
    returns: np.ndarray  # (E, N) undiscounted per-agent sums
    apples: np.ndarray  # (E, N)
    gini: np.ndarray  # (E,) of apples, or of returns where the env has none
    update: np.ndarray  # (E,)
    actor_loss: np.ndarray  # (U, N)
    critic_loss: np.ndarray  # (U, N)
    entropy: np.ndarray  # (U, N)
    floor_hits: np.ndarray  # (U,)


@dataclass
class TrainResult:
    policies: SoftmaxPolicyProfile
    critics: np.ndarray  # (N, S): entry [j, s] is agent j's value of state s
    table: EpisodeTable
    steps: int
    episodes: int


def train(env_factory: Callable[[int], object], config: TrainConfig) -> TrainResult:
    """Alternate collection over num_envs seeded collectors with on-policy
    updates until total_steps environment steps are consumed. Returns the
    policies, the critic and the per-episode table (``write_log_csv`` and
    ``save_policy_snapshot`` write them out); writes no file, and is fully
    deterministic for a fixed config and seed.
    Raises DomainError, naming the update and agent, at the first update
    that fails, such as one that leaves a non-finite value.
    """
    seed_seq = np.random.SeedSequence(config.seed)
    children = seed_seq.spawn(config.num_envs + 1)
    envs = [
        env_factory(int(children[k].generate_state(1)[0]))
        for k in range(config.num_envs)
    ]
    rng = np.random.default_rng(children[-1])
    num_agents = envs[0].num_agents
    num_states = envs[0].num_states
    action_counts = envs[0].action_counts
    if config.policy_init_scale > 0.0:
        policies = SoftmaxPolicyProfile.random(
            num_states, action_counts, rng, scale=config.policy_init_scale
        )
    else:
        policies = SoftmaxPolicyProfile.uniform(num_states, action_counts)
    critics = np.full((num_agents, num_states), float(config.critic_init))

    update = a2c_update if config.algorithm is Algorithm.FAIR_MAA2C else ppo_update
    steps_done = 0
    # per-update (E, N) blocks, each list led by an empty block so that a run
    # of no updates concatenates to empty arrays
    empty = np.empty((0, num_agents))
    returns, apples, ginis = [empty], [empty], [np.empty(0)]
    update_steps, diagnostics = [], []
    while steps_done < config.total_steps:
        buffer, block_returns, block_apples = collect_rollouts(envs, policies, rng)
        steps_done += buffer.num_steps
        try:
            diag = update(
                policies, critics, buffer, config, progress=steps_done / config.total_steps
            )
        except DomainError as exc:
            raise DomainError(f"update {len(diagnostics)}, {exc}") from exc
        ginis.append(gini(block_returns if block_apples is None else block_apples))
        returns.append(block_returns)
        apples.append(np.zeros_like(block_returns) if block_apples is None else block_apples)
        update_steps.append(steps_done)
        diagnostics.append(diag)

    def per_agent(rows: list) -> np.ndarray:
        return np.array(rows, dtype=float).reshape(-1, num_agents)

    table = EpisodeTable(
        step=np.repeat(np.array(update_steps, dtype=np.int64), config.num_envs),
        returns=np.concatenate(returns),
        apples=np.concatenate(apples),
        gini=np.concatenate(ginis),
        update=np.repeat(np.arange(len(diagnostics), dtype=np.int64), config.num_envs),
        actor_loss=per_agent([diag["actor_loss"] for diag in diagnostics]),
        critic_loss=per_agent([diag["critic_loss"] for diag in diagnostics]),
        entropy=per_agent([diag["entropy"] for diag in diagnostics]),
        floor_hits=np.array([diag["floor_hits"] for diag in diagnostics], dtype=np.int64),
    )
    return TrainResult(
        policies=policies,
        critics=critics,
        table=table,
        steps=steps_done,
        episodes=len(table.gini),
    )


def write_log_csv(path, table: EpisodeTable) -> None:
    """Training-log CSV: one row per (episode, agent), repeating the
    diagnostics of the update that consumed the episode. Floats are written
    as their repr, so the log is deterministic."""
    from .formats import open_fresh  # formats imports this module

    losses = np.stack([table.actor_loss, table.critic_loss, table.entropy], axis=-1).tolist()
    floor_hits = table.floor_hits.tolist()
    episodes = zip(
        table.step.tolist(), table.update.tolist(), table.returns.tolist(),
        table.apples.tolist(), table.gini.tolist(),
    )
    with open_fresh(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LOG_COLUMNS)
        for episode, (step, update, returns, apples, episode_gini) in enumerate(episodes):
            writer.writerows(
                [step, episode, agent, returns[agent], apples[agent], episode_gini,
                 *losses[update][agent], floor_hits[update]]
                for agent in range(len(returns))
            )


SNAPSHOT_BLOCK_ROWS = 4096


def _json_rows(block: np.ndarray) -> str:
    """The JSON rows of one block of a logit table, without the enclosing
    brackets."""
    return json.dumps(block.tolist())[1:-1]


def save_policy_snapshot(path, policies: SoftmaxPolicyProfile) -> None:
    """Policy snapshot: a JSON array of per-agent logit matrices.

    Every table is cut into blocks of ``SNAPSHOT_BLOCK_ROWS`` rows, and the
    blocks are formatted and written in order, so the bytes equal
    ``json.dumps([logits.tolist() for logits in policies.logits])``. When
    there are more blocks than CPUs, a process pool formats them across the
    CPUs, and memory scales with the blocks in flight rather than a table. A
    multiprocessing child (a ``--jobs`` sweep worker, whose siblings already
    fill the CPUs) formats its blocks in-process.
    """
    from .formats import open_fresh  # formats imports this module

    blocks = [
        logits[start : start + SNAPSHOT_BLOCK_ROWS]
        for logits in policies.logits
        for start in range(0, len(logits), SNAPSHOT_BLOCK_ROWS)
    ]
    cpus = len(os.sched_getaffinity(0))
    with ExitStack() as stack:
        if len(blocks) > cpus and multiprocessing.parent_process() is None:
            rows = stack.enter_context(ProcessPoolExecutor(cpus)).map(_json_rows, blocks)
        else:
            rows = map(_json_rows, blocks)
        handle = stack.enter_context(open_fresh(path))
        handle.write("[")
        for agent, logits in enumerate(policies.logits):
            handle.write(", [" if agent else "[")
            for start in range(0, len(logits), SNAPSHOT_BLOCK_ROWS):
                handle.write((", " if start else "") + next(rows))
            handle.write("]")
        handle.write("]")
