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
from .errors import DomainError, StaleBufferError
from .markov import SoftmaxPolicyProfile, _compared_columns, _draw, _softmax
from .metrics import LOG_COLUMNS, gini


class Algorithm(str, Enum):
    FAIR_MAA2C = "FairMAA2C"
    FAIR_MAPPO = "FairMAPPO"


class ObjectiveMode(str, Enum):
    PROPORTIONAL_FAIR = "ProportionalFair"
    UTILITARIAN_WELFARE = "UtilitarianWelfare"


@dataclass
class TrainConfig:
    """Hyperparameters for one training run. ``validate()`` returns every
    violated field by name; the constructor raises on the first use of an
    invalid config."""

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

    def validate(self) -> list[str]:
        problems = []
        if not isinstance(self.algorithm, Algorithm):
            problems.append(f"algorithm: unknown value {self.algorithm!r}")
        if not isinstance(self.objective, ObjectiveMode):
            problems.append(f"objective: unknown value {self.objective!r}")
        if not 0.0 <= self.alpha <= 1.0:
            problems.append(f"alpha: {self.alpha} outside [0, 1]")
        if not self.learning_rate > 0.0:
            problems.append("learning_rate: must be positive")
        if self.critic_lr is not None and not 0.0 < self.critic_lr < 0.5:
            problems.append(
                "critic_lr: must lie in (0, 0.5) for the per-state regression to contract"
            )
        if self.critic_lr is None and self.learning_rate >= 0.5:
            problems.append(
                "critic_lr: required when learning_rate >= 0.5 (the shared rate "
                "would make the critic regression diverge)"
            )
        if not self.lr_floor > 0.0:
            problems.append("lr_floor: must be positive")
        if not 0.0 <= self.gamma < 1.0:
            problems.append(f"gamma: {self.gamma} outside [0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            problems.append(f"gae_lambda: {self.gae_lambda} outside [0, 1]")
        if self.entropy_coef < 0.0:
            problems.append("entropy_coef: must be nonnegative")
        if not 0.0 < self.ppo_clip < 1.0:
            problems.append(f"ppo_clip: {self.ppo_clip} outside (0, 1)")
        if self.ppo_epochs < 1:
            problems.append("ppo_epochs: must be at least 1")
        if self.num_envs < 1:
            problems.append("num_envs: must be at least 1")
        if self.total_steps < 0:
            problems.append("total_steps: must be nonnegative")
        if self.seed < 0:
            problems.append("seed: must be nonnegative")
        if not self.v_floor > 0.0:
            problems.append("v_floor: must be positive")
        if self.policy_init_scale < 0.0:
            problems.append("policy_init_scale: must be nonnegative")
        return problems

    def __post_init__(self):
        if isinstance(self.algorithm, str) and not isinstance(self.algorithm, Algorithm):
            self.algorithm = Algorithm(self.algorithm)
        if isinstance(self.objective, str) and not isinstance(self.objective, ObjectiveMode):
            self.objective = ObjectiveMode(self.objective)
        problems = self.validate()
        if problems:
            raise DomainError("invalid train config: " + "; ".join(problems))

    def learning_rate_at(self, progress: float) -> float:
        """Linear decay from the initial rate to the floor over total_steps."""
        frac = min(max(progress, 0.0), 1.0)
        return self.learning_rate + (self.lr_floor - self.learning_rate) * frac

    def critic_lr_at(self, progress: float) -> float:
        base = self.learning_rate if self.critic_lr is None else self.critic_lr
        frac = min(max(progress, 0.0), 1.0)
        return base + (min(self.lr_floor, base) - base) * frac


@dataclass
class CriticTable:
    """Per-agent state-value tables indexed by encoded observation."""

    values: list[np.ndarray]

    @classmethod
    def constant(cls, num_agents: int, num_states: int, value: float) -> "CriticTable":
        return cls([np.full(num_states, float(value)) for _ in range(num_agents)])

    def copy(self) -> "CriticTable":
        return CriticTable([v.copy() for v in self.values])


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
    groups: dict[int, list[int]] = {}
    for i, table in enumerate(policies.logits):
        groups.setdefault(table.shape[-1], []).append(i)
    path = np.empty((num_envs, length + 1, num_agents), dtype=np.int64)
    actions = np.empty(uniforms.shape, dtype=np.int64)
    rewards = np.empty(uniforms.shape)
    apples = None
    with _lockstep(envs) as batch:
        path[:, 0] = batch.observations()
        for t in range(length):
            for agents in groups.values():
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
    buffer: RolloutBuffer, critic: CriticTable, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """GAE(lambda) advantages and TD(lambda) returns, each (E, T, N).

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

    def values(obs: np.ndarray) -> np.ndarray:
        return np.stack([critic.values[j][obs[..., j]] for j in range(num_agents)], axis=-1)

    v = values(buffer.observations)
    delta = buffer.rewards + gamma * values(buffer.next_observations) - v
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
    critic: CriticTable,
    buffer: RolloutBuffer,
    alpha: float,
    v_floor: float,
) -> tuple[np.ndarray, int]:
    """Fair advantage A^F_{i,t} = sum_j c_i(j) A_{j,t} / max(V_j(s0), v_floor)
    over (E, T, N) advantages, with V_j(s0) the critic at agent j's initial
    observation of each episode.

    Returns the combined (E, T, N) array and the number of floored
    (episode, agent) denominators.
    """
    num_agents = advantages.shape[-1]
    coeffs = np.full((num_agents, num_agents), alpha)
    np.fill_diagonal(coeffs, 1.0)
    initial = buffer.observations[:, 0]
    v0 = np.stack([critic.values[j][initial[:, j]] for j in range(num_agents)], axis=-1)
    floor_hits = int((v0 < v_floor).sum())
    v0 = np.maximum(v0, v_floor)
    return (advantages / v0[:, None, :]) @ coeffs.T, floor_hits


def combine_utilitarian_advantages(advantages: np.ndarray) -> np.ndarray:
    """Unnormalized utilitarian combination: every agent ascends sum_j A_{j,t}."""
    total = advantages.sum(axis=-1, keepdims=True)
    return np.repeat(total, advantages.shape[-1], axis=-1)


def _combined_advantages(
    advantages: np.ndarray,
    critic: CriticTable,
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
    table: np.ndarray, targets: np.ndarray, lr: float, visited: np.ndarray, inverse: np.ndarray
) -> float:
    """One descent step on the per-state mean squared return error.

    Each visited state's value moves by -lr * d/dV mean_(t: s_t=s)(V - R_t)^2,
    so a constant-return state contracts its error by (1 - 2 lr) per step.
    ``visited, inverse = np.unique(obs, return_inverse=True)`` for the batch's
    observations: sums and counts are kept for the visited rows only, each
    one ``np.bincount``, which adds in sample order from 0.0 as a scatter
    onto zeros would. Returns the pre-update batch MSE.
    """
    values = table[visited]
    squared = (values[inverse] - targets) ** 2
    mse = float(squared.sum() / squared.size)
    sums = np.bincount(inverse, weights=targets, minlength=len(visited))
    counts = np.bincount(inverse, minlength=len(visited))
    table[visited] = values - lr * 2.0 * (values - sums / counts)
    return mse


def _policy_gradient_update(
    policies: SoftmaxPolicyProfile,
    critics: CriticTable,
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
    scatter into the rows the batch visited, not the whole table. With
    ``clip`` set, each sample's weight is rho * A^F, with rho the ratio of the
    current to the buffer's policy, and it is zeroed where the clipped
    surrogate min(rho A^F, clip(rho, 1-clip, 1+clip) A^F) is flat.
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
    batch = obs.shape[0]
    # the batch is fixed across epochs: each agent's visited rows, and each
    # sample's position among them, serve the actor and the critic alike.
    # Row-wise quantities (softmax, logs, entropy and its gradient) are
    # computed once per visited row and gathered per sample with [inverse].
    rows_of = [np.unique(obs[:, i], return_inverse=True) for i in range(num_agents)]
    old_log = []
    if clip is not None:
        for i in range(num_agents):
            visited, inverse = rows_of[i]
            p_taken = _softmax(policies.logits[i][visited])[inverse, actions[:, i]]
            if not np.all(p_taken > 0.0):
                raise DomainError(
                    f"agent {i}: the current policy assigns zero probability to "
                    f"{int(np.sum(p_taken <= 0.0))} taken action(s) in the buffer"
                )
            old_log.append(np.log(p_taken))

    diag = {"floor_hits": floor_hits}
    for _ in range(epochs):
        diag["actor_loss"], diag["critic_loss"], diag["entropy"] = [], [], []
        for i in range(num_agents):
            visited, inverse = rows_of[i]
            probs = _softmax(policies.logits[i][visited])
            log_probs = np.log(np.clip(probs, 1e-300, None))
            rows = probs[inverse]
            log_taken = log_probs[inverse, actions[:, i]]
            w = fair[:, i]
            if clip is None:
                coeff = w
                actor_loss = -((w * log_taken).sum() / batch)
            else:
                ratio = np.exp(log_taken - old_log[i])
                clipped_out = ((w > 0) & (ratio > 1.0 + clip)) | ((w < 0) & (ratio < 1.0 - clip))
                coeff = np.where(clipped_out, 0.0, ratio * w)
                surrogate = np.minimum(ratio * w, np.clip(ratio, 1.0 - clip, 1.0 + clip) * w)
                actor_loss = -(surrogate.sum() / batch)
            grad = np.zeros(probs.shape)
            np.add.at(grad, (inverse, actions[:, i]), coeff / batch)
            np.add.at(grad, inverse, -(coeff[:, None] * rows) / batch)
            entropy = -(probs * log_probs).sum(axis=1)
            if config.entropy_coef > 0.0:
                ent_grad = -probs * (log_probs + entropy[:, None])
                np.add.at(grad, inverse, (config.entropy_coef * ent_grad / batch)[inverse])
            diag["actor_loss"].append(float(actor_loss))
            diag["entropy"].append(float(entropy[inverse].sum() / batch))
            policies.logits[i][visited] += lr * grad
            critic_loss = _critic_regression_step(
                critics.values[i], returns[:, i], critic_lr, visited, inverse
            )
            diag["critic_loss"].append(critic_loss)
        policies.version += 1
    return diag


def a2c_update(
    policies: SoftmaxPolicyProfile,
    critics: CriticTable,
    buffer: RolloutBuffer,
    config: TrainConfig,
    progress: float = 0.0,
) -> dict:
    """One fair A2C step: the shared policy-gradient core for one unclipped
    epoch, ascending E_t[A^F_{i,t} log pi_i(a_{i,t}|o_{i,t})] plus
    ``entropy_coef`` times the policy entropy per actor (advantages detached)
    and descending the squared TD-return error per critic. Requires an
    on-policy buffer."""
    return _policy_gradient_update(
        policies, critics, buffer, config, progress, epochs=1, clip=None
    )


def ppo_update(
    policies: SoftmaxPolicyProfile,
    critics: CriticTable,
    buffer: RolloutBuffer,
    config: TrainConfig,
    progress: float = 0.0,
) -> dict:
    """Fair PPO: the shared policy-gradient core for ppo_epochs passes of the
    clipped surrogate min(rho A^F, clip(rho, 1-eps, 1+eps) A^F) plus entropy
    regularization, with per-agent probability ratios against the buffer's
    policy. Raises DomainError, before any update, if that policy gives a
    taken action zero probability."""
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
    critics: CriticTable
    table: EpisodeTable
    steps: int
    episodes: int


def _check_finite(
    update: int,
    policies: SoftmaxPolicyProfile,
    critics: CriticTable,
    buffer: RolloutBuffer,
    diag: dict,
) -> None:
    """Raise DomainError, naming the update and agent, on the first
    non-finite logit row or critic entry the update touched, or non-finite
    diagnostic. Each gathered table block is one array check; the
    diagnostics are Python floats."""
    obs, _ = buffer.flat()
    for agent in range(obs.shape[1]):
        for name, table in (("logits", policies.logits), ("critic", critics.values)):
            if not np.isfinite(table[agent][obs[:, agent]]).all():
                raise DomainError(f"update {update}, agent {agent}: non-finite {name}")
        for name in ("actor_loss", "critic_loss", "entropy"):
            if not math.isfinite(diag[name][agent]):
                raise DomainError(f"update {update}, agent {agent}: non-finite {name}")


def train(
    env_factory: Callable[[int], object],
    config: TrainConfig,
    log_path=None,
    snapshot_path=None,
) -> TrainResult:
    """Alternate collection over num_envs seeded collectors with on-policy
    updates until total_steps environment steps are consumed. Returns the
    per-episode table, which ``log_path`` receives as one row per (episode,
    agent); fully deterministic for a fixed config and seed.
    Raises DomainError at the first update that leaves a non-finite value.
    """
    problems = config.validate()
    if problems:
        raise DomainError("invalid train config: " + "; ".join(problems))
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
    critics = CriticTable.constant(num_agents, num_states, config.critic_init)

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
        diag = update(
            policies, critics, buffer, config, progress=steps_done / config.total_steps
        )
        _check_finite(len(diagnostics), policies, critics, buffer, diag)
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
    if log_path is not None:
        write_log_csv(log_path, table)
    if snapshot_path is not None:
        save_policy_snapshot(snapshot_path, policies)
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
