"""Sample-based training: fair multi-agent advantage actor-critic (A2C) and
clipped-surrogate PPO over tabular softmax actors and tabular TD critics,
with GAE and the initial-state-normalized fair advantage combination.
"""

import csv
import json
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, StaleBufferError
from .markov import SoftmaxPolicyProfile, _softmax
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


@dataclass
class EpisodeStats:
    """Collection-time metrics for one episode."""

    returns: np.ndarray  # undiscounted per-agent sums
    apples: np.ndarray
    has_apples: bool

    @property
    def gini(self) -> float:
        return gini(self.apples if self.has_apples else self.returns)


def collect_rollouts(
    envs: Sequence, policies: SoftmaxPolicyProfile, rng: np.random.Generator
) -> tuple[RolloutBuffer, list[EpisodeStats]]:
    """One episode of ``episode_length`` steps from every collector, in fixed
    order for determinism, into (E, T, N) arrays.

    The shared rng draws only the (E, T, N) block of action uniforms; agent
    i samples the first action whose cumulative probability exceeds its
    uniform. Each env draws its own randomness.
    """
    num_envs, length, num_agents = len(envs), envs[0].episode_length, envs[0].num_agents
    shape = (num_envs, length, num_agents)
    uniforms = rng.random(shape).tolist()
    observations = np.empty(shape, dtype=np.int64)
    actions = np.empty(shape, dtype=np.int64)
    rewards = np.empty(shape)
    next_observations = np.empty(shape, dtype=np.int64)
    cumulative: list[dict[int, list[float]]] = [{} for _ in range(num_agents)]
    stats = []
    for e, env in enumerate(envs):
        obs = env.reset()
        visited, taken, paid = [obs], [], []
        apples = np.zeros(num_agents)
        has_apples = False
        for us in uniforms[e]:
            action = []
            for i in range(num_agents):
                cum = cumulative[i].get(obs[i])
                if cum is None:
                    cum = np.cumsum(_softmax(policies.logits[i][obs[i]])).tolist()
                    cumulative[i][obs[i]] = cum
                action.append(min(bisect_right(cum, us[i]), len(cum) - 1))
            step = env.step(action)
            obs = step.observations
            visited.append(obs)
            taken.append(action)
            paid.append(step.rewards)
            if "apples" in step.info:
                has_apples = True
                apples += step.info["apples"]
        path = np.array(visited, dtype=np.int64)
        observations[e], next_observations[e] = path[:-1], path[1:]
        actions[e], rewards[e] = taken, paid
        stats.append(EpisodeStats(rewards[e].sum(axis=0), apples, has_apples))
    buffer = RolloutBuffer(observations, actions, rewards, next_observations, policies.version)
    return buffer, stats


def compute_gae(
    buffer: RolloutBuffer, critic: CriticTable, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """GAE(lambda) advantages and TD(lambda) returns, each (E, T, N).

    delta_t = r_t + gamma * V(s_{t+1}) - V(s_t), accumulated backward over
    T on (E, N) vectors. Episodes only truncate, so the final step
    bootstraps with V of its next observation. Returns are advantages + V(s_t).
    """
    num_envs, length, num_agents = buffer.observations.shape
    if num_envs == 0 or length == 0:
        raise DomainError("buffer is empty")

    def values(obs: np.ndarray) -> np.ndarray:
        return np.stack([critic.values[j][obs[..., j]] for j in range(num_agents)], axis=-1)

    v = values(buffer.observations)
    delta = buffer.rewards + gamma * values(buffer.next_observations) - v
    advantages = np.empty_like(delta)
    acc = np.zeros((num_envs, num_agents))
    for t in range(length - 1, -1, -1):
        acc = delta[:, t] + gamma * lam * acc
        advantages[:, t] = acc
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
    table: np.ndarray, obs: np.ndarray, targets: np.ndarray, lr: float
) -> float:
    """One descent step on the per-state mean squared return error.

    Each visited state's value moves by -lr * d/dV mean_(t: s_t=s)(V - R_t)^2,
    so a constant-return state contracts its error by (1 - 2 lr) per step.
    Returns the pre-update batch MSE.
    """
    mse = float(np.mean((table[obs] - targets) ** 2))
    sums = np.zeros_like(table)
    counts = np.zeros_like(table)
    np.add.at(sums, obs, targets)
    np.add.at(counts, obs, 1.0)
    visited = counts > 0
    residual = table[visited] - sums[visited] / counts[visited]
    table[visited] -= lr * 2.0 * residual
    return mse


def _entropy_rows(rows: np.ndarray) -> np.ndarray:
    logs = np.log(np.clip(rows, 1e-300, None))
    return -(rows * logs).sum(axis=1)


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
    one regression step per critic on the fixed TD(lambda) returns. With
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
    taken = np.arange(batch)
    old_log = []
    if clip is not None:
        for i in range(num_agents):
            p_taken = _softmax(policies.logits[i][obs[:, i]])[taken, actions[:, i]]
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
            grad = np.zeros_like(policies.logits[i])
            np.add.at(grad, (obs[:, i], actions[:, i]), coeff / batch)
            np.add.at(grad, obs[:, i], -(coeff[:, None] * rows) / batch)
            entropy = _entropy_rows(rows)
            if config.entropy_coef > 0.0:
                log_rows = np.log(np.clip(rows, 1e-300, None))
                ent_grad = -rows * (log_rows + entropy[:, None])
                np.add.at(grad, obs[:, i], config.entropy_coef * ent_grad / batch)
            diag["actor_loss"].append(float(actor_loss))
            diag["entropy"].append(float(entropy.mean()))
            policies.logits[i] += lr * grad
            diag["critic_loss"].append(
                _critic_regression_step(critics.values[i], obs[:, i], returns[:, i], critic_lr)
            )
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
class TrainResult:
    policies: SoftmaxPolicyProfile
    critics: CriticTable
    log_rows: list[dict]
    steps: int
    episodes: int
    floor_hits: int


def _check_finite(
    update: int,
    policies: SoftmaxPolicyProfile,
    critics: CriticTable,
    buffer: RolloutBuffer,
    diag: dict,
) -> None:
    """Raise DomainError, naming the update and agent, on the first
    non-finite logit row or critic entry the update touched, or non-finite
    diagnostic."""
    obs, _ = buffer.flat()
    for agent in range(obs.shape[1]):
        checked = {
            "logits": policies.logits[agent][obs[:, agent]],
            "critic": critics.values[agent][obs[:, agent]],
            **{name: diag[name][agent] for name in ("actor_loss", "critic_loss", "entropy")},
        }
        for name, value in checked.items():
            if not np.isfinite(value).all():
                raise DomainError(f"update {update}, agent {agent}: non-finite {name}")


def train(
    env_factory: Callable[[int], object],
    config: TrainConfig,
    log_path=None,
    snapshot_path=None,
) -> TrainResult:
    """Alternate collection over num_envs seeded collectors with on-policy
    updates until total_steps environment steps are consumed. Logs one row
    per (episode, agent); fully deterministic for a fixed config and seed.
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
    log_rows: list[dict] = []
    steps_done = 0
    episode_index = 0
    total_floor_hits = 0
    updates = 0
    while steps_done < config.total_steps:
        buffer, stats = collect_rollouts(envs, policies, rng)
        steps_done += buffer.num_steps
        diag = update(
            policies, critics, buffer, config, progress=steps_done / config.total_steps
        )
        _check_finite(updates, policies, critics, buffer, diag)
        updates += 1
        total_floor_hits += diag["floor_hits"]
        for stat in stats:
            for agent in range(num_agents):
                log_rows.append(
                    {
                        "step": steps_done,
                        "episode": episode_index,
                        "agent": agent,
                        "return": float(stat.returns[agent]),
                        "apples": float(stat.apples[agent]),
                        "gini": stat.gini,
                        "actor_loss": diag["actor_loss"][agent],
                        "critic_loss": diag["critic_loss"][agent],
                        "entropy": diag["entropy"][agent],
                        "floor_hits": diag["floor_hits"],
                    }
                )
            episode_index += 1
    if log_path is not None:
        write_log_csv(log_path, log_rows)
    if snapshot_path is not None:
        save_policy_snapshot(snapshot_path, policies)
    return TrainResult(
        policies=policies,
        critics=critics,
        log_rows=log_rows,
        steps=steps_done,
        episodes=episode_index,
        floor_hits=total_floor_hits,
    )


def write_log_csv(path, rows: list[dict]) -> None:
    """Training-log CSV with deterministic float formatting (repr)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(LOG_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row["step"],
                    row["episode"],
                    row["agent"],
                    repr(row["return"]),
                    repr(row["apples"]),
                    repr(row["gini"]),
                    repr(row["actor_loss"]),
                    repr(row["critic_loss"]),
                    repr(row["entropy"]),
                    row["floor_hits"],
                ]
            )


def save_policy_snapshot(path, policies: SoftmaxPolicyProfile) -> None:
    """Policy snapshot: a JSON array of per-agent logit matrices."""
    data = [logits.tolist() for logits in policies.logits]
    Path(path).write_text(json.dumps(data))

