"""Sample-based training: fair multi-agent advantage actor-critic (A2C) and
clipped-surrogate PPO over tabular softmax actors and tabular TD critics,
with GAE and the initial-state-normalized fair advantage combination.
"""

import json
import math
from contextlib import ExitStack
from dataclasses import dataclass, fields
from enum import Enum
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np

from .envs import _lockstep
from .errors import DomainError, StaleBufferError, check_fields
from .games import _altruistic
from .markov import SoftmaxPolicyProfile, _compared_columns, _draw, _softmax
from .metrics import LOG_COLUMNS, gini
from .parallel import ordered_map, usable_cpus


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
    uniform. The tables are stacked into their action groups (``_grouped``)
    and collected by ``_collector``: single-state envs are neither reset nor
    stepped, their rewards read from each env's ``joint_rewards`` table;
    other envs are reset and stepped in lockstep as one batch (see
    ``envs._lockstep``), each drawing its own randomness from its own
    generator, without calling their ``step`` methods.
    """
    return _rollouts(envs, _grouped(policies.logits), policies.version, rng)


def _rollouts(envs: Sequence, groups: list, version: int, rng: np.random.Generator) -> tuple:
    """``collect_rollouts`` from a profile's stacked ``groups``, at ``version``."""
    num_envs, length, num_agents = len(envs), envs[0].episode_length, envs[0].num_agents
    uniforms = rng.random((num_envs, length, num_agents))
    *arrays, apples = _collector(envs)(groups, uniforms[None])  # one run
    buffer = RolloutBuffer(*arrays, version)
    return buffer, buffer.rewards.sum(axis=1), apples


def _action_groups(action_counts: Sequence[int]) -> list[list[int]]:
    """The agents grouped by action count, each group in agent order and the
    groups in order of their first agent."""
    groups: dict[int, list[int]] = {}
    for i, count in enumerate(action_counts):
        groups.setdefault(count, []).append(i)
    return list(groups.values())


def _grouped(logits: Sequence[np.ndarray]) -> list[tuple]:
    """Each action group of one run's tables: its agents, a copy of their
    tables as one (n, S, A) array, table k being agent ``agents[k]``'s, and
    its ``(run, agent) = np.divmod(agents, N)`` index, built once with the
    group (``_train_batch`` builds R runs' groups the same way):
    ``x[run, :, agent]`` takes the group's (n, B) block of (R, B, N) rows."""
    counts, n = [table.shape[-1] for table in logits], len(logits)
    return [(a, np.stack([logits[i] for i in a]), np.divmod(a, n)) for a in _action_groups(counts)]


def _collector(envs: Sequence) -> Callable[[list, np.ndarray], tuple]:
    """The collector of R runs' envs side by side, built once per batch (it
    stacks single-state envs' reward tables once): ``envs`` holds each
    run's E envs in run order, run r's env e being row r*E + e of every
    (R*E, T, N) array. Called with ``groups``, the action groups of the
    R*N agents, run r's agent i being agent r*N + i (``_grouped``), which
    reads column i of run r's rows, and the (R, E, T, N) ``uniforms``, run
    r's in ``uniforms[r]``, it collects one episode of every env and
    returns the (R*E, T, N) observations, actions, rewards and next
    observations, and the (R*E, N) apples harvested or None. A run's rows
    equal what it would collect alone."""
    if all(env.num_states == 1 for env in envs):
        return partial(_collect_single_state, np.stack([env.joint_rewards for env in envs]))
    return partial(_collect_lockstep, envs)


def _collect_lockstep(envs: Sequence, groups: list, uniforms: np.ndarray) -> tuple:
    """``_collector`` for multi-state envs, all R*E stepped together as the
    rows of one batch. At each step the agents of one action group sample
    their (E,) actions as one stack: their ``(run, agent)`` index gathers
    the (n, E) observations of their runs' rows, one index into the
    group's (n, S, A) array the logit rows, and one ``markov._draw`` counts
    the compared columns of the cumulative softmax rows (row for row,
    ``bisect_right`` clipped to the last action)."""
    runs, num_envs, length, num_agents = uniforms.shape
    shape = (runs * num_envs, length, num_agents)
    stacks = [(tables, np.arange(len(agents))[:, None], index) for agents, tables, index in groups]
    path = np.empty((shape[0], length + 1, num_agents), dtype=np.int64)
    actions = np.empty(shape, dtype=np.int64)
    rewards = np.empty(shape)
    apples = None
    with _lockstep(envs) as batch:
        path[:, 0] = batch.observations()
        for t in range(length):
            observed, drawn = (a[:, t].reshape(runs, num_envs, num_agents) for a in (path, actions))
            u = uniforms[:, :, t]
            for tables, slots, (run, agent) in stacks:
                cum = np.cumsum(_softmax(tables[slots, observed[run, :, agent]]), axis=-1)
                drawn[run, :, agent] = _draw(list(cum.transpose(2, 0, 1)[:-1]), u[run, :, agent])
            path[:, t + 1], rewards[:, t], harvests = batch.step(actions[:, t])
            if harvests is not None:
                apples = harvests if apples is None else apples + harvests
    observations = np.ascontiguousarray(path[:, :-1])
    next_observations = np.ascontiguousarray(path[:, 1:])
    apples = None if apples is None else apples.astype(float)
    return observations, actions, rewards, next_observations, apples


def _collect_single_state(tables: np.ndarray, groups: list, uniforms: np.ndarray) -> tuple:
    """``_collector`` for envs whose only observation is 0, ``tables``
    holding the R*E envs' (A_1, ..., A_N, N) joint reward tables stacked:
    the agents of one action group sample their (n, E*T) actions with one
    ``markov._draw`` on the cumulative softmax of their group's row-0 view
    (``bisect_right`` clipped to the last action), and the rewards are one
    gather by row and flat (row-major) joint action. Such envs report no
    apples."""
    runs, num_envs, length, num_agents = uniforms.shape
    rows, (*counts, _) = runs * num_envs, tables.shape[1:]
    actions = np.empty((rows, length, num_agents), dtype=np.int64)
    drawn, u = (a.reshape(runs, -1, num_agents) for a in (actions, uniforms))  # (R, E*T, N)
    for _, logits, (run, agent) in groups:
        columns = _compared_columns(np.cumsum(_softmax(logits[:, :1]), axis=-1))
        drawn[run, :, agent] = _draw(columns, u[run, :, agent])
    strides = np.cumprod([1, *counts[:0:-1]])[::-1]
    rewards = tables.reshape(rows, -1, num_agents)[np.arange(rows)[:, None], actions @ strides]
    zeros = np.zeros(actions.shape, dtype=np.int64)
    return zeros, actions, rewards, zeros.copy(), None


@lru_cache(maxsize=16)
def _critic_rows(runs: int, rows: int, num_agents: int) -> np.ndarray:
    """The (rows, 1, N) critic row that each entry of ``runs`` runs' (R*E,
    T, N) rows reads from their (R*N, S) critic: row r*E + e, agent i reads
    critic row r*N + i. Read-only, and built once per shape (each update of
    a batch reads it twice). Raises DomainError unless the rows split
    evenly into the runs."""
    if runs < 1 or rows % runs:
        raise DomainError(f"{rows} buffer rows do not split evenly into {runs} runs")
    run = np.arange(rows) // (rows // runs)
    index = (run * num_agents)[:, None, None] + np.arange(num_agents)
    index.flags.writeable = False
    return index


def compute_gae(
    buffer: RolloutBuffer, critic: np.ndarray, gamma: float, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """GAE(lambda) advantages and TD(lambda) returns, each (E, T, N), from
    the (N, S) critic, whose entry [j, s] is agent j's value of state s. A
    buffer of R runs' (R*E, T, N) rows takes their (R*N, S) critic, run r's
    env e and agent i reading critic row r*N + i; R is the critic's rows
    over N, and a critic that is not N rows per run, or an R that does not
    divide the buffer's rows, raises DomainError.

    delta_t = r_t + gamma * V(s_{t+1}) - V(s_t), accumulated backward over
    T as acc = delta_t + (gamma * lam) * acc from acc = 0.0, for all (row,
    agent) entries at once: the deltas are laid out time-major as
    contiguous (T, E*N) rows, and each step is one ``np.add`` and one
    ``np.multiply`` into preallocated rows, the float64 operations of the
    scalar recursion in its order, so the result is exact (a -0.0 delta at
    the last step gives +0.0, as 0.0 added to it does). Episodes only
    truncate, so the final step bootstraps with V of its next observation.
    Returns are advantages + V(s_t).
    """
    rows, length, num_agents = buffer.observations.shape
    if rows == 0 or length == 0:
        raise DomainError("buffer is empty")
    runs, extra = divmod(len(critic), num_agents)
    if extra or not runs:
        raise DomainError(f"a critic of {len(critic)} rows is not {num_agents} rows per run")
    critic_rows = _critic_rows(runs, rows, num_agents)
    v = critic[critic_rows, buffer.observations]
    delta = buffer.rewards + gamma * critic[critic_rows, buffer.next_observations] - v
    steps = np.ascontiguousarray(delta.transpose(1, 0, 2)).reshape(length, -1)
    backward = np.empty_like(steps)
    decay = np.full(steps.shape[1], gamma * lam)  # a row, so no call converts a scalar
    carried = np.zeros(steps.shape[1])  # decay * acc of the step after
    for step, acc in zip(steps[::-1], backward[::-1]):
        np.add(step, carried, acc)
        np.multiply(acc, decay, carried)
    advantages = np.ascontiguousarray(backward.reshape(length, rows, -1).transpose(1, 0, 2))
    return advantages, advantages + v


def combine_fair_advantages(
    advantages: np.ndarray, critic: np.ndarray, buffer: RolloutBuffer,
    alphas: Sequence[float], v_floor: float, utilitarian: bool | Sequence[bool] = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Fair advantages A^F_{i,t} = sum_j c_i(j) A_{j,t} / max(V_j(s0),
    v_floor) of R runs side by side: the (R*E, T, N) advantages and the
    buffer hold run r's env e in row r*E + e, and the (R*N, S) critic run
    r's agent i in row r*N + i. Run r's c_i(j) is 1 for j == i and
    ``alphas[r]`` otherwise, and V_j(s0) is the critic's entry for agent
    j's initial observation of each episode. A utilitarian run
    (``utilitarian``: one bool per run, or one for all) ascends
    sum_j A_{j,t} instead: the alpha = 1 combination of its advantages
    unscaled (denominator 1, no floor hits), whatever its alpha.

    Returns the (R, E, T, N) combined advantages, block r being run r's, and
    the (R,) counts of floored (episode, agent) denominators. One division
    serves all runs, and the transform (``games._altruistic``) takes each
    run's alpha elementwise, so every run's block is that of a lone run."""
    rows, length, num_agents = advantages.shape
    runs = len(alphas)
    utilitarian = np.reshape(utilitarian, (-1, 1, 1, 1))
    critic_rows = _critic_rows(runs, rows, num_agents)[:, 0]
    v0 = critic[critic_rows, buffer.observations[:, 0]].reshape(runs, -1, 1, num_agents)
    floor_hits = ((v0 < v_floor) & ~utilitarian).sum(axis=(1, 2, 3))
    v0 = np.where(utilitarian, 1.0, np.maximum(v0, v_floor))
    alphas = np.where(utilitarian, 1.0, np.reshape(alphas, (-1, 1, 1, 1)))
    scaled = advantages.reshape(runs, -1, length, num_agents) / v0
    return _altruistic(scaled, alphas), floor_hits


def _combined_advantages(
    advantages: np.ndarray, critic: np.ndarray, buffer: RolloutBuffer,
    configs: Sequence[TrainConfig],
) -> tuple[np.ndarray, list[int]]:
    """The configured combination of R runs' (R*E, T, N) advantages as
    (R, E*T, N), block r being run r's rows in the order of
    ``buffer.flat()``, and each run's floor hits: one
    ``combine_fair_advantages`` call for all runs, utilitarian or not.
    Normalization reduces axis 1 of the (R, E*T, N) block, which adds each
    run's columns in the order a lone run's (E*T, N) block adds them."""
    combined, floor_hits = combine_fair_advantages(
        advantages, critic, buffer, [c.alpha for c in configs], configs[0].v_floor,
        [c.objective is ObjectiveMode.UTILITARIAN_WELFARE for c in configs],
    )
    combined = combined.reshape(len(configs), -1, advantages.shape[2])
    if configs[0].normalize_advantages:
        centered = combined - combined.mean(axis=1, keepdims=True)
        combined = centered / (centered.std(axis=1, keepdims=True) + 1e-8)
    return combined, floor_hits.tolist()


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


class _RowPlan:
    """The rows one action group's update visits, and the indexes built from
    them. The group's (n, S, A) array is seen as (n*S, A), row k*S + s being
    agent ``agents[k]``'s row s, and its agents' B samples each lie
    agent-major along one (n*B,) axis, agent r*N + i taking its samples
    from column i of run r's rows. One ``np.unique`` of the keys
    ``k * S + obs`` of the (n, B) observations ``obs`` gives the visited
    ``rows``, the index that reads and writes them; ``inverse`` places each
    sample among them and ``counts`` counts their samples, ``row_agents``
    names each row's agent, and ``critic_index`` indexes the same entries of
    the critic. ``starts`` is each sample's first flat entry of the stacked
    (rows, actions) tables, and ``per_row`` its whole row laid out
    (actions, samples). A plan depends on the observations alone, so a batch
    keeps one per group and rebuilds it only when they change
    (``_row_plans``)."""

    def __init__(self, agents: list[int], num_states: int, width: int, obs: np.ndarray):
        self.obs = obs
        keys = obs + np.arange(0, len(agents) * num_states, num_states)[:, None]
        self.rows, self.inverse = np.unique(keys.ravel(), return_inverse=True)
        self.counts = np.bincount(self.inverse, minlength=len(self.rows))
        self.row_agents = np.asarray(agents)[self.rows // num_states]
        self.critic_index = (self.row_agents, self.rows % num_states)
        self.starts = self.inverse * width
        self.per_row = (self.starts + np.arange(width)[:, None]).ravel()


def _row_plans(plans: list, groups: list, obs: np.ndarray) -> None:
    """Bring ``plans``, one slot per action group (None before the first
    update), up to date with an update's (R, B, N) observations, run r's
    agent i in ``obs[r, :, i]``: a group's (n, B) observations are one
    ``(run, agent)`` index, and its plan is rebuilt only when they differ
    from those it was built from."""
    for k, (agents, tables, (run, agent)) in enumerate(groups):
        group_obs = obs[run, :, agent]
        if plans[k] is None or not np.array_equal(plans[k].obs, group_obs):
            plans[k] = _RowPlan(agents, *tables.shape[1:], group_obs)


class _AgentStack:
    """The agents of one action group, stacked for one update: their (n, S,
    A) array seen as (n*S, A) ``tables``, the group's ``_RowPlan``, and their
    (n, B) fair advantages, returns and taken actions, gathered by one
    ``(run, agent)`` index from (R, B, N) arrays."""

    def __init__(
        self, group: tuple, plan: _RowPlan, actions: np.ndarray, fair: np.ndarray,
        returns: np.ndarray, entropy_coef: float,
    ):
        agents, tables, (run, agent) = group
        count, num_states, width = tables.shape
        self.tables = tables.reshape(count * num_states, width)
        self.agents = agents
        self.plan = plan
        self.weights = fair[run, :, agent].ravel()
        self.targets = returns[run, :, agent]
        self.entropy_coef = entropy_coef
        # flat entries of the stacked (rows, actions) tables: each sample's
        # taken action, then its whole row once per per-row gradient term
        self.taken = plan.starts + actions[run, :, agent].ravel()
        terms = [self.taken, plan.per_row] + ([plan.per_row] if entropy_coef > 0.0 else [])
        self.entries = np.concatenate(terms)

    def taken_probs(self) -> np.ndarray:
        """The (n, B) probabilities the current policies give the taken
        actions."""
        probs = _softmax(self.tables[self.plan.rows]).ravel()[self.taken]
        return probs.reshape(len(self.agents), -1)

    def step(
        self, critics: np.ndarray, lr: float, critic_lr: float, clip: float | None,
        old_log: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One epoch's actor and critic steps for the stacked agents, written
        back to their tables. Returns the (3, n) actor losses, critic losses
        and mean entropies, and the stepped logit rows and critic entries."""
        plan, batch = self.plan, self.targets.shape[1]
        logits = self.tables[plan.rows]
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
        sample_probs = probs.ravel()[plan.per_row].reshape(-1, len(w))
        terms = [coeff / batch, (-(coeff * sample_probs) / batch).ravel()]
        if self.entropy_coef > 0.0:
            ent_grad = -probs * (log_probs + entropy[:, None])
            terms.append((self.entropy_coef * ent_grad / batch).ravel()[plan.per_row])
        grad = np.bincount(self.entries, np.concatenate(terms), logits.size)
        logits = logits + lr * grad.reshape(logits.shape)
        self.tables[plan.rows] = logits
        values, squared = _critic_regression_step(
            critics[plan.critic_index], self.targets, critic_lr, plan.inverse, plan.counts
        )
        critics[plan.critic_index] = values
        # each agent's three per-sample rows, summed over B at once; negation
        # is exact, so -surrogate sums to minus the surrogate's sum
        per_sample = np.concatenate([-surrogate, squared.ravel(), entropy[plan.inverse]])
        return per_sample.reshape(3, -1, batch).sum(axis=2) / batch, logits, values


def _policy_gradient_update(
    policies: SoftmaxPolicyProfile, groups: list, critics: np.ndarray, buffer: RolloutBuffer,
    configs: Sequence[TrainConfig], progress: float, epochs: int, clip: float | None,
    plans: list | None = None,
) -> list[dict]:
    """The fair policy-gradient core shared by A2C and PPO, for R runs side
    by side: run r's agent i is agent r*N + i of the (n, S, A) action-group
    arrays ``groups`` (``_grouped``), which the update reads and writes, and
    of the (R*N, S) critic, and it reads column i of run r's rows r*E to
    r*E + E - 1 of the (R*E, T, N) buffer. ``configs`` holds each
    run's config; the runs may differ only in alpha and objective. Each
    epoch steps ``policies.version``. ``plans`` holds one ``_RowPlan`` slot
    per group, which the update brings up to date (``_row_plans``), so a
    caller that passes the same list to every update builds a group's plan
    only when its observations change; by default the update builds fresh
    ones.

    Each of ``epochs`` passes ascends, per actor, the score-function step on
    the fixed fair advantages A^F (plus entropy regularization), then takes
    one regression step per critic on the fixed TD(lambda) returns. Both
    touch only the rows the batch visited. With ``clip`` set, each sample's
    weight is rho * A^F, with rho the ratio of the current to the buffer's
    policy, and it is zeroed where the clipped surrogate min(rho A^F,
    clip(rho, 1-clip, 1+clip) A^F) is flat.

    GAE runs once over all rows, and the combination once over all runs
    (``_combined_advantages``). The samples, advantages and returns are seen
    as (R, E*T, N), and each action group takes its (n, E*T) blocks by one
    ``(run, agent)`` index and each pass as one stacked batch
    (``_AgentStack``): one index reads and writes
    its logit rows, another its critic entries; the softmax, its logs and
    the entropy are taken once per row; its actor gradient is one
    ``np.bincount`` over the taken-action terms, then the -coeff * pi terms,
    then the entropy terms, each in sample order, so every entry adds its
    samples in the order of three per-sample scatters. The critic sums are
    one ``np.bincount`` too. So each run's numbers are its own, bit for bit.

    Returns one diagnostics dict per run. Raises DomainError naming the
    lowest faulty agent by its index in its run: under PPO, before any
    table is touched, an agent whose buffer policy gives a taken action
    zero probability; after the update, one left with a non-finite logit
    or critic entry in a row it touched, or a non-finite diagnostic (see
    ``_non_finite``). With one run, that is the error the run raises
    alone. Raises StaleBufferError on an off-policy buffer.
    """
    if buffer.policy_version != policies.version:
        raise StaleBufferError(
            f"buffer from policy version {buffer.policy_version}, "
            f"policies at {policies.version}"
        )
    config = configs[0]  # for the fields every run shares
    lr = config.learning_rate_at(progress)
    critic_lr = config.critic_lr_at(progress)
    advantages, returns = compute_gae(buffer, critics, config.gamma, config.gae_lambda)
    combined, floor_hits = _combined_advantages(advantages, critics, buffer, configs)
    runs, _, num_agents = combined.shape
    obs, actions, returns = (x.reshape(combined.shape) for x in (*buffer.flat(), returns))
    plans = [None] * len(groups) if plans is None else plans
    _row_plans(plans, groups, obs)
    stacks = [
        _AgentStack(group, plan, actions, combined, returns, config.entropy_coef)
        for group, plan in zip(groups, plans)
    ]
    old_log = [None] * len(stacks)
    if clip is not None:
        taken = [stack.taken_probs() for stack in stacks]
        _raise_lowest({
            i: f"the current policy assigns zero probability to {int(np.sum(p <= 0.0))} "
            "taken action(s) in the buffer"
            for stack, block in zip(stacks, taken)
            for i, p in zip(stack.agents, block)
            if not np.all(p > 0.0)
        }, num_agents)
        old_log = [np.log(block).ravel() for block in taken]

    losses = np.empty((3, runs * num_agents))  # actor loss, critic loss, entropy
    for _ in range(epochs):
        touched = []
        for stack, old in zip(stacks, old_log):
            losses[:, stack.agents], logits, values = stack.step(critics, lr, critic_lr, clip, old)
            touched.append((stack.plan.row_agents, logits, values))
        policies.version += 1
    faults = _non_finite(touched, losses)
    _raise_lowest({i: f"non-finite {name}" for i, name in faults.items()}, num_agents)
    per_run = losses.reshape(3, runs, num_agents).transpose(1, 0, 2).tolist()
    names = ("actor_loss", "critic_loss", "entropy")
    return [{"floor_hits": hits, **dict(zip(names, run))} for hits, run in zip(floor_hits, per_run)]


def _raise_lowest(faults: dict[int, str], num_agents: int) -> None:
    """Raise the DomainError naming the lowest agent r*N + i in ``faults``
    (which maps each faulty agent to its fault) by its index i in its run;
    return if there is none."""
    if faults:
        agent = min(faults)
        raise DomainError(f"agent {agent % num_agents}: {faults[agent]}")


def _non_finite(touched: list[tuple], losses: np.ndarray) -> dict[int, str]:
    """Each agent with a non-finite value, mapped to the name of its first
    one among, in this order, its touched logit rows, its touched critic
    entries, and its actor loss, critic loss and entropy (the rows of
    ``losses``, one column per agent). ``touched`` holds per stack the
    agent of each stepped row, and the stepped logit rows and critic
    entries: each stacked array is one check, and the rows' agents are
    looked up only when it fails."""
    faults = {}
    for row_agents, *arrays in touched:
        for name, stacked in zip(("logits", "critic"), arrays):
            if not np.isfinite(stacked).all():
                finite = np.isfinite(stacked).reshape(len(row_agents), -1).all(axis=1)
                for agent in row_agents[~finite].tolist():
                    faults.setdefault(agent, name)
    if not np.isfinite(losses).all():
        for agent, values in enumerate(losses.T.tolist()):
            for name, value in zip(("actor_loss", "critic_loss", "entropy"), values):
                if not math.isfinite(value):
                    faults.setdefault(agent, name)
                    break
    return faults


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
    return _update_profile(policies, critics, buffer, config, progress, 1, None)


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
    epochs, clip = config.ppo_epochs, config.ppo_clip
    return _update_profile(policies, critics, buffer, config, progress, epochs, clip)


def _update_profile(
    policies: SoftmaxPolicyProfile, critics: np.ndarray, buffer: RolloutBuffer,
    config: TrainConfig, progress: float, epochs: int, clip: float | None,
) -> dict:
    """The core on one run's profile, stacked into its action groups and
    copied back after the update, also when it raises."""
    groups = _grouped(policies.logits)
    try:
        (diagnostics,) = _policy_gradient_update(
            policies, groups, critics, buffer, [config], progress, epochs, clip
        )
    finally:
        for agents, tables, _ in groups:
            for i, table in zip(agents, tables):
                policies.logits[i][...] = table
    return diagnostics


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
    deterministic for a fixed config and seed. This is the one-run batch of
    ``_train_batch``.
    Raises DomainError, naming the update and agent, at the first update
    that fails, such as one that leaves a non-finite value, and the Gini's
    DomainError at the first episode block it refuses.
    """
    (result,) = _train_batch(env_factory, [config])
    return result


# A batch holds consecutive runs only while their logit tables total at most
# this many entries (8 MB of float64): one shipped mini-CleanUp run's tables
# hold 2.4M entries, so such runs train one per batch, in one run's memory.
_BATCH_TABLE_ENTRIES = 1 << 20

# the TrainConfig fields in which the runs of one batch may differ
_RUN_FIELDS = ("alpha", "objective", "seed")


def _runs_per_batch(env) -> int:
    """How many runs on ``env`` one batch holds under the table cap: at
    least one."""
    return max(1, _BATCH_TABLE_ENTRIES // (env.num_states * sum(env.action_counts)))


class _Run:
    """One run of a batch: its config, its num_envs seeded envs, its shared
    rng and its episode table. The seeding is that of ``train``, and the
    batch draws the run's initial tables from its rng before anything else.
    A batch either raises or completes all ceil(total_steps / (E*T))
    updates, so the table is allocated whole and update u writes rows u*E
    to u*E + E - 1 (and row u of its diagnostics)."""

    def __init__(self, env_factory: Callable[[int], object], config: TrainConfig):
        children = np.random.SeedSequence(config.seed).spawn(config.num_envs + 1)
        self.envs = [
            env_factory(int(children[k].generate_state(1)[0]))
            for k in range(config.num_envs)
        ]
        self.rng = np.random.default_rng(children[-1])
        env = self.envs[0]
        self.config = config
        batch = config.num_envs * env.episode_length
        updates = -(-config.total_steps // batch)
        episodes, per_agent = updates * config.num_envs, (updates, env.num_agents)
        self.table = EpisodeTable(
            step=np.repeat(np.arange(1, updates + 1, dtype=np.int64) * batch, config.num_envs),
            returns=np.empty((episodes, env.num_agents)),
            apples=np.empty((episodes, env.num_agents)),
            gini=np.empty(episodes),
            update=np.repeat(np.arange(updates, dtype=np.int64), config.num_envs),
            actor_loss=np.empty(per_agent),
            critic_loss=np.empty(per_agent),
            entropy=np.empty(per_agent),
            floor_hits=np.empty(updates, dtype=np.int64),
        )

    def record(
        self,
        update: int,
        returns: np.ndarray,
        apples: np.ndarray | float,
        gini_block: np.ndarray,
        diagnostics: dict,
    ) -> None:
        """Write update ``update``'s (E, N) returns and apples, its (E,)
        episode Gini and its diagnostics into the table."""
        table, num_envs = self.table, self.config.num_envs
        episodes = slice(update * num_envs, (update + 1) * num_envs)
        table.returns[episodes] = returns
        table.apples[episodes] = apples
        table.gini[episodes] = gini_block
        for name in ("actor_loss", "critic_loss", "entropy", "floor_hits"):
            getattr(table, name)[update] = diagnostics[name]


def _train_runs(
    env_factory: Callable[[int], object], configs: Sequence[TrainConfig]
) -> list[TrainResult | DomainError]:
    """Train R runs that differ only in alpha, objective and seed. Returns
    per run, in order, the TrainResult ``train`` returns for its config,
    bit for bit, or the DomainError ``train`` raises for it. Raises
    DomainError if the configs differ in any other field.

    The runs train as one batch (``_train_batch``). If the batch raises
    DomainError, each run trains again alone, so only a failing batch costs
    more than one pass, and a one-run batch returns its error.
    """
    first = configs[0]
    differing = [
        f.name for f in fields(TrainConfig)
        if f.name not in _RUN_FIELDS
        and any(getattr(c, f.name) != getattr(first, f.name) for c in configs)
    ]
    if differing:
        raise DomainError(f"batched runs differ in {', '.join(differing)}")
    try:
        return _train_batch(env_factory, configs)
    except DomainError as exc:
        if len(configs) == 1:
            return [exc]
    # retried after the except block, so the failed batch's tables are freed
    return [_train_runs(env_factory, [config])[0] for config in configs]


def _train_batch(
    env_factory: Callable[[int], object], configs: Sequence[TrainConfig]
) -> list[TrainResult]:
    """Train R runs that differ only in alpha, objective and seed as one
    batch: one wide problem of R*N agents, run r's agent i being agent
    r*N + i. Returns each run's TrainResult, in order; raises the first
    DomainError of any run, and with one run that is the error ``train``
    raises.

    Each run keeps its own envs, shared rng and update count. All runs'
    logit tables are one (n, S, A) array per action group, of which each
    run's result holds views. Per update, each run draws its (E, T, N)
    uniforms from its own rng, and the R blocks are stacked as (R, E, T, N),
    which the collector lays out as (R*E, T, N) rows, run r's env e in row
    r*E + e, the one layout of every array of the batch: all R*E envs are collected as one batch (``_collector``),
    and the agents of all runs are updated as one batch
    (``_policy_gradient_update``), whose error is raised as ``update U,
    ...``. The (R*N, S) critic holds run r's critic in rows r*N to
    r*N + N - 1, and one stacked ``gini`` call serves every run's episodes.
    """
    first = configs[0]
    runs = [_Run(env_factory, config) for config in configs]
    env = runs[0].envs[0]
    num_agents, length = env.num_agents, env.episode_length
    envs = [e for run in runs for e in run.envs]
    # one (n, S, A) array per action group holds every table; each run fills
    # its own in agent order from its rng, by standard_normal(out=...) and an
    # in-place scale: the bits of SoftmaxPolicyProfile.random (or .uniform's
    # zeros), with no table copied
    counts = list(env.action_counts) * len(runs)
    groups = [
        (a, np.zeros((len(a), env.num_states, counts[a[0]])), np.divmod(a, num_agents))
        for a in _action_groups(counts)
    ]
    logits = [None] * len(counts)
    for agents, tables, _ in groups:
        for i, table in zip(agents, tables):
            logits[i] = table
    if first.policy_init_scale > 0.0:
        for i, table in enumerate(logits):
            runs[i // num_agents].rng.standard_normal(out=table)
            table *= first.policy_init_scale
    profile = SoftmaxPolicyProfile(logits)
    critic = np.full((len(runs) * num_agents, env.num_states), float(first.critic_init))
    if first.algorithm is Algorithm.FAIR_MAA2C:
        epochs, clip = 1, None
    else:
        epochs, clip = first.ppo_epochs, first.ppo_clip
    agents = [slice(r * num_agents, (r + 1) * num_agents) for r in range(len(runs))]
    episodes = [slice(r * first.num_envs, (r + 1) * first.num_envs) for r in range(len(runs))]
    collect, plans = _collector(envs), [None] * len(groups)
    steps_done = update = 0
    while steps_done < first.total_steps:
        uniforms = np.stack([run.rng.random((first.num_envs, length, num_agents)) for run in runs])
        *arrays, apples = collect(groups, uniforms)
        buffer = RolloutBuffer(*arrays, profile.version)
        steps_done += first.num_envs * length  # per run: the buffer holds R runs' steps
        try:
            diagnostics = _policy_gradient_update(
                profile, groups, critic, buffer, configs,
                steps_done / first.total_steps, epochs, clip, plans,
            )
        except DomainError as exc:
            raise DomainError(f"update {update}, {exc}") from exc
        returns = buffer.rewards.sum(axis=1)
        ginis = gini(returns if apples is None else apples)
        for run, rows, diag in zip(runs, episodes, diagnostics):
            run_apples = 0.0 if apples is None else apples[rows]
            run.record(update, returns[rows], run_apples, ginis[rows], diag)
        update += 1
    return [
        TrainResult(
            policies=SoftmaxPolicyProfile(profile.logits[own], profile.version),
            critics=critic[own],
            table=run.table,
            steps=steps_done,
            episodes=len(run.table.gini),
        )
        for run, own in zip(runs, agents)
    ]


_LOG_BLOCK_EPISODES = 4096


def write_log_csv(path, table: EpisodeTable) -> None:
    """Training-log CSV: one row per (episode, agent), repeating the
    diagnostics of the update that consumed the episode. Floats are written
    as their repr, so the log is deterministic.

    The bytes are those of ``csv.writer``: ``repr`` for floats, ``str`` for
    ints and ``\\r\\n`` line ends; no cell needs quoting. Each (update,
    agent)'s diagnostics and each episode's Gini are formatted once, and the
    lines are joined and written per block of ``_LOG_BLOCK_EPISODES``
    episodes."""
    from .formats import open_fresh  # formats imports this module

    floor_hits = table.floor_hits.tolist()
    losses = zip(table.actor_loss.tolist(), table.critic_loss.tolist(), table.entropy.tolist())
    tails = [
        [f",{a!r},{c!r},{h!r},{floor_hits[update]}\r\n" for a, c, h in zip(*rows)]
        for update, rows in enumerate(losses)
    ]
    with open_fresh(path, newline="") as handle:
        handle.write(",".join(LOG_COLUMNS) + "\r\n")
        for start in range(0, len(table.gini), _LOG_BLOCK_EPISODES):
            handle.write("".join(_log_lines(table, tails, start, start + _LOG_BLOCK_EPISODES)))


def _log_lines(table: EpisodeTable, tails: list[list[str]], start: int, stop: int):
    """The log lines of episodes ``start`` to ``stop - 1``, each episode's
    Gini formatted once; ``tails[u][i]`` ends update u's agent i's lines."""
    episodes = zip(
        range(start, stop), table.step[start:stop].tolist(), table.update[start:stop].tolist(),
        table.returns[start:stop].tolist(), table.apples[start:stop].tolist(),
        table.gini[start:stop].tolist(),
    )
    for episode, step, update, returns, apples, episode_gini in episodes:
        head, middle = f"{step},{episode},", f",{episode_gini!r}"
        for agent, (r, a, tail) in enumerate(zip(returns, apples, tails[update])):
            yield f"{head}{agent},{r!r},{a!r}{middle}{tail}"


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
    there are more blocks than CPUs, ``parallel.ordered_map`` formats them
    on a process pool across the CPUs (in-process on one CPU or in a
    multiprocessing child), and memory scales with the blocks in flight
    rather than a table.
    """
    from .formats import open_fresh  # formats imports this module

    blocks = [
        logits[start : start + SNAPSHOT_BLOCK_ROWS]
        for logits in policies.logits
        for start in range(0, len(logits), SNAPSHOT_BLOCK_ROWS)
    ]
    with ExitStack() as stack:
        rows = ordered_map(stack, _json_rows, blocks, min_items=usable_cpus() + 1)
        handle = stack.enter_context(open_fresh(path))
        handle.write("[")
        for agent, logits in enumerate(policies.logits):
            handle.write(", [" if agent else "[")
            for start in range(0, len(logits), SNAPSHOT_BLOCK_ROWS):
                handle.write((", " if start else "") + next(rows))
            handle.write("]")
        handle.write("]")
