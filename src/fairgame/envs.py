"""Desk-scale social-dilemma environments behind one tabular interface:
repeated 2x2 matrix games, a mini-CleanUp gridworld with a shared polluting
river, and a random Markov game generator for property tests.

An environment exposes ``num_agents``, ``num_states`` (the per-agent
observation encoding space), ``action_counts``, ``episode_length``,
``reset(seed=None)`` returning per-agent observation indices, and
``step(actions)`` returning an EnvStep. Episodes truncate after exactly
``episode_length`` steps and never terminate early; rewards are strictly
positive.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError
from .games import DilemmaPayoffs
from .markov import TabularMarkovGame

UP, DOWN, LEFT, RIGHT, CLEAN, NOOP = range(6)
_MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}
_POLLUTION_BUCKETS = 4
_WINDOW_BITS = 9  # 3x3 local apple bitmap


@dataclass
class EnvStep:
    """One transition: next observations, strictly positive rewards, a
    truncation flag, and bookkeeping info (e.g. apples harvested)."""

    observations: tuple[int, ...]
    rewards: np.ndarray
    done: bool
    info: dict = field(default_factory=dict)


class RepeatedMatrixGameEnv:
    """Two agents repeatedly playing a symmetric 2x2 game for a fixed number
    of steps. Actions: 0 = cooperate, 1 = defect. Single state."""

    def __init__(self, payoffs: DilemmaPayoffs, episode_length: int):
        if episode_length < 1:
            raise DomainError("episode_length must be at least 1")
        self.payoffs = payoffs
        self.episode_length = episode_length
        self.num_agents = 2
        self.num_states = 1
        self.action_counts = (2, 2)
        self._t = 0

    def reset(self, seed: int | None = None) -> tuple[int, ...]:
        self._t = 0
        return (0, 0)

    def step(self, actions: Sequence[int]) -> EnvStep:
        a1, a2 = int(actions[0]), int(actions[1])
        p = self.payoffs
        table = {
            (0, 0): (p.R, p.R),
            (0, 1): (p.S, p.T),
            (1, 0): (p.T, p.S),
            (1, 1): (p.P, p.P),
        }
        self._t += 1
        return EnvStep(
            observations=(0, 0),
            rewards=np.array(table[(a1, a2)]),
            done=self._t >= self.episode_length,
        )


def repeated_matrix_env(payoffs: DilemmaPayoffs, episode_length: int) -> RepeatedMatrixGameEnv:
    return RepeatedMatrixGameEnv(payoffs, episode_length)


def matrix_markov_game(payoffs: DilemmaPayoffs, gamma: float) -> TabularMarkovGame:
    """The infinite-horizon view of a repeated 2x2 game: one state, joint
    actions (C,C), (C,D), (D,C), (D,D) in row-major order."""
    p = payoffs
    rewards = np.array(
        [
            [[p.R, p.S, p.T, p.P]],
            [[p.R, p.T, p.S, p.P]],
        ]
    )
    transitions = np.ones((1, 4, 1))
    return TabularMarkovGame(
        num_agents=2,
        num_states=1,
        action_counts=(2, 2),
        transitions=transitions,
        rewards=rewards,
        initial_dist=np.array([1.0]),
        discount=gamma,
    )


class MarkovGameEnv:
    """Episode-truncated simulator for a TabularMarkovGame; every agent
    observes the global state index."""

    def __init__(self, game: TabularMarkovGame, episode_length: int, seed: int = 0):
        if episode_length < 1:
            raise DomainError("episode_length must be at least 1")
        self.game = game
        self.episode_length = episode_length
        self.num_agents = game.num_agents
        self.num_states = game.num_states
        self.action_counts = game.action_counts
        self._rng = np.random.default_rng(seed)
        self._state = 0
        self._t = 0

    def reset(self, seed: int | None = None) -> tuple[int, ...]:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._t = 0
        self._state = int(self._rng.choice(self.num_states, p=self.game.initial_dist))
        return (self._state,) * self.num_agents

    def step(self, actions: Sequence[int]) -> EnvStep:
        joint = self.game.joint_action_index(actions)
        rewards = self.game.rewards[:, self._state, joint].copy()
        self._state = int(
            self._rng.choice(self.num_states, p=self.game.transitions[self._state, joint])
        )
        self._t += 1
        return EnvStep(
            observations=(self._state,) * self.num_agents,
            rewards=rewards,
            done=self._t >= self.episode_length,
        )


@dataclass(frozen=True)
class MiniCleanupConfig:
    """Parameters of the mini-CleanUp grid.

    The top ``river_rows`` rows are river; the rest is orchard. A global
    pollution level rises every step and is pushed down by agents executing
    CLEAN while standing in the river; apple regrowth halts whenever
    pollution reaches the threshold. ``base_reward`` keeps per-step rewards
    strictly positive.
    """

    width: int = 8
    height: int = 8
    num_agents: int = 3
    river_rows: int = 2
    regen_rate: float = 0.05
    pollution_increment: float = 0.02
    clean_amount: float = 0.15
    pollution_threshold: float = 0.6
    episode_length: int = 100
    apple_reward: float = 1.0
    base_reward: float = 0.01

    def __post_init__(self):
        """Range checks; each message starts with the offending field."""
        for name in ("width", "height", "num_agents", "episode_length"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name}: must be at least 1")
        if not 0.0 <= self.regen_rate <= 1.0:
            raise DomainError("regen_rate: must lie in [0, 1]")
        if not 0.0 < self.pollution_threshold <= 1.0:
            raise DomainError("pollution_threshold: must lie in (0, 1]")
        if not 0 <= self.river_rows <= self.height:
            raise DomainError("river_rows: must fit within the grid")
        if self.num_agents > self.width * self.height:
            raise DomainError("num_agents: more agents than grid cells")
        for name in ("base_reward", "apple_reward"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name}: must be strictly positive")


class MiniCleanupEnv:
    """Gridworld commons: harvest apples in the orchard or clean the river
    that gates apple regrowth.

    Per step, in order: simultaneous movement (CLEAN/NOOP hold position),
    pollution update (+increment, -clean_amount per cleaning agent in the
    river, clamped to [0, 1]), harvesting (lower agent index wins contested
    cells), then apple spawning on empty orchard cells with probability
    regen_rate while pollution is below the threshold. Every agent earns
    base_reward per step plus apple_reward per harvest.

    Observations encode (agent cell, pollution bucket of 4, 3x3 apple bitmap)
    as a single index.
    """

    def __init__(self, config: MiniCleanupConfig, seed: int = 0):
        self.config = config
        self.episode_length = config.episode_length
        self.num_agents = config.num_agents
        self.num_states = config.width * config.height * _POLLUTION_BUCKETS * (1 << _WINDOW_BITS)
        self.action_counts = (6,) * config.num_agents
        self._rng = np.random.default_rng(seed)
        self._positions = np.zeros((config.num_agents, 2), dtype=np.int64)
        self._apples = np.zeros((config.height, config.width), dtype=bool)
        self._pollution = 0.5
        self._t = 0
        self._spawned = 0
        self._harvested = 0

    @property
    def pollution(self) -> float:
        return self._pollution

    @property
    def apple_count(self) -> int:
        return int(self._apples.sum())

    @property
    def conservation_counts(self) -> tuple[int, int, int]:
        """(spawned, harvested, remaining) apple totals for the episode."""
        return self._spawned, self._harvested, self.apple_count

    @property
    def agent_cells(self) -> list[int]:
        """Flat cell index (row * width + col) per agent."""
        return [int(y) * self.config.width + int(x) for y, x in self._positions]

    @property
    def apple_cells(self) -> list[int]:
        """Sorted flat cell indices currently holding an apple."""
        rows, cols = np.nonzero(self._apples)
        return sorted(int(y) * self.config.width + int(x) for y, x in zip(rows, cols))

    def reset(self, seed: int | None = None) -> tuple[int, ...]:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        cfg = self.config
        cells = self._rng.choice(cfg.width * cfg.height, size=cfg.num_agents, replace=False)
        self._positions = np.stack([cells // cfg.width, cells % cfg.width], axis=1)
        self._apples[:] = False
        self._pollution = 0.5
        self._t = 0
        self._spawned = 0
        self._harvested = 0
        return self._observations()

    def _in_river(self, row: int) -> bool:
        return row < self.config.river_rows

    def step(self, actions: Sequence[int]) -> EnvStep:
        cfg = self.config
        actions = [int(a) for a in actions]
        for agent, action in enumerate(actions):
            if action in _MOVES:
                dy, dx = _MOVES[action]
                y = min(max(self._positions[agent, 0] + dy, 0), cfg.height - 1)
                x = min(max(self._positions[agent, 1] + dx, 0), cfg.width - 1)
                self._positions[agent] = (y, x)

        cleaners = sum(
            1
            for agent, action in enumerate(actions)
            if action == CLEAN and self._in_river(self._positions[agent, 0])
        )
        self._pollution = min(
            max(self._pollution + cfg.pollution_increment - cleaners * cfg.clean_amount, 0.0),
            1.0,
        )

        rewards = np.full(cfg.num_agents, cfg.base_reward)
        harvests = np.zeros(cfg.num_agents, dtype=np.int64)
        for agent in range(cfg.num_agents):
            y, x = self._positions[agent]
            if self._apples[y, x]:
                self._apples[y, x] = False
                rewards[agent] += cfg.apple_reward
                harvests[agent] += 1
                self._harvested += 1

        if self._pollution < cfg.pollution_threshold and cfg.regen_rate > 0.0:
            orchard = np.zeros_like(self._apples)
            orchard[cfg.river_rows :, :] = True
            eligible = orchard & ~self._apples
            spawn = self._rng.random(self._apples.shape) < cfg.regen_rate
            new_apples = eligible & spawn
            self._spawned += int(new_apples.sum())
            self._apples |= new_apples

        self._t += 1
        return EnvStep(
            observations=self._observations(),
            rewards=rewards,
            done=self._t >= cfg.episode_length,
            info={"apples": harvests, "pollution": self._pollution},
        )

    def _pollution_bucket(self) -> int:
        """Four levels aligned to the regrowth threshold so the alive/dead
        boundary is visible in the observation: comfortably below, nearing,
        just above, deeply above."""
        theta = self.config.pollution_threshold
        d = self._pollution
        if d < 0.5 * theta:
            return 0
        if d < theta:
            return 1
        if d < theta + 0.5 * (1.0 - theta):
            return 2
        return 3

    def _observations(self) -> tuple[int, ...]:
        bucket = self._pollution_bucket()
        obs = []
        for agent in range(self.config.num_agents):
            y, x = self._positions[agent]
            bitmap = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    bitmap <<= 1
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < self.config.height and 0 <= xx < self.config.width:
                        bitmap |= int(self._apples[yy, xx])
            cell = y * self.config.width + x
            obs.append((int(cell) * _POLLUTION_BUCKETS + bucket) * (1 << _WINDOW_BITS) + bitmap)
        return tuple(obs)


def mini_cleanup_env(config: MiniCleanupConfig, seed: int = 0) -> MiniCleanupEnv:
    return MiniCleanupEnv(config, seed)


def scripted_trajectory(
    env: MiniCleanupEnv, action_script: Sequence[Sequence[int]], seed: int
) -> list[dict]:
    """Deterministic trajectory records for golden files: one dict per step
    with positions, pollution, apple cells, and rewards."""
    env.reset(seed=seed)
    records = []
    for t, actions in enumerate(action_script):
        step = env.step(actions)
        records.append(
            {
                "t": t,
                "positions": env.agent_cells,
                "pollution": round(env.pollution, 12),
                "apples": env.apple_cells,
                "rewards": [round(float(r), 12) for r in step.rewards],
            }
        )
    return records


def random_markov_game(
    num_agents: int,
    num_states: int,
    action_counts: Sequence[int],
    gamma: float,
    seed: int,
) -> TabularMarkovGame:
    """Random instance for property tests: transition rows and the initial
    distribution from a flat simplex sampler, rewards uniform in (0.1, 1.0]."""
    if num_agents < 1 or num_states < 1:
        raise DomainError("sizes must be at least 1")
    rng = np.random.default_rng(seed)
    counts = tuple(int(c) for c in action_counts)
    joint = math.prod(counts)
    transitions = rng.dirichlet(np.ones(num_states), size=(num_states, joint))
    rewards = 1.0 - rng.uniform(0.0, 0.9, size=(num_agents, num_states, joint))
    initial = rng.dirichlet(np.ones(num_states))
    return TabularMarkovGame(
        num_agents=num_agents,
        num_states=num_states,
        action_counts=counts,
        transitions=transitions,
        rewards=rewards,
        initial_dist=initial,
        discount=gamma,
    )
