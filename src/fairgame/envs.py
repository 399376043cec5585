"""Desk-scale social-dilemma environments behind one tabular interface:
repeated 2x2 matrix games, a mini-CleanUp gridworld with a shared polluting
river, and a random Markov game generator for property tests.

An environment exposes ``num_agents``, ``num_states`` (the per-agent
observation encoding space), ``action_counts``, ``episode_length``,
``reset(seed=None)`` returning per-agent observation indices, and
``step(actions)`` returning an EnvStep. Episodes never terminate early:
the collector runs every one for exactly ``episode_length`` steps, so an env
keeps no step counter and reports no done flag. Rewards are strictly
positive. An env with ``num_states == 1`` also exposes ``joint_rewards``, a
read-only float64 array of shape (A_1, ..., A_N, N) holding every agent's
reward for each joint action, so that its episodes can be collected without
stepping it. An env whose observations are a dense renumbering of a longer
index also exposes ``observation_mask``, a read-only bool array over that
index marking the values that can occur (mini-CleanUp).

The multi-state envs, mini-CleanUp and ``MarkovGameEnv``, keep their state
as a batch of one env (leading axis of length 1), and ``step`` is that
batch's step. ``_lockstep(envs)`` resets E envs of one kind, stacks their
batches into one (E, ...) batch for the collector to step together, and
hands every env its own final state back when the episode ends. Every env
keeps its own generator, and a batched step draws from it exactly what the
env's own step would, in env order.
"""

import copy
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, check_fields
from .games import DilemmaPayoffs
from .markov import TabularMarkovGame

UP, DOWN, LEFT, RIGHT, CLEAN, NOOP = range(6)
# row and column offsets of each action; CLEAN and NOOP hold position
_ROW_MOVES = np.array([-1, 1, 0, 0, 0, 0])
_COL_MOVES = np.array([0, 0, -1, 1, 0, 0])
_POLLUTION_BUCKETS = 4
_WINDOW_BITS = 9  # 3x3 local apple bitmap
_WINDOW_WEIGHTS = 1 << np.arange(_WINDOW_BITS - 1, -1, -1)


@dataclass
class EnvStep:
    """One transition: next observations, strictly positive rewards, and
    bookkeeping info (mini-CleanUp's per-agent apples harvested)."""

    observations: tuple[int, ...]
    rewards: np.ndarray
    info: dict = field(default_factory=dict)


class RepeatedMatrixGameEnv:
    """Two agents repeatedly playing a symmetric 2x2 game for a fixed number
    of steps. Actions: 0 = cooperate, 1 = defect. Single state."""

    def __init__(self, payoffs: DilemmaPayoffs, episode_length: int):
        if episode_length < 1:
            raise DomainError("episode_length must be at least 1")
        self.episode_length = episode_length
        self.num_agents = 2
        self.num_states = 1
        self.action_counts = (2, 2)
        self.joint_rewards = payoffs.to_game().payoffs

    def reset(self, seed: int | None = None) -> tuple[int, ...]:
        return (0, 0)

    def step(self, actions: Sequence[int]) -> EnvStep:
        a1, a2 = int(actions[0]), int(actions[1])
        return EnvStep(observations=(0, 0), rewards=self.joint_rewards[a1, a2].copy())


def matrix_markov_game(payoffs: DilemmaPayoffs, gamma: float) -> TabularMarkovGame:
    """The infinite-horizon view of a repeated 2x2 game: one state, joint
    actions (C,C), (C,D), (D,C), (D,D) in row-major order, each agent paid
    as in ``payoffs.to_game()``."""
    table = payoffs.to_game().payoffs  # (a_0, a_1, agent)
    return TabularMarkovGame(
        num_agents=2,
        num_states=1,
        action_counts=(2, 2),
        transitions=np.ones((1, 4, 1)),
        rewards=table.reshape(4, 2).T[:, None, :],
        initial_dist=np.array([1.0]),
        discount=gamma,
    )


class _Batch:
    """The state of E envs of one kind, stepped together: ``rngs`` holds
    each env's generator, and every array named in ``_arrays`` has a
    leading axis of length E. A subclass adds ``observations()``, the (E, N)
    observation indices, and ``step(actions)``, which takes (E, N) actions
    to (E, N) observations, (E, N) rewards and the (E, N) apples harvested
    (None for an env without apples)."""

    _arrays: tuple[str, ...] = ()

    @classmethod
    def concatenate(cls, batches: Sequence["_Batch"]) -> "_Batch":
        stacked = copy.copy(batches[0])
        stacked.rngs = [rng for batch in batches for rng in batch.rngs]
        for name in cls._arrays:
            setattr(stacked, name, np.concatenate([getattr(batch, name) for batch in batches]))
        return stacked

    def split(self) -> list["_Batch"]:
        """One batch of one env per env, each with its own copy of the state."""
        parts = []
        for e, rng in enumerate(self.rngs):
            part = copy.copy(self)
            part.rngs = [rng]
            for name in self._arrays:
                setattr(part, name, getattr(self, name)[e : e + 1].copy())
            parts.append(part)
        return parts


@contextmanager
def _lockstep(envs: Sequence):
    """Reset every env in order and yield their states stacked as one
    ``_Batch`` of E envs; after the episode every env takes back its own
    final state. For E distinct multi-state envs of one kind: one env
    listed twice cannot step as two."""
    if len({id(env) for env in envs}) < len(envs):
        raise DomainError("lockstep collection needs distinct envs; one env is listed twice")
    for env in envs:
        env.reset()
    batch = type(envs[0]._batch).concatenate([env._batch for env in envs])
    yield batch
    for env, part in zip(envs, batch.split()):
        env._batch = part


class _MarkovBatch(_Batch):
    """``MarkovGameEnv`` states: the global state index of each env, which
    every agent observes. Each env draws its next state with one
    ``random()`` from its own generator, as the count of the compared
    columns of its (state, joint action) row of the game's normalized
    cumulative transition rows (``TabularMarkovGame._next_state_cdf``) that
    are <= it: the count ``markov._draw`` takes, and the bits of
    ``Generator.choice(S, p=row)``, which normalizes the cumulative row the
    same way, draws one double and takes ``searchsorted(side="right")``."""

    _arrays = ("states",)

    def __init__(self, game: TabularMarkovGame, rngs: list, states: np.ndarray):
        self.game, self.rngs, self.states = game, rngs, states

    def observations(self) -> np.ndarray:
        return np.repeat(self.states[:, None], self.game.num_agents, axis=1)

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, None]:
        game = self.game
        joint = np.ravel_multi_index(tuple(actions.T), game.action_counts)
        rewards = game.rewards[:, self.states, joint].T
        columns = game._next_state_cdf[self.states * game.transitions.shape[1] + joint]
        uniforms = np.array([rng.random() for rng in self.rngs])
        self.states = (columns <= uniforms[:, None]).sum(axis=1)
        return self.observations(), rewards, None


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
        self.joint_rewards = None
        if game.num_states == 1:
            self.joint_rewards = game.rewards[:, 0, :].T.reshape(*game.action_counts, -1)
            self.joint_rewards.flags.writeable = False
        rng = np.random.default_rng(seed)
        self._batch = _MarkovBatch(game, [rng], np.zeros(1, dtype=np.int64))

    def reset(self, seed: int | None = None) -> tuple[int, ...]:
        rng = self._batch.rngs[0] if seed is None else np.random.default_rng(seed)
        state = rng.choice(self.num_states, p=self.game.initial_dist)
        self._batch = _MarkovBatch(self.game, [rng], np.array([state], dtype=np.int64))
        return (int(state),) * self.num_agents

    def step(self, actions: Sequence[int]) -> EnvStep:
        observations, rewards, _ = self._batch.step(np.array([actions], dtype=np.int64))
        return EnvStep(observations=tuple(observations[0].tolist()), rewards=rewards[0])


@dataclass(frozen=True)
class MiniCleanupConfig:
    """Parameters of the mini-CleanUp grid.

    The top ``river_rows`` rows are river; the rest is orchard. A global
    pollution level rises every step and is pushed down by agents executing
    CLEAN while standing in the river; apple regrowth halts whenever
    pollution reaches the threshold. ``base_reward`` keeps per-step rewards
    strictly positive. Construction checks every field's type, finiteness
    and range, and raises one DomainError naming each invalid field.
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
        check_fields(self, (
            ("width", lambda c: c.width >= 1, "must be at least 1"),
            ("height", lambda c: c.height >= 1, "must be at least 1"),
            ("num_agents", lambda c: c.num_agents >= 1, "must be at least 1"),
            ("episode_length", lambda c: c.episode_length >= 1, "must be at least 1"),
            ("regen_rate", lambda c: 0.0 <= c.regen_rate <= 1.0, "must lie in [0, 1]"),
            ("pollution_threshold", lambda c: 0.0 < c.pollution_threshold <= 1.0,
             "must lie in (0, 1]"),
            ("river_rows", lambda c: 0 <= c.river_rows <= c.height, "must fit within the grid",
             "height"),
            ("num_agents", lambda c: c.num_agents <= c.width * c.height,
             "more agents than grid cells", "width", "height"),
            ("apple_reward", lambda c: c.apple_reward > 0.0, "must be strictly positive"),
            ("base_reward", lambda c: c.base_reward > 0.0, "must be strictly positive"),
        ))


def _grid_tables(config: MiniCleanupConfig) -> tuple[np.ndarray, ...]:
    """The row (column) each action moves an agent to from each row
    (column), held inside the grid, the flat offsets in a padded apple grid
    of a 3x3 window's cells from its top-left cell, in row-major order, and
    the dense observation of each full one (``_observation_map``)."""
    next_row = np.clip(np.arange(config.height)[:, None] + _ROW_MOVES, 0, config.height - 1)
    next_col = np.clip(np.arange(config.width)[:, None] + _COL_MOVES, 0, config.width - 1)
    stride = config.width + 2
    window = np.array([dy * stride + dx for dy in range(3) for dx in range(3)])
    _, ranks = _observation_map(config.width, config.height, config.river_rows)
    return next_row, next_col, window, ranks


@lru_cache(maxsize=16)
def _observation_map(width: int, height: int, river_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The observations a grid can show, over the full index ``(cell *
    buckets + bucket) * 2**9 + window``: ``reachable`` is True at each full
    index whose window has apples only on cells that can hold one, on the
    grid and in the orchard, and ``ranks`` maps a reachable index to its rank
    among them, in increasing order (-1 elsewhere). Built once per grid and
    shared, read-only, by every env on it."""
    rows, cols = np.divmod(np.arange(width * height), width)
    # the window bits of each cell that can hold an apple: top-left highest
    can_hold = np.zeros(width * height, dtype=np.int64)
    for k, weight in enumerate(_WINDOW_WEIGHTS.tolist()):
        row, col = rows + k // 3 - 1, cols + k % 3 - 1
        can_hold += weight * ((row >= river_rows) & (row < height) & (col >= 0) & (col < width))
    windows = np.arange(1 << _WINDOW_BITS)
    per_cell = (windows & ~can_hold[:, None]) == 0
    reachable = np.repeat(per_cell, _POLLUTION_BUCKETS, axis=0).ravel()
    ranks = np.cumsum(reachable)
    ranks -= 1
    ranks[~reachable] = -1
    reachable.flags.writeable = ranks.flags.writeable = False
    return reachable, ranks


class _CleanupBatch(_Batch):
    """Mini-CleanUp states of E envs of one config: the agents' ``rows`` and
    ``cols`` (E, N), ``apples`` (E, H + 2, W + 2) with a border of cells
    that never hold an apple around each grid, ``pollution`` (E,), and the
    episode's ``spawned`` and ``harvested`` apple totals (E,)."""

    _arrays = ("rows", "cols", "apples", "pollution", "spawned", "harvested")

    def __init__(
        self, config: MiniCleanupConfig, tables: tuple, rngs: list, rows: np.ndarray,
        cols: np.ndarray,
    ):
        """Fresh episodes: agents at (rows, cols), no apples, pollution 0.5.
        ``tables`` is ``_grid_tables(config)``."""
        num_envs = len(rngs)
        self.config, self.rngs, self.rows, self.cols = config, rngs, rows, cols
        self.apples = np.zeros((num_envs, config.height + 2, config.width + 2), dtype=bool)
        self.pollution = np.full(num_envs, 0.5)
        self.spawned = np.zeros(num_envs, dtype=np.int64)
        self.harvested = np.zeros(num_envs, dtype=np.int64)
        self._next_row, self._next_col, self._window, self._ranks = tables

    def _corners(self) -> np.ndarray:
        """Flat index, in ``apples``, of the top-left cell of each agent's
        3x3 window; the agent's own cell is ``width + 3`` further on."""
        height, width = self.config.height, self.config.width
        envs = np.arange(len(self.rngs))[:, None]
        return envs * ((height + 2) * (width + 2)) + self.rows * (width + 2) + self.cols

    def observations(self, corners: np.ndarray | None = None) -> np.ndarray:
        """(agent cell, pollution bucket, 3x3 apple bitmap) as one full
        index per agent, reported as its dense rank (``_observation_map``).
        The four buckets are aligned to the regrowth threshold, so the
        alive/dead boundary is visible: comfortably below, nearing, just
        above, deeply above. The window's top-left cell is the highest bit;
        cells off the grid read as empty. ``corners`` is ``_corners()``, if
        the caller has it."""
        cfg = self.config
        theta, level = cfg.pollution_threshold, self.pollution
        bucket = 3 - (level < 0.5 * theta) - (level < theta)
        bucket -= level < theta + 0.5 * (1.0 - theta)
        if corners is None:
            corners = self._corners()
        window = self.apples.reshape(-1)[corners[..., None] + self._window]
        cell = self.rows * cfg.width + self.cols
        full = (cell * _POLLUTION_BUCKETS + bucket[:, None]) * (1 << _WINDOW_BITS) + (
            window @ _WINDOW_WEIGHTS
        )
        return self._ranks[full]

    def step(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cfg = self.config
        self.rows = self._next_row[self.rows, actions]
        self.cols = self._next_col[self.cols, actions]
        cleaners = ((actions == CLEAN) & (self.rows < cfg.river_rows)).sum(axis=1)
        self.pollution = np.minimum(
            np.maximum(
                self.pollution + cfg.pollution_increment - cleaners * cfg.clean_amount, 0.0
            ),
            1.0,
        )
        # one agent at a time, vectorised over envs: the lower index takes a
        # contested cell's apple
        corners = self._corners()
        cells = corners + (cfg.width + 3)
        flat = self.apples.reshape(-1)  # a view: every batch's apples are C-contiguous
        harvests = np.empty(actions.shape, dtype=np.int64)
        for agent in range(cfg.num_agents):
            harvests[:, agent] = flat[cells[:, agent]]
            flat[cells[:, agent]] = False
        self.harvested += harvests.sum(axis=1)
        rewards = cfg.base_reward + cfg.apple_reward * harvests
        if cfg.regen_rate > 0.0:
            self._spawn(np.flatnonzero(self.pollution < cfg.pollution_threshold))
        return self.observations(corners), rewards, harvests

    def _spawn(self, growing: np.ndarray) -> None:
        """Each growing env, in env order, draws one uniform per grid cell
        from its own generator; an empty orchard cell grows an apple where
        its uniform is below ``regen_rate``."""
        cfg = self.config
        if len(growing) == 0:
            return
        # the other envs draw nothing: 1.0 is never below regen_rate
        draws = np.ones((len(self.rngs), cfg.height, cfg.width))
        for e in growing.tolist():
            self.rngs[e].random(out=draws[e])
        orchard = self.apples[:, 1 + cfg.river_rows : -1, 1:-1]
        new = (draws[:, cfg.river_rows :] < cfg.regen_rate) & ~orchard
        self.spawned += new.sum(axis=(1, 2))
        orchard |= new


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
    as a single full index, ``(cell * 4 + bucket) * 2**9 + bitmap``. A window
    cell on the river or off the grid never holds an apple, so only some
    full indices occur (54784 of 131072 on the 8x8 grid with 2 river rows):
    ``observation_mask`` marks them, and an observation is the rank of its
    full index among them, so ``num_states`` counts only those.
    """

    def __init__(self, config: MiniCleanupConfig, seed: int = 0):
        self.config = config
        self.episode_length = config.episode_length
        self.num_agents = config.num_agents
        # read-only bool array over the full index: observation k is its k-th
        # True entry; training draws a seeded random initial table over the
        # full index and keeps these rows (``learning._initial_normals``)
        self.observation_mask, _ = _observation_map(
            config.width, config.height, config.river_rows
        )
        self.num_states = int(np.count_nonzero(self.observation_mask))
        self.action_counts = (6,) * config.num_agents
        self._tables = _grid_tables(config)
        origin = np.zeros((1, config.num_agents), dtype=np.int64)
        self._batch = _CleanupBatch(
            config, self._tables, [np.random.default_rng(seed)], origin, origin.copy()
        )

    @property
    def pollution(self) -> float:
        return float(self._batch.pollution[0])

    @property
    def apple_count(self) -> int:
        return int(self._batch.apples[0].sum())

    @property
    def conservation_counts(self) -> tuple[int, int, int]:
        """(spawned, harvested, remaining) apple totals for the episode."""
        return int(self._batch.spawned[0]), int(self._batch.harvested[0]), self.apple_count

    @property
    def agent_cells(self) -> list[int]:
        """Flat cell index (row * width + col) per agent."""
        return (self._batch.rows[0] * self.config.width + self._batch.cols[0]).tolist()

    @property
    def apple_cells(self) -> list[int]:
        """Sorted flat cell indices currently holding an apple."""
        return np.flatnonzero(self._batch.apples[0, 1:-1, 1:-1]).tolist()

    def reset(self, seed: int | None = None) -> tuple[int, ...]:
        cfg = self.config
        rng = self._batch.rngs[0] if seed is None else np.random.default_rng(seed)
        cells = rng.choice(cfg.width * cfg.height, size=cfg.num_agents, replace=False)
        self._batch = _CleanupBatch(
            cfg, self._tables, [rng], cells[None] // cfg.width, cells[None] % cfg.width
        )
        return tuple(self._batch.observations()[0].tolist())

    def step(self, actions: Sequence[int]) -> EnvStep:
        observations, rewards, harvests = self._batch.step(np.array([actions], dtype=np.int64))
        return EnvStep(
            observations=tuple(observations[0].tolist()),
            rewards=rewards[0],
            info={"apples": harvests[0]},
        )


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
