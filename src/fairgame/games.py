"""Normal-form games, social-dilemma classification, the log-rescaled
altruistic payoff transform, pure Nash enumeration, altruism levels, and
proportional-fairness checks on finite allocation sets.
"""

import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import ConsistencyError, DomainError

# A feasible allocation is just a vector of strictly positive utilities.
Allocation = Sequence[float]


@dataclass(frozen=True)
class NormalFormGame:
    """Finite normal-form game with a dense payoff tensor.

    ``payoffs`` has shape ``(*strategy_counts, num_players)``: joint pure
    strategies are indexed row-major (last player's strategy varies fastest)
    and the player axis is innermost.
    """

    num_players: int
    strategy_counts: tuple[int, ...]
    payoffs: np.ndarray

    def __post_init__(self):
        if self.num_players < 1:
            raise DomainError("game needs at least one player")
        counts = tuple(int(c) for c in self.strategy_counts)
        if any(c < 1 for c in counts):
            raise DomainError("every player needs at least one strategy")
        payoffs = np.asarray(self.payoffs, dtype=float)
        expected = counts + (self.num_players,)
        if payoffs.size != math.prod(expected):
            raise DomainError(
                f"payoff tensor has {payoffs.size} entries, expected {math.prod(expected)}"
            )
        payoffs = payoffs.reshape(expected)
        if not np.all(np.isfinite(payoffs)):
            raise DomainError("payoffs must be finite")
        payoffs.setflags(write=False)
        object.__setattr__(self, "strategy_counts", counts)
        object.__setattr__(self, "payoffs", payoffs)

    def profiles(self) -> Iterator[tuple[int, ...]]:
        """Iterate joint pure-strategy profiles in row-major order."""
        return itertools.product(*(range(c) for c in self.strategy_counts))

    def payoff(self, player: int, profile: tuple[int, ...]) -> float:
        return float(self.payoffs[profile + (player,)])

    @property
    def all_positive(self) -> bool:
        return bool(np.all(self.payoffs > 0.0))


class DilemmaKind(Enum):
    PRISONERS_DILEMMA = "PrisonersDilemma"
    STAG_HUNT = "StagHunt"
    CHICKEN = "Chicken"
    NOT_A_DILEMMA = "NotADilemma"


@dataclass(frozen=True)
class DilemmaPayoffs:
    """Symmetric 2x2 payoffs: temptation, reward, sucker, punishment.

    All four must be strictly positive so the log transform is defined.
    """

    T: float
    R: float
    S: float
    P: float

    def __post_init__(self):
        for name in ("T", "R", "S", "P"):
            value = getattr(self, name)
            if not (value > 0.0) or not math.isfinite(value):
                raise DomainError(f"payoff {name}={value} must be strictly positive")

    def to_game(self) -> NormalFormGame:
        """2-player game with actions (cooperate=0, defect=1)."""
        payoffs = np.array(
            [
                [[self.R, self.R], [self.S, self.T]],
                [[self.T, self.S], [self.P, self.P]],
            ]
        )
        return NormalFormGame(num_players=2, strategy_counts=(2, 2), payoffs=payoffs)


@dataclass(frozen=True)
class DilemmaClass:
    """Classification result plus the four defining inequality flags."""

    kind: DilemmaKind
    reward_exceeds_punishment: bool  # R > P
    reward_exceeds_sucker: bool  # R > S
    cooperation_efficient: bool  # 2R > T + S
    greed_or_fear: bool  # T > R or P > S

    @property
    def is_dilemma(self) -> bool:
        return self.kind is not DilemmaKind.NOT_A_DILEMMA


def classify_social_dilemma(payoffs: DilemmaPayoffs) -> DilemmaClass:
    """Classify a symmetric 2x2 game by the four dilemma inequalities.

    A game is a dilemma only if all four hold. T > R splits into the
    prisoner's dilemma (P > S) and chicken (S >= P); T <= R with P > S is
    the stag hunt. The group-efficiency condition admits the boundary
    2R = T + S, which keeps canonical payoff sets like (5, 3, 1, 2) in the
    dilemma family; T*S <= R^2 still follows from the weak form.
    """
    T, R, S, P = payoffs.T, payoffs.R, payoffs.S, payoffs.P
    flags = dict(
        reward_exceeds_punishment=R > P,
        reward_exceeds_sucker=R > S,
        cooperation_efficient=2.0 * R >= T + S,
        greed_or_fear=T > R or P > S,
    )
    if not all(flags.values()):
        kind = DilemmaKind.NOT_A_DILEMMA
    elif T > R:
        kind = DilemmaKind.PRISONERS_DILEMMA if P > S else DilemmaKind.CHICKEN
    else:
        kind = DilemmaKind.STAG_HUNT
    return DilemmaClass(kind=kind, **flags)


def altruistic_extension(game: NormalFormGame, alpha: float) -> NormalFormGame:
    """Transform payoffs to u_i(s) = (1-alpha)*log p_i(s) + alpha*sum_j log p_j(s).

    Requires strictly positive payoffs and alpha in [0, 1]. At alpha=0 the
    payoffs are the plain logs of the originals, a monotone rescale that
    preserves best-reply structure.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"alpha={alpha} outside [0, 1]")
    if not game.all_positive:
        raise DomainError("altruistic extension requires strictly positive payoffs")
    transformed = _altruistic(np.log(game.payoffs), alpha)
    return NormalFormGame(game.num_players, game.strategy_counts, transformed)


def _altruistic(values: np.ndarray, alpha, axis: int = -1) -> np.ndarray:
    """The altruistic transform along ``axis``: entry i becomes
    (1 - alpha) x_i + alpha sum_j x_j, that is sum_j c_i(j) x_j with
    c_i(i) = 1 and c_i(j) = alpha, computed in place in ``values`` (a fresh
    float array the caller owns), which is returned. ``alpha`` is a scalar
    or an array that broadcasts against the sum (one alpha per run of a
    stack). Only elementwise float operations and one sum: no matrix
    product, so the bits do not depend on the BLAS kernel."""
    total = values.sum(axis=axis, keepdims=True)
    total *= alpha
    values *= 1 - alpha
    values += total
    return values


def find_pure_nash(game: NormalFormGame) -> set[tuple[int, ...]]:
    """All joint pure strategies with no strictly profitable unilateral deviation.

    Uses the weak inequality: s* is an equilibrium when
    p_i(s*) >= p_i(s_i, s*_{-i}) for every player i and alternative s_i.
    """
    equilibria = set()
    for profile in game.profiles():
        if _is_pure_nash(game, profile):
            equilibria.add(profile)
    return equilibria


def _is_pure_nash(game: NormalFormGame, profile: tuple[int, ...]) -> bool:
    for player in range(game.num_players):
        own = game.payoff(player, profile)
        for alternative in range(game.strategy_counts[player]):
            if alternative == profile[player]:
                continue
            deviated = profile[:player] + (alternative,) + profile[player + 1 :]
            if game.payoff(player, deviated) > own:
                return False
    return True


def social_optima(game: NormalFormGame) -> set[tuple[int, ...]]:
    """All joint profiles maximizing the utilitarian sum of payoffs."""
    totals = game.payoffs.sum(axis=-1)
    best = totals.max()
    indices = np.argwhere(totals == best)
    return {tuple(int(i) for i in idx) for idx in indices}


def check_consistency_ts_r2(payoffs: DilemmaPayoffs) -> bool:
    """True iff T*S <= R^2, the condition keeping the altruism level within 1."""
    return payoffs.T * payoffs.S <= payoffs.R**2


def altruism_level_closed_form(payoffs: DilemmaPayoffs) -> float:
    """Altruism threshold of a social dilemma.

    0 when T <= R (stag hunt: cooperation is already an equilibrium),
    otherwise log(T/R) / log(R/S), the weight at which mutual cooperation
    becomes deviation-proof in the transformed game.
    """
    classification = classify_social_dilemma(payoffs)
    if not classification.is_dilemma:
        raise DomainError("altruism level is defined for social dilemmas only")
    if not check_consistency_ts_r2(payoffs):
        raise ConsistencyError(
            f"T*S={payoffs.T * payoffs.S} > R^2={payoffs.R ** 2}: level would exceed 1"
        )
    if payoffs.T <= payoffs.R:
        return 0.0
    return (math.log(payoffs.T) - math.log(payoffs.R)) / (
        math.log(payoffs.R) - math.log(payoffs.S)
    )


def _cooperative_profile_exists(game: NormalFormGame, alpha: float) -> bool:
    """Does some pure Nash of the transformed game socially optimize the original?"""
    return bool(find_pure_nash(altruistic_extension(game, alpha)) & social_optima(game))


def as_dilemma_payoffs(game: NormalFormGame) -> DilemmaPayoffs | None:
    """Extract (T, R, S, P) when the game is a symmetric positive 2x2 whose
    payoffs classify as a social dilemma; None otherwise."""
    if game.num_players != 2 or game.strategy_counts != (2, 2) or not game.all_positive:
        return None
    p = game.payoffs
    symmetric = (
        p[0, 0, 0] == p[0, 0, 1]
        and p[1, 1, 0] == p[1, 1, 1]
        and p[0, 1, 0] == p[1, 0, 1]
        and p[1, 0, 0] == p[0, 1, 1]
    )
    if not symmetric:
        return None
    payoffs = DilemmaPayoffs(
        T=float(p[1, 0, 0]), R=float(p[0, 0, 0]), S=float(p[0, 1, 0]), P=float(p[1, 1, 0])
    )
    return payoffs if classify_social_dilemma(payoffs).is_dilemma else None


def altruism_level_bruteforce(
    game: NormalFormGame, grid_resolution: float = 1e-6
) -> float | None:
    """Smallest alpha in [0, 1] (within grid_resolution) whose transformed game
    has a pure Nash equilibrium that is a social optimum of the original.

    Returns None when the condition fails even at alpha=1 ("not 1-altruistic").
    Bisection is used for symmetric 2x2 dilemmas, where the condition is
    monotone in alpha; other games fall back to an ascending grid scan that
    checks only the grid points near each social optimum's equilibrium
    interval (see ``_equilibrium_interval``), so its cost does not grow with
    1 / grid_resolution.
    """
    if not 0.0 < grid_resolution < math.inf:
        raise DomainError(f"grid_resolution must be positive and finite, got {grid_resolution}")
    if grid_resolution < sys.float_info.min:
        # below it, alpha / grid_resolution overflows for alpha near 1
        raise DomainError(
            f"grid_resolution must be at least {sys.float_info.min}, got {grid_resolution}"
        )
    if not _cooperative_profile_exists(game, 1.0):
        return None
    if _cooperative_profile_exists(game, 0.0):
        return 0.0
    if as_dilemma_payoffs(game) is not None:
        lo, hi = 0.0, 1.0
        while hi - lo > grid_resolution:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break  # lo and hi are adjacent floats: no finer grid exists
            if _cooperative_profile_exists(game, mid):
                hi = mid
            else:
                lo = mid
        return hi
    # the scan visits grid points k * grid_resolution (so it does not drift
    # off them) near each social optimum's interval, in order of the
    # intervals' lower ends, with two grid points either side for rounding;
    # no other grid point can pass the check
    intervals = (_equilibrium_interval(game, optimum) for optimum in social_optima(game))
    for lo, hi in sorted(interval for interval in intervals if interval is not None):
        k = max(1, math.floor(min(lo, 1.0) / grid_resolution) - 2)
        last = math.ceil(max(hi, 0.0) / grid_resolution) + 2
        while k <= last and (alpha := k * grid_resolution) < 1.0:
            if _cooperative_profile_exists(game, alpha):
                return alpha
            k += 1
    return 1.0


def _equilibrium_interval(
    game: NormalFormGame, profile: tuple[int, ...]
) -> tuple[float, float] | None:
    """The interval [lo, hi] of alphas in [0, 1] at which ``profile`` is a
    pure Nash equilibrium of ``altruistic_extension(game, alpha)``, up to
    rounding, or None when some deviation pays at every alpha.

    Player i's transformed payoff is log p_i + alpha * sum_(j != i) log p_j,
    so each deviation condition reads a + alpha * b >= 0, linear in alpha,
    and their intersection is an interval (empty when lo > hi).
    """
    logs = np.log(game.payoffs)
    lo, hi = 0.0, 1.0
    for player in range(game.num_players):
        for alternative in range(game.strategy_counts[player]):
            if alternative == profile[player]:
                continue
            deviated = profile[:player] + (alternative,) + profile[player + 1 :]
            gain = logs[profile] - logs[deviated]
            own, others = gain[player], gain.sum() - gain[player]
            if others > 0.0:
                lo = max(lo, -own / others)
            elif others < 0.0:
                hi = min(hi, -own / others)
            elif own < 0.0:
                return None
    return lo, hi


def _validated_utilities(allocation: Allocation) -> np.ndarray:
    utilities = np.asarray(allocation, dtype=float)
    if utilities.ndim != 1 or utilities.size == 0:
        raise DomainError("an allocation is a nonempty vector of utilities")
    if not np.all(utilities > 0.0):
        raise DomainError("allocation utilities must be strictly positive")
    return utilities


def check_proportionally_fair(
    candidate: Allocation, feasible: Sequence[Allocation], tolerance: float = 1e-12
) -> bool:
    """True iff no feasible allocation has positive summed proportional gains
    over the candidate: sum_i (u_i(x) - u_i(x*)) / u_i(x*) <= 0 for all x.

    The tolerance absorbs rounding on boundary ties, where the variation sum
    is exactly zero in reals but accumulates float error.
    """
    base = _validated_utilities(candidate)
    for other in feasible:
        utilities = _validated_utilities(other)
        if utilities.shape != base.shape:
            raise DomainError("allocations must have one utility per agent")
        if ((utilities - base) / base).sum() > tolerance:
            return False
    return True


def pf_optimum(feasible: Sequence[Allocation]) -> Allocation:
    """Allocation maximizing the sum of log-utilities; ties broken by lowest index."""
    if len(feasible) == 0:
        raise DomainError("feasible set is empty")
    best_index = 0
    best_score = -math.inf
    for index, allocation in enumerate(feasible):
        score = float(np.log(_validated_utilities(allocation)).sum())
        if score > best_score:
            best_index, best_score = index, score
    return feasible[best_index]
