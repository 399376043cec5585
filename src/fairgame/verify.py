"""Seeded verification suites: independent oracles (central finite
differences, contraction measurements, statistical zero-mean checks) run
against the library's closed-form and linear-solve paths over randomly
generated instances. Each suite returns a machine-readable report.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .envs import random_markov_game
from .errors import DomainError
from .games import (
    DilemmaKind,
    DilemmaPayoffs,
    altruism_level_bruteforce,
    altruism_level_closed_form,
    altruistic_extension,
    check_consistency_ts_r2,
    classify_social_dilemma,
    find_pure_nash,
)
from .markov import (
    AltruismWeights,
    SoftmaxPolicyProfile,
    TabularMarkovGame,
    baseline_zero_check,
    bellman_apply,
    default_horizon,
    exact_fair_gradient,
    fair_objective,
    mc_fair_gradient,
    solve_values,
)
from .metrics import gini


@dataclass
class SuiteCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    checks: list[SuiteCheck] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(SuiteCheck(name, bool(passed), detail))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def sample_dilemmas(
    rng: np.random.Generator,
    count: int,
    require_temptation: bool = False,
    alpha_range: tuple[float, float] | None = None,
) -> list[DilemmaPayoffs]:
    """Rejection-sample payoff tuples satisfying the dilemma inequalities.

    Optionally restrict to T > R instances, and to instances whose closed-form
    altruism level falls in alpha_range (so threshold probes stay in (0, 1)).
    The level lies in [0, 1] for every dilemma (2R >= T + S), so a range
    outside [0, 1], or with lo > hi, raises DomainError. The level is exactly
    0 where T <= R and varies continuously elsewhere, so a zero-width range
    other than (0, 0), or (0, 0) with ``require_temptation``, holds no draw
    and raises DomainError too, before anything is drawn.
    """
    if alpha_range is not None:
        lo, hi = alpha_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise DomainError(
                f"alpha_range: {alpha_range} must satisfy 0 <= lo <= hi <= 1, "
                "the range of the altruism level"
            )
        if lo == hi and (lo > 0.0 or require_temptation):
            raise DomainError(
                f"alpha_range: {alpha_range} has zero width, and the level of a dilemma "
                "with T > R is continuous, so no draw lands on it; only (0, 0) without "
                "require_temptation can be met"
            )
    kept: list[DilemmaPayoffs] = []
    while len(kept) < count:
        batch = rng.uniform(0.1, 10.0, size=(4096, 4))
        T, R, S, P = batch.T
        ok = (R > P) & (R > S) & (2.0 * R >= T + S) & ((T > R) | (P > S))
        if require_temptation:
            ok &= T > R
        if alpha_range is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                level = np.where(
                    T > R, (np.log(T) - np.log(R)) / (np.log(R) - np.log(S)), 0.0
                )
            ok &= (level >= lo) & (level <= hi)
        for row in batch[ok]:
            kept.append(DilemmaPayoffs(*(float(x) for x in row)))
            if len(kept) == count:
                break
    return kept


def random_game_and_policies(
    rng: np.random.Generator,
    max_agents: int = 3,
    max_states: int = 5,
    max_actions: int = 3,
    gamma_range: tuple[float, float] = (0.8, 0.95),
    logit_scale: float = 0.5,
) -> tuple[TabularMarkovGame, SoftmaxPolicyProfile]:
    num_agents = int(rng.integers(2, max_agents + 1))
    num_states = int(rng.integers(2, max_states + 1))
    action_counts = tuple(int(rng.integers(2, max_actions + 1)) for _ in range(num_agents))
    gamma = float(rng.uniform(*gamma_range))
    game = random_markov_game(
        num_agents, num_states, action_counts, gamma, seed=int(rng.integers(2**31))
    )
    policies = SoftmaxPolicyProfile.random(
        num_states, action_counts, rng, scale=logit_scale
    )
    return game, policies


def finite_difference_fair_gradient(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    weights: AltruismWeights,
    h: float = 1e-5,
) -> list[np.ndarray]:
    """Central-difference gradient of each agent's objective with respect to
    its own logits: the independent oracle for the exact gradient path.

    Agent i's 2 S A_i perturbed tables, +h at each coordinate and then -h,
    are one stack evaluated by one ``fair_objective`` call, in memory
    O(A_i S^3); the caller's logits are left as they are."""
    grads = []
    for i, table in enumerate(policies.logits):
        size = table.size
        coordinate = np.arange(size)
        shifted = np.tile(table.ravel(), (2, size, 1))  # (2, S*A_i, S*A_i)
        shifted[0, coordinate, coordinate] += h
        shifted[1, coordinate, coordinate] -= h
        logits = list(policies.logits)
        logits[i] = shifted.reshape((2 * size,) + table.shape)
        objective = fair_objective(game, SoftmaxPolicyProfile(logits), weights)[:, i]
        plus, minus = objective[:size], objective[size:]
        grads.append(((plus - minus) / (2.0 * h)).reshape(table.shape))
    return grads


def gradient_tolerance_ok(
    exact: np.ndarray,
    reference: np.ndarray,
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-8,
) -> bool:
    """Per-coordinate relative agreement; coordinates below abs_floor in
    magnitude are compared absolutely at abs_floor."""
    diff = np.abs(exact - reference)
    small = np.abs(reference) < abs_floor
    ok_small = diff[small] <= abs_floor
    ok_large = diff[~small] <= rel_tol * np.abs(reference[~small])
    return bool(ok_small.all() and ok_large.all())


def verify_altruism(
    num_instances: int = 200, resolution: float = 1e-6, seed: int = 2024
) -> SuiteReport:
    """Closed-form vs brute-force altruism levels, spot values, and the
    cooperation threshold behavior around the closed-form level."""
    start = time.perf_counter()
    report = SuiteReport("altruism")
    rng = np.random.default_rng(seed)

    spot_pd = altruism_level_closed_form(DilemmaPayoffs(5, 3, 1, 2))
    report.add(
        "spot_prisoners_dilemma",
        abs(spot_pd - 0.46497) < 5e-5,
        f"alpha_G={spot_pd:.6f}",
    )
    spot_chicken = altruism_level_closed_form(DilemmaPayoffs(7, 5, 2, 1))
    report.add(
        "spot_chicken", abs(spot_chicken - 0.36720) < 5e-5, f"alpha_G={spot_chicken:.6f}"
    )
    spot_stag = altruism_level_closed_form(DilemmaPayoffs(3, 4, 1, 2))
    report.add("spot_stag_hunt", spot_stag == 0.0, f"alpha_G={spot_stag}")

    dilemmas = sample_dilemmas(rng, num_instances)
    worst = 0.0
    agreements = 0
    for payoffs in dilemmas:
        closed = altruism_level_closed_form(payoffs)
        brute = altruism_level_bruteforce(payoffs.to_game(), resolution)
        if brute is None:
            continue
        worst = max(worst, abs(closed - brute))
        agreements += abs(closed - brute) <= 2e-6
    report.add(
        "closed_form_vs_bruteforce",
        agreements == len(dilemmas),
        f"{agreements}/{len(dilemmas)} within 2e-6, worst diff {worst:.2e}",
    )

    probes = sample_dilemmas(
        rng, num_instances, require_temptation=True, alpha_range=(2e-4, 0.999)
    )
    threshold_ok = 0
    for payoffs in probes:
        level = altruism_level_closed_form(payoffs)
        game = payoffs.to_game()
        above = (0, 0) in find_pure_nash(altruistic_extension(game, level + 1e-4))
        below = (0, 0) not in find_pure_nash(altruistic_extension(game, level - 1e-4))
        threshold_ok += above and below
    report.add(
        "cooperation_threshold",
        threshold_ok == len(probes),
        f"{threshold_ok}/{len(probes)} flip exactly at the level",
    )

    consistency_ok = all(check_consistency_ts_r2(p) for p in sample_dilemmas(rng, 10_000))
    report.add("ts_le_r2_for_dilemmas", consistency_ok, "10000 random dilemma tuples")
    report.elapsed_seconds = time.perf_counter() - start
    return report


def verify_gradients(num_games: int = 50, seed: int = 7, h: float = 1e-5) -> SuiteReport:
    """Exact fair gradients against central finite differences."""
    start = time.perf_counter()
    report = SuiteReport("gradients")
    rng = np.random.default_rng(seed)
    agree = 0
    worst_detail = ""
    worst_rel = 0.0
    for _ in range(num_games):
        game, policies = random_game_and_policies(rng)
        weights = AltruismWeights(float(rng.uniform(0.0, 1.0)))
        exact = exact_fair_gradient(game, policies, weights)
        reference = finite_difference_fair_gradient(game, policies, weights, h)
        game_ok = True
        for e, f in zip(exact.per_agent, reference):
            if not gradient_tolerance_ok(e, f):
                game_ok = False
            big = np.abs(f) >= 1e-8
            if big.any():
                rel = float(np.max(np.abs(e[big] - f[big]) / np.abs(f[big])))
                if rel > worst_rel:
                    worst_rel = rel
                    worst_detail = f"worst rel err {rel:.2e}"
        agree += game_ok
    report.add(
        "exact_vs_finite_difference",
        agree == num_games,
        f"{agree}/{num_games} games within 1e-4; {worst_detail}",
    )
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _averaged_tables(
    game: TabularMarkovGame, policies: SoftmaxPolicyProfile
) -> tuple[np.ndarray, np.ndarray]:
    """P_pi (S, S) and r_bar (N, S) from the game's raw transition and reward
    tables and each agent's own action probabilities, built here rather than
    through the evaluator's joint-policy and averaging helpers, so a defect
    in those cannot cancel out of a residual against ``solve_values``. The
    joint action index is row-major over agents, agent 0 slowest."""
    joint = np.ones((game.num_states, 1))
    for agent in range(game.num_agents):
        joint = np.einsum("sa,sb->sab", joint, policies.probs(agent))
        joint = joint.reshape(game.num_states, -1)
    p_pi = np.einsum("sa,sat->st", joint, game.transitions)
    r_bar = np.einsum("sa,nsa->ns", joint, game.rewards)
    return p_pi, r_bar


def verify_bellman(
    num_games: int = 50, num_pairs: int = 100, seed: int = 11
) -> SuiteReport:
    """Fixed-point residual of the linear solve, checked against P_pi and
    r_bar built independently of the evaluator; then two property checks of
    ``bellman_apply`` that hold for any stochastic P_pi: its empirical
    contraction factor and the geometric error bound of fixed-point
    iteration."""
    start = time.perf_counter()
    report = SuiteReport("bellman")
    rng = np.random.default_rng(seed)
    residual_ok = contraction_ok = iteration_ok = 0
    worst_residual = 0.0
    worst_factor = 0.0
    for _ in range(num_games):
        game, policies = random_game_and_policies(rng)
        bundle = solve_values(game, policies)
        p_pi, r_bar = _averaged_tables(game, policies)
        v_star = bundle.state_values
        residual = float(np.max(np.abs(r_bar + game.discount * v_star @ p_pi.T - v_star)))
        worst_residual = max(worst_residual, residual)
        residual_ok += residual <= 1e-9

        scale = game.max_reward / (1.0 - game.discount)
        # probes[k] is the k-th pair (v1, v2), drawn in the order of one pair at a time
        probes = rng.uniform(-scale, scale, size=(num_pairs, 2) + v_star.shape)
        mapped_probes = bellman_apply(game, policies, probes)
        gaps = np.abs(probes[:, 0] - probes[:, 1]).max(axis=(1, 2))
        mapped = np.abs(mapped_probes[:, 0] - mapped_probes[:, 1]).max(axis=(1, 2))
        distinct = gaps != 0.0
        factors = mapped[distinct] / gaps[distinct]
        if factors.size:
            worst_factor = max(worst_factor, float((factors - game.discount).max()))
        contraction_ok += not np.any(factors > game.discount + 1e-12)

        values = np.zeros_like(bundle.state_values)
        bound_holds = True
        for k in range(1, 25):
            values = bellman_apply(game, policies, values)
            bound = game.discount**k * scale + 1e-9
            if float(np.max(np.abs(values - bundle.state_values))) > bound:
                bound_holds = False
        iteration_ok += bound_holds
    report.add(
        "fixed_point_residual",
        residual_ok == num_games,
        f"worst ||T V* - V*||_inf = {worst_residual:.2e}, with T built from the raw "
        "tables, not the evaluator's helpers",
    )
    report.add(
        "contraction_factor",
        contraction_ok == num_games,
        "property check of bellman_apply (holds for any stochastic P_pi): "
        f"worst factor excess over gamma: {worst_factor:.2e}",
    )
    report.add(
        "iteration_error_bound",
        iteration_ok == num_games,
        "property check of bellman_apply (holds for any stochastic P_pi): "
        "gamma^k bound holds for k=1..24",
    )
    report.elapsed_seconds = time.perf_counter() - start
    return report


def verify_baseline(
    num_triples: int = 10, num_samples: int = 100_000, seed: int = 5
) -> SuiteReport:
    """Baseline-term lemma: the analytic score-baseline expectation is the
    zero tensor; Monte Carlo means stay within 3 standard errors of zero."""
    start = time.perf_counter()
    report = SuiteReport("baseline")
    rng = np.random.default_rng(seed)
    analytic_zero = quadrature_small = mc_within = 0
    for _ in range(num_triples):
        game, policies = random_game_and_policies(rng, max_states=3)
        levels = rng.uniform(0.5, 5.0, size=game.num_states)
        results = baseline_zero_check(
            game, policies, lambda s: float(levels[s]), num_samples,
            seed=int(rng.integers(2**31)),
        )
        analytic_zero += all(not r.analytic.any() for r in results)
        quadrature_small += all(r.quadrature_residual <= 1e-12 for r in results)
        mc_within += all(
            np.all(np.abs(r.mc_mean) <= 3.0 * r.mc_se + 1e-15) for r in results
        )
    report.add("analytic_exactly_zero", analytic_zero == num_triples, "")
    report.add(
        "quadrature_residual", quadrature_small == num_triples, "<= 1e-12 everywhere"
    )
    report.add(
        "mc_within_3_se", mc_within == num_triples, f"{mc_within}/{num_triples} triples"
    )
    report.elapsed_seconds = time.perf_counter() - start
    return report


def verify_montecarlo(
    num_games: int = 10, num_rollouts: int = 100_000, seed: int = 3
) -> SuiteReport:
    """Monte Carlo gradient estimator against the exact gradient at both
    alpha=0 and alpha=1, per coordinate within 3 SE plus the truncation bound."""
    start = time.perf_counter()
    report = SuiteReport("montecarlo")
    rng = np.random.default_rng(seed)
    for alpha in (0.0, 1.0):
        within = 0
        for _ in range(num_games):
            game, policies = random_game_and_policies(
                rng, max_agents=2, max_states=3, max_actions=2, gamma_range=(0.8, 0.9)
            )
            weights = AltruismWeights(alpha)
            exact = exact_fair_gradient(game, policies, weights)
            estimate = mc_fair_gradient(
                game,
                policies,
                weights,
                num_rollouts,
                seed=int(rng.integers(2**31)),
                truncation_tol=1e-5,
            )
            slack = _truncation_slack(game, policies, weights, truncation_tol=1e-5)
            ok = all(
                np.all(np.abs(m - e) <= 3.0 * se + slack)
                for m, se, e in zip(estimate.per_agent, estimate.std_errors, exact.per_agent)
            )
            within += ok
        report.add(
            f"mc_within_3_se_alpha_{alpha:g}",
            within == num_games,
            f"{within}/{num_games} games",
        )
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _truncation_slack(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    weights: AltruismWeights,
    truncation_tol: float,
) -> float:
    """Upper bound on the per-coordinate tail the truncated estimator drops."""
    horizon = default_horizon(game.discount, game.max_reward, truncation_tol)
    bundle = solve_values(game, policies)
    v_min = float(bundle.state_values[:, game.initial_dist > 0].min())
    q_max = game.max_reward / (1.0 - game.discount)
    coeff_sum = 1.0 + weights.alpha * (game.num_agents - 1)
    return (
        game.discount**horizon / (1.0 - game.discount) * coeff_sum * q_max / v_min
    )


def verify_gini(num_vectors: int = 10_000, seed: int = 13) -> SuiteReport:
    """Scale/permutation invariance, bounds, and Pigou-Dalton monotonicity."""
    start = time.perf_counter()
    report = SuiteReport("gini")
    rng = np.random.default_rng(seed)
    report.add("spot_even", gini([1, 1, 1, 1]) == 0.0, "")
    report.add(
        "spot_one_hot_7",
        abs(gini([1, 0, 0, 0, 0, 0, 0]) - 6.0 / 7.0) < 1e-15,
        "",
    )
    # each vector's entries and its scaled, permuted and transferred copies,
    # one padded row each, every per-vector quantity drawn as one array; no
    # draw depends on a Gini value, so each statistic is one stacked gini
    # call per length n
    max_len = 10
    rows = np.arange(num_vectors)
    lengths = rng.integers(1, max_len + 1, size=num_vectors)
    padding = np.arange(max_len) >= lengths[:, None]
    vectors = rng.uniform(0.0, 10.0, size=(num_vectors, max_len))
    vectors[padding] = 0.0
    # in one vector in five on average, one entry set to zero
    zeroed = rng.random(num_vectors) < 0.2
    vectors[rows[zeroed], rng.integers(0, lengths)[zeroed]] = 0.0
    scaled = rng.uniform(0.1, 100.0, size=num_vectors)[:, None] * vectors
    # a uniform permutation of each vector's entries: the order of uniform
    # keys, with the padding's keys above every entry's
    keys = np.where(padding, 2.0, rng.random((num_vectors, max_len)))
    permuted = np.take_along_axis(vectors, np.argsort(keys, axis=1), axis=1)
    # a transfer of U(0, 1) times half the gap from the richest entry to the
    # poorest, where the two differ (so n >= 2 and the total is positive)
    poor = np.where(padding, np.inf, vectors).argmin(axis=1)
    rich = np.where(padding, -np.inf, vectors).argmax(axis=1)
    gap = vectors[rows, rich] - vectors[rows, poor]
    moved = gap > 0.0
    delta = rng.random(num_vectors) * gap / 2.0
    transferred = np.where(moved[:, None], vectors, 0.0)
    transferred[rows[moved], rich[moved]] -= delta[moved]
    transferred[rows[moved], poor[moved]] += delta[moved]
    scale_ok = perm_ok = bounds_ok = pigou_ok = True
    for n in range(1, max_len + 1):
        group = lengths == n
        g = gini(vectors[group, :n])
        scale_ok &= bool(np.all(np.abs(gini(scaled[group, :n]) - g) <= 1e-12))
        perm_ok &= bool(np.all(np.abs(gini(permuted[group, :n]) - g) <= 1e-12))
        bounds_ok &= bool(np.all((-1e-15 <= g) & (g <= (n - 1) / n + 1e-12)))
        moved_rows = gini(transferred[group & moved, :n])
        pigou_ok &= bool(np.all(moved_rows <= g[moved[group]] + 1e-12))
    report.add("scale_invariance", scale_ok, "")
    report.add("permutation_invariance", perm_ok, "")
    report.add("bounds", bounds_ok, "0 <= gini <= (N-1)/N")
    report.add("pigou_dalton", pigou_ok, "rich-to-poor transfers never raise gini")
    report.elapsed_seconds = time.perf_counter() - start
    return report


def verify_objective_symmetry(num_games: int = 20, seed: int = 17) -> SuiteReport:
    """At alpha=1 the objective and its exact gradients are agent-independent."""
    start = time.perf_counter()
    report = SuiteReport("symmetry")
    rng = np.random.default_rng(seed)
    objective_ok = gradient_ok = 0
    weights = AltruismWeights(1.0)
    for _ in range(num_games):
        game, policies = random_game_and_policies(rng)
        objectives = fair_objective(game, policies, weights)
        objective_ok += all(j == objectives[0] for j in objectives)
        base = exact_fair_gradient(game, policies, weights, objective_agent=0)
        same = True
        for k in range(1, game.num_agents):
            other = exact_fair_gradient(game, policies, weights, objective_agent=k)
            same &= all(
                np.array_equal(a, b) for a, b in zip(base.per_agent, other.per_agent)
            )
        gradient_ok += same
    report.add("objective_identical", objective_ok == num_games, "exact equality")
    report.add("gradients_identical", gradient_ok == num_games, "coordinate-wise equality")
    report.elapsed_seconds = time.perf_counter() - start
    return report


SUITES = {
    "altruism": verify_altruism,
    "gradients": verify_gradients,
    "bellman": verify_bellman,
    "baseline": verify_baseline,
    "montecarlo": verify_montecarlo,
    "gini": verify_gini,
    "symmetry": verify_objective_symmetry,
}


def run_suite(name: str) -> list[SuiteReport]:
    if name == "all":
        return [fn() for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or 'all'")
    return [SUITES[name]()]
