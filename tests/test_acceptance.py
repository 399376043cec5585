"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 9 and 11 encode
outcome targets that gradient ascent on the log-value objective provably does
not produce at this scale; they are asserted at their stated tolerances
anyway and report the measured values and the blocking analysis when they
fail (details in the individual test docstrings).
"""

import time

import numpy as np
import pytest

from fairgame.envs import MiniCleanupConfig, MiniCleanupEnv, repeated_matrix_env
from fairgame.games import DilemmaPayoffs
from fairgame.learning import (
    Algorithm,
    ObjectiveMode,
    TrainConfig,
    train,
)
from fairgame.verify import (
    verify_altruism,
    verify_baseline,
    verify_bellman,
    verify_gini,
    verify_gradients,
    verify_montecarlo,
    verify_objective_symmetry,
)

PD = DilemmaPayoffs(5, 3, 1, 2)


def emit(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:02d} [{name}]: {status}  {detail}")


def check_named(report, name: str):
    return next(c for c in report.checks if c.name == name)


@pytest.fixture(scope="module")
def altruism_report():
    return verify_altruism(num_instances=200, resolution=1e-6, seed=2024)


def test_criterion_01_altruism_level_agreement(altruism_report):
    agreement = check_named(altruism_report, "closed_form_vs_bruteforce")
    spots = [
        check_named(altruism_report, "spot_prisoners_dilemma"),
        check_named(altruism_report, "spot_chicken"),
        check_named(altruism_report, "spot_stag_hunt"),
    ]
    in_time = altruism_report.elapsed_seconds < 10.0
    passed = agreement.passed and all(s.passed for s in spots) and in_time
    emit(
        1,
        "altruism closed form vs brute force",
        passed,
        f"{agreement.detail}; {altruism_report.elapsed_seconds:.2f}s",
    )
    assert agreement.passed, agreement.detail
    for spot in spots:
        assert spot.passed, f"{spot.name}: {spot.detail}"
    assert in_time, f"suite took {altruism_report.elapsed_seconds:.1f}s (limit 10s)"


def test_criterion_02_threshold_behavior(altruism_report):
    threshold = check_named(altruism_report, "cooperation_threshold")
    emit(2, "cooperation flips at the altruism level", threshold.passed, threshold.detail)
    assert threshold.passed, threshold.detail


def test_criterion_03_consistency_property(altruism_report):
    consistency = check_named(altruism_report, "ts_le_r2_for_dilemmas")
    emit(3, "T*S <= R^2 for all dilemmas", consistency.passed, consistency.detail)
    assert consistency.passed, consistency.detail


def test_criterion_04_bellman_correctness():
    report = verify_bellman(num_games=50, num_pairs=100, seed=11)
    residual = check_named(report, "fixed_point_residual")
    contraction = check_named(report, "contraction_factor")
    emit(
        4,
        "Bellman fixed point and contraction",
        residual.passed and contraction.passed,
        f"{residual.detail}; {contraction.detail}",
    )
    assert residual.passed, residual.detail
    assert contraction.passed, contraction.detail


def test_criterion_05_exact_gradient_vs_finite_differences():
    start = time.perf_counter()
    report = verify_gradients(num_games=50, seed=7, h=1e-5)
    elapsed = time.perf_counter() - start
    agreement = check_named(report, "exact_vs_finite_difference")
    in_time = elapsed < 60.0
    emit(
        5,
        "exact gradient vs central differences",
        agreement.passed and in_time,
        f"{agreement.detail}; {elapsed:.2f}s",
    )
    assert agreement.passed, agreement.detail
    assert in_time, f"took {elapsed:.1f}s (limit 60s)"


def test_criterion_06_monte_carlo_consistency():
    report = verify_montecarlo(num_games=10, num_rollouts=100_000, seed=3)
    alpha0 = check_named(report, "mc_within_3_se_alpha_0")
    alpha1 = check_named(report, "mc_within_3_se_alpha_1")
    emit(
        6,
        "MC gradient within 3 SE of exact",
        alpha0.passed and alpha1.passed,
        f"alpha0 {alpha0.detail}; alpha1 {alpha1.detail}",
    )
    assert alpha0.passed, alpha0.detail
    assert alpha1.passed, alpha1.detail


def test_criterion_07_baseline_zero_lemma():
    report = verify_baseline(num_triples=10, num_samples=100_000, seed=5)
    passed = report.passed
    emit(
        7,
        "baseline term: analytic zero, MC within 3 SE",
        passed,
        "; ".join(f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in report.checks),
    )
    for check in report.checks:
        assert check.passed, f"{check.name}: {check.detail}"


def test_criterion_08_alpha_one_symmetry():
    report = verify_objective_symmetry(num_games=20, seed=17)
    objective = check_named(report, "objective_identical")
    gradients = check_named(report, "gradients_identical")
    emit(
        8,
        "alpha=1 objective and gradient symmetry",
        objective.passed and gradients.passed,
        f"{objective.detail}; {gradients.detail}",
    )
    assert objective.passed
    assert gradients.passed


def _pd_cooperation_run(algorithm: Algorithm, alpha: float, seed: int) -> tuple[float, float]:
    """Train on the repeated PD and return both agents' cooperation odds."""
    lr = 8.0 if algorithm is Algorithm.FAIR_MAA2C else 4.0
    config = TrainConfig(
        algorithm=algorithm,
        alpha=alpha,
        learning_rate=lr,
        critic_lr=0.2,
        gamma=0.95,
        gae_lambda=0.95,
        entropy_coef=0.0,
        num_envs=2,
        total_steps=20_000,
        seed=seed,
        critic_init=50.0,
    )
    result = train(lambda s: repeated_matrix_env(PD, 100), config)
    return tuple(float(result.policies.probs(i)[0, 0]) for i in range(2))


def test_criterion_09_pd_learning_behavior():
    """Both algorithms: alpha=0.8 must exceed 0.9 cooperation and alpha=0 must
    exceed 0.9 defection, each on >= 4 of 5 seeds within 2e4 steps.

    The alpha=0.8 leg is asserted as stated and is expected to fail: the
    unilateral gradient of J_i = log V_i + alpha log V_j at a symmetric
    cooperation level p changes sign at alpha = [(T-R)p + (P-S)(1-p)] /
    [(R-S)p + (T-P)(1-p)], so the dynamics' rest point at alpha=0.8 for
    payoffs (5,3,1,2) is p* = 7/9 < 0.9, and full mutual cooperation is
    stable only for alpha >= (T-R)/(R-S) = 1. The learner lands on p* to
    three digits (see the dynamics-consistency tests), which validates the
    implementation while the 0.9 target remains out of reach below alpha=1.
    """
    budget = time.perf_counter()
    outcomes = {}
    for algorithm in (Algorithm.FAIR_MAA2C, Algorithm.FAIR_MAPPO):
        start = time.perf_counter()
        coop_passes, defect_passes = 0, 0
        coop_values, defect_values = [], []
        for seed in range(5):
            p_coop = _pd_cooperation_run(algorithm, 0.8, seed)
            coop_values.append(tuple(round(p, 3) for p in p_coop))
            coop_passes += all(p > 0.9 for p in p_coop)
            p_defect = _pd_cooperation_run(algorithm, 0.0, seed)
            defect_values.append(tuple(round(1 - p, 3) for p in p_defect))
            defect_passes += all(1 - p > 0.9 for p in p_defect)
        per_run = (time.perf_counter() - start) / 10.0
        outcomes[algorithm.value] = (coop_passes, defect_passes, coop_values, defect_values, per_run)

    detail = "; ".join(
        f"{name}: coop {c}/5 (pC={cv}), defect {d}/5 (pD={dv}), {t:.1f}s/run"
        for name, (c, d, cv, dv, t) in outcomes.items()
    )
    passed = all(c >= 4 and d >= 4 for c, d, *_ in outcomes.values())
    emit(9, "repeated-PD learning thresholds", passed, detail)
    for name, (coop_passes, defect_passes, coop_values, defect_values, per_run) in outcomes.items():
        assert per_run < 300.0, f"{name}: {per_run:.0f}s per run (limit 5 min)"
        assert defect_passes >= 4, (
            f"{name}: alpha=0 defection >0.9 on {defect_passes}/5 seeds; pD={defect_values}"
        )
        assert coop_passes >= 4, (
            f"{name}: alpha=0.8 cooperation >0.9 on {coop_passes}/5 seeds; pC={coop_values}. "
            "The log-value objective's own gradient field caps symmetric cooperation "
            "at p* = 7/9 for payoffs (5,3,1,2); full cooperation requires alpha >= 1. "
            "The learner reproduces the exact-gradient oracle's stationary point to "
            "3 digits, so the implementation is sound and the target is unreachable."
        )


def test_criterion_10_gini_invariants():
    report = verify_gini(num_vectors=10_000, seed=13)
    emit(
        10,
        "gini invariants and spot values",
        report.passed,
        "; ".join(f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in report.checks),
    )
    for check in report.checks:
        assert check.passed, check.name


def _cleanup_gini(objective: ObjectiveMode, seed: int) -> float:
    config = TrainConfig(
        algorithm=Algorithm.FAIR_MAPPO,
        alpha=1.0,
        learning_rate=2.0,
        critic_lr=0.2,
        gamma=0.95,
        gae_lambda=0.95,
        entropy_coef=0.01,
        num_envs=10,
        total_steps=200_000,
        seed=seed,
        critic_init=1.0,
        objective=objective,
        normalize_advantages=True,
        policy_init_scale=1.0,
    )
    env_config = MiniCleanupConfig()  # spec defaults: 8x8, 3 agents, 2 river rows
    result = train(lambda s: MiniCleanupEnv(env_config, s), config)
    per_episode = {}
    for row in result.log_rows:
        per_episode[row["episode"]] = row["gini"]
    return float(np.mean(list(per_episode.values())))


def test_criterion_11_cleanup_pf_vs_uw_gini():
    """PF at alpha=1 must beat UW by >= 0.15 mean episode Gini on >= 4 of 5
    seeds under identical seeds and hyperparameters, within 20 minutes.

    Asserted as stated; expected to fail at this scale. With 3 tabular
    agents each agent's own advantage is a third of the shared signal, so
    both objectives teach every agent to harvest and policies symmetrize;
    per-episode Gini then reduces to spawn luck, which is objective-
    independent because agents cannot observe episode-level wealth. A
    16-configuration search (scarcity, cleaning duty, grid geometry, init
    asymmetry, normalization, both algorithms, learning rates 1-16) never
    moved the measured gap beyond ~0.03 in either direction.
    """
    start = time.perf_counter()
    gaps = []
    for seed in range(5):
        pf = _cleanup_gini(ObjectiveMode.PROPORTIONAL_FAIR, seed)
        uw = _cleanup_gini(ObjectiveMode.UTILITARIAN_WELFARE, seed)
        gaps.append(uw - pf)
    elapsed = time.perf_counter() - start
    wins = sum(gap >= 0.15 for gap in gaps)
    passed = wins >= 4 and elapsed < 1200.0
    emit(
        11,
        "mini-CleanUp PF vs UW Gini gap",
        passed,
        f"gaps={[round(g, 3) for g in gaps]}, wins={wins}/5, {elapsed:.0f}s",
    )
    assert elapsed < 1200.0, f"took {elapsed:.0f}s (limit 20 min)"
    assert wins >= 4, (
        f"UW-PF mean-episode-Gini gaps {[round(g, 3) for g in gaps]}: {wins}/5 seeds "
        "reached the 0.15 margin. Both objectives symmetrize at 3 tabular agents; "
        "the remaining per-episode inequality is spawn luck, which neither objective "
        "can address because agents cannot observe episode-level wealth."
    )


def test_criterion_12_train_determinism(tmp_path):
    config = TrainConfig(
        algorithm=Algorithm.FAIR_MAA2C,
        alpha=0.5,
        learning_rate=1.0,
        critic_lr=0.2,
        gamma=0.95,
        gae_lambda=0.95,
        num_envs=3,
        total_steps=3_000,
        seed=12345,
        critic_init=30.0,
    )
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        train(lambda s: repeated_matrix_env(PD, 50), config, log_path=path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    emit(12, "train log byte-identical across reruns", identical, "")
    assert identical
