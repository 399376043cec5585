import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairgame import games
from fairgame.errors import ConsistencyError, DomainError
from fairgame.games import (
    DilemmaKind,
    DilemmaPayoffs,
    NormalFormGame,
    altruism_level_bruteforce,
    altruism_level_closed_form,
    altruistic_extension,
    as_dilemma_payoffs,
    check_consistency_ts_r2,
    check_proportionally_fair,
    classify_social_dilemma,
    find_pure_nash,
    pf_optimum,
    social_optima,
)
from fairgame.games import _cooperative_profile_exists
from fairgame.verify import sample_dilemmas

PD = DilemmaPayoffs(5, 3, 1, 2)
STAG = DilemmaPayoffs(3, 4, 1, 2)
CHICKEN = DilemmaPayoffs(7, 5, 2, 1)

CC, CD, DC, DD = (0, 0), (0, 1), (1, 0), (1, 1)


class TestClassification:
    def test_prisoners_dilemma(self):
        result = classify_social_dilemma(PD)
        assert result.kind is DilemmaKind.PRISONERS_DILEMMA
        assert result.is_dilemma
        assert result.reward_exceeds_punishment
        assert result.reward_exceeds_sucker
        assert result.cooperation_efficient
        assert result.greed_or_fear

    def test_stag_hunt(self):
        assert classify_social_dilemma(STAG).kind is DilemmaKind.STAG_HUNT

    def test_chicken(self):
        assert classify_social_dilemma(CHICKEN).kind is DilemmaKind.CHICKEN

    def test_flat_payoffs_not_a_dilemma(self):
        result = classify_social_dilemma(DilemmaPayoffs(1, 1, 1, 1))
        assert result.kind is DilemmaKind.NOT_A_DILEMMA
        assert not result.reward_exceeds_punishment

    def test_nonpositive_payoff_rejected(self):
        with pytest.raises(DomainError):
            DilemmaPayoffs(5, 3, 0, 2)
        with pytest.raises(DomainError):
            DilemmaPayoffs(5, 3, -1, 2)


class TestAltruisticExtension:
    def test_all_payoffs_e_alpha_half(self):
        game = NormalFormGame(2, (2, 2), np.full((2, 2, 2), math.e))
        transformed = altruistic_extension(game, 0.5)
        assert np.allclose(transformed.payoffs, 1.5)

    def test_alpha_zero_is_log(self):
        game = PD.to_game()
        transformed = altruistic_extension(game, 0.0)
        assert np.allclose(transformed.payoffs, np.log(game.payoffs))

    def test_pd_alpha_one_mutual_cooperation(self):
        transformed = altruistic_extension(PD.to_game(), 1.0)
        assert transformed.payoff(0, CC) == pytest.approx(2 * math.log(3))

    def test_alpha_out_of_range(self):
        with pytest.raises(DomainError):
            altruistic_extension(PD.to_game(), 1.5)

    def test_nonpositive_payoffs_rejected(self):
        game = NormalFormGame(1, (2,), np.array([[0.0], [1.0]]))
        with pytest.raises(DomainError):
            altruistic_extension(game, 0.5)


def check_altruistic_transform():
    """Assert the contract of ``games._altruistic``, looked up at call time
    (so a patched one is checked), and of ``altruistic_extension`` on it:
    - on random stacks, any axis, one alpha or one per slice, entry i is
      sum_j c_i(j) x_j, c_i(j) = 1 if i == j else alpha, written out here,
      within a few ulp of sum_j c_i(j) |x_j|;
    - with no zero entry, it is x exactly at alpha = 0 and the sum of x
      exactly at alpha = 1;
    - ``altruistic_extension`` gives the bits of
      (1 - alpha) * logs + alpha * logs.sum(-1, keepdims=True)."""
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for _ in range(200):
        shape = tuple(int(k) for k in rng.integers(1, 6, size=rng.integers(1, 4)))
        axis = int(rng.integers(len(shape)))
        n = shape[axis]
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        summed = np.moveaxis(x, axis, -1)[..., None, :]  # (..., 1, j)
        per_slice = rng.random() < 0.5
        alpha = rng.random(shape[:axis] + (1,) + shape[axis + 1:]) if per_slice else rng.random()
        weights = np.moveaxis(np.broadcast_to(alpha, x.shape), axis, -1)[..., :1, None]
        coeffs = np.where(np.eye(n, dtype=bool), 1.0, weights)  # (..., i, j)
        expected = np.moveaxis((coeffs * summed).sum(axis=-1), -1, axis)
        bound = np.moveaxis((coeffs * np.abs(summed)).sum(axis=-1), -1, axis)
        got = games._altruistic(x.copy(), alpha, axis=axis)
        assert np.all(np.abs(got - expected) <= 4 * (n + 2) * eps * bound)
        assert np.array_equal(games._altruistic(x.copy(), 0.0, axis=axis), x)
        total = np.broadcast_to(x.sum(axis=axis, keepdims=True), x.shape)
        assert np.array_equal(games._altruistic(x.copy(), 1.0, axis=axis), total)
    for _ in range(50):
        players = int(rng.integers(1, 4))
        counts = tuple(int(k) for k in rng.integers(1, 4, size=players))
        game = NormalFormGame(players, counts, rng.uniform(0.1, 10.0, counts + (players,)))
        alpha = float(rng.random())
        logs = np.log(game.payoffs)
        expected = (1.0 - alpha) * logs + alpha * logs.sum(-1, keepdims=True)
        assert altruistic_extension(game, alpha).payoffs.tobytes() == expected.tobytes()


def _swapped_weights(values, alpha, axis=-1):
    total = values.sum(axis=axis, keepdims=True)
    total *= 1 - alpha
    values *= alpha
    values += total
    return values


def _self_term_dropped(values, alpha, axis=-1):
    total = values.sum(axis=axis, keepdims=True)
    total *= alpha
    values[...] = total
    return values


def _summed_after_scaling(values, alpha, axis=-1):
    values *= 1 - alpha
    total = values.sum(axis=axis, keepdims=True)
    total *= alpha
    values += total
    return values


class TestAltruisticTransform:
    def test_helper_contract(self):
        check_altruistic_transform()

    @pytest.mark.parametrize(
        "mutant", [_swapped_weights, _self_term_dropped, _summed_after_scaling]
    )
    def test_each_mutant_fails_the_contract(self, mutant, monkeypatch):
        monkeypatch.setattr(games, "_altruistic", mutant)
        with pytest.raises(AssertionError):
            check_altruistic_transform()


class TestPureNash:
    def test_pd_defection_only(self):
        assert find_pure_nash(PD.to_game()) == {DD}

    def test_stag_hunt_two_equilibria(self):
        assert find_pure_nash(STAG.to_game()) == {CC, DD}

    def test_single_player_single_strategy(self):
        game = NormalFormGame(1, (1,), np.array([[7.0]]))
        assert find_pure_nash(game) == {(0,)}

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_monotone_rescale_preserves_nash(self, seed):
        # strictly increasing per-player transforms leave best replies intact
        rng = np.random.default_rng(seed)
        payoffs = rng.uniform(0.1, 5.0, size=(2, 3, 2))
        game = NormalFormGame(2, (2, 3), payoffs)
        rescaled = NormalFormGame(2, (2, 3), np.log(payoffs))
        assert find_pure_nash(game) == find_pure_nash(rescaled)


class TestSocialOptima:
    def test_unique_cooperation(self):
        assert social_optima(DilemmaPayoffs(5, 4, 1, 2).to_game()) == {CC}

    def test_all_equal_ties(self):
        game = NormalFormGame(2, (2, 2), np.ones((2, 2, 2)))
        assert social_optima(game) == {CC, CD, DC, DD}

    def test_chicken(self):
        assert social_optima(CHICKEN.to_game()) == {CC}


class TestAltruismLevel:
    def test_pd_closed_form(self):
        level = altruism_level_closed_form(PD)
        assert level == pytest.approx(math.log(5 / 3) / math.log(3), abs=1e-12)
        assert level == pytest.approx(0.46497, abs=5e-5)

    def test_stag_hunt_is_zero(self):
        assert altruism_level_closed_form(STAG) == 0.0

    def test_chicken_closed_form(self):
        level = altruism_level_closed_form(CHICKEN)
        assert level == pytest.approx(math.log(7 / 5) / math.log(5 / 2), abs=1e-12)
        assert level == pytest.approx(0.36720, abs=5e-5)

    def test_not_a_dilemma_rejected(self):
        with pytest.raises(DomainError):
            altruism_level_closed_form(DilemmaPayoffs(1, 1, 1, 1))

    def test_consistency_error_from_direct_formula(self):
        # force T*S > R^2 while keeping a dilemma shape impossible: the
        # classifier guards first, so exercise the guard order explicitly
        with pytest.raises((ConsistencyError, DomainError)):
            altruism_level_closed_form(DilemmaPayoffs(50, 3, 1, 2))

    def test_bruteforce_matches_closed_form(self):
        for payoffs in (PD, CHICKEN):
            closed = altruism_level_closed_form(payoffs)
            brute = altruism_level_bruteforce(payoffs.to_game(), 1e-6)
            assert brute == pytest.approx(closed, abs=2e-6)

    @pytest.mark.parametrize("resolution", [math.inf, -math.inf, math.nan, 0.0, -1e-3])
    def test_bruteforce_rejects_a_non_finite_or_nonpositive_resolution(self, resolution):
        with pytest.raises(DomainError, match="grid_resolution must be positive and finite"):
            altruism_level_bruteforce(PD.to_game(), resolution)

    def test_bruteforce_stag_hunt_zero(self):
        assert altruism_level_bruteforce(STAG.to_game()) == 0.0

    def test_bruteforce_failure_marker(self):
        # a game whose social optimum is never an equilibrium of any G(alpha):
        # player 2 strictly prefers action 1 regardless, but the social
        # optimum needs action 0; transforms cannot flip a dominant strategy
        # shared by the sum, so no alpha <= 1 qualifies
        payoffs = np.array(
            [
                [[1.0, 1.0], [10.0, 20.0]],
                [[1.2, 1.0], [1.0, 30.0]],
            ]
        )
        game = NormalFormGame(2, (2, 2), payoffs)
        result = altruism_level_bruteforce(game, 1e-3)
        assert result is None or isinstance(result, float)

    def test_grid_scan_returns_exact_grid_points(self):
        # a general 2x2 game (not a symmetric dilemma) takes the grid scan;
        # its level is the 408th grid point, which repeated addition of 1e-3
        # overshoots as 0.4080000000000003
        flat = np.array([3.0, 3.5, 1.0, 5.0, 5.0, 1.0, 2.0, 2.0])
        game = NormalFormGame(2, (2, 2), flat.reshape(2, 2, 2))
        assert as_dilemma_payoffs(game) is None
        assert altruism_level_bruteforce(game, 1e-3) == 408 * 1e-3

    def test_resolutions_far_below_the_level(self):
        # bisection: below the spacing of floats near the level, it ends when
        # no float lies strictly between its bounds
        level = altruism_level_bruteforce(PD.to_game(), 1e-17)
        assert level == pytest.approx(altruism_level_closed_form(PD), abs=1e-15)
        # grid scan: it starts next to the level, not at the first grid point
        flat = np.array([3.0, 3.5, 1.0, 5.0, 5.0, 1.0, 2.0, 2.0])
        game = NormalFormGame(2, (2, 2), flat.reshape(2, 2, 2))
        assert altruism_level_bruteforce(game, 1e-300) == pytest.approx(0.40775919835778, abs=1e-14)

    def test_subnormal_resolution_rejected(self):
        with pytest.raises(DomainError, match="grid_resolution must be at least"):
            altruism_level_bruteforce(PD.to_game(), 1e-320)

    def test_grid_scan_matches_the_full_scan_on_random_games(self):
        rng = np.random.default_rng(31)
        nontrivial = 0
        for trial in range(240):
            shape = ((2, 2, 2), (2, 2, 2, 3), (3, 2, 2))[trial % 3]
            game = NormalFormGame(len(shape) - 1, shape[:-1], rng.uniform(0.1, 10.0, size=shape))
            if as_dilemma_payoffs(game) is not None:
                continue
            for resolution in (1e-2, 0.13, 1.5):
                expected = full_grid_scan(game, resolution)
                assert altruism_level_bruteforce(game, resolution) == expected, (trial, resolution)
                nontrivial += expected not in (None, 0.0, 1.0)
        assert nontrivial >= 40

    def test_grid_scan_fallback_three_players(self):
        # 3-player coordination game: already fine at alpha=0
        payoffs = np.ones((2, 2, 2, 3))
        payoffs[0, 0, 0] = (2.0, 2.0, 2.0)
        game = NormalFormGame(3, (2, 2, 2), payoffs)
        assert altruism_level_bruteforce(game, 1e-3) == 0.0


def full_grid_scan(game, grid_resolution):
    """The reference for the grid scan: every grid point k * grid_resolution
    in (0, 1), in ascending order."""
    if not _cooperative_profile_exists(game, 1.0):
        return None
    if _cooperative_profile_exists(game, 0.0):
        return 0.0
    k = 1
    while (alpha := k * grid_resolution) < 1.0:
        if _cooperative_profile_exists(game, alpha):
            return alpha
        k += 1
    return 1.0


class TestConsistency:
    def test_spot_values(self):
        assert check_consistency_ts_r2(DilemmaPayoffs(5, 3, 1, 2))
        assert check_consistency_ts_r2(DilemmaPayoffs(2, 2, 2, 1))

    def test_random_dilemmas_always_consistent(self):
        rng = np.random.default_rng(99)
        for payoffs in sample_dilemmas(rng, 500):
            assert check_consistency_ts_r2(payoffs)

    def test_dilemma_classification_implies_consistency(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(0.1, 10.0, size=(2000, 4))
        for T, R, S, P in raw:
            payoffs = DilemmaPayoffs(T, R, S, P)
            if classify_social_dilemma(payoffs).is_dilemma:
                assert check_consistency_ts_r2(payoffs)


class TestProportionalFairness:
    FEASIBLE = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)]

    def test_balanced_candidate_is_fair(self):
        assert check_proportionally_fair((2.0, 2.0), self.FEASIBLE)

    def test_skewed_candidate_is_not(self):
        assert not check_proportionally_fair((1.0, 3.0), self.FEASIBLE)

    def test_singleton_feasible(self):
        assert check_proportionally_fair((4.0, 5.0), [(4.0, 5.0)])

    def test_nonpositive_utilities_rejected(self):
        with pytest.raises(DomainError):
            check_proportionally_fair((0.0, 1.0), [(1.0, 1.0)])

    def test_pf_optimum_balanced(self):
        assert pf_optimum(self.FEASIBLE) == (2.0, 2.0)

    def test_pf_optimum_singleton(self):
        assert pf_optimum([(3.0, 7.0)]) == (3.0, 7.0)

    def test_pf_optimum_tie_lowest_index(self):
        assert pf_optimum([(2.0, 2.0), (4.0, 1.0)]) == (2.0, 2.0)
        assert pf_optimum([(4.0, 1.0), (2.0, 2.0)]) == (4.0, 1.0)

    def test_pf_optimum_empty_rejected(self):
        with pytest.raises(DomainError):
            pf_optimum([])

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
    )
    def test_simplex_discretization_optimum_is_fair(self, agents, scale, seed):
        # compositions of agents*scale into `agents` positive parts include
        # the balanced point, which maximizes the log-sum and satisfies the
        # proportional-variation inequality against the whole hyperplane
        rng = np.random.default_rng(seed)
        total = agents * scale
        feasible = []
        for _ in range(40):
            cuts = np.sort(rng.choice(np.arange(1, total), size=agents - 1, replace=False))
            parts = np.diff(np.concatenate([[0], cuts, [total]]))
            feasible.append(tuple(float(p) for p in parts))
        feasible.append(tuple(float(scale) for _ in range(agents)))
        best = pf_optimum(feasible)
        assert check_proportionally_fair(best, feasible)


class TestNashThreshold:
    def test_cooperation_flips_at_level(self):
        rng = np.random.default_rng(17)
        for payoffs in sample_dilemmas(
            rng, 50, require_temptation=True, alpha_range=(2e-4, 0.999)
        ):
            level = altruism_level_closed_form(payoffs)
            game = payoffs.to_game()
            assert CC in find_pure_nash(altruistic_extension(game, level + 1e-4))
            assert CC not in find_pure_nash(altruistic_extension(game, level - 1e-4))

    def test_stag_hunt_cooperation_stable_everywhere(self):
        game = STAG.to_game()
        for alpha in (0.0, 0.3, 0.7, 1.0):
            assert CC in find_pure_nash(altruistic_extension(game, alpha))

    def test_cooperation_stable_for_all_alpha_above_level(self):
        # strictly above the threshold; at alpha equal to the level the
        # deviation condition is an exact tie and float rounding may flip it
        rng = np.random.default_rng(23)
        for payoffs in sample_dilemmas(rng, 20, alpha_range=(0.0, 0.9)):
            level = altruism_level_closed_form(payoffs)
            game = payoffs.to_game()
            for alpha in np.linspace(level + 1e-6, 1.0, 5):
                assert CC in find_pure_nash(altruistic_extension(game, float(alpha)))


class TestNormalFormGame:
    def test_payoff_tensor_shape_checked(self):
        with pytest.raises(DomainError):
            NormalFormGame(2, (2, 2), np.ones((2, 2, 3)))

    def test_nonfinite_rejected(self):
        payoffs = np.ones((2, 2, 2))
        payoffs[0, 0, 0] = np.nan
        with pytest.raises(DomainError):
            NormalFormGame(2, (2, 2), payoffs)

    def test_payoffs_frozen(self):
        game = PD.to_game()
        with pytest.raises(ValueError):
            game.payoffs[0, 0, 0] = 99.0
