import math

import numpy as np
import pytest

from fairgame import verify
from fairgame.errors import DomainError
from fairgame.games import altruism_level_closed_form
from fairgame.markov import (
    AltruismWeights,
    SoftmaxPolicyProfile,
    TabularMarkovGame,
    fair_objective,
)
from fairgame.verify import (
    finite_difference_fair_gradient,
    random_game_and_policies,
    sample_dilemmas,
    verify_gini,
)


def reference_finite_difference_fair_gradient(
    game: TabularMarkovGame,
    policies: SoftmaxPolicyProfile,
    weights: AltruismWeights,
    h: float = 1e-5,
) -> list[np.ndarray]:
    """The per-coordinate loop: two objective calls per logit, each on a
    copy of the profile with that one logit moved by +h or -h."""
    policies = policies.copy()
    grads = []
    for i in range(policies.num_agents):
        table = policies.logits[i]
        grad = np.zeros_like(table)
        for s in range(table.shape[0]):
            for a in range(table.shape[1]):
                original = table[s, a]
                table[s, a] = original + h
                plus = fair_objective(game, policies, weights)[i]
                table[s, a] = original - h
                minus = fair_objective(game, policies, weights)[i]
                table[s, a] = original
                grad[s, a] = (plus - minus) / (2.0 * h)
        grads.append(grad)
    return grads


def verify_gradients_games():
    """The 50 games and weights of ``verify_gradients`` at its defaults."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        game, policies = random_game_and_policies(rng)
        yield game, policies, AltruismWeights(float(rng.uniform(0.0, 1.0)))


class TestFiniteDifferenceOracle:
    def test_stacked_sweep_equals_the_loop_bit_for_bit(self):
        for game, policies, weights in verify_gradients_games():
            stacked = finite_difference_fair_gradient(game, policies, weights)
            looped = reference_finite_difference_fair_gradient(game, policies, weights)
            assert len(stacked) == len(looped) == game.num_agents
            for a, b in zip(stacked, looped):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()

    def test_callers_logits_are_unchanged(self):
        game, policies, weights = next(verify_gradients_games())
        tables = policies.logits
        before = [table.tobytes() for table in tables]
        finite_difference_fair_gradient(game, policies, weights)
        assert policies.logits is tables
        assert [table.tobytes() for table in policies.logits] == before
        assert policies.version == 0


def _position_weighted_gini(consumptions):
    """A pairwise sum that weights |c_i - c_j| by the position of i, so the
    value depends on the order of the entries."""
    values = np.asarray(consumptions, dtype=float)
    n = values.shape[-1]
    weights = 1.0 + np.arange(n) / n
    diff = np.abs(values[..., :, None] - values[..., None, :])
    pairwise = (weights[:, None] * diff).sum(axis=(-2, -1))
    return pairwise / (2.0 * n * np.maximum(values.sum(axis=-1), 5e-324))


def _shifted_total_gini(consumptions):
    """The Gini with 1e-9 added to the total, which a rescaling moves."""
    values = np.asarray(consumptions, dtype=float)
    n = values.shape[-1]
    pairwise = np.abs(values[..., :, None] - values[..., None, :]).sum(axis=(-2, -1))
    return pairwise / (2.0 * n * (values.sum(axis=-1) + 1e-9))


class TestVerifyGini:
    @pytest.mark.parametrize("seed", range(10))
    def test_passes_at_other_seeds(self, seed):
        report = verify_gini(num_vectors=2000, seed=seed)
        assert [c.name for c in report.checks] == [
            "spot_even", "spot_one_hot_7", "scale_invariance",
            "permutation_invariance", "bounds", "pigou_dalton",
        ]
        assert report.passed

    @pytest.mark.parametrize(
        "mutant, caught_by",
        [
            (_position_weighted_gini, "permutation_invariance"),
            (_shifted_total_gini, "scale_invariance"),
        ],
    )
    def test_fails_under_mutant(self, monkeypatch, mutant, caught_by):
        monkeypatch.setattr(verify, "gini", mutant)
        checks = {c.name: c.passed for c in verify_gini(num_vectors=2000).checks}
        assert not checks[caught_by]


class TestSampleDilemmas:
    @pytest.mark.parametrize(
        "alpha_range", [(1.2, 1.5), (-0.1, 0.5), (0.5, 1.01), (0.6, 0.4), (0.2, math.nan)]
    )
    def test_range_outside_the_level_range_raises(self, alpha_range):
        with pytest.raises(DomainError, match="alpha_range"):
            sample_dilemmas(np.random.default_rng(0), 3, alpha_range=alpha_range)

    @pytest.mark.parametrize("alpha_range", [(0.5, 0.5), (1.0, 1.0), (1e-9, 1e-9)])
    def test_zero_width_range_above_zero_raises_before_drawing(self, alpha_range):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="alpha_range: .* has zero width"):
            sample_dilemmas(rng, 1, alpha_range=alpha_range)
        assert rng.bit_generator.state == state

    def test_zero_range_draws_dilemmas_without_temptation(self):
        kept = sample_dilemmas(np.random.default_rng(2), 20, alpha_range=(0.0, 0.0))
        assert len(kept) == 20
        for payoffs in kept:
            assert payoffs.T <= payoffs.R
            assert altruism_level_closed_form(payoffs) == 0.0

    def test_zero_range_with_temptation_raises(self):
        with pytest.raises(DomainError, match="alpha_range: .* has zero width"):
            sample_dilemmas(
                np.random.default_rng(0), 1, require_temptation=True, alpha_range=(0.0, 0.0)
            )

    def test_levels_fall_in_the_range(self):
        kept = sample_dilemmas(
            np.random.default_rng(1), 50, require_temptation=True, alpha_range=(0.2, 0.4)
        )
        assert len(kept) == 50
        for payoffs in kept:
            assert payoffs.T > payoffs.R
            assert 0.2 - 1e-12 <= altruism_level_closed_form(payoffs) <= 0.4 + 1e-12
