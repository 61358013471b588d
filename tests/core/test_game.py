"""AuditGame facade: validation, derived quantities, evaluation."""

import numpy as np
import pytest

from repro.core import (
    AlertTypeSet,
    AuditGame,
    AuditPolicy,
    Ordering,
    PayoffModel,
)
from repro.distributions import ConstantCount, JointCountModel
from tests.conftest import make_tiny_game


class TestValidation:
    def test_dimension_mismatch_types(self, tiny_game):
        with pytest.raises(ValueError, match="count model"):
            AuditGame(
                alert_types=AlertTypeSet.from_costs([1.0]),
                counts=tiny_game.counts,
                attack_map=tiny_game.attack_map,
                payoffs=tiny_game.payoffs,
                budget=1.0,
            )

    def test_dimension_mismatch_adversaries(self, tiny_game):
        bad_payoffs = PayoffModel.create(
            n_adversaries=3, n_victims=3, benefit=1.0, penalty=1.0,
            attack_cost=0.0,
        )
        with pytest.raises(ValueError, match="adversary"):
            AuditGame(
                alert_types=tiny_game.alert_types,
                counts=tiny_game.counts,
                attack_map=tiny_game.attack_map,
                payoffs=bad_payoffs,
                budget=1.0,
            )

    def test_rejects_negative_budget(self, tiny_game):
        with pytest.raises(ValueError):
            make_tiny_game(budget=-1.0)

    def test_rejects_nan_budget(self, tiny_game):
        with pytest.raises(ValueError, match="got nan"):
            make_tiny_game(budget=float("nan"))
        with pytest.raises(ValueError, match="got nan"):
            tiny_game.with_budget(float("nan"))

    def test_rejects_wrong_name_counts(self, tiny_game):
        with pytest.raises(ValueError, match="adversary_names"):
            AuditGame(
                alert_types=tiny_game.alert_types,
                counts=tiny_game.counts,
                attack_map=tiny_game.attack_map,
                payoffs=tiny_game.payoffs,
                budget=1.0,
                adversary_names=("just-one",),
            )

    def test_default_names(self, tiny_game):
        assert tiny_game.adversary_names == ("e1", "e2")
        assert tiny_game.victim_names == ("v1", "v2", "v3")


class TestDerived:
    def test_costs_vector(self, tiny_game):
        assert tiny_game.costs.tolist() == [1.0, 2.0]

    def test_threshold_upper_bounds_scale_by_cost(self):
        counts = JointCountModel([ConstantCount(3), ConstantCount(2)])
        game = make_tiny_game(counts=counts)
        # J = (3, 2), C = (1, 2) -> b_max = (3, 4).
        assert game.threshold_upper_bounds().tolist() == [3.0, 4.0]

    def test_with_budget_copies(self, tiny_game):
        other = tiny_game.with_budget(99.0)
        assert other.budget == 99.0
        assert tiny_game.budget == 3.0
        assert other.attack_map is tiny_game.attack_map

    def test_describe(self, tiny_game):
        text = tiny_game.describe()
        assert "2 alert types" in text
        assert "budget 3" in text


class TestEvaluate:
    def test_rejects_policy_type_mismatch(self, tiny_game,
                                          tiny_scenarios):
        policy = AuditPolicy.pure(Ordering((0, 1, 2)), [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            tiny_game.evaluate(policy, tiny_scenarios)

    def test_zero_budget_zero_detection(self, tiny_scenarios):
        game = make_tiny_game(budget=0.0)
        policy = AuditPolicy.pure(Ordering((0, 1)), [5.0, 5.0])
        ev = game.evaluate(policy, tiny_scenarios)
        assert np.allclose(ev.mixed_pal, 0.0)
        # Everyone attacks their best victim at full benefit - cost.
        assert np.isclose(
            ev.auditor_loss,
            float((game.payoffs.benefit.max(axis=1) - 0.5).sum()),
        )

    def test_scenario_set_exact_for_small_games(self, tiny_game):
        sc = tiny_game.scenario_set()
        assert sc.exact
