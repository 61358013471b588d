"""Master problem: LP assembly, row collapsing, duals, reduced costs."""

import math

import numpy as np
import pytest

from repro.core import Ordering, all_orderings
from repro.solvers import MasterProblem, PolicyContext


@pytest.fixture()
def context(syn_a_game, syn_a_scenarios):
    return PolicyContext(
        syn_a_game, syn_a_scenarios, np.array([3.0, 3.0, 3.0, 3.0])
    )


class TestPolicyContext:
    def test_caches_pal(self, context):
        o = (0, 1, 2, 3)
        first = context.pal(o)
        second = context.pal(Ordering(o))
        assert first is second
        assert context.kernel_evaluations == 1

    def test_utilities_shape(self, context, syn_a_game):
        u = context.utilities((0, 1, 2, 3))
        assert u.shape == (
            syn_a_game.n_adversaries, syn_a_game.n_victims
        )

    def test_rejects_bad_thresholds(self, syn_a_game, syn_a_scenarios):
        with pytest.raises(ValueError):
            PolicyContext(syn_a_game, syn_a_scenarios, np.zeros(3))

    def test_representative_rows_collapse(self, context, syn_a_game):
        assert context.representative_rows is syn_a_game.representative_rows
        e_rows, v_rows = syn_a_game.representative_rows
        # Syn A has at most 5 distinct alert-type signatures per
        # adversary (4 types + benign), far fewer than 8 victims.
        assert len(e_rows) < (
            syn_a_game.n_adversaries * syn_a_game.n_victims
        )
        per_adversary = np.bincount(e_rows)
        assert per_adversary.max() <= 5


class TestMasterProblem:
    def test_lp_shapes(self, context, syn_a_game):
        master = MasterProblem(context)
        master.add_ordering(Ordering((0, 1, 2, 3)))
        master.add_ordering(Ordering((1, 0, 2, 3)))
        lp = master.build_lp()
        n_rows = len(syn_a_game.representative_rows[0])
        assert lp.a_ub.shape == (
            n_rows, 2 + syn_a_game.n_adversaries
        )
        assert lp.n_eq_rows == 1

    def test_duplicate_column_rejected(self, context):
        master = MasterProblem(context)
        assert master.add_ordering(Ordering((0, 1, 2, 3)))
        assert not master.add_ordering(Ordering((0, 1, 2, 3)))
        assert master.n_columns == 1

    def test_incomplete_column_raises(self, context):
        master = MasterProblem(context)
        with pytest.raises(ValueError):
            master.add_ordering(Ordering((0, 1)))

    def test_empty_master_raises(self, context):
        with pytest.raises(RuntimeError):
            MasterProblem(context).build_lp()

    def test_solution_matches_direct_evaluation(
        self, context, syn_a_game, syn_a_scenarios
    ):
        master = MasterProblem(context)
        for o in all_orderings(4)[:6]:
            master.add_ordering(o)
        fixed, _ = master.solve()
        ev = syn_a_game.evaluate(fixed.policy, syn_a_scenarios)
        assert math.isclose(
            fixed.objective, ev.auditor_loss, rel_tol=1e-9
        )

    def test_more_columns_never_hurt(self, context):
        master = MasterProblem(context)
        master.add_ordering(Ordering((0, 1, 2, 3)))
        few, _ = master.solve()
        for o in all_orderings(4):
            master.add_ordering(o)
        many, _ = master.solve()
        assert many.objective <= few.objective + 1e-9

    def test_existing_columns_have_nonnegative_reduced_cost(
        self, context
    ):
        master = MasterProblem(context)
        orderings = all_orderings(4)
        for o in orderings:
            master.add_ordering(o)
        _, lp_solution = master.solve()
        for o in orderings:
            assert master.reduced_cost(lp_solution, o) >= -1e-6

    def test_dual_prices_shapes(self, context, syn_a_game):
        master = MasterProblem(context)
        master.add_ordering(Ordering((0, 1, 2, 3)))
        _, lp_solution = master.solve()
        duals, y_eq = master.dual_prices(lp_solution)
        assert duals.shape == (
            syn_a_game.n_adversaries, syn_a_game.n_victims
        )
        assert np.all(duals <= 1e-9)
        assert isinstance(y_eq, float)

    def test_probabilities_form_distribution(self, context):
        master = MasterProblem(context)
        for o in all_orderings(4)[:5]:
            master.add_ordering(o)
        fixed, _ = master.solve()
        assert np.isclose(fixed.policy.probabilities.sum(), 1.0)
        assert np.all(fixed.policy.probabilities >= 0.0)

    def test_simplex_backend_agrees(self, context):
        master_scipy = MasterProblem(context, backend="scipy")
        master_simplex = MasterProblem(context, backend="simplex")
        for o in all_orderings(4)[:4]:
            master_scipy.add_ordering(o)
            master_simplex.add_ordering(o)
        a, _ = master_scipy.solve()
        b, _ = master_simplex.solve()
        assert math.isclose(a.objective, b.objective, rel_tol=1e-6)
