"""The master LP's deduplicated row set, computed once per game.

:attr:`AuditGame.representative_rows` deduplicates with one vectorized
``np.unique``.  The tuple/set loop below is the reference oracle;
parity is checked on every shipped dataset game and on hand-built
rounding edge cases.  The regression tests pin that the set is computed
exactly once per game, however many threshold vectors a solve prices,
and that every context shares the same arrays.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core import (
    AlertType,
    AlertTypeSet,
    AttackTypeMap,
    AuditGame,
    PayoffModel,
)
from repro.datasets import rea_a, rea_b, syn_a
from repro.distributions import ConstantCount, JointCountModel
from repro.engine import AuditEngine
from repro.solvers import CGGSSolver, PolicyContext


def reference_rows(game: AuditGame) -> tuple[np.ndarray, np.ndarray]:
    """The original tuple/set dedup loop (the oracle)."""
    probs = game.attack_map.probabilities
    payoffs = game.payoffs
    e_rows: list[int] = []
    v_rows: list[int] = []
    for e in range(game.n_adversaries):
        seen: set[tuple] = set()
        for v in range(game.n_victims):
            signature = (
                tuple(np.round(probs[e, v], 12)),
                round(float(payoffs.benefit[e, v]), 12),
                round(float(payoffs.penalty[e, v]), 12),
                round(float(payoffs.attack_cost[e, v]), 12),
            )
            if signature in seen:
                continue
            seen.add(signature)
            e_rows.append(e)
            v_rows.append(v)
    return (
        np.asarray(e_rows, dtype=np.int64),
        np.asarray(v_rows, dtype=np.int64),
    )


def edge_case_game() -> AuditGame:
    """Two adversaries, five victims with rounding-boundary signatures.

    Per adversary: v1 differs from v0 only by a ``-0.0`` benefit (must
    collapse), v3 from v2 by 1e-13 in one probability (must collapse),
    v4 from v2 by 1e-10 (must stay distinct).  Adversary 1 repeats
    adversary 0's signatures, which must not merge across adversaries.
    """
    probs_row = np.array(
        [
            [1.0, 0.0],
            [1.0, 0.0],
            [0.5, 0.25],
            [0.5 + 1e-13, 0.25],
            [0.5 + 1e-10, 0.25],
        ]
    )
    benefit_row = np.array([0.0, -0.0, 3.0, 3.0, 3.0])
    return AuditGame(
        alert_types=AlertTypeSet(
            (AlertType("a", audit_cost=1.0), AlertType("b", audit_cost=1.0))
        ),
        counts=JointCountModel([ConstantCount(2), ConstantCount(1)]),
        attack_map=AttackTypeMap(np.stack([probs_row, probs_row])),
        payoffs=PayoffModel.create(
            n_adversaries=2,
            n_victims=5,
            benefit=np.stack([benefit_row, benefit_row]),
            penalty=5.0,
            attack_cost=0.5,
        ),
        budget=2.0,
    )


DATASET_GAMES = [
    pytest.param(syn_a, id="syn_a"),
    *(
        pytest.param(functools.partial(rea_a, seed=s), id=f"rea_a-{s}")
        for s in range(5)
    ),
    *(
        pytest.param(functools.partial(rea_b, seed=s), id=f"rea_b-{s}")
        for s in range(3)
    ),
    pytest.param(edge_case_game, id="edge-cases"),
]


class TestParity:
    @pytest.mark.parametrize("make_game", DATASET_GAMES)
    def test_matches_reference_loop(self, make_game):
        game = make_game()
        e_ref, v_ref = reference_rows(game)
        e_rows, v_rows = game.representative_rows
        assert e_rows.dtype == v_rows.dtype == np.int64
        np.testing.assert_array_equal(e_rows, e_ref)
        np.testing.assert_array_equal(v_rows, v_ref)

    def test_edge_cases(self):
        e_rows, v_rows = edge_case_game().representative_rows
        np.testing.assert_array_equal(e_rows, [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(v_rows, [0, 2, 4, 0, 2, 4])

    def test_empty_attack_grid(self):
        game = AuditGame(
            alert_types=AlertTypeSet((AlertType("a", audit_cost=1.0),)),
            counts=JointCountModel([ConstantCount(1)]),
            attack_map=AttackTypeMap(np.zeros((2, 0, 1))),
            payoffs=PayoffModel.create(2, 0, 1.0, 1.0, 1.0),
            budget=1.0,
        )
        e_rows, v_rows = game.representative_rows
        assert e_rows.shape == v_rows.shape == (0,)

    def test_cached_and_read_only(self):
        game = edge_case_game()
        rows = game.representative_rows
        assert game.representative_rows is rows
        for arr in rows:
            with pytest.raises(ValueError):
                arr[0] = 1
        # A derived game is a new game with its own (equal) row set.
        other = game.with_budget(3.0)
        assert other.representative_rows is not rows
        np.testing.assert_array_equal(other.representative_rows[1], rows[1])


@pytest.fixture()
def row_spy(monkeypatch):
    """Record each row-set computation and every context built."""
    original = AuditGame.__dict__["representative_rows"].func
    computed: list[AuditGame] = []

    def counting(game):
        computed.append(game)
        return original(game)

    spy = functools.cached_property(counting)
    spy.__set_name__(AuditGame, "representative_rows")
    monkeypatch.setattr(AuditGame, "representative_rows", spy)

    contexts: list[PolicyContext] = []
    init = PolicyContext.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(PolicyContext, "__init__", recording_init)
    return computed, contexts


def _assert_shared_once(game, computed, contexts):
    assert [id(g) for g in computed] == [id(game)]
    assert len(contexts) > 1
    e_rows, v_rows = contexts[0].representative_rows
    for context in contexts:
        assert context.game is game
        assert context.representative_rows[0] is e_rows
        assert context.representative_rows[1] is v_rows


class TestComputedOncePerGame:
    def test_ishm_cggs_solve(self, row_spy):
        computed, contexts = row_spy
        game = rea_a(budget=50, seed=7)
        engine = AuditEngine(game, n_samples=200)
        result = engine.solve("ishm", step_size=0.3, max_probes=6)
        assert np.isfinite(result.objective)
        _assert_shared_once(game, computed, contexts)

    def test_cggs_solver_over_several_vectors(
        self, row_spy, syn_a_game, syn_a_scenarios
    ):
        computed, contexts = row_spy
        game = syn_a_game.with_budget(4.0)
        solver = CGGSSolver(game, syn_a_scenarios)
        for b in ([3.0, 3.0, 3.0, 3.0], [1.0, 2.0, 3.0, 4.0], [0.0] * 4):
            solver.solve(np.array(b))
        assert len(contexts) == 3
        _assert_shared_once(game, computed, contexts)
