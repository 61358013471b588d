"""Shared subset-table entries: memo-filled tables equal fresh builds.

:class:`~repro.core.pal_table.PalEntryMemo` lets every ``PalTable`` of
one enumeration solver copy the entries an earlier threshold vector
already computed.  Each test compares memo-filled tables against fresh
builds *bitwise* over a sequence of vectors priced through one memo.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import obs
from repro.core import kernels
from repro.core import pal_table as pal_table_module
from repro.core.detection import OrderingPricer
from repro.core.pal_table import PalEntryMemo, PalTable, _subset_layout
from repro.datasets import syn_a
from repro.distributions import (
    DiscretizedGaussian,
    JointCountModel,
    ScenarioSet,
)
from repro.engine import AuditEngine
from repro.obs import metrics as obs_metrics
from repro.solvers.bruteforce import _grid_axes
from repro.solvers.enumeration import EnumerationSolver

#: Distinct entries of the Syn A B=3 brute-force grid (241 vectors x 32
#: entries = 7712 in all).
SYNA_B3_DISTINCT = 1940
SYNA_B3_ENTRIES = 241 * 4 * 8


def syn_a_grid(budget: int) -> list[np.ndarray]:
    """The brute-force grid of Syn A at ``budget``, in pricing order."""
    game = syn_a(budget=budget)
    return [
        np.asarray(combo, dtype=np.float64)
        for combo in itertools.product(*_grid_axes(game))
        if sum(combo) >= game.budget
    ]


def assert_memo_parity(
    vectors, scenarios, costs, budget, rule="unit", scenario_chunk=None
) -> PalEntryMemo:
    """Price ``vectors`` through one memo; each table equals a fresh one."""
    memo = PalEntryMemo()
    for b in vectors:
        pricer = OrderingPricer(b, scenarios, costs, budget, rule)
        fresh = PalTable.from_pricer(pricer, scenario_chunk)
        shared = PalTable.from_pricer(pricer, scenario_chunk, memo=memo)
        assert shared.table.tobytes() == fresh.table.tobytes(), b
    return memo


@pytest.fixture
def registry():
    """Telemetry on, into a fresh registry; global state restored."""
    enabled, saved = obs_metrics._enabled, obs_metrics._registry
    reg = obs.MetricsRegistry()
    obs.enable(reg)
    yield reg
    obs_metrics._enabled, obs_metrics._registry = enabled, saved


def fractional_world():
    """A 4-type game with non-unit costs, priced at ISHM-style steps."""
    joint = JointCountModel(
        [DiscretizedGaussian(1.5 + 0.6 * t, 1.0) for t in range(4)]
    )
    scenarios = joint.sample_scenarios(300, np.random.default_rng(11))
    costs = np.array([1.5, 1.0, 2.0, 0.7])
    # 0.3 steps: b_t in {1.5, 1.8, 2.1, 2.4, 2.7} all give type 0 (cost
    # 1.5) a quota of 1, so different b_0 share entries.
    steps = np.round(np.arange(0.0, 3.0, 0.3), 10)
    vectors = [
        np.array(v) for v in itertools.product(steps[::2], steps[1::3],
                                               steps[::3], steps[::2])
    ]
    return vectors, scenarios, costs, 4.5


class TestParity:
    @pytest.mark.parametrize("budget", [2, 3, 6])
    def test_syn_a_grid(self, budget, syn_a_scenarios):
        game = syn_a(budget=budget)
        memo = assert_memo_parity(
            syn_a_grid(budget), syn_a_scenarios, game.costs, game.budget
        )
        assert len(memo) > 0

    def test_fractional_vectors_with_shared_quotas(self, registry):
        vectors, scenarios, costs, budget = fractional_world()
        assert_memo_parity(vectors, scenarios, costs, budget)
        reused = registry.get_counter(
            "repro_pal_table_entries_total", source="reused"
        )
        assert reused > 0

    def test_strict_zero_count_rule(self):
        vectors, scenarios, costs, budget = fractional_world()
        counts = scenarios.counts.copy()
        counts[::7, 1] = 0  # rows where the strict rule differs
        zeros = ScenarioSet(counts=counts, weights=scenarios.weights)
        assert_memo_parity(vectors, zeros, costs, budget, rule="strict")

    def test_multi_chunk_scenario_axis(self):
        vectors, scenarios, costs, budget = fractional_world()
        assert_memo_parity(
            vectors[:200], scenarios, costs, budget, scenario_chunk=37
        )

    def test_cap_clears_the_memo(self, monkeypatch, syn_a_scenarios):
        game = syn_a(budget=2)
        unbounded = assert_memo_parity(
            syn_a_grid(2), syn_a_scenarios, game.costs, game.budget
        )
        monkeypatch.setattr(pal_table_module, "_ENTRY_MEMO_CAPACITY", 40)
        capped = assert_memo_parity(
            syn_a_grid(2), syn_a_scenarios, game.costs, game.budget
        )
        # One build stores at most 28 entries (32 minus the 4 that
        # cover every type), so a cleared memo restarts below the cap.
        assert len(capped) <= 40 < len(unbounded)

    def test_workers_2_equals_workers_1(self):
        game = syn_a(budget=2)
        vectors = np.stack(syn_a_grid(2))
        serial = AuditEngine(game, workers=1).price_batch(vectors)
        with AuditEngine(game, workers=2) as engine:
            parallel = engine.price_batch(vectors, chunk_size=16)
        for a, b in zip(serial, parallel, strict=True):
            assert a.objective == b.objective
            assert np.array_equal(
                a.adversary_utilities, b.adversary_utilities
            )
            assert a.policy.orderings == b.policy.orderings
            assert np.array_equal(
                a.policy.probabilities, b.policy.probabilities
            )


class TestBruteForceReuse:
    def test_type_products_runs_only_distinct_rows(self, monkeypatch):
        type_products = kernels.type_products
        rows_swept = []

        def counting(consumed, rows, *args):
            rows_swept.append(len(rows))
            return type_products(consumed, rows, *args)

        monkeypatch.setattr(kernels, "type_products", counting)
        AuditEngine(syn_a(budget=3), workers=1).solve("bruteforce")
        assert sum(rows_swept) <= SYNA_B3_DISTINCT

    def test_entry_counters(self, registry):
        result = AuditEngine(syn_a(budget=3), workers=1).solve(
            "bruteforce"
        )
        assert result.thresholds.tolist() == [1.0, 1.0, 1.0, 1.0]
        computed = registry.get_counter(
            "repro_pal_table_entries_total", source="computed"
        )
        reused = registry.get_counter(
            "repro_pal_table_entries_total", source="reused"
        )
        assert computed == SYNA_B3_DISTINCT
        assert reused == SYNA_B3_ENTRIES - SYNA_B3_DISTINCT

    def test_solve_batch_shares_the_memo(self, registry, syn_a_scenarios):
        """The batched path (what pool workers run) reuses entries too."""
        game = syn_a(budget=3)
        solver = EnumerationSolver(game, syn_a_scenarios)
        grid = np.stack(syn_a_grid(3))
        for start in range(0, len(grid), 64):
            solver.solve_batch(grid[start:start + 64])
        assert registry.get_counter(
            "repro_pal_table_entries_total", source="computed"
        ) == SYNA_B3_DISTINCT


class TestMemoContract:
    def test_a_table_without_memo_computes_every_entry(self, registry):
        vectors, scenarios, costs, budget = fractional_world()
        PalTable(vectors[3], scenarios, costs, budget)
        assert registry.get_counter(
            "repro_pal_table_entries_total", source="computed"
        ) == 32

    def test_entries_covering_every_type_are_not_stored(self):
        vectors, scenarios, costs, budget = fractional_world()
        memo = PalEntryMemo()
        PalTable.from_pricer(
            OrderingPricer(vectors[5], scenarios, costs, budget), memo=memo
        )
        assert len(memo) == 4 * 8 - 4

    def test_memo_refuses_another_scope(self):
        vectors, scenarios, costs, budget = fractional_world()
        memo = PalEntryMemo()
        pricer = OrderingPricer(vectors[0], scenarios, costs, budget)
        PalTable.from_pricer(pricer, memo=memo)
        with pytest.raises(ValueError, match="bound to another"):
            PalTable.from_pricer(pricer, scenario_chunk=37, memo=memo)
        other = OrderingPricer(vectors[0], scenarios, costs, budget + 1)
        with pytest.raises(ValueError, match="bound to another"):
            PalTable.from_pricer(other, memo=memo)

    def test_per_type_constants_are_shared_and_read_only(self):
        layout = _subset_layout(4)
        assert _subset_layout(4) is layout
        assert layout.rows_without.shape == (4, 8)
        with pytest.raises(ValueError):
            layout.rows_without[0, 0] = 1
        with pytest.raises(ValueError):
            layout.prev[1] = 0
