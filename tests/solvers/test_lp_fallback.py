"""The fallbacks between LP backends in ``solve_lp``.

``fixtures/syna_b10_master_8_4_7_5.npz`` is the 20x29 Syn A (budget 10)
master LP at thresholds ``(8, 4, 7, 5)``: a zero right-hand side on
which the dense simplex spends its whole iteration cap in phase 1,
while HiGHS solves it.  ``solve_lp(..., backend="simplex")`` must still
answer, via HiGHS, and count the retry.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.solvers.lp import (
    LinearProgram,
    LPSolution,
    LPStatus,
    scipy_backend,
    solve_lp,
)
from repro.solvers.lp.simplex import SimplexSolver, solve_with_simplex

FIXTURE = Path(__file__).parent / "fixtures" / "syna_b10_master_8_4_7_5.npz"

#: HiGHS's optimum of the fixture LP.
HIGHS_OBJECTIVE = -3.020242789670223


def _bound(value: float) -> float | None:
    return None if np.isnan(value) else float(value)


def load_fixture() -> LinearProgram:
    data = np.load(FIXTURE)
    return LinearProgram(
        objective=data["objective"],
        a_ub=data["a_ub"],
        b_ub=data["b_ub"],
        a_eq=data["a_eq"],
        b_eq=data["b_eq"],
        bounds=tuple(
            (_bound(lo), _bound(hi))
            for lo, hi in zip(data["lower"], data["upper"], strict=True)
        ),
    )


@pytest.fixture
def registry():
    """A fresh enabled telemetry registry; global state restored after."""
    enabled, previous = obs_metrics._enabled, obs_metrics._registry
    reg = obs_metrics.enable(obs_metrics.MetricsRegistry())
    yield reg
    obs_metrics._enabled, obs_metrics._registry = enabled, previous


def fallbacks(reg, **labels) -> float:
    return reg.get_counter(
        "repro_lp_backend_fallbacks_total",
        from_backend="simplex",
        to_backend="scipy",
        **labels,
    )


class TestSimplexToHighs:
    def test_fixture_defeats_the_simplex(self):
        # The defect the fallback covers; when the simplex's
        # anti-cycling is fixed this flips and the fixture becomes a
        # plain regression test for it.
        raw = solve_with_simplex(load_fixture())
        assert raw.status == LPStatus.ITERATION_LIMIT

    def test_fixture_solves_through_highs(self, registry):
        solution = solve_lp(load_fixture(), backend="simplex")
        assert solution.is_optimal
        assert abs(solution.objective_value - HIGHS_OBJECTIVE) <= 1e-9
        assert fallbacks(registry, error="iteration_limit") == 1.0
        assert (
            registry.counter_total("repro_lp_backend_fallbacks_total")
            == 1.0
        )

    def test_simplex_crash_retried_on_highs(self, registry, monkeypatch):
        def crash(self, problem, warm_basis=None):
            raise FloatingPointError("singular basis")

        monkeypatch.setattr(SimplexSolver, "solve", crash)
        solution = solve_lp(load_fixture(), backend="simplex")
        assert abs(solution.objective_value - HIGHS_OBJECTIVE) <= 1e-9
        assert fallbacks(registry, error="FloatingPointError") == 1.0

    def test_numerical_error_retried_on_highs(self, registry, monkeypatch):
        def numerical(self, problem, warm_basis=None):
            return LPSolution(status=LPStatus.NUMERICAL_ERROR)

        monkeypatch.setattr(SimplexSolver, "solve", numerical)
        solution = solve_lp(load_fixture(), backend="simplex")
        assert solution.is_optimal
        assert fallbacks(registry, error="numerical") == 1.0

    @pytest.mark.parametrize(
        "problem, status",
        [
            (
                LinearProgram(
                    objective=np.array([1.0]),
                    a_eq=np.array([[1.0]]),
                    b_eq=np.array([-2.0]),
                ),
                LPStatus.INFEASIBLE,
            ),
            (
                LinearProgram(
                    objective=np.array([-1.0]),
                    a_ub=np.array([[-1.0]]),
                    b_ub=np.array([0.0]),
                ),
                LPStatus.UNBOUNDED,
            ),
        ],
        ids=["infeasible", "unbounded"],
    )
    def test_legitimate_answers_pass_through(
        self, registry, problem, status
    ):
        assert solve_lp(problem, backend="simplex").status == status
        assert (
            registry.counter_total("repro_lp_backend_fallbacks_total")
            == 0.0
        )

    def test_healthy_simplex_not_retried(self, registry):
        problem = LinearProgram(
            objective=np.array([1.0, 1.0]),
            a_eq=np.array([[1.0, 2.0]]),
            b_eq=np.array([4.0]),
        )
        solution = solve_lp(problem, backend="simplex")
        assert solution.is_optimal
        assert solution.basis is not None  # still the simplex's answer
        assert (
            registry.counter_total("repro_lp_backend_fallbacks_total")
            == 0.0
        )

    def test_warm_started_solve_not_retried(self, registry):
        # The master degrades a failed warm start to a cold solve first;
        # only that cold solve falls back to HiGHS.
        problem = load_fixture()
        warm = tuple(("s_ub", i) for i in range(problem.n_ub_rows))
        solution = solve_lp(problem, backend="simplex", warm_basis=warm)
        assert solution.status == LPStatus.ITERATION_LIMIT
        assert (
            registry.counter_total("repro_lp_backend_fallbacks_total")
            == 0.0
        )

    def test_invalid_factorization_still_raises(self):
        with pytest.raises(ValueError, match="choose from"):
            solve_lp(
                load_fixture(), backend="simplex", factorization="cholesky"
            )


class TestHighsToSimplex:
    def test_failed_feasibility_check_falls_back(self, registry, monkeypatch):
        # A negative tolerance makes every HiGHS optimum fail the
        # post-solve check, as a genuinely violated one would.
        problem = load_fixture()
        monkeypatch.setattr(scipy_backend, "_FEASIBILITY_TOL", -1.0)
        flagged = scipy_backend.solve_with_scipy(problem)
        assert flagged.status == LPStatus.NUMERICAL_ERROR
        assert flagged.x is None
        solution = solve_lp(
            LinearProgram(
                objective=np.array([1.0, 1.0]),
                a_eq=np.array([[1.0, 2.0]]),
                b_eq=np.array([4.0]),
            ),
            backend="scipy",
        )
        assert solution.is_optimal
        assert solution.basis is not None  # answered by the simplex
        assert registry.get_counter(
            "repro_lp_backend_fallbacks_total",
            from_backend="scipy",
            to_backend="simplex",
            error="numerical",
        ) == 1.0
