"""The HiGHS adapter against ``scipy.optimize.linprog`` as the oracle.

:func:`repro.solvers.lp.scipy_backend.solve_with_scipy` drives scipy's
bundled HiGHS binding directly, building the model and options that
``linprog(method="highs")`` builds.  Its contract is to answer exactly
as linprog does: bitwise-equal primal, objective, both dual blocks and
iteration count on every master LP the library builds, the same status
on infeasible and unbounded LPs, and a ``ValueError`` on the inputs
linprog rejects.  ``linprog`` lives here, in the tests, as the
reference; nothing in ``src/`` calls it.
"""

from __future__ import annotations

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _h

import repro.solvers.master as master
from repro.datasets import rea_a, syn_a
from repro.engine import AuditEngine
from repro.solvers.lp import LinearProgram, LPStatus, scipy_backend
from repro.solvers.lp.scipy_backend import solve_with_scipy

#: linprog's integer status codes.
_LINPROG_STATUS = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ITERATION_LIMIT,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.NUMERICAL_ERROR,
}


def linprog_reference(problem: LinearProgram):
    return linprog(
        c=problem.objective,
        A_ub=problem.a_ub,
        b_ub=problem.b_ub,
        A_eq=problem.a_eq,
        b_eq=problem.b_eq,
        bounds=list(problem.bounds),
        method="highs",
    )


def mismatches(problem: LinearProgram) -> list[str]:
    """Fields on which the adapter and linprog differ (bitwise)."""
    want = linprog_reference(problem)
    got = solve_with_scipy(problem)
    diffs = []
    if got.status != _LINPROG_STATUS[want.status]:
        diffs.append("status")
    if want.status != 0:
        return diffs
    if not np.array_equal(got.x, want.x):
        diffs.append("x")
    if got.objective_value != want.fun:
        diffs.append("objective")
    if got.iterations != want.nit:
        diffs.append("nit")
    for label, mine, theirs, rows in (
        ("ineqlin", got.dual_ub, want.ineqlin.marginals, problem.n_ub_rows),
        ("eqlin", got.dual_eq, want.eqlin.marginals, problem.n_eq_rows),
    ):
        if rows == 0:
            if mine is not None:
                diffs.append(label)
        elif mine is None or not np.array_equal(mine, theirs):
            diffs.append(label)
    return diffs


def capture_masters(run) -> list[LinearProgram]:
    """Every master LP ``run()`` hands to ``solve_lp``."""
    captured: list[LinearProgram] = []
    original = master.solve_lp

    def spy(problem, *args, **kwargs):
        captured.append(problem)
        return original(problem, *args, **kwargs)

    master.solve_lp = spy
    try:
        run()
    finally:
        master.solve_lp = original
    assert captured
    return captured


@pytest.fixture(scope="module")
def syna_masters() -> list[LinearProgram]:
    return capture_masters(
        lambda: AuditEngine(syn_a(budget=3)).solve("bruteforce")
    )


@pytest.fixture(scope="module")
def emr_masters() -> list[LinearProgram]:
    return capture_masters(
        lambda: AuditEngine(rea_a(50, seed=7), n_samples=200).solve(
            "ishm", step_size=0.3, max_probes=20
        )
    )


HAND_BUILT = {
    "free_variable": LinearProgram(
        objective=np.array([1.0]),
        a_ub=np.array([[-1.0]]),
        b_ub=np.array([5.0]),
        bounds=((None, None),),
    ),
    "negative_lower_bound": LinearProgram(
        objective=np.array([1.0]), bounds=((-3.0, 7.0),)
    ),
    "equality_only": LinearProgram(
        objective=np.array([2.0, 1.0, 4.0]),
        a_eq=np.array([[1.0, 1.0, 1.0]]),
        b_eq=np.array([5.0]),
    ),
    "unconstrained": LinearProgram(
        objective=np.array([2.0, -3.0]),
        bounds=((0.0, None), (None, 5.0)),
    ),
    "infeasible": LinearProgram(
        objective=np.array([1.0]),
        a_eq=np.array([[1.0]]),
        b_eq=np.array([-2.0]),
    ),
    "unbounded": LinearProgram(
        objective=np.array([-1.0]),
        a_ub=np.array([[-1.0]]),
        b_ub=np.array([0.0]),
    ),
    "unconstrained_unbounded": LinearProgram(
        objective=np.array([-1.0]), bounds=((0.0, None),)
    ),
}


class TestBitwiseParity:
    def test_syna_bruteforce_masters(self, syna_masters):
        assert len(syna_masters) == 241
        bad = {
            i: d for i, p in enumerate(syna_masters) if (d := mismatches(p))
        }
        assert not bad

    def test_emr_ishm_masters(self, emr_masters):
        bad = {
            i: d for i, p in enumerate(emr_masters) if (d := mismatches(p))
        }
        assert not bad

    @pytest.mark.parametrize("name", sorted(HAND_BUILT))
    def test_hand_built(self, name):
        assert mismatches(HAND_BUILT[name]) == []

    @pytest.mark.parametrize(
        "name, status",
        [
            ("infeasible", LPStatus.INFEASIBLE),
            ("unbounded", LPStatus.UNBOUNDED),
            ("unconstrained_unbounded", LPStatus.UNBOUNDED),
        ],
    )
    def test_non_optimal_statuses(self, name, status):
        assert solve_with_scipy(HAND_BUILT[name]).status == status

    def test_highs_infinity_is_ieee_inf(self):
        # linprog rewrites +-inf bounds to +-kHighsInf; the adapter
        # passes inf straight through, which is the same model only
        # while HiGHS's infinity is IEEE inf.
        assert _h.kHighsInf == np.inf

    def test_detects_option_drift(self, syna_masters, monkeypatch):
        # Same options but presolve off: the oracle must notice.
        drifted = _h.HighsOptions()
        drifted.presolve = "off"
        drifted.simplex_strategy = scipy_backend._OPTIONS.simplex_strategy
        drifted.output_flag = False
        drifted.log_to_console = False
        monkeypatch.setattr(scipy_backend, "_OPTIONS", drifted)
        assert any(mismatches(p) for p in syna_masters)


def _base_lp(**overrides) -> LinearProgram:
    fields = dict(
        objective=np.array([1.0, 2.0]),
        a_ub=np.array([[1.0, 1.0]]),
        b_ub=np.array([4.0]),
        a_eq=np.array([[1.0, -1.0]]),
        b_eq=np.array([0.0]),
    )
    fields.update(overrides)
    return LinearProgram(**fields)


@pytest.mark.parametrize(
    "overrides",
    [
        {"objective": np.array([np.nan, 2.0])},
        {"objective": np.array([np.inf, 2.0])},
        {"a_ub": np.array([[np.nan, 1.0]])},
        {"a_ub": np.array([[1.0, -np.inf]])},
        {"b_ub": np.array([np.nan])},
        {"b_ub": np.array([np.inf])},
        {"a_eq": np.array([[np.inf, -1.0]])},
        {"a_eq": np.array([[1.0, np.nan]])},
        {"b_eq": np.array([np.nan])},
        {"b_eq": np.array([-np.inf])},
    ],
    ids=lambda o: "-".join(f"{k}={v.ravel().tolist()}" for k, v in o.items()),
)
def test_non_finite_input_raises_like_linprog(overrides):
    problem = _base_lp(**overrides)
    with pytest.raises(ValueError):
        linprog_reference(problem)
    with pytest.raises(ValueError):
        solve_with_scipy(problem)


def test_concurrent_solves_match_serial(syna_masters):
    # Background re-solves (the serve path) share the module-level
    # options object across threads; answers must not depend on it.
    def key(problem):
        s = solve_with_scipy(problem)
        return (
            s.status, s.x.tobytes(), s.objective_value,
            s.dual_ub.tobytes(), s.dual_eq.tobytes(), s.iterations,
        )

    serial = [key(p) for p in syna_masters]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(key, syna_masters, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
