"""HiGHS LP backend.

Adapter from :class:`~repro.solvers.lp.problem.LinearProgram` to the
HiGHS binding that scipy bundles (``scipy.optimize._highspy._core``),
surfacing the dual prices (row duals) needed by column generation.

It builds the very model ``scipy.optimize.linprog(method="highs")``
builds — ``[A_ub; A_eq]`` in column-major form, row bounds
``[-inf, b_ub]`` and ``[b_eq, b_eq]``, the same column bounds — passes
the same options, and applies linprog's input checks, status mapping
and post-solve feasibility check, so its answers are bitwise linprog's
(``tests/solvers/test_highs_oracle.py`` pins that).  What it skips is
linprog's per-call Python: option validation, input cleaning and the
sparse-matrix conversion cost more than the HiGHS solve itself on the
small master LPs this library solves.

The binding exposes no warm start through this adapter, so this backend
neither accepts a starting basis nor populates :attr:`LPSolution.basis`;
:func:`repro.solvers.lp.backend.solve_lp` therefore never forwards a
``warm_basis`` here — warm-started master re-solves automatically fall
back to cold HiGHS solves on this backend.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize._highspy import _core as _h

from ... import faults
from .problem import LinearProgram, LPSolution, LPStatus

__all__ = ["solve_with_scipy"]

_HMS = _h.HighsModelStatus

# linprog's HiGHS-status -> scipy-status table; anything absent maps to
# NUMERICAL_ERROR (including kUnboundedOrInfeasible), which solve_lp
# treats as a reason to fall back to the in-repo simplex.
_STATUS_MAP = {
    _HMS.kOptimal: LPStatus.OPTIMAL,
    _HMS.kTimeLimit: LPStatus.ITERATION_LIMIT,
    _HMS.kIterationLimit: LPStatus.ITERATION_LIMIT,
    _HMS.kInfeasible: LPStatus.INFEASIBLE,
    _HMS.kModelError: LPStatus.INFEASIBLE,
    _HMS.kUnbounded: LPStatus.UNBOUNDED,
}

# The options linprog(method="highs") sets.  Built once; passOptions
# copies them into each fresh _Highs, so concurrent solves only read it.
_OPTIONS = _h.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.simplex_strategy = (
    _h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
)
_OPTIONS.highs_debug_level = _h.HighsDebugLevel.kHighsDebugLevelNone
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False

# linprog's default ``tol`` and the loosening its _check_result applies.
_FEASIBILITY_TOL = np.sqrt(1e-9) * 10


def _block(a, b, n):
    if a is None:
        return np.zeros((0, n)), np.zeros(0)
    return a, b


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(
            f"Invalid LP input: {name} must not contain values inf or nan"
        )


def solve_with_scipy(problem: LinearProgram) -> LPSolution:
    """Solve with HiGHS; returns primal, objective, and dual marginals."""
    # An injected failure here exercises the scipy -> simplex fallback
    # in repro.solvers.lp.backend.
    faults.point("solvers.lp.scipy")
    c = problem.objective
    n = c.size
    a_ub, b_ub = _block(problem.a_ub, problem.b_ub, n)
    a_eq, b_eq = _block(problem.a_eq, problem.b_eq, n)
    for name, values in (
        ("c", c), ("A_ub", a_ub), ("b_ub", b_ub),
        ("A_eq", a_eq), ("b_eq", b_eq),
    ):
        _require_finite(name, values)
    n_ub = b_ub.size

    # None bounds become nan, then -inf / +inf, as in linprog.
    bounds = np.array(problem.bounds, dtype=np.float64).reshape(n, 2)
    lower, upper = bounds.T.copy()
    lower[np.isnan(lower)] = -np.inf
    upper[np.isnan(upper)] = np.inf

    # Column-major nonzeros of [A_ub; A_eq]: the canonical CSC layout.
    a_t = np.vstack((a_ub, a_eq)).T
    cols, rows = np.nonzero(a_t)
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n), out=start[1:])
    row_upper = np.concatenate((b_ub, b_eq))

    lp = _h.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = row_upper.size
    lp.col_cost_ = c
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = np.concatenate((np.full(n_ub, -np.inf), b_eq))
    lp.row_upper_ = row_upper
    matrix = lp.a_matrix_
    matrix.format_ = _h.MatrixFormat.kColwise
    matrix.num_col_ = n
    matrix.num_row_ = row_upper.size
    matrix.start_ = start
    matrix.index_ = rows.astype(np.int32)
    matrix.value_ = a_t[cols, rows]

    # A fresh _Highs per solve: no solver state is shared across calls.
    highs = _h._Highs()
    if highs.passOptions(_OPTIONS) == _h.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected the backend's options")
    if highs.passModel(lp) == _h.HighsStatus.kError:
        status = _HMS.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    message = highs.modelStatusToString(status)
    if status != _HMS.kOptimal:
        return LPSolution(
            status=_STATUS_MAP.get(status, LPStatus.NUMERICAL_ERROR),
            message=message,
        )

    info = highs.getInfo()
    solution = highs.getSolution()
    x = np.array(solution.col_value, dtype=np.float64)
    objective = float(info.objective_function_value)
    row_dual = np.array(solution.row_dual, dtype=np.float64)
    residual = row_upper - np.array(solution.row_value, dtype=np.float64)

    # linprog's _check_result: an "optimal" point outside the bounds or
    # the rows (at a loosened tolerance) is reported as numerical error.
    tol = _FEASIBILITY_TOL
    slack, con = residual[:n_ub], residual[n_ub:]
    feasible = not (
        np.isnan(x).any() or np.isnan(objective) or np.isnan(residual).any()
        or not np.all((x >= lower - tol) & (x <= upper + tol))
        or (slack < -tol).any()
        or (np.abs(con) > tol).any()
    )
    if not feasible:
        return LPSolution(
            status=LPStatus.NUMERICAL_ERROR,
            message=(
                f"HiGHS reported {message!r}, but the solution violates "
                f"the constraints by more than {tol:.2E}"
            ),
        )

    return LPSolution(
        status=LPStatus.OPTIMAL,
        x=x,
        objective_value=objective,
        dual_ub=row_dual[:n_ub] if n_ub else None,
        dual_eq=row_dual[n_ub:] if b_eq.size else None,
        iterations=int(
            info.simplex_iteration_count or info.ipm_iteration_count
        ),
        message=message,
    )
