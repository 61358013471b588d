"""Exact master solve by enumerating every alert-type ordering.

For small numbers of alert types (Syn A has 4, hence 24 orderings) the LP
of eq. 5 with fixed thresholds can be solved to optimality by including
all ``|T|!`` ordering columns — the paper's "solving the linear program to
optimality" reference point for Tables III-VII.

Since the full ordering set is priced for every threshold vector, the
detection kernels run through the subset-memoized
:class:`~repro.core.pal_table.PalTable` by default (``T * 2^(T-1)``
scenario sweeps per vector instead of ``T! * T``), and the scenario set
is :meth:`~repro.distributions.joint.ScenarioSet.compressed` once at
construction (Monte-Carlo draws over small integer supports repeat
heavily; identical rows are merged with aggregated weights).  Both are
exact rewrites of the same expectation — pass ``subset_table=False`` /
``compress=False`` to pin the legacy reference behavior.

The tables of one solver instance share one
:class:`~repro.core.pal_table.PalEntryMemo`: an entry ``table[t, S]``
reads the thresholds only through ``(floor(b_t / C_t), b_S)``, so a
vector's build copies the entries an earlier vector already computed
and sweeps only the rest (bitwise the same table; at most
``_ENTRY_MEMO_CAPACITY`` entries, cleared when full).  On Syn A's
``B = 3`` brute-force grid that computes 1940 of 7712 entries.

Every solve also shares one *LP skeleton* per solver instance: the master
problems of different threshold vectors are structurally identical (same
game, same deduplicated row set, same ``|T|!`` columns), so the static
constraint blocks, objective and bounds are built once and only the
utility columns are filled per vector — the batch-pricing and parallel
worker paths (which memoize solver instances) inherit this for free.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.detection import _check_batch_inputs
from ..core.game import AuditGame
from ..core.pal_table import PalEntryMemo, subset_table_pays
from ..core.policy import all_orderings
from ..distributions.joint import ScenarioSet
from .master import (
    FixedThresholdSolution,
    MasterProblem,
    MasterSkeleton,
    PolicyContext,
)

__all__ = ["EnumerationSolver", "DEFAULT_MAX_ORDERINGS"]

#: Refuse to enumerate beyond this many orderings by default (7! = 5040).
DEFAULT_MAX_ORDERINGS = 5040


class EnumerationSolver:
    """Solve the fixed-``b`` master over the complete ordering set ``O``.

    Parameters
    ----------
    subset_table:
        Price ordering columns from the subset-memoized table instead of
        one kernel walk per ordering.  ``None`` (default) auto-enables
        it whenever the table amortizes (every ``|T| >= 3`` game here,
        since the full ``|T|!`` set is always priced); the legacy walk
        remains available via ``False`` as the bitwise reference.
    compress:
        Deduplicate identical scenario rows (weight-aggregating) once at
        construction.  Exactly-enumerated sets are duplicate-free and
        pass through untouched.
    prune:
        Drop dominated attack rows and ordering columns before each
        master solve (lossless — see
        :meth:`~repro.solvers.master.MasterProblem.solve`); off by
        default so cached solutions stay bit-for-bit comparable with
        earlier releases.
    """

    def __init__(
        self,
        game: AuditGame,
        scenarios: ScenarioSet,
        backend: str = "scipy",
        max_orderings: int = DEFAULT_MAX_ORDERINGS,
        subset_table: bool | None = None,
        compress: bool = True,
        prune: bool = False,
    ) -> None:
        n_orderings = math.factorial(game.n_types)
        if n_orderings > max_orderings:
            raise ValueError(
                f"{game.n_types} alert types give {n_orderings} orderings "
                f"(> max_orderings={max_orderings}); use CGGSSolver instead"
            )
        self.game = game
        self.scenarios = scenarios.compressed() if compress else scenarios
        self.backend = backend
        self._orderings = all_orderings(game.n_types)
        if subset_table is None:
            subset_table = subset_table_pays(n_orderings, game.n_types)
        self.subset_table = bool(subset_table)
        self.prune = bool(prune)
        # Shared across every solve of this instance: the skeleton
        # depends on the game's deduplicated LP rows and the (fixed)
        # column count |T|!.
        self._skeleton = MasterSkeleton(game, n_orderings)
        # Shared by every subset table this instance builds: entries
        # depend on the thresholds only through their key (see
        # PalEntryMemo), and everything else they read is fixed here.
        self._pal_memo = PalEntryMemo() if self.subset_table else None

    def solve(self, thresholds: np.ndarray) -> FixedThresholdSolution:
        """Optimal restricted-strategy-space mixed policy for ``b``."""
        return self._solve_context(self._context(thresholds))

    def solve_batch(
        self, thresholds_batch: np.ndarray
    ) -> list[FixedThresholdSolution]:
        """Price a ``(B, T)`` stack of threshold vectors.

        The whole stack is validated once, before any vector is priced;
        each vector then runs the same context and master LP as
        :meth:`solve`, so results (in input order) are bit-for-bit
        identical to ``[solve(b) for b in batch]`` — the parallel
        pricing layer depends on that identity.
        """
        arr = np.asarray(thresholds_batch, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(
                f"thresholds batch must be 2-D (B, T), got {arr.shape}"
            )
        if arr.shape[0] == 0:
            return []
        _check_batch_inputs(
            arr, self.scenarios, self.game.costs, self.game.budget
        )
        return [self._solve_context(self._context(b)) for b in arr]

    def _context(self, thresholds: np.ndarray) -> PolicyContext:
        return PolicyContext(
            self.game,
            self.scenarios,
            thresholds,
            subset_table=self.subset_table,
            pal_memo=self._pal_memo,
        )

    def _solve_context(
        self, context: PolicyContext
    ) -> FixedThresholdSolution:
        master = MasterProblem(
            context, backend=self.backend, skeleton=self._skeleton
        )
        for ordering in self._orderings:
            master.add_ordering(ordering)
        fixed, _ = master.solve(prune=self.prune)
        return FixedThresholdSolution(
            policy=fixed.policy.pruned(),
            objective=fixed.objective,
            lp_calls=fixed.lp_calls,
            n_columns=fixed.n_columns,
            adversary_utilities=fixed.adversary_utilities,
        )
