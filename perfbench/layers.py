"""Per-layer tracing from outside the program.

The benchmark never edits the program to time it.  Instead
:class:`Tracer` wraps public entry points of each layer for the length
of a traced run and restores the originals afterwards.  Every wrapper is
installed where the caller looks the name up: methods on their class
(instances find them there), and module-level functions in the module
that imported them by name (``solve_lp`` is called through
``repro.solvers.master``'s namespace, so that is where it is patched).

Each call records its wall time and its *self* time: the duration minus
the time covered by wrapped calls nested inside it on the same thread
(``PalTable.from_pricer`` runs inside ``MasterProblem.add_ordering``, so
its time is removed from ``add_ordering``'s self time).  Parent stacks
are thread-local because the serving workload re-solves on worker
threads.

Layer names follow the program's modules: ``distributions``, ``core``,
``master`` and ``lp`` (``repro.solvers.master``/``repro.solvers.lp``),
``solvers``, ``engine``, ``sim`` and ``serve``.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["ENTRY_POINTS", "Tracer", "layer_metrics"]

_MISSING = object()


@dataclass
class CallStats:
    """Accumulated timings of one traced name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


#: ``(module, class or None, attribute, traced name)``.  Several entry
#: points may share one traced name (the fixed-threshold solvers).
ENTRY_POINTS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.core.game", "AuditGame", "scenario_set",
     "distributions.scenario_set"),
    ("repro.distributions.joint", "ScenarioSet", "compressed",
     "distributions.compressed"),
    ("repro.core.pal_table", "PalTable", "from_pricer",
     "core.pal_table_build"),
    ("repro.core.pal_table", "LazyPalTable", "pal", "core.lazy_pal"),
    ("repro.core.pal_table", "LazyPalTable", "extension_values",
     "core.lazy_pal"),
    ("repro.solvers.master", "PolicyContext", "__init__",
     "master.context"),
    ("repro.solvers.master", "PolicyContext", "extension_utilities",
     "master.extension"),
    ("repro.solvers.master", "MasterProblem", "add_ordering",
     "master.add_ordering"),
    ("repro.solvers.master", "MasterProblem", "build_lp",
     "master.build_lp"),
    ("repro.solvers.master", "MasterProblem", "solve", "master.solve"),
    ("repro.solvers.master", None, "solve_lp", "lp.solve"),
    # The scipy backend degrades to the in-repo simplex through this
    # module-level name; only that fallback path looks it up here.
    ("repro.solvers.lp.backend", None, "solve_with_simplex",
     "lp.fallback"),
    ("repro.solvers.enumeration", "EnumerationSolver", "solve",
     "solvers.fixed"),
    ("repro.solvers.enumeration", "EnumerationSolver", "solve_batch",
     "solvers.fixed"),
    ("repro.solvers.cggs", "CGGSSolver", "solve", "solvers.fixed"),
    ("repro.engine.facade", "AuditEngine", "solve", "engine.solve"),
    ("repro.sim.estimators", "RollingEmpiricalEstimator", "observe",
     "sim.observe"),
    ("repro.serve.service", "AuditService", "ingest", "serve.ingest"),
    ("repro.serve.scoring", "PolicyScorer", "score", "serve.score"),
    ("repro.serve.store", "PolicyStore", "publish", "serve.publish"),
)


def resolve_owner(module: str, owner: str | None) -> object:
    """The module or class an entry point is patched on."""
    mod = importlib.import_module(module)
    return mod if owner is None else getattr(mod, owner)


class Tracer:
    """Wraps :data:`ENTRY_POINTS` while installed and accumulates timings.

    Besides per-name :class:`CallStats`, result hooks keep the counts
    that only a call's arguments or result reveal (LP iterations and
    shapes, columns added, the engines and estimators that were used).
    """

    def __init__(self) -> None:
        self.stats: dict[str, CallStats] = {}
        self.counts: dict[str, float] = {}
        self.engines: dict[int, object] = {}
        self.estimators: dict[int, object] = {}
        # id(raw scenario set) -> (set, rows it is priced with); holding
        # the set keeps its id from being reused within the run.
        self.scenario_rows: dict[int, tuple[object, int]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._hooks: dict[str, Callable] = {
            "distributions.scenario_set": self._on_scenario_set,
            "distributions.compressed": self._on_compressed,
            "master.add_ordering": self._on_add_ordering,
            "lp.solve": self._on_lp_solve,
            "solvers.fixed": self._on_fixed_solve,
            "engine.solve": self._on_engine_solve,
            "sim.observe": self._on_observe,
        }

    # ------------------------------------------------------------------
    # Installing and removing
    # ------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for module, owner_name, attr, name in ENTRY_POINTS:
                self._patch(resolve_owner(module, owner_name), attr, name)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                # The attribute was inherited: drop the shadowing wrapper.
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.remove()

    def _patch(self, owner: object, attr: str, name: str) -> None:
        raw = vars(owner).get(attr, _MISSING)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name))
        else:
            wrapped = self._wrap(getattr(owner, attr), name)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, func: Callable, name: str) -> Callable:
        hook = self._hooks.get(name)
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            children = [0.0]
            stack.append(children)
            started = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer._record(name, elapsed, elapsed - children[0])
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _record(self, name: str, total: float, own: float) -> None:
        with self._lock:
            stats = self.stats.get(name)
            if stats is None:
                stats = self.stats[name] = CallStats()
            stats.calls += 1
            stats.total_s += total
            stats.self_s += own

    def _count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + value

    # ------------------------------------------------------------------
    # Result hooks (args[0] is ``self`` for methods)
    # ------------------------------------------------------------------

    def _on_scenario_set(self, args, result) -> None:
        with self._lock:
            self.scenario_rows[id(result)] = (result, result.n_scenarios)

    def _on_compressed(self, args, result) -> None:
        source = args[0]
        with self._lock:
            self.scenario_rows[id(source)] = (source, result.n_scenarios)

    def _on_add_ordering(self, args, added) -> None:
        if added:
            self._count("master.columns_added")

    def _on_lp_solve(self, args, solution) -> None:
        problem = args[0]
        self._count("lp.iterations", solution.iterations)
        self._count("lp.rows", problem.n_ub_rows + problem.n_eq_rows)
        self._count("lp.cols", problem.n_variables)

    def _on_fixed_solve(self, args, result) -> None:
        if isinstance(result, list):  # solve_batch
            self._count("solvers.fixed_solves", len(result))
            return
        self._count("solvers.fixed_solves")
        # CGGSResult carries its column-generation count.
        columns = getattr(result, "columns_generated", None)
        if columns is not None:
            self._count("solvers.cggs_columns", columns)

    def _on_engine_solve(self, args, result) -> None:
        with self._lock:
            self.engines[id(args[0])] = args[0]

    def _on_observe(self, args, result) -> None:
        with self._lock:
            self.estimators[id(args[0])] = args[0]

    # ------------------------------------------------------------------

    def get(self, name: str) -> CallStats:
        with self._lock:
            stats = self.stats.get(name)
            return CallStats() if stats is None else CallStats(
                stats.calls, stats.total_s, stats.self_s
            )


#: Service counters read after the traffic; 0 for workloads without it.
SERVE_COUNTERS = (
    "serve.resolves_scheduled",
    "serve.resolves_completed",
    "serve.resolve_retries",
    "serve.resolve_failures",
)
#: Per-layer metrics that are means or rates rather than sums.
_NOT_SUMS = frozenset(
    {"lp.rows_mean", "lp.cols_mean", "engine.cache_hit_rate"}
)


def layer_metrics(
    tracer: Tracer,
    *,
    resolve_solve_s: float,
    serve_counters: dict[str, float],
    per: int = 1,
) -> dict[str, tuple[float, str]]:
    """The traced per-layer metrics, as ``name -> (value, unit)``.

    Times named ``*_self_s`` (and ``master.add_ordering_s``) are self
    times; the other times are whole-call durations.  Times and counts
    are divided by ``per``, the number of traced solves; means and rates
    are not.
    """
    stat = tracer.get
    count = tracer.counts.get
    lp = stat("lp.solve")
    hits = sum(e.cache_info().solution_hits for e in tracer.engines.values())
    misses = sum(
        e.cache_info().solution_misses for e in tracer.engines.values()
    )
    lazy = stat("core.lazy_pal")
    metrics = {
        "distributions.scenario_set_s": (
            stat("distributions.scenario_set").total_s
            + stat("distributions.compressed").total_s,
            "s",
        ),
        "distributions.scenario_rows": (
            float(sum(rows for _, rows in tracer.scenario_rows.values())),
            "count",
        ),
        "core.pal_table_build_s": (stat("core.pal_table_build").total_s, "s"),
        "core.pal_table_builds": (
            float(stat("core.pal_table_build").calls), "count"
        ),
        "core.lazy_pal_s": (lazy.total_s, "s"),
        "core.lazy_pal_calls": (float(lazy.calls), "count"),
        "master.context_s": (stat("master.context").total_s, "s"),
        "master.contexts": (float(stat("master.context").calls), "count"),
        "master.add_ordering_s": (stat("master.add_ordering").self_s, "s"),
        "master.columns_added": (
            count("master.columns_added", 0.0), "count"
        ),
        "master.extension_s": (stat("master.extension").total_s, "s"),
        "master.build_lp_s": (stat("master.build_lp").total_s, "s"),
        "master.solve_self_s": (stat("master.solve").self_s, "s"),
        "lp.solve_s": (lp.total_s, "s"),
        "lp.calls": (float(lp.calls), "count"),
        "lp.iterations": (count("lp.iterations", 0.0), "count"),
        "lp.fallbacks": (float(stat("lp.fallback").calls), "count"),
        "lp.rows_mean": (
            count("lp.rows", 0.0) / lp.calls if lp.calls else 0.0, "rows"
        ),
        "lp.cols_mean": (
            count("lp.cols", 0.0) / lp.calls if lp.calls else 0.0, "cols"
        ),
        "solvers.fixed_solves": (
            count("solvers.fixed_solves", 0.0), "count"
        ),
        "solvers.fixed_solve_self_s": (stat("solvers.fixed").self_s, "s"),
        "solvers.cggs_columns": (
            count("solvers.cggs_columns", 0.0), "count"
        ),
        "engine.cache_hits": (float(hits), "count"),
        "engine.cache_misses": (float(misses), "count"),
        "engine.cache_hit_rate": (
            hits / (hits + misses) if hits + misses else 0.0, "fraction"
        ),
        "sim.observe_s": (stat("sim.observe").total_s, "s"),
        "sim.refits": (
            float(sum(e.n_refits for e in tracer.estimators.values())),
            "count",
        ),
        "serve.ingest_s": (stat("serve.ingest").total_s, "s"),
        "serve.score_s": (stat("serve.score").total_s, "s"),
        "serve.publish_s": (stat("serve.publish").total_s, "s"),
        "serve.resolve_solve_s": (resolve_solve_s, "s"),
        **{
            name: (float(serve_counters.get(name, 0.0)), "count")
            for name in SERVE_COUNTERS
        },
    }
    return {
        name: (value if name in _NOT_SUMS else value / per, unit)
        for name, (value, unit) in metrics.items()
    }
