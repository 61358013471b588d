"""The benchmark's three workloads.

``syna-bruteforce``
    Table III ground truth: brute force over Syn A's integer threshold
    grid at budget 3 (241 vectors, under two seconds a solve).  Every
    vector is priced once through the eager ``PalTable``, the 24-column
    enumeration master and a tiny LP; column generation and the lazy
    table are bypassed.

``emr-ishm-cggs``
    The Figure 1 / Table V path: ISHM (step 0.3) with the CGGS inner
    solver on the 7-type EMR game, budget 50, 400 sampled scenarios,
    capped at 100 probes.  Uncapped, ISHM's probe count depends on the
    seed (374 to 663 probes across the seeds tried); capped, every seed
    does the same number of probes, a few seconds a solve.

``serve-drift``
    The audit service on Syn A at budget 2 under open-loop traffic whose
    alert counts alternate between the stationary model and a drifted
    one, so refits and background re-solves run beside scoring.  It is
    the only workload that reaches ``repro.serve`` and ``repro.sim``.

The offline workloads solve with a fresh engine, round after round,
until ``--seconds`` are used, and report the median set-up and solve
time, so a few slow seconds of a shared host move one sample, not the
result.  Each round first repeats the set-up for a short while.  Traced,
each round solves once without and once with the wrappers, and the
per-layer figures are per traced solve.  The serving workload offers
traffic for ``--seconds``; its ``solve_s`` is the median initial solve
of its timed starts.
"""

from __future__ import annotations

import asyncio
import functools
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from layers import Tracer, layer_metrics
from traffic import TrafficReport, drive

__all__ = ["DEFAULT_SEED", "WORKLOADS", "RunResult"]

#: Seed of the pinned reference answers (seed 1 is held out of tuning,
#: for checking later performance claims).
DEFAULT_SEED = 0

#: Set-up is short and noisy, so it is repeated for at least this long
#: (and at least ``SETUP_MIN_REPEATS`` times) and the median is reported:
#: in every round of an offline run, and once before the serving
#: workload's traffic, whose ``solve_s`` is the median over the same
#: starts (about a dozen).
SETUP_ROUND_SECONDS = 0.25
SERVE_SETUP_SECONDS = 3.0
SETUP_MIN_REPEATS = 3
#: An offline run solves at least this many times (traced and untraced
#: together), however long it takes.
MIN_SOLVES = 3
#: Objective agreement with an independent evaluation of the policy.
OBJECTIVE_TOL = 1e-9

#: ``rea_a``'s own default grid seed; workload seed ``s`` uses ``7 + s``
#: so that the default seed reproduces the dataset's default game.
REA_A_GRID_SEED = 7


@dataclass
class RunResult:
    """Outcome of one workload run, before it is printed."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    behind: bool = False

    @property
    def failed(self) -> int:
        # A run whose generator fell behind its schedule could not offer
        # its load, so none of its operations count as done.
        if self.behind:
            return self.attempted
        return min(len(self.failures), self.attempted)


@dataclass(frozen=True)
class OfflineSpec:
    """One offline solve and its pinned default-seed answer."""

    make_game: Callable[[int], object]
    method: str
    options: dict
    pinned_objective: float
    pinned_thresholds: tuple[float, ...]
    n_samples: int

    def setup(self, seed: int):
        """Game, engine and scenario set: what ``setup_s`` times."""
        from repro.engine import AuditEngine

        game = self.make_game(seed)
        engine = AuditEngine(
            game, seed=seed, workers=1, n_samples=self.n_samples
        )
        engine.scenario_set()
        return game, engine


def _syn_a_3(seed: int):
    from repro.datasets import syn_a

    return syn_a(budget=3)


def _rea_a_50(seed: int):
    from repro.datasets import rea_a

    return rea_a(budget=50, seed=REA_A_GRID_SEED + seed)


SYNA = OfflineSpec(
    make_game=_syn_a_3,
    method="bruteforce",
    options={},
    pinned_objective=9.898100315171645,
    pinned_thresholds=(1.0, 1.0, 1.0, 1.0),
    n_samples=2000,
)
EMR = OfflineSpec(
    make_game=_rea_a_50,
    method="ishm",
    options={"step_size": 0.3, "max_probes": 100},
    pinned_objective=191.55814614263323,
    pinned_thresholds=(212.0, 37.0, 321.0, 13.0, 13.0, 12.0, 75.0),
    n_samples=400,
)


def _service(game, seed: int):
    from repro.serve import AuditService

    return AuditService(
        game,
        solver="ishm",
        solver_options={"step_size": 0.5},
        estimator="rolling-empirical",
        estimator_options={"window": 64, "min_periods": 8},
        drift_threshold=0.5,
        solver_seed=seed,
        workers=1,
    )


def _timed_solve(spec: OfflineSpec, engine):
    started = time.perf_counter()
    result = engine.solve(spec.method, **spec.options)
    return result, time.perf_counter() - started


def _check_solve(spec, engine, result, seed, failures) -> None:
    evaluated = engine.evaluate(result.policy).auditor_loss
    if not abs(result.objective - evaluated) <= OBJECTIVE_TOL:
        failures.append(
            f"objective {result.objective!r} != evaluated {evaluated!r}"
        )
    if seed == DEFAULT_SEED and (
        result.objective != spec.pinned_objective
        or tuple(result.thresholds.tolist()) != spec.pinned_thresholds
    ):
        failures.append(
            f"default seed gave {result.objective!r} at "
            f"{result.thresholds.tolist()}, pinned "
            f"{spec.pinned_objective!r} at {list(spec.pinned_thresholds)}"
        )


def _setup_done(samples: list[float], seconds: float) -> bool:
    return len(samples) >= SETUP_MIN_REPEATS and sum(samples) >= seconds


def _repeat_setup(spec: OfflineSpec, seed: int, samples: list[float]):
    """One round of timed set-ups; the engine of the last one."""
    round_samples: list[float] = []
    while not _setup_done(round_samples, SETUP_ROUND_SECONDS):
        t = time.perf_counter()
        _, engine = spec.setup(seed)
        round_samples.append(time.perf_counter() - t)
    samples.extend(round_samples)
    return engine


def run_offline(
    spec: OfflineSpec, seed: int, seconds: float, tracer: Tracer | None
) -> RunResult:
    out = RunResult()
    setup_samples: list[float] = []
    solves: list[float] = []
    traced_solves: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        engine = _repeat_setup(spec, seed, setup_samples)
        result, solve_s = _timed_solve(spec, engine)
        solves.append(solve_s)
        out.attempted += 1
        _check_solve(spec, engine, result, seed, out.failures)
        if tracer is not None:
            with tracer:
                _, engine = spec.setup(seed)
                traced, traced_s = _timed_solve(spec, engine)
            traced_solves.append(traced_s)
            out.attempted += 1
            if traced.objective != result.objective or not np.array_equal(
                traced.thresholds, result.thresholds
            ):
                out.failures.append("traced solve differs from untraced")
        # Stop when another round would run past the deadline.
        now = time.perf_counter()
        done = len(solves) + len(traced_solves)
        if done >= MIN_SOLVES and now + (now - round_start) > deadline:
            break
    out.notes["solves"] = len(solves)

    overhead_s = None
    if tracer is not None:
        overhead_s = statistics.median(traced_solves) - statistics.median(
            solves
        )
        # Where the traced solves' time went: self time of each traced
        # name as a share of the solves.
        out.notes["solve_self_share"] = {
            name: tracer.get(name).self_s / sum(traced_solves)
            for name in sorted(tracer.stats)
        }
    return _finish(
        out, statistics.median(setup_samples), statistics.median(solves),
        TrafficReport(), tracer, overhead_s, per=len(traced_solves) or 1,
    )


def run_serve(seed: int, seconds: float, tracer: Tracer | None) -> RunResult:
    from repro.datasets import syn_a

    report, setup_samples, start_solves, overhead_s = asyncio.run(
        _serve(syn_a(budget=2), seed, seconds, tracer)
    )
    # The initial solves of the timed starts, not the re-solves under
    # traffic: those contend with the event loop and swing with the
    # host (reported ungated as serve.resolve_solve_s).
    return _finish(
        RunResult(), statistics.median(setup_samples),
        statistics.median(start_solves), report, tracer, overhead_s,
    )


async def _serve(
    game, seed, seconds, tracer
) -> tuple[TrafficReport, list[float], list[float], float | None]:
    """Start the service repeatedly (timed), then drive the last one.

    Returns the traffic report, the start times, the initial solve time
    of each start and, with a tracer, the tracing overhead of a solve:
    the driven service is then started once more with the wrappers in,
    and its initial solve is compared with the median untraced one.
    """
    setup_samples: list[float] = []
    start_solves: list[float] = []
    service = None
    while not _setup_done(setup_samples, SERVE_SETUP_SECONDS):
        if service is not None:
            await service.stop()
        service = _service(game, seed)
        t = time.perf_counter()
        await service.start()
        setup_samples.append(time.perf_counter() - t)
        start_solves.append(service.active().result.solve_seconds)
    rng = np.random.default_rng(seed)
    overhead_s = None
    try:
        if tracer is None:
            report = await drive(service, seconds, rng)
        else:
            await service.stop()
            with tracer:
                service = _service(game, seed)
                await service.start()
                traced = service.active().result.solve_seconds
                report = await drive(service, seconds, rng)
            overhead_s = traced - statistics.median(start_solves)
    finally:
        await service.stop()
    return report, setup_samples, start_solves, overhead_s


def _finish(
    out: RunResult,
    setup_s: float,
    solve_s: float,
    report: TrafficReport,
    tracer: Tracer | None,
    overhead_s: float | None,
    per: int = 1,
) -> RunResult:
    out.attempted += report.attempted
    out.failures.extend(report.failures)
    out.behind = report.behind
    if report.behind:
        out.failures.append(
            "generator fell behind its schedule: max lateness "
            f"{max(report.generator_late_s):.3f} s, backlog "
            f"{report.backlog_end} at the end"
        )
    out.metrics = {
        "setup_s": (setup_s, "s"),
        "solve_s": (solve_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    late_max_ms = max(report.generator_late_s, default=0.0) * 1e3
    traffic = {
        **report.latencies(),
        "generator.late_max_ms": (late_max_ms, "ms"),
        "generator.backlog_end": (float(report.backlog_end), "count"),
    }
    out.notes |= {name: value for name, (value, _) in traffic.items()}
    out.notes |= {
        "scores": len(report.score_latency_s),
        "alert_batches": len(report.alerts_latency_s),
        "resolves_measured": len(report.resolve_lags_s),
    }
    if tracer is not None:
        out.layers = layer_metrics(
            tracer,
            resolve_solve_s=sum(report.resolve_solve_s),
            serve_counters=report.counters,
            per=per,
        )
        out.layers |= traffic
        out.layers["trace.overhead_s"] = (overhead_s, "s")
    return out


#: ``name -> run(seed, seconds, tracer)``.
WORKLOADS = {
    "syna-bruteforce": functools.partial(run_offline, SYNA),
    "emr-ishm-cggs": functools.partial(run_offline, EMR),
    "serve-drift": run_serve,
}
