"""Open-loop traffic against the audit service, driven in-process.

One generator offers ``/score`` requests and ``/alerts`` batches at
fixed rates through :meth:`repro.serve.StdlibApp.handle`, whatever the
service's speed (independent users, not callers waiting on replies).
Each request runs as its own task, as a connection handler would, and
is timed from when it was *due*, so a stall also charges the requests
queued behind it.  The run alternates between phases of stationary
counts (the game's own ``model`` source) and inflated counts (the
``drift`` source), so the service refits its estimate, re-solves in the
background and republishes several times in every run.

All payload rows are drawn from the seed before the clock starts (the
program only ever sees generated inputs); each request body is built as
it is sent, so the harness does not keep thousands of nested lists alive
for the program's garbage collector to scan.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TrafficReport", "drive"]

#: A generator later than this on any request, or a backlog at the end
#: larger than this much offered load, means the service could not keep
#: up with the offered rates: the run counts as failed, not as slow.
MAX_GENERATOR_LAG_S = 0.5


#: Offered load: single-row ``/score`` requests and 64-row ``/alerts``
#: batches (a full estimator window, so every refit sees one source) per
#: second.  At these rates the event loop is busy about a fifth of the
#: time; at half, a host slowed by its neighbours pushes it to its knee
#: and latencies double from one run to the next.
SCORE_RATE = 200.0
ALERTS_RATE = 4.0
BATCH_ROWS = 64
#: Stationary and drifted phases alternate this often; a re-solve of
#: the drifted counts takes a few tenths of a second.
PHASE_SECONDS = 2.0
#: ``drift`` source setting: period 1 draws counts at four times the
#: stationary means.
DRIFT = 3.0
#: Rows pre-drawn per source; requests sample their rows from these.
POOL_ROWS = 256


@dataclass
class TrafficReport:
    """What the generator offered, what came back, and what was wrong."""

    score_latency_s: list[float] = field(default_factory=list)
    alerts_latency_s: list[float] = field(default_factory=list)
    queue_wait_s: list[float] = field(default_factory=list)
    resolve_lags_s: list[float] = field(default_factory=list)
    resolve_solve_s: list[float] = field(default_factory=list)
    generator_late_s: list[float] = field(default_factory=list)
    backlog_end: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    behind: bool = False
    counters: dict[str, float] = field(default_factory=dict)

    def latencies(self) -> dict[str, tuple[float, str]]:
        """Latency metrics of the run, as ``name -> (value, unit)``.

        They follow the host's speed, amplified by queueing and by
        re-solve threads contending with the event loop: on a shared
        two-core machine whose speed drifted by a quarter within
        minutes, their spread over ten seeds reached 0.3 to 0.7 of the
        median, too wide for a regression bound, so the benchmark
        reports them without gating them.  A run that offered no
        requests reports 0 for each.
        """
        if not self.attempted:
            return {name: (0.0, unit) for name, unit in _LATENCY_UNITS}
        values = (
            percentile(self.score_latency_s, 50) * 1e3,
            percentile(self.score_latency_s, 99) * 1e3,
            percentile(self.alerts_latency_s, 90) * 1e3,
            median(self.resolve_lags_s),
            statistics.fmean(self.queue_wait_s) * 1e3,
        )
        return {
            name: (value, unit)
            for (name, unit), value in zip(_LATENCY_UNITS, values, strict=True)
        }


_LATENCY_UNITS = (
    ("score_p50_ms", "ms"),
    ("score_p99_ms", "ms"),
    ("alerts_p90_ms", "ms"),
    ("resolve_lag_s", "s"),
    ("serve.queue_wait_ms", "ms"),
)


@dataclass(slots=True)
class _Request:
    due: float
    kind: str  # "score" | "alerts"
    rows: np.ndarray
    start: float = math.nan
    end: float = math.nan
    status: int = 0
    policy: tuple[str, int] | None = None
    scheduled_from: tuple[str, int] | None = None


def _schedule(seconds: float, game, rng) -> list[_Request]:
    from repro.sim import EVENT_SOURCES

    sources = (
        EVENT_SOURCES.create("model", game, {}),
        EVENT_SOURCES.create("drift", game, {"drift": DRIFT}),
    )
    # Period 1 of the drift source: every drift phase inflates the
    # means by the same factor, so each phase costs the same re-solve.
    pools = [
        np.array([src.counts(1, rng) for _ in range(POOL_ROWS)])
        for src in sources
    ]
    requests: list[_Request] = []
    # One arrival per 1/rate interval, at a random offset within it:
    # fixed rates that never lock onto the length of a re-solve (so how
    # many ingests overlap one varies smoothly between runs), and every
    # phase gets its batches.
    for kind, rate, rows in (
        ("score", SCORE_RATE, 1),
        ("alerts", ALERTS_RATE, BATCH_ROWS),
    ):
        n = int(seconds * rate)
        for due in (np.arange(n) + rng.random(n)) / rate:
            phase = int(due // PHASE_SECONDS) % 2
            idx = rng.integers(POOL_ROWS, size=rows)
            requests.append(_Request(float(due), kind, pools[phase][idx]))
    requests.sort(key=lambda r: r.due)
    return requests


async def drive(service, seconds: float, rng) -> TrafficReport:
    """Offer ``seconds`` of traffic to a started service; check and time
    every reply."""
    from repro.serve import StdlibApp

    app = StdlibApp(service)
    requests = _schedule(seconds, service.game, rng)
    published_before = service.store.publishes
    report = TrafficReport(attempted=len(requests))

    async def send(req: _Request, path: str, body: dict) -> None:
        req.start = time.perf_counter()
        status, payload = await app.handle("POST", path, body)
        req.end = time.perf_counter()
        req.status = status
        if status != 200:
            return
        if req.kind == "score":
            req.policy = (payload["fingerprint"], payload["policy_version"])
        elif payload["resolve_scheduled"]:
            active = service.active()
            req.scheduled_from = (active.fingerprint, active.version)

    # Only requests in flight are referenced, so finished ones do not
    # pile up as long-lived objects for the garbage collector to scan.
    in_flight: set[asyncio.Task] = set()

    def done(task: asyncio.Task) -> None:
        in_flight.discard(task)
        error = None if task.cancelled() else task.exception()
        if error is not None:
            report.failures.append(f"harness error: {error!r}")

    t0 = time.perf_counter() + 0.05
    for req in requests:
        req.due += t0
        delay = req.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        report.generator_late_s.append(time.perf_counter() - req.due)
        if req.kind == "score":
            path, body = "/score", {"alerts": req.rows.tolist()}
        else:
            path, body = "/alerts", {"counts": req.rows.tolist()}
        task = asyncio.create_task(send(req, path, body))
        in_flight.add(task)
        task.add_done_callback(done)
    t_end = t0 + seconds
    while in_flight:
        await asyncio.wait(set(in_flight))

    report.backlog_end = sum(
        1 for r in requests if r.due <= t_end and r.end > t_end
    )
    offered_rate = SCORE_RATE + ALERTS_RATE
    report.behind = (
        max(report.generator_late_s, default=0.0) > MAX_GENERATOR_LAG_S
        or report.backlog_end > offered_rate * MAX_GENERATOR_LAG_S
    )
    _check_and_time(service, seconds, requests, report, t0)
    new = service.store.publishes - published_before
    report.resolve_solve_s = _resolve_solve_times(service, new)
    report.counters = {
        "serve.resolves_scheduled": service.resolves_scheduled,
        "serve.resolves_completed": service.resolves_completed,
        "serve.resolve_retries": service.resolve_retries,
        "serve.resolve_failures": service.resolve_failures,
    }
    return report


def _check_and_time(service, seconds, requests, report, t0) -> None:
    budget = float(service.game.budget)
    published_at: dict[tuple[str, int], float] = {}

    def publish_time(policy: tuple[str, int]) -> float | None:
        if policy not in published_at:
            try:
                record = service.store.get((policy[0], budget), policy[1])
            except KeyError:
                return None
            published_at[policy] = record.published_at
        return published_at[policy]

    last_published = -math.inf
    open_since: float | None = None
    open_from: tuple[str, int] | None = None
    phase_policies: dict[int, list[tuple[str, int]]] = {}
    for req in sorted(requests, key=lambda r: r.end):
        latency = req.end - req.due
        report.queue_wait_s.append(req.start - req.due)
        if req.status != 200:
            report.failures.append(f"{req.kind} returned {req.status}")
            continue
        if req.kind == "alerts":
            report.alerts_latency_s.append(latency)
            if req.scheduled_from is not None and open_since is None:
                open_since, open_from = req.end, req.scheduled_from
            continue
        report.score_latency_s.append(latency)
        stamp = publish_time(req.policy)
        if stamp is None:
            report.failures.append(f"score named unpublished {req.policy}")
            continue
        if stamp < last_published:
            report.failures.append(f"score went back to {req.policy}")
        last_published = max(last_published, stamp)
        index = int((req.due - t0) // PHASE_SECONDS)
        phase_policies.setdefault(index, []).append(req.policy)
        if open_since is not None and req.policy != open_from:
            report.resolve_lags_s.append(req.end - open_since)
            open_since = None
    # Every drift phase must end on a policy solved for the drifted
    # counts: a fingerprint other than the one it started with.
    complete = int(seconds // PHASE_SECONDS)
    previous: tuple[str, int] | None = None
    for index in sorted(phase_policies):
        seen = phase_policies[index]
        if index % 2 == 1 and index < complete and previous is not None:
            if seen[-1][0] == previous[0]:
                report.failures.append(
                    f"drift phase {index} ended on its starting fingerprint"
                )
        previous = seen[-1]


def _resolve_solve_times(service, new_publishes: int) -> list[float]:
    """Solve times of the last ``new_publishes`` policies published."""
    store = service.store
    records = sorted(
        (store.get(key, v) for key in store.keys() for v in store.versions(key)),
        key=lambda record: record.published_at,
    )
    return [
        record.result.solve_seconds
        for record in records[len(records) - new_publishes:]
    ] if new_publishes else []


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); NaN for no values."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan
