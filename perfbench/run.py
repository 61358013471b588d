#!/usr/bin/env python3
"""Benchmark of the audit-prioritization pipeline, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload syna-bruteforce --seed 0 \\
        --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``syna-bruteforce``, ``emr-ishm-cggs``
and ``serve-drift``.  ``--trace 0`` measures the end-to-end metrics with
no wrappers installed and the program's own telemetry and fault
injection off (a run started with ``REPRO_OBS`` or ``REPRO_FAULTS`` set
clears them, measures, and counts as failed); ``--trace 1`` also solves
with the per-layer wrappers of ``layers.py`` installed and prints the
per-layer metrics, including the tracing overhead.  Seed 0 is the
default seed (its answers are pinned); seed 1 is held out for checking
later claims.

Lines starting with ``#`` describe the run (environment stamp, every
metric with its unit, traffic notes including the latency tails and
re-solve lag, failures); the last line is the JSON result.
``python3 perfbench/selftest.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Environment switches of the program's own telemetry and fault
#: injection; measurements are only valid with both off.
PROGRAM_SWITCHES = ("REPRO_OBS", "REPRO_FAULTS")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (names and contents)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(switches: dict[str, str | None]) -> dict[str, object]:
    import numpy
    import scipy

    from repro.solvers.lp import DEFAULT_BACKEND

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lp_backend": DEFAULT_BACKEND,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "switches_at_start": switches,
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    # Both switches are read when repro is imported, so they are cleared
    # first; the stamp records what the caller had set, and a run that
    # found either set counts as failed.
    switches = {name: os.environ.pop(name, None) for name in PROGRAM_SWITCHES}
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    from layers import Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    result = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    env = environment(switches)
    for name, value in switches.items():
        if value is not None:
            result.failures.append(f"{name} was set to {value!r}")

    metrics = result.layers if args.trace else result.metrics
    payload = {}
    for name, (value, unit) in metrics.items():
        if value is None or not math.isfinite(value):
            result.failures.append(f"{name} was not measured")
            value = 0.0
        payload[name] = {"value": value, "unit": unit}
    failed = result.failed
    # Failed or wrong operations over attempted.  It is 0 on a good run,
    # so it is a per-layer metric: end-to-end metrics must never read 0.
    error_rate = failed / result.attempted
    result.notes["error_rate"] = error_rate
    if args.trace:
        payload["error_rate"] = {"value": error_rate, "unit": "fraction"}

    print("# env " + json.dumps(env, sort_keys=True))
    print(
        f"# workload {args.workload} seed {args.seed} "
        f"seconds {args.seconds:g} trace {args.trace}"
    )
    for name, entry in payload.items():
        print(f"# {name} {entry['value']:.6g} {entry['unit']}")
    print("# notes " + json.dumps(result.notes, sort_keys=True))
    for failure, times in Counter(result.failures).items():
        print(f"# FAILED {times}x {failure}")
        print(f"perfbench: {times}x {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": result.attempted,
                "failed": failed,
                "metrics": payload,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
