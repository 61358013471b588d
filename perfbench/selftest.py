#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery (about a minute).

Run from the repository root::

    python3 perfbench/selftest.py

Checks that

* installing the per-layer wrappers replaces every entry point and
  removing them restores the very same objects (and leaves no shadowing
  attribute on classes that inherited the method);
* a traced solve returns bitwise the same objective and thresholds as an
  untraced one, on a small Syn A brute force and a short EMR ISHM run;
* a short ``serve-drift`` run of ``run.py`` in each mode is correct and
  prints exactly the metric names and units that ``BENCHMARK.json``
  declares.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import _MISSING, ENTRY_POINTS, Tracer, resolve_owner  # noqa: E402


def check_restore(failures: list[str]) -> None:
    targets = [
        (resolve_owner(module, owner), attr)
        for module, owner, attr, _ in ENTRY_POINTS
    ]
    before = [vars(owner).get(attr, _MISSING) for owner, attr in targets]
    tracer = Tracer()
    with tracer:
        for (owner, attr), raw in zip(targets, before, strict=True):
            if vars(owner).get(attr, _MISSING) is raw:
                failures.append(f"{owner.__name__}.{attr} was not wrapped")
    for (owner, attr), raw in zip(targets, before, strict=True):
        if vars(owner).get(attr, _MISSING) is not raw:
            failures.append(f"{owner.__name__}.{attr} was not restored")


def check_bitwise(failures: list[str]) -> None:
    from repro.datasets import rea_a, syn_a
    from repro.engine import AuditEngine

    cases = [
        ("syn_a B=3 bruteforce", lambda: syn_a(budget=3), "bruteforce", {}),
        (
            "rea_a ISHM, 40 probes",
            lambda: rea_a(budget=50),
            "ishm",
            {"step_size": 0.3, "max_probes": 40},
        ),
    ]
    for label, make_game, method, options in cases:
        answers = []
        for traced in (False, True):
            engine = AuditEngine(make_game(), n_samples=400)
            tracer = Tracer()
            if traced:
                tracer.install()
            try:
                result = engine.solve(method, **options)
            finally:
                tracer.remove()
            answers.append(
                (result.objective, result.thresholds.tobytes())
            )
            if traced and tracer.get("lp.solve").calls == 0:
                failures.append(f"{label}: traced run recorded no LP")
        if answers[0] != answers[1]:
            failures.append(f"{label}: traced answer differs {answers}")


def check_metric_names(failures: list[str]) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in declared[key]}
        run = subprocess.run(
            declared["command"]
            + ["--workload", "serve-drift", "--seed", "0", "--seconds", "4",
               "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
            check=False,
        )
        if run.returncode != 0:
            failures.append(f"trace {trace} exited {run.returncode}")
            continue
        result = json.loads(run.stdout.splitlines()[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            failures.append(
                f"trace {trace}: printed {sorted(got.items())}, "
                f"declared {sorted(want.items())}"
            )
        if not result["correct"]:
            failures.append(f"trace {trace} run was not correct")


def main() -> int:
    failures: list[str] = []
    for check in (check_restore, check_bitwise, check_metric_names):
        before = len(failures)
        check(failures)
        status = "ok" if len(failures) == before else "FAILED"
        print(f"{check.__name__}: {status}", flush=True)
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
