"""Tracer self-check on small-scale versions of every workload.

    python3 perfbench/selfcheck.py

For each workload's small inputs, runs one untraced and one traced child and
requires identical outputs, so the tracer cannot change what the program
computes.  Then requires that BENCHMARK.json names exactly the per-layer
metrics the tracer emits, and that every span and counter behind them fired
on at least one workload.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402

# computed by run.py from the untraced twin, not from one traced body
NEEDS_TWIN = {"harness.cpu_s", "bench.trace_overhead_frac"}


def main() -> int:
    problems = []
    fired: set[str] = set()
    for name, wl in workloads.WORKLOADS.items():
        plain = run.run_child(name, wl.small, "plain")
        traced = run.run_child(name, wl.small, "traced")
        for label, report in (("untraced", plain), ("traced", traced)):
            if "error" in report:
                problems.append(f"{name}: {label} child failed: {report['error']}")
        if "error" in plain or "error" in traced:
            continue
        same = plain["outputs"] == traced["outputs"]
        if not same:
            problems.append(f"{name}: traced and untraced outputs differ")
        metrics = tracer.layer_metrics(traced["trace"], traced["wall_s"])
        fired.update(k for k, v in metrics.items() if v)
        print(
            f"{name}: {len(plain['outputs'])} units, outputs identical: {same}, "
            f"span coverage {metrics['bench.span_coverage_frac']:.3f}"
        )

    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    emitted = dict(tracer.PER_LAYER)
    if declared != emitted:
        problems.append(f"BENCHMARK.json per_layer {declared} != tracer.PER_LAYER {emitted}")
    silent = sorted(set(emitted) - NEEDS_TWIN - fired)
    if silent:
        problems.append(f"metrics that stayed zero on every workload: {silent}")
    print(f"{len(emitted)} per-layer metrics declared; {len(set(emitted) - NEEDS_TWIN - set(silent))} fired")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck PASS" if not problems else "selfcheck FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
