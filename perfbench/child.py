"""One benchmark child process: set up, run one workload body, report.

Reads a JSON job on stdin:

    {"workload": name, "inputs": {...}, "mode": "setup" | "plain" | "traced",
     "t0": time.monotonic() of the parent just before it started this process}

and prints one JSON line: ``setup_s`` (process start until bhbasis is
imported and the inputs are built), and unless mode is "setup", the body's
``wall_s``, ``cpu_s``, ``peak_rss_mb`` (ru_maxrss, taken before the outputs
are reduced), then ``outputs`` per unit or ``error``, and in traced mode the
``trace`` summary.  A fresh process per body keeps ru_maxrss a per-body high
water mark and the ratio_bounds caches cold.
"""

from __future__ import annotations

import json
from pathlib import Path
import resource
import sys
import time
import traceback


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    wl = workloads.WORKLOADS[job["workload"]]
    inputs = job["inputs"]
    tracer = None
    if job["mode"] == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    report = {"setup_s": time.monotonic() - job["t0"]}
    if job["mode"] != "setup":
        cpu0 = _cpu()
        t0 = time.perf_counter()
        try:
            result = wl.body(inputs)
        except Exception:
            result, report["error"] = None, traceback.format_exc()
        report["wall_s"] = time.perf_counter() - t0
        report["cpu_s"] = _cpu() - cpu0
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            report["trace"] = tracer.summary(t0)
        if "error" not in report:
            try:
                report["outputs"] = wl.outputs(inputs, result)
            except Exception:
                report["error"] = traceback.format_exc()
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
