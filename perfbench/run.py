"""Run one bhbasis benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Each body runs in a fresh child process (``child.py``), one after another,
until ``--seconds`` have passed; every body's outputs are checked against
``reference/<workload>.json``.  With ``--trace 0`` the run reports the
end-to-end metrics (medians over bodies) from untraced children.  With
``--trace 1`` each body runs twice on the same inputs, untraced and traced,
and the run reports per-layer metrics from the traced twin; the two twins'
outputs must be identical.  The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.  Traces are written
to ``.perfbench_out/`` at the end of a traced run.

The program is imported from ``src/`` of the checkout; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import time

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Every child uses one BLAS thread, so CPU time is not inflated by BLAS
# worker threads and runs do not contend for the two cores with themselves.
BLAS_THREADS = 1
CHILD_ENV = dict(
    os.environ,
    OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
    OMP_NUM_THREADS=str(BLAS_THREADS),
    MKL_NUM_THREADS=str(BLAS_THREADS),
    PYTHONHASHSEED="0",
)
CHILD_TIMEOUT_S = 120
# set-up-only children per untraced run, on top of each body's own set-up
SETUP_PROBES = 3


class RunFailed(Exception):
    """The program could not be run at all, so there is no result to print."""


def environment() -> dict:
    """Interpreter, numpy and BLAS versions and the machine's size."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    l3 = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "l3_cache": l3,
        "blas_threads": BLAS_THREADS,
    }


def run_child(workload: str, inputs: dict, mode: str) -> dict:
    """Run one child to completion; a crash or timeout comes back as an error."""
    job = {"workload": workload, "inputs": inputs, "mode": mode, "t0": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=CHILD_ENV,
            timeout=CHILD_TIMEOUT_S,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


class Tally:
    """Attempted and failed units of one run, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, wl, inputs: dict, report: dict, reference: dict, twin: dict | None = None) -> None:
        units = wl.units(inputs)
        self.attempted += len(units)
        outputs = report.get("outputs", {})
        for unit in units:
            if "error" in report:
                why = [report["error"].strip().splitlines()[-1]]
            elif unit not in outputs:
                why = ["no output"]
            elif unit not in reference:
                why = ["no reference"]
            else:
                why = wl.check(outputs[unit], reference[unit], inputs)
                if not why and twin is not None and twin.get("outputs", {}).get(unit) != outputs[unit]:
                    why = ["traced and untraced outputs differ"]
            if why:
                self.failed += 1
                self.reasons.extend(f"{unit}: {w}" for w in why[:2])


def run_workload(wl, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    with open(HERE / "reference" / f"{wl.name}.json") as fh:
        reference = json.load(fh)
    stream = wl.stream(seed)
    tally = Tally()
    start = time.monotonic()
    print(f"workload {wl.name}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"  why: {wl.why}")
    print(f"  env: {json.dumps(env, sort_keys=True)}")

    if not trace:
        setups = []
        probe = next(wl.stream(seed))
        for _ in range(SETUP_PROBES):
            report = run_child(wl.name, probe, "setup")
            if "error" in report:
                raise RunFailed(report["error"])
            setups.append(report["setup_s"])
        bodies = []
        while not bodies or time.monotonic() - start < seconds:
            inputs = next(stream)
            report = run_child(wl.name, inputs, "plain")
            tally.check(wl, inputs, report, reference)
            if "wall_s" in report:
                bodies.append(report)
                setups.append(report["setup_s"])
            else:
                bodies.append({})
            print(f"  body {len(bodies)}: {_describe(inputs)}  {_timing(report)}")
        walls = [b["wall_s"] for b in bodies if b]
        if not walls:
            raise RunFailed("no body finished")
        metrics = {
            "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} bodies"),
            "peak_rss_mb": (max(b["peak_rss_mb"] for b in bodies if b), "MiB", f"highest of {len(walls)} bodies"),
            "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        }
    else:
        pairs = []
        while not pairs or time.monotonic() - start < seconds:
            inputs = next(stream)
            # alternate which twin runs first
            order = ("plain", "traced") if len(pairs) % 2 == 0 else ("traced", "plain")
            twins = {mode: run_child(wl.name, inputs, mode) for mode in order}
            tally.check(wl, inputs, twins["plain"], reference)
            tally.check(wl, inputs, twins["traced"], reference, twin=twins["plain"])
            pairs.append((inputs, twins))
            print(f"  pair {len(pairs)}: {_describe(inputs)}  plain {_timing(twins['plain'])}  traced {_timing(twins['traced'])}")
        done = [(i, t["plain"], t["traced"]) for i, t in pairs if "trace" in t["traced"] and "wall_s" in t["plain"]]
        if not done:
            raise RunFailed("no traced pair finished")
        per_body = [tracer.layer_metrics(tr["trace"], tr["wall_s"]) for _, _, tr in done]
        plain_wall = statistics.median([p["wall_s"] for _, p, _ in done])
        traced_wall = statistics.median([tr["wall_s"] for _, _, tr in done])
        metrics = {}
        for name, unit in tracer.PER_LAYER:
            metrics[name] = (statistics.median([m[name] for m in per_body]), unit, f"median of {len(per_body)} traced bodies")
        metrics["harness.cpu_s"] = (statistics.median([p["cpu_s"] for _, p, _ in done]), "s", "untraced body CPU time, median")
        metrics["bench.trace_overhead_frac"] = ((traced_wall - plain_wall) / plain_wall, "ratio", f"base: untraced wall {plain_wall:.4f} s")
        for inputs, _, tr in done:
            name, busy = tracer.dominant(tr["trace"])
            print(f"  dominant self time: {name} {busy:.3f} s of {tr['wall_s']:.3f} s")
        _write_traces(wl.name, seed, env, done)

    for name, (value, unit, note) in metrics.items():
        print(f"  {name:45s} {value:>16.6g} {unit:6s} ({note})")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':45s} {frac:>16.6g} {'ratio':6s} ({tally.failed} of {tally.attempted} units)")
    for reason in tally.reasons[:10]:
        print(f"  FAILED {reason}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }


def _describe(inputs: dict) -> str:
    if "seed" in inputs:
        return f"library seed {inputs['seed']}"
    if "seeds" in inputs:
        return f"library seeds {inputs['seeds']}"
    return f"grid of {len(inputs['grid'])} points"


def _timing(report: dict) -> str:
    if "wall_s" not in report:
        return "FAILED"
    text = f"wall {report['wall_s']:.3f} s, peak {report['peak_rss_mb']:.0f} MiB, set-up {report['setup_s']:.3f} s"
    return text + ("  ERROR" if "error" in report else "")


def _write_traces(workload: str, seed: int, env: dict, done) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed, "env": env}) + "\n")
        for inputs, plain, traced in done:
            row = {"inputs": inputs, "plain_wall_s": plain["wall_s"], "wall_s": traced["wall_s"]}
            row.update(traced["trace"])
            fh.write(json.dumps(row) + "\n")
    print(f"  trace: {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'")

    env = environment()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace), env)
    except RunFailed as exc:
        print(f"the program cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
