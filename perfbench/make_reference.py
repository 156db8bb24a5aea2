"""Write reference/<workload>.json: the outputs of every unit any seed can draw.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload's pool (``Workload.pool``) through the program in this
process and stores the outputs per unit.  Regenerate only when a change is
meant to alter outputs; the benchmark exists to catch changes that do so
by accident.  The full set takes about seven minutes on two cores, most of it
basis-h2-1e7.
"""

from __future__ import annotations

import json
from pathlib import Path
import sys
import time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    names = argv or list(workloads.WORKLOADS)
    for name in names:
        wl = workloads.WORKLOADS[name]
        t0 = time.perf_counter()
        reference = {}
        for inputs in wl.pool():
            reference.update(wl.outputs(inputs, wl.body(inputs)))
        path = HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            json.dump(reference, fh, sort_keys=True, indent=1)
            fh.write("\n")
        print(f"{name}: {len(reference)} units in {time.perf_counter() - t0:.1f} s -> {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
