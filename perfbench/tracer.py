"""Span tracer that wraps bhbasis's public functions from outside the program.

``install`` replaces each listed public function, in every loaded bhbasis
module that holds a reference to it, with a wrapper that records a span
(name, start, end, parent) in memory.  Only public boundary functions are
spanned.  The fine-grained helper ``normalize_largest`` is counted without a
span: spanning its ~1e5 calls per body costs more than the work it measures.

Work counters are updated at the same boundaries from the call's arguments
and result.  ``counting`` cells are sum over elements x <= max_n and DP rows
of (max_n + 1 - x); bytes are computed as 3 * itemsize * cells (two reads and
one write per cell), not measured.
"""

from __future__ import annotations

from collections import Counter
import importlib
import inspect
import math
import sys
import time

# Per-layer metrics reported by a traced run, with their units.
PER_LAYER = (
    ("sampling.sample_set.self_s", "s"),
    ("sampling.sample_set.calls", "count"),
    ("sampling.expected_count.self_s", "s"),
    ("sampling.indices", "count"),
    ("sampling.kept", "count"),
    ("collisions.enumerate_collisions.self_s", "s"),
    ("collisions.enumerate_collisions.calls", "count"),
    ("collisions.candidates", "count"),
    ("collisions.records", "count"),
    ("collisions.records_per_candidate", "ratio"),
    ("collisions.deleted", "count"),
    ("counting.repr_multiset.self_s", "s"),
    ("counting.repr_multiset.calls", "count"),
    ("counting.repr_multiset.cells", "count"),
    ("counting.repr_multiset.bytes_computed", "B"),
    ("counting.repr_multiset.cells_per_s", "1/s"),
    ("counting.repr_strict.self_s", "s"),
    ("counting.repr_strict.calls", "count"),
    ("counting.repr_strict.cells", "count"),
    ("counting.repr_strict.bytes_computed", "B"),
    ("counting.repr_strict.cells_per_s", "1/s"),
    ("counting.repr_weighted.self_s", "s"),
    ("counting.repr_weighted.calls", "count"),
    ("counting.repr_weighted.tuples", "count"),
    ("counting.multiset_sums.self_s", "s"),
    ("counting.multiset_sums.calls", "count"),
    ("verify.is_bhg.self_s", "s"),
    ("verify.is_bhg.calls", "count"),
    ("verify.basis_window.self_s", "s"),
    ("verify.decomposition_summary.self_s", "s"),
    ("fits.dyadic_fit.self_s", "s"),
    ("fits.dyadic_fit.calls", "count"),
    ("harness.run_construction.self_s", "s"),
    ("harness.weighted_max_count.self_s", "s"),
    ("harness.solution_total.self_s", "s"),
    ("harness.solution_total.calls", "count"),
    ("harness.cpu_s", "s"),
    ("ratio_bounds.signed_composition_curve.self_s", "s"),
    ("ratio_bounds.shifted_tail_curve.self_s", "s"),
    ("ratio_bounds.split_sum_curve.self_s", "s"),
    ("ratio_bounds.composition_curve.self_s", "s"),
    ("ratio_bounds.signed_composition_curve.calls", "count"),
    ("ratio_bounds.points", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.span_coverage_frac", "ratio"),
)


def _cells(rows: int, a, max_n: int) -> int:
    return rows * sum(max_n + 1 - x for x in {int(v) for v in a} if 1 <= x <= max_n)


def _count_sample(c, args, result) -> None:
    c["sampling.indices"] += args["params"].N
    c["sampling.kept"] += len(result)


def _count_collisions(c, args, result) -> None:
    c["collisions.records"] += len(result)
    c["collisions.deleted"] += len({r.largest for r in result})


def _count_dense(name: str, rows_arg: str, min_rows: int):
    def hook(c, args, result) -> None:
        rows = args[rows_arg] if args["backend"] == "dp" and args[rows_arg] >= min_rows else 0
        cells = _cells(rows, args["a"], args["max_n"])
        c[f"{name}.cells"] += cells
        c[f"{name}.bytes_computed"] += 3 * result.counts.itemsize * cells

    return hook


def _count_weighted(c, args, result) -> None:
    c["counting.repr_weighted.tuples"] += math.perm(len({int(x) for x in args["d"]}), len(tuple(args["f"])))


def _count_points(c, args, result) -> None:
    c["ratio_bounds.points"] += int(result.m.size)


# (module, function, counter hook) for every spanned public function
SPANS = (
    ("sampling", "sample_set", _count_sample),
    ("sampling", "expected_count", None),
    ("collisions", "construct_a", None),
    ("collisions", "deletion_set", None),
    ("collisions", "enumerate_collisions", _count_collisions),
    ("counting", "repr_multiset", _count_dense("counting.repr_multiset", "h", 1)),
    # k = 1 strict tables are zero-filled without running the DP
    ("counting", "repr_strict", _count_dense("counting.repr_strict", "k", 2)),
    ("counting", "repr_weighted", _count_weighted),
    ("counting", "multiset_sums", None),
    ("verify", "is_bhg", None),
    ("verify", "basis_window", None),
    ("verify", "decomposition_summary", None),
    ("fits", "dyadic_fit", None),
    ("harness", "run_construction", None),
    ("harness", "basis_floor_check", None),
    ("harness", "boundedness_check", None),
    ("harness", "weighted_max_count", None),
    ("harness", "solution_total", None),
    ("ratio_bounds", "split_sum_curve", _count_points),
    ("ratio_bounds", "shifted_tail_curve", _count_points),
    ("ratio_bounds", "composition_curve", _count_points),
    ("ratio_bounds", "signed_composition_curve", _count_points),
)

# (module, function, counter) for helpers counted without a span
COUNTED = (("collisions", "normalize_largest", "collisions.candidates"),)


class Tracer:
    """Spans and counters of one process, kept in memory until ``summary``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name: str, fn, hook=None):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self, origin: float) -> dict:
        """Spans relative to ``origin``, per-name calls and self time, counters."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, list] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            st = stats.setdefault(name, [0, 0.0])
            st[0] += 1
            st[1] += (end - start) - covered[i]
        return {
            "spans": [[n, s - origin, e - origin, p] for n, s, e, p in self.spans],
            "stats": stats,
            "counts": dict(self.counts),
        }


def install(tracer: Tracer) -> None:
    """Route every bhbasis reference to a listed function through the tracer."""
    modules = [m for n, m in list(sys.modules.items()) if n == "bhbasis" or n.startswith("bhbasis.")]

    def replace(orig, new) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)

    for mod, fn, hook in SPANS:
        orig = getattr(importlib.import_module(f"bhbasis.{mod}"), fn)
        replace(orig, tracer.span(f"{mod}.{fn}", orig, hook))
    for mod, fn, name in COUNTED:
        orig = getattr(importlib.import_module(f"bhbasis.{mod}"), fn)
        replace(orig, tracer.counter(name, orig))


def layer_metrics(summary: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced body (all but harness.cpu_s and
    bench.trace_overhead_frac, which need the untraced twin)."""
    stats, counts = summary["stats"], summary["counts"]
    out = {}
    for name, _ in PER_LAYER:
        head, _, last = name.rpartition(".")
        if last == "self_s":
            out[name] = stats.get(head, (0, 0.0))[1]
        elif last == "calls":
            out[name] = stats.get(head, (0, 0.0))[0]
        elif last == "cells_per_s":
            busy = stats.get(head, (0, 0.0))[1]
            out[name] = counts.get(f"{head}.cells", 0) / busy if busy > 0 else 0.0
        elif name in counts:
            out[name] = counts[name]
    for name, _ in PER_LAYER:
        out.setdefault(name, 0)
    candidates = counts.get("collisions.candidates", 0)
    out["collisions.records_per_candidate"] = (
        counts.get("collisions.records", 0) / candidates if candidates else 0.0
    )
    out["bench.span_coverage_frac"] = sum(st[1] for st in stats.values()) / wall_s
    return out


def dominant(summary: dict) -> tuple[str, float]:
    """Span name with the largest total self time, and that time."""
    stats = summary["stats"]
    if not stats:
        return "", 0.0
    name = max(stats, key=lambda n: stats[n][1])
    return name, stats[name][1]
