"""Seeded experiment orchestration with reproducible reports.

A report is a pure function of its configuration: per-seed records are
computed independently, in up to min(CPUs, seeds) processes, reduced in
order of seed value and serialized as canonical JSON, so replaying a stored
report reproduces it byte for byte whatever the CPU count.  The CPUs are the
ones the process may run on, so `taskset -c 0` runs every seed in one
process.  Every record carries the decomposition audit over
[1, min(audit_hi, N)]; audit_hi is a positive integer, 50,000 by default.

`ExperimentConfig`, `basis_floor_check` and `boundedness_check` share one
seed rule (`seed_list`): a nonempty collection of distinct integers, run in
increasing order; anything else raises ValueError.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
import json
import math
import operator
import os
import pickle
import statistics

import numpy as np

from . import collisions as _col
from . import verify as _ver
from .counting import ReprTable, repr_multiset, repr_strict, repr_weighted, validate_elements
from .sampling import ModelParams, expected_count, sample_set

SCHEMA_VERSION = 1
_ONE_SIDED_ARITY = 3
# targets per piece of the floor check's quotients
_FLOOR_PIECE = 1 << 16

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items() if not str(k).startswith("_")}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else None
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    """Sorted-keys JSON with a trailing newline; the byte-compare format."""
    return json.dumps(_jsonify(obj), sort_keys=True, indent=2) + "\n"


def default_window(n: int) -> tuple[int, int]:
    """Basis-check window: burn-in at max(1000, sqrt(N)) up to N."""
    return (min(n, max(1000, math.isqrt(n))), n)


def spec_key(f) -> str:
    return ",".join(str(int(w)) for w in f)


def pair_key(spec: _col.WeightSpec) -> str:
    return spec_key(spec.d) + "|" + spec_key(spec.e)


def default_one_sided(h: int) -> tuple[tuple[int, ...], ...]:
    """Tracked single-equation weight vectors; arity capped for tractability."""
    return tuple(f for f in _col.one_sided_weights(h) if len(f) <= _ONE_SIDED_ARITY)


def _index(x, what: str) -> int:
    """operator.index(x); ValueError naming `what` for a bool or a value
    that is not an integer."""
    if isinstance(x, bool) or not hasattr(type(x), "__index__"):
        raise ValueError(f"{what}: {x!r} is not an integer")
    return operator.index(x)


def seed_list(seeds) -> tuple[int, ...]:
    """The seeds in increasing order; raises ValueError unless they are a
    nonempty collection of distinct integers."""
    try:
        vals = sorted(_index(s, "seeds") for s in seeds)
    except TypeError:
        raise ValueError("seeds must be integers") from None
    if not vals or len(set(vals)) != len(vals):
        raise ValueError("seeds must be a nonempty list of distinct integers")
    return tuple(vals)


def _run_share(fn, seeds, first: int, step: int) -> tuple[list, tuple[int, BaseException] | None]:
    """fn over `seeds` in order, up to the first failure: the results so far
    and (index in the full seed list, exception), or None."""
    out = []
    for j, seed in enumerate(seeds):
        try:
            out.append(fn(seed))
        except Exception as exc:
            return out, (first + j * step, exc)
    return out, None


def _seed_map(fn, seeds: tuple[int, ...]) -> list:
    """[fn(seed) for seed in seeds], in up to min(CPUs, len(seeds)) processes.

    Share w is seeds[w::workers]; the parent runs share 0 and a forked child
    each other share, whose results come back pickled over a pipe, so each
    value is the one a serial loop computes.  The exception raised is the one
    of the earliest failing seed.  Every child is reaped before this returns
    or raises; with one CPU or one seed nothing is forked.  Children are
    forked, not spawned: a spawned one would import numpy and bhbasis again,
    which takes about as long as the share it would run.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(affinity(0)) if affinity else 1, len(seeds))
    shares = [None] * workers
    children = []  # (share index, pid, read end of its pipe)
    ends = []  # (share index, pickled share, wait status)
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the child never returns into the caller's frames, and it
                # runs none of the parent's exit handlers or buffer flushes
                code = 1
                try:
                    os.close(rfd)
                    data = pickle.dumps(_run_share(fn, seeds[w::workers], w, workers), pickle.HIGHEST_PROTOCOL)
                    with os.fdopen(wfd, "wb") as fh:
                        fh.write(data)
                    code = 0
                finally:
                    os._exit(code)
            os.close(wfd)
            children.append((w, pid, rfd))
        shares[0] = _run_share(fn, seeds[0::workers], 0, workers)
    finally:
        for w, pid, rfd in children:
            with os.fdopen(rfd, "rb") as fh:
                data = fh.read()
            ends.append((w, data, os.waitpid(pid, 0)[1]))
    for w, data, status in ends:
        if not data:
            raise RuntimeError(
                f"the worker for seeds {list(seeds[w::workers])} ended without a result (wait status {status})"
            )
        shares[w] = pickle.loads(data)
    failures = [share[1] for share in shares if share[1]]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    out = [None] * len(seeds)
    for w, (values, _) in enumerate(shares):
        out[w::workers] = values
    return out


def _check_audit_hi(audit_hi) -> None:
    if _index(audit_hi, "audit_hi") < 1:
        raise ValueError(f"audit_hi must be a positive integer, got {audit_hi!r}")


# the smallest window bound N an ExperimentConfig accepts
EXPERIMENT_MIN_N = 10


def _check_window(window, n: int) -> None:
    if window is not None:
        lo, hi = (_index(x, "window") for x in window)
        if not 1 <= lo <= hi <= n:
            raise ValueError(f"window must satisfy 1 <= lo <= hi <= N = {n}, got {lo}:{hi}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of a seeded construction experiment."""

    h: int
    n: int
    seeds: tuple[int, ...]
    window: tuple[int, int] | None = None
    audit_hi: int = 50_000
    floor: bool = True
    one_sided: tuple[tuple[int, ...], ...] = ()
    out_dir: str | None = None

    def __post_init__(self) -> None:
        # every field is checked as given: nothing is coerced, so a replayed
        # config runs exactly what its report says or is refused
        if _index(self.h, "h") < 2:
            raise ValueError("h must be >= 2")
        if _index(self.n, "N") < EXPERIMENT_MIN_N:
            raise ValueError(f"N must be >= {EXPERIMENT_MIN_N}")
        seed_list(self.seeds)
        _check_window(self.window, self.n)
        _check_audit_hi(self.audit_hi)
        if not isinstance(self.floor, bool):
            raise ValueError(f"floor: {self.floor!r} is not true or false")
        for f in self.one_sided:
            _col.validate_one_sided([_index(w, "one_sided") for w in f], self.h)

    def resolved_window(self) -> tuple[int, int]:
        return self.window if self.window is not None else default_window(self.n)

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "n": self.n,
            "seeds": list(self.seeds),
            "window": list(self.resolved_window()),
            "audit_hi": self.audit_hi,
            "floor": self.floor,
            "one_sided": [list(f) for f in self.one_sided],
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return cls(
            h=d["h"],
            n=d["n"],
            seeds=tuple(d["seeds"]),
            window=tuple(d["window"]) if d.get("window") is not None else None,
            audit_hi=d["audit_hi"],
            floor=d.get("floor", True),
            one_sided=tuple(tuple(f) for f in d.get("one_sided", [])),
            out_dir=d.get("out_dir"),
        )


def floor_exponent(h: int) -> float:
    """Normalization exponent of the strict-count floor: 1/(4h-1)."""
    return float(Fraction(1, 4 * h - 1))


def _floor_min_norm(strict: ReprTable, h: int, n_lo: int, n_hi: int) -> float:
    """min over n in [n_lo, n_hi] of the strict 2h-count of n over n^(1/(4h-1)).

    Evaluated `_FLOOR_PIECE` targets at a time, so no float64 copy of the
    window is made; each quotient, and so the minimum, is the same.
    """
    expo = floor_exponent(h)
    mins = []
    for a in range(n_lo, n_hi + 1, _FLOOR_PIECE):
        b = min(a + _FLOOR_PIECE, n_hi + 1)
        mins.append(float((strict.counts[a:b] / np.arange(a, b, dtype=np.float64) ** expo).min()))
    return min(mins)


def weighted_max_count(values, f, h: int) -> int:
    """Largest number of ordered distinct-element solutions of
    f_1 x_1 + ... + f_t x_t = m over all targets m."""
    f = _col.validate_one_sided(f, h)
    vals = list(values)
    if len(vals) < len(f):
        return 0
    max_m = sum(f) * max(vals)
    table = repr_weighted(vals, f, max_m)
    return int(table.counts.max())


def solution_total(values, spec: _col.WeightSpec, h: int) -> int:
    """Total ordered distinct-element solutions of the two-sided equation
    given by `spec` inside the set of `values`, counted on the join's rows
    without decoding a pair.  The values must be positive integers."""
    if not spec.is_reduced_form(h):
        raise ValueError(f"not a reduced two-sided spec for h={h}: {spec}")
    vals = validate_elements(values).tolist()
    return spec.orderings() * len(_col._equal_sum_rows(vals, spec)[0])


def run_construction(
    h: int,
    n: int,
    seed: int,
    *,
    window: tuple[int, int] | None = None,
    audit_hi: int = 50_000,
    floor: bool = True,
    one_sided: tuple[tuple[int, ...], ...] = (),
    keep_tables: bool = False,
) -> dict:
    """Sample, clean, and verify one seed; returns a JSON-ready record.

    Any invariant failure (a cleaned set that is not B_h[1], or a violated
    decomposition bound) raises rather than reporting quietly.

    Each 2h-fold table is built once, here; the multiset tables of B and A
    (`_tables`, with `keep_tables`) cover [0, max(n_hi, audit bound)].
    Without `keep_tables`, each table is cut to the audit's [0, audit bound]
    once its window statistics are taken.
    """
    _check_window(window, n)
    _check_audit_hi(audit_hi)
    params = ModelParams(h, n, seed)
    sampled = sample_set(params)
    b_vals = list(sampled.elements)
    records = _col.enumerate_collisions(b_vals, h)
    a_vals = _col.construct_a(b_vals, h)
    if set(b_vals) - set(a_vals) != _col.deletion_set(records):
        raise AssertionError(f"construct_a's deletion set differs from the records' at seed {seed}")

    verdict = _ver.is_bhg(a_vals, h, 1)
    if not verdict.ok:
        raise AssertionError(
            f"pipeline violation: cleaned set not B_{h}[1] at seed {seed}, witness {verdict.witness}"
        )

    n_lo, n_hi = window if window is not None else default_window(n)
    k = 2 * h
    hi = min(audit_hi, n)

    def audited(table: ReprTable, vals: list[int]) -> ReprTable:
        # after its statistics only the audit reads a table, over [1, hi];
        # the cut table's count is derived, so check the builder's first
        if keep_tables:
            return table
        if table.source_size != bisect_right(vals, table.max_n):
            raise ValueError(f"{table.semantics[0]} table was not built from the expected set")
        return ReprTable(table.counts[: hi + 1].copy(), table.semantics, bisect_right(vals, hi))

    # each table's statistics are taken as soon as it is built, so that
    # without keep_tables one full-window table is held at a time
    table_b = repr_multiset(b_vals, k, max(n_hi, hi))
    basis_b = _ver.basis_window(table_b, n_lo, n_hi)
    table_b = audited(table_b, b_vals)
    table_a = repr_multiset(a_vals, k, max(n_hi, hi))
    basis_a = _ver.basis_window(table_a, n_lo, n_hi)
    table_a = audited(table_a, a_vals)
    strict_b = repr_strict(b_vals, k, max(n_hi if floor else 0, hi))
    floor_min_norm = _floor_min_norm(strict_b, h, n_lo, n_hi) if floor else None
    strict_b = audited(strict_b, b_vals)

    rec = {
        "h": h,
        "n": n,
        "seed": seed,
        "b_size": len(b_vals),
        "c_size": len(b_vals) - len(a_vals),
        "a_size": len(a_vals),
        "expected_b": expected_count(params, 1, n),
        "bh1": verdict.to_json_dict(),
        "collisions": {
            "total": len(records),
            "distinct_2h": sum(1 for r in records if r.kind == _col.DISTINCT_2H),
            "weighted": sum(1 for r in records if r.kind == _col.WEIGHTED),
        },
        "basis_b": basis_b.to_json_dict(),
        "basis_a": basis_a.to_json_dict(),
    }

    rec["floor_min_norm"] = floor_min_norm
    rec["weighted_max"] = {spec_key(f): weighted_max_count(b_vals, f, h) for f in one_sided}

    rec["decomposition"] = _ver.decomposition_summary(b_vals, h, 1, hi, (table_b, table_a, strict_b), records)
    if rec["decomposition"]["violations"]:
        raise AssertionError(f"decomposition bound violated at seed {seed}")

    if keep_tables:
        rec["_tables"] = {"basis_b": table_b, "basis_a": table_a}
    return rec


def run_experiment(config: ExperimentConfig) -> dict:
    """All seeds of a configuration, plus aggregate medians."""
    records = _seed_map(
        lambda seed: run_construction(
            config.h,
            config.n,
            seed,
            window=config.resolved_window(),
            audit_hi=config.audit_hi,
            floor=config.floor,
            one_sided=config.one_sided,
        ),
        seed_list(config.seeds),
    )
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "records": records,
        "aggregate": _aggregate(records),
    }
    return report


def _aggregate(records: list[dict]) -> dict:
    def med(key_fn):
        vals = [key_fn(r) for r in records]
        vals = [v for v in vals if v is not None and not (isinstance(v, float) and math.isnan(v))]
        return statistics.median(vals) if vals else None

    return {
        "seeds": len(records),
        "all_bh1_ok": all(r["bh1"]["ok"] for r in records),
        "median_b_size": med(lambda r: r["b_size"]),
        "median_c_size": med(lambda r: r["c_size"]),
        "median_a_size": med(lambda r: r["a_size"]),
        "median_coverage_a": med(lambda r: r["basis_a"]["coverage"]),
        "median_coverage_b": med(lambda r: r["basis_b"]["coverage"]),
        "median_fit_exp_b": med(lambda r: r["basis_b"]["fit_exp"]),
        "median_floor_min_norm": med(lambda r: r["floor_min_norm"]),
    }


def basis_floor_check(h: int, n: int, seeds, n_lo: int) -> dict:
    """Distribution over seeds of min_n (strict 2h-count / n^(1/(4h-1))).

    The median over seeds being positive means at least half the windows
    contain no gap; the median is also the reported empirical floor
    constant.
    """
    if n_lo < 1 or n_lo > n:
        raise ValueError("need 1 <= n_lo <= N")
    seeds = seed_list(seeds)

    def one_seed(seed: int) -> float:
        strict = repr_strict(sample_set(ModelParams(h, n, seed)).elements, 2 * h, n)
        return _floor_min_norm(strict, h, n_lo, n)

    vals = _seed_map(one_seed, seeds)
    per_seed = {str(seed): v for seed, v in zip(seeds, vals)}
    return {
        "h": h,
        "n": n,
        "n_lo": n_lo,
        "per_seed": per_seed,
        "median": statistics.median(vals),
        "empirical_c": statistics.median(vals),
    }


def boundedness_check(h: int, n_list, seeds) -> dict:
    """Weighted-solution statistics across nested windows.

    For each window bound N, each one-sided weight vector of
    `default_one_sided(h)` reports the max-over-targets solution count, and
    each reduced two-sided spec the total solution count; sets are nested
    because the sampler is prefix consistent, so growth across N is
    meaningful per seed.
    """
    n_values = sorted(set(int(x) for x in n_list))
    if not n_values or n_values[0] < 1:
        raise ValueError("need a non-empty n_list of window bounds N >= 1")
    seeds = seed_list(seeds)
    one_sided = default_one_sided(h)
    two_sided = tuple(_col.reduced_weight_pairs(h))
    n_max = n_values[-1]
    l6 = {spec_key(f): {str(nv): [] for nv in n_values} for f in one_sided}
    l8 = {pair_key(s): {str(nv): [] for nv in n_values} for s in two_sided}

    def one_seed(seed: int) -> list[tuple[list[int], list[int]]]:
        # per window: the one-sided maxima and the two-sided totals
        sampled = sample_set(ModelParams(h, n_max, seed))
        rows = []
        for nv in n_values:
            vals = [x for x in sampled.elements if x <= nv]
            rows.append(
                (
                    [weighted_max_count(vals, f, h) for f in one_sided],
                    [solution_total(vals, spec, h) for spec in two_sided],
                )
            )
        return rows

    for rows in _seed_map(one_seed, seeds):
        for nv, (maxima, totals) in zip(n_values, rows):
            for f, m in zip(one_sided, maxima):
                l6[spec_key(f)][str(nv)].append(m)
            for spec, t in zip(two_sided, totals):
                l8[pair_key(spec)][str(nv)].append(t)
    out = {
        "h": h,
        "n_values": n_values,
        "seeds": list(seeds),
        "one_sided": {
            key: {"max": rows, "median": {nv: statistics.median(v) for nv, v in rows.items()}}
            for key, rows in l6.items()
        },
        "two_sided": {
            key: {"total": rows, "median": {nv: statistics.median(v) for nv, v in rows.items()}}
            for key, rows in l8.items()
        },
    }
    return out


def replay_report(report: dict) -> tuple[bool, str]:
    """Re-run a report's configuration and byte-compare the canonical dumps."""
    config = ExperimentConfig.from_dict(report["config"])
    fresh = run_experiment(config)
    a = canonical_json(report)
    b = canonical_json(fresh)
    if a == b:
        return True, ""
    for i, (la, lb) in enumerate(zip(a.splitlines(), b.splitlines())):
        if la != lb:
            return False, f"first difference at line {i + 1}: {la!r} != {lb!r}"
    return False, "reports differ in length"


def validate_report(report: dict) -> None:
    """Check a report against the documented schema, its config against
    ``ExperimentConfig``; raises ValueError on any problem."""

    def need(cond, msg):
        if not cond:
            raise ValueError(f"schema violation: {msg}")

    need(isinstance(report, dict), "report must be an object")
    need(report.get("schema_version") == SCHEMA_VERSION, "bad schema_version")
    cfg = report.get("config")
    need(isinstance(cfg, dict), "missing config")
    # the values themselves are ExperimentConfig's to check
    for key in ("h", "n", "seeds", "window", "audit_hi"):
        need(cfg.get(key) is not None, f"config.{key} missing")
    try:
        ExperimentConfig.from_dict(cfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"schema violation: config refused: {exc}") from None
    recs = report.get("records")
    need(isinstance(recs, list) and recs, "records must be a nonempty list")
    for r in recs:
        need(isinstance(r, dict), "record must be an object")
        for key in ("h", "n", "seed", "b_size", "c_size", "a_size", "bh1", "basis_b", "basis_a"):
            need(key in r, f"record missing {key}")
        need(isinstance(r["bh1"], dict) and "ok" in r["bh1"], "record.bh1 malformed")
        need(isinstance(r.get("decomposition"), dict), "record.decomposition must be an object")
        for basis in ("basis_b", "basis_a"):
            need(isinstance(r[basis], dict), f"record.{basis} must be an object")
            for key in ("k", "n_lo", "n_hi", "coverage"):
                need(key in r[basis], f"record.{basis} missing {key}")
    need(isinstance(report.get("aggregate"), dict), "missing aggregate")
    need("all_bh1_ok" in report["aggregate"], "aggregate missing all_bh1_ok")
