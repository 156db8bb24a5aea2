"""The four benchmark workloads, each derived from an acceptance criterion.

A workload turns the run's ``--seed`` into a stream of body inputs, runs one
body (the timed library calls) in a child process, and reduces the body's
results to JSON-ready outputs keyed by unit.  ``run.py`` compares those
outputs with ``reference/<workload>.json``, which ``make_reference.py``
wrote from the program over a fixed pool of library inputs; the seed picks
which pool members a run uses and in what order, so the library only ever
sees the generated inputs.

Bodies call the library through module attributes (``sampling.sample_set``,
not an imported name) so that the tracer's wrappers are the ones called.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import itertools
import math
import random
from typing import Callable, Iterator

import numpy as np

from bhbasis import collisions, harness, ratio_bounds, sampling, verify

# Relative tolerance for floats in the outputs.  The planned order-independent
# summation of expected_b moves its last digit, and refitting may move the fit
# floats by a few ulp; neither may count as a failed unit.
RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stream: Callable[[int], Iterator[dict]]  # body inputs made from the run's seed
    body: Callable[[dict], object]  # the timed library calls
    units: Callable[[dict], list]  # unit keys a body's inputs should produce
    outputs: Callable[[dict, object], dict]  # unit key -> JSON-ready output
    check: Callable[[dict, dict, dict], list]  # (output, reference, inputs) -> mismatches
    pool: Callable[[], list]  # inputs covering every unit any seed can draw
    small: dict  # small-scale inputs for the tracer self-check


def _cycle(pool, rng: random.Random) -> Iterator:
    order = list(pool)
    rng.shuffle(order)
    return itertools.cycle(order)


def _plain(obj):
    """JSON-ready copy: tuples to lists, numpy scalars to Python, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items() if not str(k).startswith("_")}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def _digest_ints(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()[:32]


def _digest_table(counts: np.ndarray) -> str:
    """Digest of a count table's values, independent of its count dtype."""
    sha = hashlib.sha256()
    for lo in range(0, counts.size, 1 << 20):
        sha.update(counts[lo : lo + (1 << 20)].astype("<u8").tobytes())
    return sha.hexdigest()[:32]


def compare(out, ref, path: str = "") -> list[str]:
    """Mismatches between an output and its reference: exact for integers,
    verdicts and digests, relative tolerance RTOL for floats."""
    if isinstance(ref, float) or isinstance(out, float):
        ok = (
            isinstance(out, (int, float))
            and isinstance(ref, (int, float))
            and not isinstance(out, bool)
            and abs(out - ref) <= RTOL * max(abs(out), abs(ref))
        )
        return [] if ok else [f"{path}: {out!r} != {ref!r}"]
    if isinstance(ref, dict) and isinstance(out, dict):
        if set(out) != set(ref):
            return [f"{path}: keys {sorted(out)} != {sorted(ref)}"]
        return [m for k in ref for m in compare(out[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(out, list) and len(out) == len(ref):
        return [m for i, (o, r) in enumerate(zip(out, ref)) for m in compare(o, r, f"{path}[{i}]")]
    if type(out) is not type(ref) or out != ref:
        return [f"{path}: {out!r} != {ref!r}"]
    return []


def _check_exact(output: dict, reference: dict, inputs: dict) -> list[str]:
    return compare(output, reference)


# ------------------------------------------------------------ basis-h2-1e7
# Criterion 3's per-seed construction plus the default decomposition audit:
# the dense 4-fold multiset tables dominate time and peak memory.

_BASIS = {"n": 10**7, "window": [10**5, 10**7], "audit_hi": 50_000}
_BASIS_POOL = range(1, 25)


def _basis_stream(seed: int) -> Iterator[dict]:
    seeds = _cycle(_BASIS_POOL, random.Random(f"basis-h2-1e7:{seed}"))
    while True:
        yield dict(_BASIS, seed=next(seeds))


def _basis_body(inp: dict):
    return harness.run_construction(
        2,
        inp["n"],
        inp["seed"],
        window=tuple(inp["window"]),
        audit_hi=inp["audit_hi"],
        floor=False,
        keep_tables=True,
    )


def _basis_outputs(inp: dict, rec: dict) -> dict:
    out = _plain(rec)
    out["table_b"] = _digest_table(rec["_tables"]["basis_b"].counts)
    out["table_a"] = _digest_table(rec["_tables"]["basis_a"].counts)
    return {f"seed={inp['seed']}": out}


# --------------------------------------------------------- theorem-h23-1e5
# Criterion 2: sample, clean and certify many small sets.  Collision
# enumeration dominates; is_bhg takes its enumeration path, so no dense
# table is built here.

_THEOREM = {"n": 10**5, "hs": [2, 3]}
_THEOREM_POOL = range(1, 151)
_THEOREM_SEEDS_PER_BODY = 16


def _theorem_stream(seed: int) -> Iterator[dict]:
    seeds = _cycle(_THEOREM_POOL, random.Random(f"theorem-h23-1e5:{seed}"))
    while True:
        yield dict(_THEOREM, seeds=[next(seeds) for _ in range(_THEOREM_SEEDS_PER_BODY)])


def _theorem_body(inp: dict):
    results = []
    for seed in inp["seeds"]:
        for h in inp["hs"]:
            b = sampling.sample_set(sampling.ModelParams(h, inp["n"], seed))
            a = collisions.construct_a(b.elements, h)
            results.append((h, seed, b.elements, a, verify.is_bhg(a, h, 1)))
    return results


def _theorem_outputs(inp: dict, results) -> dict:
    return {
        f"h={h},seed={seed}": {
            "b_size": len(b),
            "a_size": len(a),
            "c_size": len(b) - len(a),
            "b_digest": _digest_ints(b),
            "a_digest": _digest_ints(a),
            "bh1": _plain(verdict.to_json_dict()),
        }
        for h, seed, b, a, verdict in results
    }


# ------------------------------------------------------------- lemma568-h2
# What `bhbasis lemma568` runs (criteria 4 and 7 on a few seeds): weighted
# one-sided counting dominates, nested windows reuse one sample at three N.

_LEMMA568 = {"h": 2, "n_list": [10**4, 10**5, 10**6], "n_lo": 10**4}
_LEMMA568_POOL = range(1, 17)
_LEMMA568_SEEDS_PER_BODY = 2


def _lemma568_stream(seed: int) -> Iterator[dict]:
    seeds = _cycle(_LEMMA568_POOL, random.Random(f"lemma568-h2:{seed}"))
    while True:
        yield dict(_LEMMA568, seeds=[next(seeds) for _ in range(_LEMMA568_SEEDS_PER_BODY)])


def _lemma568_body(inp: dict):
    h, n_list, seeds = inp["h"], inp["n_list"], inp["seeds"]
    floor = harness.basis_floor_check(h, max(n_list), seeds, inp["n_lo"])
    bounded = harness.boundedness_check(h, n_list, seeds)
    return floor, bounded


def _lemma568_outputs(inp: dict, result) -> dict:
    floor, bounded = result
    out = {}
    for i, seed in enumerate(bounded["seeds"]):
        out[f"seed={seed}"] = _plain(
            {
                "floor_min_norm": floor["per_seed"][str(seed)],
                "one_sided": {
                    key: {nv: vals[i] for nv, vals in row["max"].items()}
                    for key, row in bounded["one_sided"].items()
                },
                "two_sided": {
                    key: {nv: vals[i] for nv, vals in row["total"].items()}
                    for key, row in bounded["two_sided"].items()
                },
            }
        )
    return out


# ----------------------------------------------------------- lemma4-curves
# Criterion 5's curve set (parts i-iv) for h = 2 and 3 with cold caches: the
# only workload that calls ratio_bounds.  The seed picks the sweep points
# from a fixed candidate grid, on which the reference holds every value.

_LEMMA4 = {"hs": [2, 3], "m_max": 10_000, "length": 1 << 19}
_LEMMA4_POINTS = 40


def _lemma4_candidates() -> list[int]:
    return ratio_bounds.geometric_grid(1, _LEMMA4["m_max"], per_decade=20, include=(100,))


def _lemma4_stream(seed: int) -> Iterator[dict]:
    rng = random.Random(f"lemma4-curves:{seed}")
    others = [m for m in _lemma4_candidates() if m != 100]
    while True:
        yield dict(_LEMMA4, grid=sorted(rng.sample(others, _LEMMA4_POINTS) + [100]))


def _lemma4_cases(inp: dict):
    """(unit label, ratio_bounds function, args, kwargs) of every curve."""
    m_max, grid = inp["m_max"], inp["grid"]
    neg = [-m for m in grid]
    signed = neg + [0] + grid
    for h in inp["hs"]:
        q = float(ratio_bounds.weight_exponent(h))
        yield f"i h={h}", "split_sum_curve", (q, q, m_max), {}
        yield f"ii h={h}", "shifted_tail_curve", (q, q, -m_max, m_max), {"grid": signed}
        for l in range(1, 2 * h + 1):
            yield f"iii l={l} h={h}", "composition_curve", (l, h, m_max), {}
            yield f"iv s=0 t={l} h={h}", "signed_composition_curve", (0, l, h), {"grid": neg}
            yield f"iv s=t={l} h={h}", "signed_composition_curve", (l, l, h), {"grid": grid}
        for s in range(1, 2 * h - 1):
            for t in range(s + 1, 2 * h):
                # tail tolerances of the acceptance test
                eps = None if (s, t) == (1, 2) else (0.15 if t == 2 * h - 1 and h == 3 else 0.05)
                kwargs = {"grid": signed, "tail_eps": eps, "length": inp["length"]}
                yield f"iv s={s} t={t} h={h}", "signed_composition_curve", (s, t, h), kwargs


def _lemma4_body(inp: dict) -> dict:
    return {
        label: getattr(ratio_bounds, fn)(*args, **kwargs)
        for label, fn, args, kwargs in _lemma4_cases(inp)
    }


def _lemma4_outputs(inp: dict, curves: dict) -> dict:
    wanted = set(inp["grid"]) | {-m for m in inp["grid"]} | {0}
    out = {}
    for label, curve in curves.items():
        err = curve.tail_err if curve.tail_err is not None else np.zeros(curve.m.size)
        out[label] = {
            str(int(m)): [float(v), float(e)]
            for m, v, e in zip(curve.m, curve.lhs, err)
            if int(m) in wanted
        }
    return out


def _lemma4_check(output: dict, reference: dict, inp: dict) -> list[str]:
    """Points must match the reference's points on the requested grid, each
    value within both certified tail errors plus RTOL."""
    wanted = set(inp["grid"]) | {-m for m in inp["grid"]} | {0}
    expect = {k for k in reference if int(k) in wanted}
    if set(output) != expect:
        return [f"points {sorted(output, key=int)} != {sorted(expect, key=int)}"]
    bad = []
    for k in sorted(output, key=int):
        (v, e), (rv, re) = output[k], reference[k]
        if not abs(v - rv) <= e + re + RTOL * max(abs(v), abs(rv)):
            bad.append(f"M={k}: {v!r} != {rv!r} (tail errors {e!r}, {re!r})")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="basis-h2-1e7",
            why="dense 4-fold repr_multiset over [0, 1e7] dominates wall time and sets peak memory",
            stream=_basis_stream,
            body=_basis_body,
            units=lambda inp: [f"seed={inp['seed']}"],
            outputs=_basis_outputs,
            check=_check_exact,
            pool=lambda: [dict(_BASIS, seed=s) for s in _BASIS_POOL],
            small={"n": 200_000, "window": [1000, 200_000], "audit_hi": 5000, "seed": 1},
        ),
        Workload(
            name="theorem-h23-1e5",
            why="collision enumeration on many small sets; no dense counting table is built",
            stream=_theorem_stream,
            body=_theorem_body,
            units=lambda inp: [f"h={h},seed={s}" for s in inp["seeds"] for h in inp["hs"]],
            outputs=_theorem_outputs,
            check=_check_exact,
            pool=lambda: [dict(_THEOREM, seeds=list(_THEOREM_POOL))],
            small={"n": 10**4, "hs": [2, 3], "seeds": [1, 2]},
        ),
        Workload(
            name="lemma568-h2",
            why="weighted one-sided counting and the two-sided join over nested windows of two seeds",
            stream=_lemma568_stream,
            body=_lemma568_body,
            units=lambda inp: [f"seed={s}" for s in inp["seeds"]],
            outputs=_lemma568_outputs,
            check=_check_exact,
            pool=lambda: [dict(_LEMMA568, seeds=[s]) for s in _LEMMA568_POOL],
            small={"h": 2, "n_list": [10**3, 10**4], "n_lo": 100, "seeds": [1]},
        ),
        Workload(
            name="lemma4-curves",
            why="bounded-ratio curves of parts i-iv; the only caller of ratio_bounds",
            stream=_lemma4_stream,
            body=_lemma4_body,
            units=lambda inp: [case[0] for case in _lemma4_cases(inp)],
            outputs=_lemma4_outputs,
            check=_lemma4_check,
            pool=lambda: [dict(_LEMMA4, grid=_lemma4_candidates())],
            small={"hs": [2], "m_max": 1000, "length": 1 << 19, "grid": [1, 10, 100, 1000]},
        ),
    )
}
