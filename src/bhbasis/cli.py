"""Command-line interface.

Subcommands: sample, construct, verify, sweep, lemma4, lemma568, replay.
Exit code 0 only when every asserted invariant of the subcommand passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import harness, ratio_bounds
from .sampling import ModelParams, sample_set

# Rows per `%` call of a CSV write.
_CSV_ROWS = 1 << 16

# The columns of records.csv, one row per seed of a sweep.
_RECORDS_HEADER = "seed,b_size,c_size,a_size,bh1_ok,coverage_b,coverage_a,fit_exp_b,floor_min_norm".split(",")


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _check_seed(args, flag: str, seed: int) -> None:
    """A seed outside the sampler's [0, 2^64) is a usage error (exit 2)."""
    if not 0 <= seed < 1 << 64:
        args.usage_error(f"{flag} must be in [0, 2^64), got {seed}")


def _parse_seeds(args) -> tuple[int, ...]:
    """The seeds of --seeds (taking precedence) or --seed; a missing,
    malformed, out-of-range or repeated seed is a usage error (exit 2)."""
    if args.seeds:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            args.usage_error(f"--seeds {args.seeds!r} is not a comma-separated list of integers")
        for seed in seeds:
            _check_seed(args, "--seeds", seed)
        if len(set(seeds)) != len(seeds):
            args.usage_error(f"--seeds {args.seeds!r} repeats a seed")
        return seeds
    if args.seed is not None:
        _check_seed(args, "--seed", args.seed)
        return (args.seed,)
    args.usage_error("need --seed or --seeds")


def _check_model_flags(args, n_min: int = 1) -> None:
    """--h, --n, --seed and --window outside the model's range are usage
    errors (exit 2), refused before any sampling."""
    if args.h < 2:
        args.usage_error(f"--h must be >= 2, got {args.h}")
    if args.n < n_min:
        args.usage_error(f"--n must be >= {n_min}, got {args.n}")
    if args.seed is not None:
        _check_seed(args, "--seed", args.seed)
    window = getattr(args, "window", None)
    if window is not None and not 1 <= window[0] <= window[1] <= args.n:
        args.usage_error(f"--window must satisfy 1 <= lo <= hi <= N = {args.n}, got {window[0]}:{window[1]}")


def _write_or_print(text: str, out: str | None, name: str) -> None:
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def _write_csv(out: str, name: str, header, columns) -> None:
    """Write out/name: the header line, then one row per index of the
    columns (numpy arrays, ranges or tuples), each cell the str() of its
    Python value, and print the path.  Rows are formatted 2^16 per `%` call,
    and columns of unequal length raise ValueError before the file opens."""
    if len({len(col) for col in columns}) != 1:
        raise ValueError(f"CSV columns of {name} differ in length: {[len(col) for col in columns]}")
    stride = len(columns)
    line = ",".join(["%s"] * stride) + "\n"
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(columns[0]), _CSV_ROWS):
            parts = [col[lo : lo + _CSV_ROWS] for col in columns]
            rows = len(parts[0])
            cells = [None] * (rows * stride)
            for i, part in enumerate(parts):
                cells[i::stride] = part.tolist() if isinstance(part, np.ndarray) else part
            fh.write((line * rows) % tuple(cells))
    print(path)


def _write_records(out: str, report: dict) -> None:
    """records.csv: the flat per-seed summary of a sweep report."""
    rows = [
        (r["seed"], r["b_size"], r["c_size"], r["a_size"], int(r["bh1"]["ok"]), r["basis_b"]["coverage"],
         r["basis_a"]["coverage"], r["basis_b"]["fit_exp"], r["floor_min_norm"])
        for r in report["records"]
    ]
    _write_csv(out, "records.csv", _RECORDS_HEADER, list(zip(*rows)))


def cmd_sample(args) -> int:
    _check_model_flags(args)
    sampled = sample_set(ModelParams(args.h, args.n, args.seed))
    text = harness.canonical_json(sampled.to_json_dict())
    _write_or_print(text, args.out, f"sample_h{args.h}_n{args.n}_s{args.seed}.json")
    return 0


def cmd_construct(args) -> int:
    _check_model_flags(args)
    if args.series and not args.out:
        args.usage_error("--series needs --out")
    rec = harness.run_construction(
        args.h,
        args.n,
        args.seed,
        window=args.window,
        one_sided=harness.default_one_sided(args.h),
        keep_tables=args.series,
    )
    text = harness.canonical_json(rec)
    _write_or_print(text, args.out, f"construct_h{args.h}_n{args.n}_s{args.seed}.json")
    if args.series:
        n_lo, n_hi = args.window or harness.default_window(args.n)
        counts = [rec["_tables"][key].counts[n_lo : n_hi + 1] for key in ("basis_b", "basis_a")]
        name = f"series_h{args.h}_n{args.n}_s{args.seed}.csv"
        _write_csv(args.out, name, ("n", "count_b", "count_a"), [range(n_lo, n_hi + 1), *counts])
    return 0 if rec["bh1"]["ok"] else 1


def cmd_verify(args) -> int:
    _check_model_flags(args)
    rec = harness.run_construction(args.h, args.n, args.seed, window=args.window)
    checks = {
        "bh1_ok": bool(rec["bh1"]["ok"]),
        "decomposition_ok": rec["decomposition"]["violations"] == 0,
        "coverage_a_positive": rec["basis_a"]["coverage"] > 0,
    }
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


def cmd_sweep(args) -> int:
    _check_model_flags(args, harness.EXPERIMENT_MIN_N)
    if args.format == "csv" and not args.out:
        args.usage_error("--format csv needs --out")
    config = harness.ExperimentConfig(
        h=args.h,
        n=args.n,
        seeds=_parse_seeds(args),
        window=args.window,
        one_sided=harness.default_one_sided(args.h),
        out_dir=args.out,
    )
    report = harness.run_experiment(config)
    _write_or_print(harness.canonical_json(report), args.out, "report.json")
    if args.format == "csv":
        _write_records(args.out, report)
    return 0 if report["aggregate"]["all_bh1_ok"] else 1


# the per-part flags each part reads; the others are refused.  tail_eps and
# grid may be left out, every other flag a part reads is required
_LEMMA4_FLAGS = {
    "i": ("alpha", "beta"),
    "ii": ("alpha", "beta", "tail_eps", "grid"),
    "iii": ("h", "l"),
    "iv": ("h", "s", "t", "tail_eps", "grid"),
}
_LEMMA4_OPTIONAL = ("tail_eps", "grid")


def _flags(names) -> str:
    return " ".join("--" + name.replace("_", "-") for name in names)


def cmd_lemma4(args) -> int:
    reads = _LEMMA4_FLAGS[args.part]
    missing = [name for name in reads if name not in _LEMMA4_OPTIONAL and getattr(args, name) is None]
    if missing:
        args.usage_error(f"--part {args.part} needs {_flags(missing)}")
    every = dict.fromkeys(name for names in _LEMMA4_FLAGS.values() for name in names)
    unread = [name for name in every if name not in reads and getattr(args, name) is not None]
    if unread:
        args.usage_error(f"--part {args.part} does not read {_flags(unread)}")
    if "h" in reads and args.h < 2:
        args.usage_error(f"--h must be >= 2, got {args.h}")
    if "alpha" in reads:
        for flag, value in (("--alpha", args.alpha), ("--beta", args.beta)):
            if not 0 < value < 1:
                args.usage_error(f"{flag} must lie strictly inside (0, 1), got {value}")
        if args.part == "ii" and args.alpha + args.beta <= 1:
            args.usage_error(f"--alpha + --beta must exceed 1 for --part ii, got {args.alpha + args.beta}")
    if args.part == "iii" and not 1 <= args.l <= 2 * args.h:
        args.usage_error(f"--l must lie in [1, 2h] = [1, {2 * args.h}], got {args.l}")
    if args.part == "iv":
        if not 1 <= args.t <= 2 * args.h:
            args.usage_error(f"--t must lie in [1, 2h] = [1, {2 * args.h}], got {args.t}")
        if not 0 <= args.s <= args.t:
            args.usage_error(f"--s must lie in [0, t] = [0, {args.t}], got {args.s}")
        if 0 < args.s < args.t == 2 * args.h:
            args.usage_error(f"--t must be below 2h = {2 * args.h} for 0 < s < t (the sum diverges), got {args.t}")
        if args.s in (0, args.t) and args.tail_eps is not None:
            args.usage_error(f"--part iv with --s {args.s} --t {args.t} has no tail and does not read --tail-eps")
    # part i sums over 1 <= n < M, part iii over l-tuples summing to M, and
    # part iv with s = 0 or s = t keeps only the points with |M| >= t
    lowest = {"i": 2, "iii": args.l}.get(args.part, 1)
    if args.part == "iv" and args.s in (0, args.t):
        lowest = args.t
    if args.mmax < lowest:
        args.usage_error(f"--mmax must be >= {lowest} for --part {args.part}, got {args.mmax}")
    # an interior (s, t) other than (1, 2) needs |M| <= a quarter of its
    # tables' fixed length, where the tail bracket beyond the table starts
    highest = ratio_bounds._LONG_TABLE // 4
    if args.part == "iv" and 0 < args.s < args.t and (args.s, args.t) != (1, 2) and args.mmax > highest:
        args.usage_error(f"--mmax must be <= {highest} for interior --s, --t other than 1, 2, got {args.mmax}")
    if args.tail_eps is not None and not args.tail_eps > 0:
        args.usage_error(f"--tail-eps must be positive, got {args.tail_eps}")
    tail = {} if args.tail_eps is None else {"tail_eps": args.tail_eps}
    if "grid" in reads:
        if args.grid == "full":
            grid = range(-args.mmax, args.mmax + 1)
        else:
            grid = ratio_bounds.geometric_grid(1, args.mmax, include=(100,))
            grid = [-m for m in grid] + grid
    try:
        if args.part == "i":
            curve = ratio_bounds.split_sum_curve(args.alpha, args.beta, args.mmax)
        elif args.part == "ii":
            curve = ratio_bounds.shifted_tail_curve(args.alpha, args.beta, -args.mmax, args.mmax, grid=grid, **tail)
        elif args.part == "iii":
            curve = ratio_bounds.composition_curve(args.l, args.h, args.mmax)
        else:
            curve = ratio_bounds.signed_composition_curve(args.s, args.t, args.h, grid, **tail)
    except ratio_bounds.TailBoundError as exc:
        print(f"FAIL tail_certificate ({exc})")
        return 1
    if args.out:
        columns = {"M": curve.m, "lhs": curve.lhs, "rhs": curve.rhs, "ratio": curve.ratio}
        if curve.tail_err is not None:
            columns["tail_err"] = curve.tail_err
        _write_csv(args.out, f"ratio_{args.part}.csv", list(columns), list(columns.values()))
    print(f"points={curve.m.size} sup_ratio={curve.sup_ratio:.6g} argmax_M={curve.argmax_m}")
    return 0


def cmd_lemma568(args) -> int:
    """The seeds, --h, --n-list and --n-lo are checked before any sampling."""
    seeds = _parse_seeds(args)
    if args.h < 2:
        args.usage_error(f"--h must be >= 2, got {args.h}")
    try:
        n_list = [int(x) for x in args.n_list.split(",")]
    except ValueError:
        args.usage_error(f"--n-list must be a comma-separated list of integers, got {args.n_list!r}")
    if min(n_list) < 1:
        args.usage_error(f"--n-list must hold positive window bounds, got {args.n_list!r}")
    if not 1 <= args.n_lo <= max(n_list):
        args.usage_error(f"--n-lo must satisfy 1 <= n_lo <= max(--n-list) = {max(n_list)}, got {args.n_lo}")
    floor = harness.basis_floor_check(args.h, max(n_list), seeds, args.n_lo)
    bounded = harness.boundedness_check(args.h, n_list, seeds)
    out = {"floor": floor, "boundedness": bounded}
    _write_or_print(harness.canonical_json(out), args.out, "lemma568.json")
    ok = floor["median"] > 0
    print(f"{'PASS' if ok else 'FAIL'} floor_median_positive ({floor['median']:.6g})")
    return 0 if ok else 1


def cmd_replay(args) -> int:
    # a report that cannot be read, parsed or validated is a usage error
    # (exit 2); only a valid report whose bytes differ is a FAIL (exit 1)
    try:
        with open(args.report) as fh:
            report = json.load(fh)
        harness.validate_report(report)
    except (OSError, ValueError) as exc:
        args.usage_error(f"--report {args.report!r} is not a valid report: {exc}")
    ok, diff = harness.replay_report(report)
    print("PASS replay" if ok else f"FAIL replay: {diff}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhbasis",
        description="Construct and verify random B_h[1] sets that are bases of order 2h",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=False):
        p.add_argument("--h", type=int, required=True, help="order parameter h >= 2")
        p.add_argument("--n", type=int, required=True, help="window bound N")
        if seeds:
            p.add_argument("--seed", type=int)
            p.add_argument("--seeds", type=str, help="comma-separated seed list")
        else:
            p.add_argument("--seed", type=int, required=True)
        p.add_argument("--window", type=_parse_window, help="basis window lo:hi")

    p = sub.add_parser("sample", help="draw one random set")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_sample, usage_error=p.error)

    p = sub.add_parser("construct", help="sample, clean, verify one seed")
    common(p)
    p.add_argument("--out", type=str, help="output directory")
    p.add_argument("--series", action="store_true", help="also write (n, count) series CSV; needs --out")
    p.set_defaults(func=cmd_construct, usage_error=p.error)

    p = sub.add_parser("verify", help="run one seed and print PASS/FAIL lines")
    common(p)
    p.set_defaults(func=cmd_verify, usage_error=p.error)

    p = sub.add_parser("sweep", help="multi-seed experiment with aggregates")
    common(p, seeds=True)
    p.add_argument("--out", type=str, help="output directory")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_sweep, usage_error=p.error)

    p = sub.add_parser("lemma4", help="bounded-ratio curves for the four sum inequalities")
    p.add_argument("--part", choices=("i", "ii", "iii", "iv"), required=True)
    p.add_argument("--h", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--l", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--mmax", type=int, default=10_000)
    p.add_argument("--tail-eps", type=float, default=None)
    p.add_argument("--grid", choices=("full", "geometric"), help="M grid of parts ii, iv (default geometric)")
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_lemma4, usage_error=p.error)

    p = sub.add_parser("lemma568", help="floor statistic and nested-window boundedness")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n-list", type=str, required=True, help="comma-separated window bounds")
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", type=str)
    p.add_argument("--n-lo", type=int, default=1000)
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_lemma568, usage_error=p.error)

    p = sub.add_parser("replay", help="re-run a stored report and byte-compare")
    p.add_argument("--report", type=str, required=True)
    p.set_defaults(func=cmd_replay, usage_error=p.error)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
