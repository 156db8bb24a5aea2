"""Command-line interface.

Subcommands: sample, construct, verify, sweep, lemma4, lemma568, replay.
Exit code 0 only when every asserted invariant of the subcommand passed.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import harness, ratio_bounds, verify
from .sampling import ModelParams, sample_set


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def _parse_seeds(args) -> tuple[int, ...]:
    """The seeds of --seeds (taking precedence) or --seed; a missing,
    malformed or repeated seed is a usage error (exit 2)."""
    if args.seeds:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(","))
        except ValueError:
            args.usage_error(f"--seeds {args.seeds!r} is not a comma-separated list of integers")
        if len(set(seeds)) != len(seeds):
            args.usage_error(f"--seeds {args.seeds!r} repeats a seed")
        return seeds
    if args.seed is not None:
        return (args.seed,)
    args.usage_error("need --seed or --seeds")


def _write_or_print(text: str, out: str | None, name: str) -> None:
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        with open(path, "w") as fh:
            fh.write(text)
        print(path)
    else:
        sys.stdout.write(text)


def cmd_sample(args) -> int:
    params = ModelParams(args.h, args.n, args.seed)
    sampled = sample_set(params)
    _write_or_print(sampled.to_json(), args.out, f"sample_h{args.h}_n{args.n}_s{args.seed}.json")
    return 0


def cmd_construct(args) -> int:
    rec = harness.run_construction(
        args.h,
        args.n,
        args.seed,
        window=args.window,
        one_sided=harness.default_one_sided(args.h),
        keep_tables=bool(args.out and args.series),
    )
    tables = rec.get("_tables")
    text = harness.canonical_json(rec)
    _write_or_print(text, args.out, f"construct_h{args.h}_n{args.n}_s{args.seed}.json")
    if args.out and args.series and tables:
        n_lo, n_hi = args.window if args.window else harness.default_window(args.n)
        path = os.path.join(args.out, f"series_h{args.h}_n{args.n}_s{args.seed}.csv")
        verify.counts_csv(
            path,
            n_lo,
            n_hi,
            {"count_b": tables["basis_b"].counts, "count_a": tables["basis_a"].counts},
        )
        print(path)
    return 0 if rec["bh1"]["ok"] else 1


def cmd_verify(args) -> int:
    rec = harness.run_construction(args.h, args.n, args.seed, window=args.window)
    checks = {
        "bh1_ok": bool(rec["bh1"]["ok"]),
        "decomposition_ok": rec["decomposition"] is None or rec["decomposition"]["violations"] == 0,
        "coverage_a_positive": rec["basis_a"]["coverage"] > 0,
    }
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(checks.values()) else 1


def cmd_sweep(args) -> int:
    config = harness.ExperimentConfig(
        h=args.h,
        n=args.n,
        seeds=_parse_seeds(args),
        window=args.window,
        one_sided=harness.default_one_sided(args.h),
        out_dir=args.out,
    )
    report = harness.run_experiment(config)
    formats = ("json", "csv") if args.format == "csv" else ("json",)
    if args.out:
        for path in harness.emit_report(report, args.out, formats):
            print(path)
    else:
        sys.stdout.write(harness.canonical_json(report))
    return 0 if report["aggregate"]["all_bh1_ok"] else 1


_LEMMA4_FLAGS = {"i": ("alpha", "beta"), "ii": ("alpha", "beta"), "iii": ("h", "l"), "iv": ("h", "s", "t")}


def cmd_lemma4(args) -> int:
    missing = [f"--{name}" for name in _LEMMA4_FLAGS[args.part] if getattr(args, name) is None]
    if missing:
        args.usage_error(f"--part {args.part} needs {' '.join(missing)}")
    kwargs = {
        "alpha": args.alpha,
        "beta": args.beta,
        "m_max": args.mmax,
        "h": args.h,
        "l": args.l,
        "s": args.s,
        "t": args.t,
    }
    if args.tail_eps is not None:
        kwargs["tail_eps"] = args.tail_eps
    if args.part in ("ii", "iv"):
        if args.grid == "geometric":
            grid = ratio_bounds.geometric_grid(1, args.mmax, include=(100,))
            kwargs["grid"] = [-m for m in grid] + grid
        else:
            kwargs["grid"] = range(-args.mmax, args.mmax + 1)
    curve = ratio_bounds.ratio_curve(args.part, **{k: v for k, v in kwargs.items() if v is not None})
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"ratio_{args.part}.csv")
        curve.to_csv(path)
        print(path)
    print(f"points={curve.m.size} sup_ratio={curve.sup_ratio:.6g} argmax_M={curve.argmax_m}")
    return 0


def cmd_lemma568(args) -> int:
    n_list = [int(x) for x in args.n_list.split(",")]
    seeds = _parse_seeds(args)
    floor = harness.basis_floor_check(args.h, max(n_list), seeds, args.n_lo)
    bounded = harness.boundedness_check(args.h, n_list, seeds)
    out = {"floor": floor, "boundedness": bounded}
    _write_or_print(harness.canonical_json(out), args.out, "lemma568.json")
    ok = floor["median"] > 0
    print(f"{'PASS' if ok else 'FAIL'} floor_median_positive ({floor['median']:.6g})")
    return 0 if ok else 1


def cmd_replay(args) -> int:
    with open(args.report) as fh:
        report = json.load(fh)
    harness.validate_report(report)
    ok, diff = harness.replay_report(report)
    print("PASS replay" if ok else f"FAIL replay: {diff}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhbasis",
        description="Construct and verify random B_h[1] sets that are bases of order 2h",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
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
        p.add_argument("--out", type=str, help="output directory")

    p = sub.add_parser("sample", help="draw one random set")
    p.add_argument("--h", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=str)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("construct", help="sample, clean, verify one seed")
    common(p)
    p.add_argument("--series", action="store_true", help="also write (n, count) series CSV")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run one seed and print PASS/FAIL lines")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="multi-seed experiment with aggregates")
    common(p, seeds=True)
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
    p.add_argument("--grid", choices=("full", "geometric"), default="geometric")
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
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
