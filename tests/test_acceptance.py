"""Acceptance gate: eight criteria with pinned scales and tolerances.

Each test prints one PASS/FAIL line per asserted condition before asserting,
so a red criterion still reports its measurements.  Criteria 3a (coverage
threshold), 5 (ratio-flatness thresholds) and 7b (one-sided saturation)
encode asymptotic expectations that the construction provably approaches
only beyond desk scale; they are asserted as stated and fail with
quantitative diagnostics rather than being loosened.  See the failure
messages for the analysis.
"""

import json
import statistics
import time

import numpy as np

from bhbasis.collisions import enumerate_collisions, construct_a, DISTINCT_2H
from bhbasis.counting import repr_multiset, repr_strict, repr_weighted
from bhbasis.fits import dyadic_fit
from bhbasis.harness import (
    ExperimentConfig,
    basis_floor_check,
    boundedness_check,
    canonical_json,
    replay_report,
    run_construction,
    run_experiment,
)
from bhbasis.ratio_bounds import (
    composition_curve,
    geometric_grid,
    shifted_tail_curve,
    signed_composition_curve,
    split_sum_curve,
    weight_exponent,
)
from bhbasis.sampling import ModelParams, sample_set
from bhbasis.verify import _decomposition_arrays, is_bhg

from tests.curves import ratio_at
from tests.oracles import oracle_decomposition_all, oracle_multiset, oracle_strict, oracle_weighted
from tests.tables import audit_tables


def _line(tag: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} -- {detail}")
    return ok


def test_criterion_1_backend_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(10_001)
    checked = 0
    for trial in range(200):
        size = int(rng.integers(1, 31))
        a = sorted(rng.choice(np.arange(1, 201), size=size, replace=False).tolist())
        h = 2 if trial % 2 == 0 else 3
        max_n = h * max(a)
        assert np.array_equal(repr_multiset(a, h, max_n).counts, oracle_multiset(a, h, max_n))
        assert np.array_equal(repr_strict(a, h + 1, max_n).counts, oracle_strict(a, h + 1, max_n))
        d = a[:20]
        w_max = 4 * max(d)
        assert np.array_equal(repr_weighted(d, (1, 1, 2), w_max).counts, oracle_weighted(d, (1, 1, 2), w_max))
        checked += 1
    elapsed = time.time() - t0
    ok = _line("1", checked == 200 and elapsed < 60, f"{checked}/200 random sets entrywise equal, {elapsed:.1f}s")
    assert ok


def test_criterion_2_pipeline_theorem():
    t0 = time.time()
    results = {}
    for h in (2, 3):
        good = 0
        for seed in range(1, 101):
            sampled = sample_set(ModelParams(h, 10**5, seed))
            a = construct_a(sampled.elements, h)
            if is_bhg(a, h, 1).ok:
                good += 1
        results[h] = good
    elapsed = time.time() - t0
    ok = _line(
        "2",
        results[2] == 100 and results[3] == 100 and elapsed < 600,
        f"B_h[1] verdict true in {results[2]}/100 (h=2) and {results[3]}/100 (h=3) at N=1e5, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_basis_half_desk_scale():
    n = 10**7
    window = (10**5, n)
    seeds = range(1, 21)
    coverages = []
    mean_b = np.zeros(n + 1, dtype=np.float64)
    for seed in seeds:
        rec = run_construction(2, n, seed, window=window, floor=False, keep_tables=True)
        coverages.append(rec["basis_a"]["coverage"])
        mean_b += rec["_tables"]["basis_b"].counts.astype(np.float64)
        del rec
    mean_b /= len(coverages)
    med_cov = statistics.median(coverages)
    _, fit_exp, _, _ = dyadic_fit(window[0], mean_b[window[0] : window[1] + 1])
    cov_ok = _line("3a", med_cov >= 0.99, f"median coverage of cleaned-set 2h-fold counts on [1e5,1e7] = {med_cov:.4f} (threshold 0.99)")
    fit_ok = _line("3b", 0.09 <= fit_exp <= 0.20, f"dyadic fit exponent of mean sampled-set counts = {fit_exp:.4f} (target ~1/7 in [0.09, 0.20])")
    assert fit_ok
    assert cov_ok, (
        f"median coverage {med_cov:.4f} < 0.99: the deletion step keeps about half of the "
        f"sample at N=1e7 or less, and the cleaned set's 2h-fold counts still have zeros across the "
        f"window. No survival law derived in this repository predicts from which N the threshold "
        f"holds; the construction itself is verified exactly (criteria 2 and 6)."
    )


def test_criterion_4_floor_statistic():
    t0 = time.time()
    out = basis_floor_check(2, 10**6, range(1, 21), n_lo=10**4)
    elapsed = time.time() - t0
    zeros = sum(1 for v in out["per_seed"].values() if v == 0)
    ok = _line(
        "4",
        out["median"] > 0,
        f"median over 20 seeds of min strict-count/n^(1/7) on [1e4,1e6] = {out['median']:.4f} > 0 "
        f"({zeros}/20 seeds still have a window gap), empirical floor constant "
        f"{out['empirical_c']:.4f}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_5_bounded_ratio_curves():
    t0 = time.time()
    rows = []

    def judge(label, curve, side="pos"):
        anchor_m = 100 if side == "pos" else -100
        sel = curve.m >= 100 if side == "pos" else curve.m <= -100
        if not sel.any():
            return
        anchor = ratio_at(curve, anchor_m)
        sup = float(curve.ratio[sel].max())
        slope = curve.slope(100, side=side)
        rows.append((label + ("" if side == "pos" else " (neg)"), sup, anchor, slope, sup <= 2 * anchor, slope <= 0.01))

    for h in (2, 3):
        q = float(weight_exponent(h))
        judge(f"i h={h}", split_sum_curve(q, q, 10_000))
        grid = geometric_grid(1, 10_000, per_decade=10, include=(100,))
        sgrid = [-m for m in grid] + [0] + grid
        curve_ii = shifted_tail_curve(q, q, -10_000, 10_000, grid=sgrid)
        judge(f"ii h={h}", curve_ii, "pos")
        judge(f"ii h={h}", curve_ii, "neg")
        for l in range(1, 2 * h + 1):
            judge(f"iii l={l} h={h}", composition_curve(l, h, 10_000))
            judge(f"iv s=0 t={l} h={h}", signed_composition_curve(0, l, h, grid=[-m for m in grid]), "neg")
            judge(f"iv s=t={l} h={h}", signed_composition_curve(l, l, h, grid=grid))
        for s in range(1, 2 * h - 1):
            for t in range(s + 1, 2 * h):
                eps = None if (s, t) == (1, 2) else (0.15 if t == 2 * h - 1 and h == 3 else 0.05)
                curve = signed_composition_curve(s, t, h, grid=sgrid, tail_eps=eps)
                judge(f"iv s={s} t={t} h={h}", curve, "pos")
                judge(f"iv s={s} t={t} h={h}", curve, "neg")

    elapsed = time.time() - t0
    print(f"  {'case':>18} {'sup':>12} {'ratio@100':>12} {'slope':>9} {'sup<=2x':>8} {'slope<=.01':>10}")
    for label, sup, anchor, slope, sup_ok, slope_ok in rows:
        print(f"  {label:>18} {sup:>12.4f} {anchor:>12.4f} {slope:>9.4f} {str(sup_ok):>8} {str(slope_ok):>10}")
    sup_fail = [r[0] for r in rows if not r[4]]
    slope_fail = [r[0] for r in rows if not r[5]]
    steep = [r[3] for r in rows if not r[5]]
    steep_range = f"{min(steep):.2f}..{max(steep):.2f}" if steep else "none"
    ok = _line(
        "5",
        not sup_fail and not slope_fail and elapsed < 300,
        f"{len(rows)} curves; sup violations {len(sup_fail)}, slope violations {len(slope_fail)}, {elapsed:.1f}s",
    )
    assert ok, (
        f"ratio curves are bounded but still climbing toward their exact limit constants "
        f"Gamma(1-q)^l / Gamma(l(1-q)) at rate M^(-2/(4h-1)) (about M^(-0.29) for h=2, "
        f"M^(-0.18) for h=3), so the Theil-Sen slope over [100, 1e4] of the violating curves "
        f"sits at {steep_range} instead of <= 0.01, and for the higher convolution orders the remaining climb "
        f"exceeds the factor-2 anchor. Violations (sup): {sup_fail}; (slope): {slope_fail}. "
        f"The underlying sums are verified exactly against enumeration oracles and carry "
        f"certified truncation tails; the flatness thresholds are unreachable at sweep 1e4."
    )


def test_criterion_6_decomposition_audit():
    t0 = time.time()
    rng = np.random.default_rng(606)
    violations = 0
    for _ in range(100):
        size = int(rng.integers(4, 21))
        b = sorted(rng.choice(np.arange(1, 61), size=size, replace=False).tolist())
        records = enumerate_collisions(b, 2)
        c1 = {r.largest for r in records if r.kind == DISTINCT_2H}
        c2 = {r.largest for r in records if r.kind != DISTINCT_2H}
        want = oracle_decomposition_all(b, c1, c2, 2)
        tables = audit_tables(b, records, 2, 4 * max(b))
        arrays = _decomposition_arrays(b, 2, 1, 4 * max(b), tables, records)
        for n, row in enumerate(zip(*(a.tolist() for a in arrays)), 1):
            lhs, r1, r2, r3 = want.get(n, (0, 0, 0, 0))
            assert row == (lhs, r1, r2, r3)
            if lhs > r1 + r2 + r3:
                violations += 1
    elapsed = time.time() - t0
    ok = _line("6", violations == 0, f"0 violations target: {violations} violations over 100 sets, all n <= 4*max(B), {elapsed:.1f}s")
    assert ok


def test_criterion_7_boundedness_trend():
    t0 = time.time()
    out = boundedness_check(2, [10**4, 10**5, 10**6], range(1, 21))
    l8 = out["two_sided"]["2|1,1"]["median"]
    growth_ok = l8["1000000"] <= l8["10000"] + 4
    _line(
        "7a",
        growth_ok,
        f"two-sided solution totals median: N=1e4 -> {l8['10000']}, 1e5 -> {l8['100000']}, 1e6 -> {l8['1000000']} (allowed +2h=4)",
    )
    growing = []
    for key, row in out["one_sided"].items():
        med = row["median"]
        trail = f"1e4={med['10000']} 1e5={med['100000']} 1e6={med['1000000']}"
        if med["1000000"] > med["100000"]:
            growing.append(f"{key}: {trail}")
        print(f"  one-sided {key}: medians {trail}")
    elapsed = time.time() - t0
    l6_ok = _line(
        "7b",
        not growing,
        f"one-sided max weighted-count medians non-increasing from N=1e5 to 1e6 for "
        f"{len(out['one_sided']) - len(growing)}/{len(out['one_sided'])} specs over 20 seeds, {elapsed:.1f}s",
    )
    assert growth_ok, f"two-sided solution-total median grows by more than 2h=4 from N=1e4 to 1e6: {l8}"
    assert l6_ok, (
        f"one-sided max weighted-count medians still grow between N=1e5 and 1e6 for "
        f"{'; '.join(growing)}. With nested windows the max over targets can only grow, and "
        f"for h=2 the expected count at the argmax targets (m ~ 1e5..5e5) is about "
        f"4.7*m^(-1/7) < 1, so new record targets keep appearing at this scale. The paper "
        f"bounds these counts only in the limit; the counts themselves are exact (criterion 1)."
    )


def test_criterion_8_golden_replay(tmp_path):
    import pathlib

    golden = pathlib.Path(__file__).parent / "golden" / "report.json"
    report = json.loads(golden.read_text())
    ok_replay, diff = replay_report(report)
    _line("8a", ok_replay, f"golden report byte-identical on replay ({diff or 'no diff'})")
    config = ExperimentConfig.from_dict(report["config"])
    fresh1 = canonical_json(run_experiment(config))
    fresh2 = canonical_json(run_experiment(config))
    ok_double = fresh1 == fresh2
    _line("8b", ok_double, "fresh double run byte-identical")
    assert ok_replay and ok_double
