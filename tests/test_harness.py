import json
import math
import os
import tracemalloc

import numpy as np
import pytest

import bhbasis.harness as harness_mod
import bhbasis.verify as verify_mod
from bhbasis import cli
from bhbasis.collisions import WeightSpec, deletion_set, enumerate_collisions
from bhbasis.counting import repr_multiset, repr_strict
from bhbasis.harness import (
    ExperimentConfig,
    basis_floor_check,
    boundedness_check,
    canonical_json,
    default_one_sided,
    floor_exponent,
    replay_report,
    run_construction,
    run_experiment,
    solution_total,
    validate_report,
    weighted_max_count,
)
from bhbasis.sampling import ModelParams, expected_count, sample_set
from bhbasis.verify import basis_window, decomposition_summary

from tests.oracles import oracle_two_sided_total, oracle_weighted_max
from tests.tables import audit_tables

GOLDEN_SEED = dict(window=(1000, 20_000), audit_hi=2000, one_sided=((1, 1), (2, 1)))


def test_run_construction_deterministic():
    r1 = run_construction(2, 1000, 1)
    r2 = run_construction(2, 1000, 1)
    assert canonical_json(r1) == canonical_json(r2)
    assert r1["bh1"]["ok"] is True
    assert r1["a_size"] == r1["b_size"] - r1["c_size"]


def test_run_construction_record_fields():
    rec = run_construction(2, 2000, 5, one_sided=default_one_sided(2))
    assert rec["decomposition"]["violations"] == 0
    assert rec["collisions"]["total"] >= rec["c_size"]
    assert set(rec["weighted_max"]) == {"1", "2", "3", "4", "1,1", "2,1", "2,2", "3,1", "1,1,1", "2,1,1"}
    assert rec["basis_b"]["coverage"] >= rec["basis_a"]["coverage"]


def test_run_experiment_sizes_concentrate():
    config = ExperimentConfig(h=3, n=10_000, seeds=tuple(range(20)), floor=False, audit_hi=2000)
    report = run_experiment(config)
    assert report["aggregate"]["all_bh1_ok"] is True
    v = expected_count(ModelParams(3, 10_000, 0), 1, 10_000)
    sizes = [r["b_size"] for r in report["records"]]
    assert abs(np.mean(sizes) - v) <= 3 * math.sqrt(v)
    # element 1 is never the largest participant of an equality, so it
    # survives deletion and the cleaned set is never empty
    for r in report["records"]:
        assert r["c_size"] < r["b_size"]
        assert r["a_size"] >= 1


def test_size_concentration_at_scale():
    # h=3, N=1e6, 20 seeds: sampled size within 3 sigma of the direct
    # probability sum; deletion count recorded and strictly smaller
    v = expected_count(ModelParams(3, 10**6, 0), 1, 10**6)
    sizes, dels = [], []
    for seed in range(1, 21):
        rec = run_construction(3, 10**6, seed, floor=False)
        sizes.append(rec["b_size"])
        dels.append(rec["c_size"])
    assert abs(np.mean(sizes) - v) <= 3 * math.sqrt(v)
    assert all(c < b for c, b in zip(dels, sizes))


def test_weighted_max_and_totals_vs_oracle():
    rng = np.random.default_rng(123)
    for _ in range(15):
        d = sorted(rng.choice(np.arange(1, 70), size=rng.integers(4, 14), replace=False).tolist())
        assert weighted_max_count(d, (1, 2), 2) == oracle_weighted_max(d, (1, 2))
        assert weighted_max_count(d, (1, 1, 1), 2) == oracle_weighted_max(d, (1, 1, 1))
        spec = WeightSpec((2,), (1, 1))
        assert solution_total(d, spec, 2) == oracle_two_sided_total(d, (2,), (1, 1))
        spec2 = WeightSpec((1, 1), (1, 1))
        assert solution_total(d, spec2, 3) == oracle_two_sided_total(d, (1, 1), (1, 1))


def test_solution_total_validates_values():
    # a repeated value is one element of the set, and 0 is refused as
    # weighted_max_count refuses it
    spec = WeightSpec((1, 1), (1, 1))
    assert solution_total([2, 2, 1, 3], spec, 3) == oracle_two_sided_total([1, 2, 3], (1, 1), (1, 1)) == 0
    with pytest.raises(ValueError, match="positive"):
        solution_total([0, 1, 2, 3], spec, 3)
    with pytest.raises(ValueError, match="positive"):
        weighted_max_count([0, 1, 2, 3], (1, 1), 3)


def test_boundedness_check_shape_and_nesting():
    out = boundedness_check(2, [500, 2000], range(4))
    assert out["n_values"] == [500, 2000]
    key = "1,1"
    assert len(out["one_sided"][key]["max"]["500"]) == 4
    # nested windows: counts cannot shrink as the window grows
    for i in range(4):
        assert out["one_sided"][key]["max"]["2000"][i] >= out["one_sided"][key]["max"]["500"][i]
        assert out["two_sided"]["2|1,1"]["total"]["2000"][i] >= out["two_sided"]["2|1,1"]["total"]["500"][i]


@pytest.mark.parametrize("n_list", [[], [0, 100], [-5], [0]])
def test_boundedness_check_refuses_bad_window_bounds(monkeypatch, n_list):
    # refused before any sampling, as basis_floor_check refuses a bad n_lo
    monkeypatch.setattr(harness_mod, "sample_set", None)
    with pytest.raises(ValueError, match="n_list"):
        boundedness_check(2, n_list, [1])


@pytest.mark.parametrize("seeds", [[3, 3], [1, 2, 1], [], [1.5]])
def test_both_checks_refuse_bad_seeds(seeds):
    # one seed rule for ExperimentConfig and both lemma checks
    with pytest.raises(ValueError, match="seeds"):
        basis_floor_check(2, 2000, seeds, 1)
    with pytest.raises(ValueError, match="seeds"):
        boundedness_check(2, [100], seeds)
    with pytest.raises(ValueError, match="seeds"):
        ExperimentConfig(h=2, n=100, seeds=tuple(seeds))


def test_checks_run_seeds_in_order():
    assert list(basis_floor_check(2, 600, [3, 1], 1)["per_seed"]) == ["1", "3"]
    assert boundedness_check(2, [100], (3, 1))["seeds"] == [1, 3]


@pytest.mark.parametrize("window", [(0, 50), (60, 50), (50, 101), (-3, -1)])
def test_window_checked_before_sampling(window, monkeypatch):
    # a window outside 1 <= lo <= hi <= N is refused before any seed runs
    def no_sampling(params):
        raise AssertionError("sampled before checking the window")

    monkeypatch.setattr(harness_mod, "sample_set", no_sampling)
    with pytest.raises(ValueError, match="window"):
        ExperimentConfig(h=2, n=100, seeds=(1,), window=window)
    with pytest.raises(ValueError, match="window"):
        run_construction(2, 100, 1, window=window)


@pytest.mark.parametrize("audit_hi", [0, -5, None])
def test_audit_hi_must_be_positive(audit_hi):
    with pytest.raises(ValueError, match="audit_hi"):
        ExperimentConfig(h=2, n=100, seeds=(1,), audit_hi=audit_hi)
    with pytest.raises(ValueError, match="audit_hi"):
        run_construction(2, 100, 1, audit_hi=audit_hi)


def test_basis_floor_zero_below_onset():
    # without a burn-in cutoff the window includes targets below the
    # smallest 2h-fold sum, where the strict count is identically zero
    out = basis_floor_check(2, 2000, [1, 2, 3], n_lo=1)
    assert out["median"] == 0.0


def test_basis_floor_check_dense_calibration():
    # a dense fake set has strict counts ~ n^(2h-1)/(2h-1)!, so the floor
    # statistic normalized by n^(1/(4h-1)) is far above zero
    out = basis_floor_check(2, 3000, [3, 4], n_lo=1000)
    assert out["median"] > 0
    assert out["empirical_c"] == out["median"]
    from bhbasis.counting import repr_strict

    n = 2000
    table = repr_strict(range(1, n + 1), 4, n)
    ns = np.arange(1000, n + 1, dtype=np.float64)
    norm = table.counts[1000:].astype(float) / ns ** floor_exponent(2)
    direct_min = norm.min()
    assert direct_min > 100  # dense-set calibration of the normalization


def test_config_round_trip_and_validation():
    config = ExperimentConfig(h=2, n=500, seeds=(3, 1, 2), one_sided=((1, 1),))
    back = ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert back.to_dict() == config.to_dict()
    with pytest.raises(ValueError):
        ExperimentConfig(h=2, n=5, seeds=(1,))
    with pytest.raises(ValueError):
        ExperimentConfig(h=2, n=100, seeds=(1, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(h=1, n=100, seeds=(1,))


@pytest.mark.parametrize(
    "field, value",
    [("h", 2.0), ("n", True), ("audit_hi", True), ("window", (10.5, 100)), ("seeds", (True,)),
     ("one_sided", ((1.5, 1),)), ("floor", 1)],
)
def test_config_refuses_values_it_would_have_to_coerce(field, value):
    # a bool or a non-integer is refused, not rounded or read as 0 or 1
    with pytest.raises(ValueError, match=f"(?i)^{field}: "):
        ExperimentConfig(**{"h": 2, "n": 100, "seeds": (1,), field: value})


def test_emit_validate_replay(tmp_path, capsys):
    config = ExperimentConfig(h=2, n=800, seeds=(1, 2), audit_hi=400)
    report = run_experiment(config)
    validate_report(report)
    # the files `sweep --out DIR --format csv` writes
    cli._write_or_print(canonical_json(report), str(tmp_path), "report.json")
    cli._write_records(str(tmp_path), report)
    paths = capsys.readouterr().out.splitlines()
    report_path = tmp_path / "report.json"
    assert str(report_path) in paths
    loaded = json.loads(report_path.read_text())
    ok, diff = replay_report(loaded)
    assert ok, diff
    csv_lines = (tmp_path / "records.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + len(config.seeds)

    broken = dict(loaded)
    broken.pop("aggregate")
    with pytest.raises(ValueError):
        validate_report(broken)

    tampered = json.loads(report_path.read_text())
    tampered["records"][0]["b_size"] += 1
    ok, diff = replay_report(tampered)
    assert not ok and "difference" in diff


def test_canonical_json_strips_private_and_nan():
    rec = {"a": float("nan"), "_tables": object(), "b": np.int64(3), "c": (1, 2)}
    text = canonical_json(rec)
    assert json.loads(text) == {"a": None, "b": 3, "c": [1, 2]}


def test_keep_tables_side_channel():
    rec = run_construction(2, 600, 9, keep_tables=True)
    tables = rec["_tables"]
    assert tables["basis_b"].counts.shape == tables["basis_a"].counts.shape
    assert "_tables" not in json.loads(canonical_json(rec))


def test_one_full_window_table_at_a_time(monkeypatch):
    # without keep_tables, B's table is cut to the audit's [0, 5e4] once its
    # window statistics are taken, so from A's build on the traced peak is
    # below the one with every table kept by B's table less that prefix
    # (the whole run's peak is reached inside B's own build at this N)
    sizes = []

    def spy(a, k, max_n):
        if sizes:  # A's build
            tracemalloc.reset_peak()
        table = repr_multiset(a, k, max_n)
        sizes.append(table.counts.nbytes)
        return table

    monkeypatch.setattr(harness_mod, "repr_multiset", spy)
    peaks, recs = {}, {}
    for keep in (True, False):
        sizes.clear()
        tracemalloc.start()
        try:
            recs[keep] = run_construction(2, 3 * 10**6, 1, floor=False, keep_tables=keep)
            peaks[keep] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    b_bytes = sizes[0]
    prefix = b_bytes * (50_000 + 1) // (3 * 10**6 + 1)
    assert b_bytes > 5 * 2**20
    assert peaks[True] - peaks[False] >= b_bytes - prefix, (peaks, b_bytes)
    assert canonical_json(recs[True]) == canonical_json(recs[False])


@pytest.mark.parametrize("keep", [True, False])
@pytest.mark.parametrize("builder", ["repr_multiset", "repr_strict"])
def test_table_from_wrong_set_is_refused(monkeypatch, keep, builder):
    # a table built without the set's largest element is refused whether the
    # audit reads it whole or cut to its prefix
    build = getattr(harness_mod, builder)
    monkeypatch.setattr(harness_mod, builder, lambda a, k, max_n: build(a[:-1], k, max_n))
    with pytest.raises(ValueError, match="not built from the expected set"):
        run_construction(2, 10**4, 1, floor=False, keep_tables=keep)


@pytest.mark.parametrize("floor", [True, False])
def test_each_2h_fold_table_built_once(monkeypatch, floor):
    # multiset(B), multiset(A) and strict(B) once each for the window, the
    # floor and the audit, plus the audit's own strict(B \ C1), strict(B \ C2)
    builds = []

    def spy(fn):
        def wrapper(a, k, max_n, **kwargs):
            table = fn(a, k, max_n, **kwargs)
            builds.append((table.semantics, tuple(sorted(int(x) for x in a))))
            return table

        return wrapper

    for mod in (harness_mod, verify_mod):
        monkeypatch.setattr(mod, "repr_multiset", spy(repr_multiset))
        monkeypatch.setattr(mod, "repr_strict", spy(repr_strict))
    rec = run_construction(2, 20_000, 1, floor=floor, **GOLDEN_SEED)
    b = tuple(sample_set(ModelParams(2, 20_000, 1)).elements)
    a = tuple(x for x in b if x not in deletion_set(enumerate_collisions(b, 2)))
    assert rec["c_size"] > 0
    assert len(builds) == len(set(builds)) == 5
    assert {(("multiset", 4), b), (("multiset", 4), a), (("strict", 4), b)} < set(builds)


@pytest.mark.parametrize("floor", [True, False])
@pytest.mark.parametrize("audit_hi", [2000, 20_000])
def test_shared_tables_match_fresh_ones(floor, audit_hi):
    # the audit inside (2000) and beyond (20000) the window [1000, 3000]
    n, n_lo, n_hi = 20_000, 1000, 3000
    rec = run_construction(2, n, 4, window=(n_lo, n_hi), audit_hi=audit_hi, floor=floor, keep_tables=True)
    b = sample_set(ModelParams(2, n, 4)).elements
    records = enumerate_collisions(b, 2)
    tables = audit_tables(b, records, 2, audit_hi)
    assert rec["decomposition"] == decomposition_summary(b, 2, 1, audit_hi, tables, records)
    assert rec["_tables"]["basis_b"].max_n == max(n_hi, audit_hi)
    fresh_b, fresh_a, fresh_strict = audit_tables(b, records, 2, n_hi)
    assert rec["basis_b"] == basis_window(fresh_b, n_lo, n_hi).to_json_dict()
    assert rec["basis_a"] == basis_window(fresh_a, n_lo, n_hi).to_json_dict()
    want_floor = harness_mod._floor_min_norm(fresh_strict, 2, n_lo, n_hi) if floor else None
    assert rec["floor_min_norm"] == want_floor


# The seed map: the three multi-seed checks run their seeds in up to
# min(CPUs, seeds) processes.  With 2 CPUs the parent runs seeds 1, 3, 5 of
# SEEDS and a child 2, 4; with 3 CPUs the parent runs 1, 4 and two children
# run 2, 5 and 3.

SEEDS = (1, 2, 3, 4, 5)


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _pooled_calls(seeds=SEEDS):
    return (
        lambda: canonical_json(basis_floor_check(2, 3000, seeds, 1000)),
        lambda: canonical_json(boundedness_check(2, [500, 2000], seeds)),
        lambda: canonical_json(run_experiment(ExperimentConfig(h=2, n=2000, seeds=seeds, audit_hi=1000))),
    )


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pooled_outputs_do_not_depend_on_cpus(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    outputs = {}
    for cpus in (1, 2, 3):
        _set_cpus(monkeypatch, cpus)
        outputs[cpus] = [call() for call in _pooled_calls()]
        _assert_no_child()
    assert outputs[1] == outputs[2] == outputs[3]
    # none at one CPU, then one and two children per call
    assert len(forks) == 3 * (0 + 1 + 2)


def test_one_cpu_or_one_seed_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    _set_cpus(monkeypatch, 1)
    for call in _pooled_calls():
        call()
    _set_cpus(monkeypatch, 4)
    for call in _pooled_calls(seeds=(7,)):
        call()
    monkeypatch.delattr(os, "sched_getaffinity")
    for call in _pooled_calls():
        call()


@pytest.mark.parametrize(
    "bad",
    [
        (2, 3),  # a child's seed before the parent's (2 CPUs)
        (3, 4),  # the parent's seed before a child's (2 CPUs)
        (3,),  # only the parent's share fails
        (4,),  # only a child's share fails
    ],
)
def test_earliest_failing_seed_surfaces(monkeypatch, bad):
    sample = harness_mod.sample_set

    def failing(params):
        if params.seed in bad:
            raise ValueError(f"seed {params.seed}")
        return sample(params)

    monkeypatch.setattr(harness_mod, "sample_set", failing)
    for cpus in (1, 2, 3):
        _set_cpus(monkeypatch, cpus)
        for call in _pooled_calls():
            with pytest.raises(ValueError) as exc:
                call()
            assert exc.type is ValueError and str(exc.value) == f"seed {min(bad)}"
            _assert_no_child()


def test_worker_without_a_result_is_named(monkeypatch):
    parent = os.getpid()
    sample = harness_mod.sample_set

    def dying(params):
        if os.getpid() != parent:
            os._exit(3)
        return sample(params)

    monkeypatch.setattr(harness_mod, "sample_set", dying)
    _set_cpus(monkeypatch, 2)
    for call in _pooled_calls():
        with pytest.raises(RuntimeError, match=r"^the worker for seeds \[2, 4\] ended without a result \(wait status 768\)$"):
            call()
        _assert_no_child()
