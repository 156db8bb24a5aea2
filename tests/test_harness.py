import json
import math

import numpy as np
import pytest

import bhbasis.harness as harness_mod
import bhbasis.verify as verify_mod
from bhbasis.collisions import WeightSpec, deletion_set
from bhbasis.counting import repr_multiset, repr_strict
from bhbasis.harness import (
    ExperimentConfig,
    basis_floor_check,
    boundedness_check,
    canonical_json,
    default_one_sided,
    emit_report,
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
        rec = run_construction(3, 10**6, seed, floor=False, audit_hi=None)
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


def test_boundedness_check_shape_and_nesting():
    out = boundedness_check(2, [500, 2000], range(4), one_sided=[(1, 1)], two_sided=None)
    assert out["n_values"] == [500, 2000]
    key = "1,1"
    assert len(out["one_sided"][key]["max"]["500"]) == 4
    # nested windows: counts cannot shrink as the window grows
    for i in range(4):
        assert out["one_sided"][key]["max"]["2000"][i] >= out["one_sided"][key]["max"]["500"][i]
        assert out["two_sided"]["2|1,1"]["total"]["2000"][i] >= out["two_sided"]["2|1,1"]["total"]["500"][i]


def test_boundedness_check_rejects_bad_specs():
    with pytest.raises(ValueError):
        boundedness_check(2, [100], [1], one_sided=[(1, 1, 1, 1)])
    with pytest.raises(ValueError):
        boundedness_check(2, [100], [1], two_sided=[WeightSpec((1, 1), (1, 1))])


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


def test_emit_validate_replay(tmp_path):
    config = ExperimentConfig(h=2, n=800, seeds=(1, 2), audit_hi=400)
    report = run_experiment(config)
    validate_report(report)
    paths = emit_report(report, str(tmp_path))
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
    a = tuple(x for x in b if x not in deletion_set(b, 2))
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
    c = deletion_set(b, 2)
    assert rec["decomposition"] == decomposition_summary(b, c, 2, 1, audit_hi, audit_tables(b, c, 2, audit_hi))
    assert rec["_tables"]["basis_b"].max_n == max(n_hi, audit_hi)
    fresh_b, fresh_a, fresh_strict = audit_tables(b, c, 2, n_hi)
    assert rec["basis_b"] == basis_window(fresh_b, n_lo, n_hi).to_json_dict()
    assert rec["basis_a"] == basis_window(fresh_a, n_lo, n_hi).to_json_dict()
    want_floor = harness_mod._floor_min_norm(fresh_strict, 2, n_lo, n_hi) if floor else None
    assert rec["floor_min_norm"] == want_floor
