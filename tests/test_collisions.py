from collections import defaultdict
import hashlib
import json

import numpy as np
import pytest

from bhbasis import collisions
from bhbasis.collisions import (
    DISTINCT_2H,
    WEIGHTED,
    CollisionRecord,
    WeightSpec,
    _check_rows,
    construct_a,
    deletion_set,
    enumerate_collisions,
    normalize_largest,
    one_sided_weights,
    reduced_weight_pairs,
    validate_one_sided,
)
from bhbasis.harness import solution_total
from bhbasis.sampling import ModelParams, sample_set
from bhbasis.verify import is_bhg

from tests import join_oracle
from tests.oracles import oracle_collision_signatures, oracle_deletion_set


def _by_hand(kind, d_slots, e_slots):
    """A record from its (weight, element) slots, d side first."""
    elements = tuple(x for _, x in d_slots) + tuple(x for _, x in e_slots)
    spec = WeightSpec(tuple(w for w, _ in d_slots), tuple(w for w, _ in e_slots))
    return CollisionRecord(kind, spec, elements, max(elements))


def _normalise(cases):
    """(normalised elements, normalised spec) per (spec, elements) case,
    from one `normalize_largest` call per spec; every batch must pass the
    soundness check."""
    by_spec = defaultdict(list)
    for i, (spec, elements) in enumerate(cases):
        by_spec[spec].append(i)
    out = [None] * len(cases)
    for spec, idx in by_spec.items():
        rows, pattern, specs = normalize_largest(spec, np.array([cases[i][1] for i in idx], dtype=np.int64))
        _check_rows(rows, pattern, specs, np.sort(rows, axis=1))
        for i, row, p in zip(idx, rows.tolist(), pattern.tolist()):
            out[i] = (tuple(row), specs[p])
    return out


def test_normalize_largest_swaps_sides():
    # 2*5 + 1 = 2*2 + 7, the reduction of (1, 5, 5) against (2, 2, 7), and
    # 2*9 + 1 = 2*8 + 3, already largest-side, in one batch
    spec = WeightSpec((2, 1), (2, 1))
    rows, pattern, specs = normalize_largest(spec, np.array([[5, 1, 2, 7], [9, 1, 8, 3]]))
    assert rows.tolist() == [[7, 2, 5, 1], [9, 1, 8, 3]]
    assert [specs[p] for p in pattern] == [WeightSpec((1, 2), (2, 1)), spec]
    # (2, 9, 9) against (5, 7, 8): kept, and reached from any slot order
    want = ((9, 2, 8, 7, 5), WeightSpec((2, 1), (1, 1, 1)))
    assert _normalise(
        [
            (WeightSpec((2, 1), (1, 1, 1)), (9, 2, 8, 7, 5)),
            (WeightSpec((1, 2), (1, 1, 1)), (2, 9, 5, 8, 7)),
            (WeightSpec((1, 1, 1), (1, 2)), (7, 5, 8, 2, 9)),
        ]
    ) == [want] * 3


def test_canonicalize_random_pairs_properties():
    # random equal-sum multiset pairs, reduced by the independent
    # Counter-based reducer: the reduction is a true equality over
    # pairwise-distinct elements within the reduced-form bounds, and
    # largest-normalization of whole batches, from either side order and
    # any slot order, puts the largest element first, keeps the (weight,
    # element) content, keeps the equality true, is idempotent and agrees
    # with the per-record normaliser it replaced
    from tests.oracles import reduce_multiset_pair

    rng = np.random.default_rng(42)
    pairs, cases = [], []
    while len(pairs) < 300:
        h = int(rng.integers(2, 5))
        ms1 = tuple(sorted(rng.integers(1, 40, size=h).tolist()))
        ms2 = tuple(sorted(rng.integers(1, 40, size=h).tolist()))
        if sum(ms1) != sum(ms2):
            continue
        want = reduce_multiset_pair(ms1, ms2)
        if want is None:
            assert ms1 == ms2
            continue
        left, right = want
        kind = DISTINCT_2H if len(left) + len(right) == 2 * h else WEIGHTED
        pairs.append({frozenset(left), frozenset(right)})
        for d_slots, e_slots in ((left, right), (right, left)):
            eq = _by_hand(kind, d_slots, e_slots)
            assert join_oracle.holds(eq)
            assert sum(eq.spec.d) == sum(eq.spec.e) <= h
            parts = eq.elements
            assert len(set(parts)) == len(parts)
            if kind == DISTINCT_2H:
                assert len(parts) == 2 * h
            else:
                assert eq.spec.arity <= 2 * h - 1
            shuffled = [[slots[i] for i in rng.permutation(len(slots))] for slots in (d_slots, e_slots)]
            cases += [eq, _by_hand(kind, *shuffled)]
    got = _normalise([(rec.spec, rec.elements) for rec in cases])
    assert _normalise([(spec, elements) for elements, spec in got]) == got
    for i, (rec, (elements, spec)) in enumerate(zip(cases, got)):
        old = join_oracle.normalize_largest(rec)
        assert (elements, spec) == (old.elements, old.spec)
        k = len(spec.d)
        assert {frozenset(zip(spec.d, elements[:k])), frozenset(zip(spec.e, elements[k:]))} == pairs[i // 4]
        assert elements[0] == max(elements)
        # both side orders and both slot orders of a pair normalise alike
        assert got[i] == got[i - i % 4]


def test_check_rows_refuses_unsound_rows():
    # 4 + 1 = 3 + 2 and 2*3 = 1 + 5, normalised
    spec = WeightSpec((1, 1), (1, 1))
    rows, pattern, specs = normalize_largest(spec, np.array([[1, 4, 2, 3], [3, 2, 1, 4]]))
    assert rows.tolist() == [[4, 1, 3, 2], [4, 1, 3, 2]]
    _check_rows(rows, pattern, specs, np.sort(rows, axis=1))
    bad_rows = [
        [1, 4, 3, 2],  # true and distinct, but the head is not the largest
        [5, 1, 3, 2],  # unequal sums
    ]
    for bad in bad_rows:
        corrupt = np.array([rows[0].tolist(), bad])
        with pytest.raises(AssertionError):
            _check_rows(corrupt, pattern, specs, np.sort(corrupt, axis=1))
    rows, pattern, specs = normalize_largest(WeightSpec((2,), (1, 1)), np.array([[3, 1, 5], [3, 3, 3]]))
    assert rows.tolist() == [[5, 1, 3], [3, 3, 3]]
    with pytest.raises(AssertionError):  # 2*3 = 3 + 3 repeats an element
        _check_rows(rows, pattern, specs, np.sort(rows, axis=1))
    _check_rows(rows[:1], pattern[:1], specs, np.sort(rows[:1], axis=1))


def test_side_rows_built_once_per_weights(monkeypatch):
    # every spec of a call shares its sides: at h = 3 the weight tuples are
    # (1,1,1), (2,), (1,1), (3,) and (2,1); at h = 2, (1,1) and (2,)
    calls = []
    side_rows = collisions._side_rows

    def counted(vals, weights):
        calls.append(weights)
        return side_rows(vals, weights)

    monkeypatch.setattr(collisions, "_side_rows", counted)
    for h, builds in ((3, 5), (2, 2)):
        for b in ([], [1, 2, 3], [1, 5, 17, 25], list(range(1, 15))):
            calls.clear()
            enumerate_collisions(b, h)
            assert len(calls) == len(set(calls)) == builds, (b, h)


def test_enumerate_collisions_small_example():
    recs = enumerate_collisions([1, 2, 3, 4], 2)
    as_dicts = [r.to_json_dict() for r in recs]
    assert as_dicts == [
        {"kind": WEIGHTED, "d": [1, 1], "e": [2], "elements": [3, 1, 2], "largest": 3},
        {"kind": DISTINCT_2H, "d": [1, 1], "e": [1, 1], "elements": [4, 1, 3, 2], "largest": 4},
        {"kind": WEIGHTED, "d": [1, 1], "e": [2], "elements": [4, 2, 3], "largest": 4},
    ]
    assert all(join_oracle.holds(r) for r in recs)
    assert deletion_set(recs) == {3, 4}
    assert construct_a([1, 2, 3, 4], 2) == (1, 2)


def test_enumerate_collisions_clean_and_tiny_sets():
    assert enumerate_collisions([1, 2, 5, 11], 2) == []
    assert enumerate_collisions([1, 2], 2) == []
    assert construct_a([], 2) == ()


def test_records_sorted_and_sound():
    rng = np.random.default_rng(11)
    for _ in range(40):
        b = sorted(rng.choice(np.arange(1, 60), size=rng.integers(4, 16), replace=False).tolist())
        for h in (2, 3):
            recs = enumerate_collisions(b, h)
            assert recs == sorted(recs, key=CollisionRecord.sort_key)
            for r in recs:
                assert join_oracle.holds(r)
                assert r.largest == max(r.elements)
                others = [x for x in r.elements if x != r.largest]
                assert all(x < r.largest for x in others)
                if r.kind == DISTINCT_2H:
                    assert len(r.elements) == 2 * h
                    assert sum(r.elements[:h]) == sum(r.elements[h:])
                else:
                    assert r.spec.is_reduced_form(h)


def test_matches_multiset_pair_oracle():
    # Records are deduplicated by (largest, weights, element set); the same
    # element set can satisfy two different assignments of one spec, so the
    # comparison is at the dedup-key level, plus deletion-set equality.
    rng = np.random.default_rng(21)
    for trial in range(60):
        h = 2 if trial % 2 == 0 else 3
        top = 50 if h == 2 else 40
        size = rng.integers(3, 20 if h == 2 else 14)
        b = sorted(rng.choice(np.arange(1, top), size=size, replace=False).tolist())
        recs = enumerate_collisions(b, h)
        assert deletion_set(recs) == oracle_deletion_set(b, h), (b, h)
        got_keys = set()
        for r in recs:
            got_keys.add(
                (r.largest, tuple(sorted(r.spec.d)), tuple(sorted(r.spec.e)), tuple(sorted(r.elements)))
            )
        want_keys = set()
        for big, left, right in oracle_collision_signatures(b, h):
            elems = tuple(sorted([x for _, x in left] + [x for _, x in right]))
            want_keys.add(
                (big, tuple(sorted(w for w, _ in left)), tuple(sorted(w for w, _ in right)), elems)
            )
        assert got_keys == want_keys, (b, h)


def test_deletion_windowing_consistency():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = sorted(rng.choice(np.arange(1, 120), size=18, replace=False).tolist())
        h = 2
        full = enumerate_collisions(b, h)
        cut = 60
        windowed = deletion_set(enumerate_collisions([x for x in b if x <= cut], h))
        filtered = {r.largest for r in full if r.largest <= cut}
        assert windowed == filtered


def test_cleaned_set_is_always_collision_free():
    """Finite-scale headline property: removing the deletion set restores
    the at-most-one-representation property, with no exceptions."""
    rng = np.random.default_rng(314)
    for trial in range(300):
        h = (2, 3, 2, 3, 4)[trial % 5]
        top = rng.integers(10, 80)
        size = rng.integers(0, min(16 if h < 4 else 11, top - 1))
        b = sorted(rng.choice(np.arange(1, top), size=size, replace=False).tolist())
        a = construct_a(b, h)
        verdict = is_bhg(a, h, 1)
        assert verdict.ok, (b, h, a, verdict)


def test_matches_oracle_order_four():
    rng = np.random.default_rng(8888)
    for _ in range(10):
        b = sorted(rng.choice(np.arange(1, 30), size=10, replace=False).tolist())
        assert deletion_set(enumerate_collisions(b, 4)) == oracle_deletion_set(b, 4)


def test_spec_generators():
    assert reduced_weight_pairs(2) == [WeightSpec((2,), (1, 1))]
    pairs3 = reduced_weight_pairs(3)
    assert WeightSpec((2,), (1, 1)) in pairs3
    assert WeightSpec((1, 1), (1, 1)) in pairs3
    assert WeightSpec((2, 1), (2, 1)) in pairs3
    assert WeightSpec((2, 1), (1, 1, 1)) in pairs3
    assert all(s.is_reduced_form(3) for s in pairs3)
    # the all-distinct form is not part of the reduced family
    assert WeightSpec((1, 1, 1), (1, 1, 1)) not in pairs3

    fs = one_sided_weights(2)
    assert (1, 1, 1) in fs and (2, 1, 1) in fs
    assert all(sum(f) <= 4 and len(f) <= 3 for f in fs)
    assert (1, 1, 1, 1) not in fs


def test_one_sided_validation():
    assert validate_one_sided((2, 1), 2) == (2, 1)
    with pytest.raises(ValueError):
        validate_one_sided((1, 1, 1, 1), 2)
    with pytest.raises(ValueError):
        validate_one_sided((5,), 2)
    with pytest.raises(ValueError):
        validate_one_sided((), 2)


def _all_specs(h):
    return [WeightSpec.distinct_2h(h)] + reduced_weight_pairs(h)


def _pairs(values, spec):
    """The join's pairs, decoded to (d elements, e elements) tuples."""
    left, right = collisions._equal_sum_rows(values, spec)
    return list(zip(map(tuple, left.tolist()), map(tuple, right.tolist())))


def _oracle_records(b, h):
    """The generator join under the per-pair record builder it fed."""
    return join_oracle.enumerate_collisions(b, h)


def test_join_matches_generator_order():
    # same pairs in the same order, spec by spec: the empty set, sets with
    # fewer values than slots, arithmetic progressions (many repeated sums)
    # and random sets, unsorted ones included
    rng = np.random.default_rng(77)
    sets = [[], [5], [3, 9], [1, 2, 3], list(range(1, 13)), list(range(4, 40, 3))]
    for _ in range(60):
        top = int(rng.integers(3, 70))
        size = int(rng.integers(0, min(13, top)))
        sets.append(rng.choice(np.arange(1, top), size=size, replace=False).tolist())
    total = 0
    for h in (2, 3, 4):
        for spec in _all_specs(h):
            for b in sets:
                if h == 4 and len(b) > 10:
                    b = b[:10]
                got = _pairs(b, spec)
                assert got == list(join_oracle.equal_sum_pairs(b, spec)), (b, spec)
                total += len(got)
    assert total > 1000


def test_join_first_seen_cases():
    # one element set, two assignments of one spec: the record keeps the
    # first pair the join yields
    spec = WeightSpec((2, 1), (2, 1))
    assert _pairs([1, 5, 17, 25], spec) == [((1, 25), (5, 17)), ((5, 25), (17, 1))]
    recs = enumerate_collisions([1, 5, 17, 25], 3)
    assert [r.elements for r in recs if r.spec == WeightSpec((1, 2), (2, 1))] == [(25, 1, 5, 17)]
    assert recs == _oracle_records([1, 5, 17, 25], 3)

    spec = WeightSpec((2, 1), (1, 1, 1))
    assert _pairs([1, 3, 4, 6, 10], spec) == [((4, 6), (1, 3, 10)), ((6, 3), (1, 4, 10))]
    recs = enumerate_collisions([1, 3, 4, 6, 10], 3)
    assert [r.elements for r in recs if r.spec == WeightSpec((1, 1, 1), (2, 1))] == [(10, 3, 1, 4, 6)]
    assert recs == _oracle_records([1, 3, 4, 6, 10], 3)


def records_to_jsonl(records) -> str:
    return "".join(json.dumps(r.to_json_dict(), sort_keys=True) + "\n" for r in records)


def test_records_match_generator_join_on_theorem_sets():
    # theorem-shaped sets (N = 1e5): the serialized records equal those of
    # the generator join under the per-pair record builder, and their bytes
    # are pinned
    digest = hashlib.sha256()
    for seed in range(1, 21):
        for h in (2, 3):
            b = list(sample_set(ModelParams(h, 10**5, seed)).elements)
            got = records_to_jsonl(enumerate_collisions(b, h))
            assert got == records_to_jsonl(_oracle_records(b, h)), (seed, h)
            digest.update(got.encode())
    assert digest.hexdigest() == "accad6aded1efd4a7ac985d49274ff587e733cc3b08f70bb7acddb0b6c324d2f"


def test_join_refuses_int64_overflow():
    big = [2**62, 2**62 + 1, 2**62 + 3]
    spec = WeightSpec((2,), (1, 1))
    with pytest.raises(OverflowError):
        collisions._equal_sum_rows(big, spec)
    with pytest.raises(OverflowError):
        enumerate_collisions(big, 2)
    with pytest.raises(OverflowError):
        solution_total(big, spec, 2)
    # just inside the limit the sums are exact
    near = [2**61 + k for k in (1, 2, 3, 4, 6)]
    for s in _all_specs(2):
        got = _pairs(near, s)
        assert got and got == list(join_oracle.equal_sum_pairs(near, s))
