import hashlib

import numpy as np
import pytest

from bhbasis import collisions
from bhbasis.collisions import (
    DISTINCT_2H,
    WEIGHTED,
    CollisionRecord,
    WeightSpec,
    construct_a,
    deletion_set,
    enumerate_collisions,
    equal_sum_pairs,
    normalize_largest,
    one_sided_weights,
    records_to_jsonl,
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


def test_normalize_largest_swaps_sides():
    # 2*5 + 1 = 2*2 + 7, the reduction of (1, 5, 5) against (2, 2, 7)
    eq = _by_hand(WEIGHTED, [(2, 5), (1, 1)], [(2, 2), (1, 7)])
    norm = normalize_largest(eq)
    assert norm.d_elements()[0] == 7
    assert norm.holds()
    # already-largest-side input keeps its sides: (2, 9, 9) against (5, 7, 8)
    eq2 = _by_hand(WEIGHTED, [(2, 9), (1, 2)], [(1, 8), (1, 7), (1, 5)])
    norm2 = normalize_largest(eq2)
    assert norm2.d_elements()[0] == 9
    assert norm2 == eq2


def test_canonicalize_random_pairs_properties():
    # random equal-sum multiset pairs, reduced by the independent
    # Counter-based reducer: the reduction is a true equality over
    # pairwise-distinct elements within the reduced-form bounds, and
    # largest-normalization, from either side order, puts the largest
    # element first, keeps the (weight, element) content, keeps the
    # equality true and is idempotent
    from tests.oracles import reduce_multiset_pair

    rng = np.random.default_rng(42)
    tried = 0
    while tried < 300:
        h = int(rng.integers(2, 5))
        ms1 = tuple(sorted(rng.integers(1, 40, size=h).tolist()))
        ms2 = tuple(sorted(rng.integers(1, 40, size=h).tolist()))
        if sum(ms1) != sum(ms2):
            continue
        tried += 1
        want = reduce_multiset_pair(ms1, ms2)
        if want is None:
            assert ms1 == ms2
            continue
        left, right = want
        kind = DISTINCT_2H if len(left) + len(right) == 2 * h else WEIGHTED
        first = normalize_largest(_by_hand(kind, left, right))
        for d_slots, e_slots in ((left, right), (right, left)):
            eq = _by_hand(kind, d_slots, e_slots)
            assert eq.holds()
            assert sum(eq.spec.d) == sum(eq.spec.e) <= h
            parts = eq.elements
            assert len(set(parts)) == len(parts)
            if kind == DISTINCT_2H:
                assert len(parts) == 2 * h
            else:
                assert eq.spec.arity <= 2 * h - 1
            norm = normalize_largest(eq)
            got_sides = {
                frozenset(zip(norm.spec.d, norm.d_elements())),
                frozenset(zip(norm.spec.e, norm.e_elements())),
            }
            assert got_sides == {frozenset(left), frozenset(right)}
            assert norm.holds() and norm.d_elements()[0] == max(parts)
            assert normalize_largest(norm) == norm
            assert norm == first


def test_enumerate_collisions_small_example():
    recs = enumerate_collisions([1, 2, 3, 4], 2)
    as_dicts = [r.to_json_dict() for r in recs]
    assert as_dicts == [
        {"kind": WEIGHTED, "d": [1, 1], "e": [2], "elements": [3, 1, 2], "largest": 3},
        {"kind": DISTINCT_2H, "d": [1, 1], "e": [1, 1], "elements": [4, 1, 3, 2], "largest": 4},
        {"kind": WEIGHTED, "d": [1, 1], "e": [2], "elements": [4, 2, 3], "largest": 4},
    ]
    assert all(r.holds() for r in recs)
    assert deletion_set([1, 2, 3, 4], 2) == {3, 4}
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
                assert r.holds()
                assert r.largest == max(r.elements)
                others = [x for x in r.elements if x != r.largest]
                assert all(x < r.largest for x in others)
                if r.kind == DISTINCT_2H:
                    assert len(r.elements) == 2 * h
                    assert sum(r.d_elements()) == sum(r.e_elements())
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
        assert deletion_set(b, h) == oracle_deletion_set(b, h), (b, h)
        got_keys = set()
        for r in enumerate_collisions(b, h):
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
        windowed = deletion_set([x for x in b if x <= cut], h)
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
        assert deletion_set(b, 4) == oracle_deletion_set(b, 4)


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


def _oracle_records(b, h, monkeypatch):
    """enumerate_collisions with the generator join put back in."""
    with monkeypatch.context() as m:
        m.setattr(collisions, "equal_sum_pairs", join_oracle.equal_sum_pairs)
        return enumerate_collisions(b, h)


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
                got = list(equal_sum_pairs(b, spec))
                assert got == list(join_oracle.equal_sum_pairs(b, spec)), (b, spec)
                total += len(got)
    assert total > 1000


def test_join_first_seen_cases(monkeypatch):
    # one element set, two assignments of one spec: the record keeps the
    # first pair the join yields
    spec = WeightSpec((2, 1), (2, 1))
    assert list(equal_sum_pairs([1, 5, 17, 25], spec)) == [((1, 25), (5, 17)), ((5, 25), (17, 1))]
    recs = enumerate_collisions([1, 5, 17, 25], 3)
    assert [r.elements for r in recs if r.spec == WeightSpec((1, 2), (2, 1))] == [(25, 1, 5, 17)]
    assert recs == _oracle_records([1, 5, 17, 25], 3, monkeypatch)

    spec = WeightSpec((2, 1), (1, 1, 1))
    assert list(equal_sum_pairs([1, 3, 4, 6, 10], spec)) == [((4, 6), (1, 3, 10)), ((6, 3), (1, 4, 10))]
    recs = enumerate_collisions([1, 3, 4, 6, 10], 3)
    assert [r.elements for r in recs if r.spec == WeightSpec((1, 1, 1), (2, 1))] == [(10, 3, 1, 4, 6)]
    assert recs == _oracle_records([1, 3, 4, 6, 10], 3, monkeypatch)


def test_records_match_generator_join_on_theorem_sets(monkeypatch):
    # theorem-shaped sets (N = 1e5): the serialized records are identical,
    # and their bytes are pinned, since both sides share the record builder
    digest = hashlib.sha256()
    for seed in range(1, 21):
        for h in (2, 3):
            b = list(sample_set(ModelParams(h, 10**5, seed)).elements)
            got = records_to_jsonl(enumerate_collisions(b, h))
            assert got == records_to_jsonl(_oracle_records(b, h, monkeypatch)), (seed, h)
            digest.update(got.encode())
    assert digest.hexdigest() == "accad6aded1efd4a7ac985d49274ff587e733cc3b08f70bb7acddb0b6c324d2f"


def test_join_refuses_int64_overflow():
    big = [2**62, 2**62 + 1, 2**62 + 3]
    spec = WeightSpec((2,), (1, 1))
    with pytest.raises(OverflowError):
        equal_sum_pairs(big, spec)
    with pytest.raises(OverflowError):
        enumerate_collisions(big, 2)
    with pytest.raises(OverflowError):
        solution_total(big, spec, 2)
    # just inside the limit the sums are exact
    near = [2**61 + k for k in (1, 2, 3, 4, 6)]
    for s in _all_specs(2):
        got = list(equal_sum_pairs(near, s))
        assert got and got == list(join_oracle.equal_sum_pairs(near, s))
