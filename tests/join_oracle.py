"""The recursive-generator equal-sum join and the per-pair record builder
that `collisions` once replaced, kept verbatim as oracles.

`collisions._equal_sum_rows` must join exactly the pairs `equal_sum_pairs`
yields, in exactly this order: `enumerate_collisions` keeps the first pair
it sees per record key, so the order decides which of two assignments of
one element set is reported.  `enumerate_collisions` here is the record
builder that ran over those pairs: one `normalize_largest` and one
`holds` (a `CollisionRecord` method until then) per pair, and a
first-seen dict.  The library again builds its records one pair at a
time, from the numpy join's rows; this module stays the reference its
records are compared with.
"""

from collections import defaultdict
from itertools import combinations

from bhbasis.collisions import (
    DISTINCT_2H,
    WEIGHTED,
    CollisionRecord,
    WeightSpec,
    reduced_weight_pairs,
)
from bhbasis.counting import validate_elements


def _side_assignments(values: list[int], weights: tuple[int, ...]):
    """Canonical element assignments for one side of an equation.

    Weights are grouped into runs of equal value; elements within a run are
    chosen as increasing combinations (one canonical order per multiset of
    slots), and cross-run clashes are filtered so the side is pairwise
    distinct.  Yields (weighted_sum, elements_in_slot_order).
    """
    runs: list[tuple[int, int]] = []
    for w in weights:
        if runs and runs[-1][0] == w:
            runs[-1] = (w, runs[-1][1] + 1)
        else:
            runs.append((w, 1))

    def rec(run_idx: int, used: set[int], acc_sum: int, acc_elems: tuple[int, ...]):
        w, cnt = runs[run_idx]
        last = run_idx + 1 == len(runs)
        for combo in combinations(values, cnt):
            if not used.isdisjoint(combo):
                continue
            if last:  # yield here rather than through one more generator
                yield acc_sum + w * sum(combo), acc_elems + combo
                continue
            yield from rec(
                run_idx + 1,
                used | set(combo),
                acc_sum + w * sum(combo),
                acc_elems + combo,
            )

    yield from rec(0, set(), 0, ())


def equal_sum_pairs(values: list[int], spec):
    """Disjoint pairs (d_elements, e_elements) of canonical side assignments
    with equal weighted sums: a hash join on the d side's sums.

    When both sides carry the same weights each unordered pair is yielded
    once.
    """
    buckets: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for s, elems in _side_assignments(values, spec.d):
        buckets[s].append(elems)
    if spec.d == spec.e:
        pairs = (pair for group in buckets.values() for pair in combinations(group, 2))
    else:
        pairs = ((de, ee) for s, ee in _side_assignments(values, spec.e) for de in buckets.get(s, ()))
    for de, ee in pairs:
        if set(de).isdisjoint(ee):
            yield de, ee


def holds(rec: CollisionRecord) -> bool:
    """The weighted sides are equal over pairwise-distinct elements and
    `largest` is the largest of them."""
    lhs = sum(w * x for w, x in zip(rec.spec.d, rec.elements))
    rhs = sum(w * x for w, x in zip(rec.spec.e, rec.elements[len(rec.spec.d) :]))
    parts = rec.elements
    return lhs == rhs and len(set(parts)) == len(parts) and rec.largest == max(parts)


def _slot_order(slots) -> list[tuple[int, int]]:
    """(weight, element) slots by descending weight, then descending element."""
    return sorted(slots, reverse=True)


def normalize_largest(rec: CollisionRecord) -> CollisionRecord:
    """Move the side holding the largest element to d, largest first, the
    other slots in slot order.

    Swapping sides is harmless since the weighted sums are equal.
    """
    k = len(rec.spec.d)
    d = list(zip(rec.spec.d, rec.elements[:k]))
    e = list(zip(rec.spec.e, rec.elements[k:]))
    if rec.largest not in rec.elements[:k]:
        d, e = e, d
    head = next(p for p in d if p[1] == rec.largest)
    d.remove(head)
    d, e = [head] + _slot_order(d), _slot_order(e)
    elements = tuple(x for _, x in d + e)
    spec = WeightSpec(tuple(w for w, _ in d), tuple(w for w, _ in e))
    return CollisionRecord(rec.kind, spec, elements, max(elements))


def enumerate_collisions(b, h: int) -> list[CollisionRecord]:
    """Every (largest element, canonical equality) pair witnessed inside b.

    Covers the distinct-2h branch (two disjoint h-subsets with equal sums)
    and every reduced weighted branch; records are deduplicated by
    (largest, kind, weights, element set) and returned in canonical order.
    """
    arr = validate_elements(b)
    values = [int(x) for x in arr]
    seen: dict[tuple, CollisionRecord] = {}
    # the distinct-2h branch, then every reduced weighted branch
    for kind, spec in [(DISTINCT_2H, WeightSpec.distinct_2h(h))] + [
        (WEIGHTED, spec) for spec in reduced_weight_pairs(h)
    ]:
        for de, ee in equal_sum_pairs(values, spec):
            elements = de + ee
            rec = normalize_largest(CollisionRecord(kind, spec, elements, max(elements)))
            key = (rec.largest, kind, rec.spec.d, rec.spec.e, tuple(sorted(elements)))
            if key not in seen:
                if not holds(rec):
                    raise AssertionError(f"unsound collision record: {rec}")
                seen[key] = rec

    return sorted(seen.values(), key=CollisionRecord.sort_key)
