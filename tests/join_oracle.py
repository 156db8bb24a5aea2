"""The recursive-generator equal-sum join that `collisions.equal_sum_pairs`
replaced, kept verbatim as an order oracle.

`equal_sum_pairs` must yield exactly these pairs in exactly this order:
`enumerate_collisions` keeps the first pair it sees per record key, so the
order decides which of two assignments of one element set is reported.
"""

from collections import defaultdict
from itertools import combinations


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
