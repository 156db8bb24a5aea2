"""Independent brute-force oracles.

Everything here is written against the mathematical definitions directly
(itertools enumeration, Counter arithmetic), sharing no code with the
library it cross-checks.  Each count table has one kernel path in
``bhbasis.counting`` and one oracle here: ``oracle_multiset``,
``oracle_strict`` and ``oracle_weighted``.
"""

from collections import Counter, defaultdict
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np


def oracle_multiset(a, h, max_n):
    counts = np.zeros(max_n + 1, dtype=np.int64)
    for tup in combinations_with_replacement(sorted(a), h):
        s = sum(tup)
        if s <= max_n:
            counts[s] += 1
    return counts


def oracle_strict(a, k, max_n):
    counts = np.zeros(max_n + 1, dtype=np.int64)
    for tup in combinations(sorted(a), k):
        s = sum(tup)
        if s <= max_n and max(tup) < s:
            counts[s] += 1
    return counts


def oracle_weighted(d, f, max_n):
    counts = np.zeros(max_n + 1, dtype=np.int64)
    for tup in permutations(sorted(d), len(f)):
        s = sum(w * x for w, x in zip(f, tup))
        if s <= max_n:
            counts[s] += 1
    return counts


def oracle_index_tuples(vals, weights, order, max_n):
    """Index tuples (i_1, ..., i_t) over the sorted values, nondecreasing or
    strictly increasing, counted at w_1 vals[i_1] + ... + w_t vals[i_t]."""
    vals = sorted(vals)
    t = len(weights)
    pick = {"nondecreasing": combinations_with_replacement, "strict": combinations}[order]
    tuples = pick(range(len(vals)), t)
    counts = np.zeros(max_n + 1, dtype=np.int64)
    for idx in tuples:
        s = sum(w * vals[i] for w, i in zip(weights, idx))
        if s <= max_n:
            counts[s] += 1
    return counts


def reduce_multiset_pair(ms1, ms2):
    """Cancel common terms and group repeats; None when ms1 == ms2.

    Returns (left_pairs, right_pairs) as sorted tuples of (weight, element),
    with the side containing the overall largest element first.
    """
    c1, c2 = Counter(ms1), Counter(ms2)
    left, right = [], []
    for v in set(c1) | set(c2):
        net = c1[v] - c2[v]
        if net > 0:
            left.append((net, v))
        elif net < 0:
            right.append((-net, v))
    if not left:
        return None
    big = max(max(v for _, v in left), max(v for _, v in right))
    if any(v == big for _, v in right):
        left, right = right, left
    return tuple(sorted(left)), tuple(sorted(right))


def oracle_collision_signatures(b, h):
    """Canonical signatures of every reduced equality among h-multiset pairs.

    Signature: (largest, side-with-largest pairs, other side pairs), with
    (weight, element) pairs sorted; one entry per distinct equality.
    """
    vals = sorted(b)
    by_sum = defaultdict(list)
    for tup in combinations_with_replacement(vals, h):
        by_sum[sum(tup)].append(tup)
    sigs = set()
    for group in by_sum.values():
        for t1, t2 in combinations(group, 2):
            red = reduce_multiset_pair(t1, t2)
            if red is None:
                continue
            left, right = red
            big = max(v for _, v in left)
            sigs.add((big, left, right))
    return sigs


def oracle_deletion_set(b, h):
    return {sig[0] for sig in oracle_collision_signatures(b, h)}


def oracle_decomposition(b, c1, c2, h, n):
    """Case counts by direct tuple enumeration.

    Returns (lhs, r1, r2, r3): multisets using a deleted element; multisets
    with a repeated term; strict tuples touching c1; strict tuples touching
    c2.  All 2h-tuples over b summing to n.
    """
    c_all = set(c1) | set(c2)
    lhs = r1 = r2 = r3 = 0
    for tup in combinations_with_replacement(sorted(b), 2 * h):
        if sum(tup) != n:
            continue
        uses_c = any(x in c_all for x in tup)
        if uses_c:
            lhs += 1
        if len(set(tup)) < len(tup):
            r1 += 1
        else:
            if any(x in c1 for x in tup):
                r2 += 1
            if any(x in c2 for x in tup):
                r3 += 1
    return lhs, r1, r2, r3


def oracle_decomposition_all(b, c1, c2, h):
    """Bulk variant of oracle_decomposition: one enumeration pass, returning
    {n: (lhs, r1, r2, r3)} for every achievable target n."""
    c_all = set(c1) | set(c2)
    out = defaultdict(lambda: [0, 0, 0, 0])
    for tup in combinations_with_replacement(sorted(b), 2 * h):
        row = out[sum(tup)]
        if any(x in c_all for x in tup):
            row[0] += 1
        if len(set(tup)) < len(tup):
            row[1] += 1
        else:
            if any(x in c1 for x in tup):
                row[2] += 1
            if any(x in c2 for x in tup):
                row[3] += 1
    return {n: tuple(row) for n, row in out.items()}


def oracle_weighted_max(d, f):
    """Max over targets of the ordered distinct-element solution count."""
    best = defaultdict(int)
    for tup in permutations(sorted(d), len(f)):
        best[sum(w * x for w, x in zip(f, tup))] += 1
    return max(best.values()) if best else 0


def oracle_two_sided_total(d, dw, ew):
    """Ordered distinct solutions of dw . x = ew . y over a finite set."""
    total = 0
    k = len(dw)
    for tup in permutations(sorted(d), k + len(ew)):
        lhs = sum(w * x for w, x in zip(dw, tup[:k]))
        rhs = sum(w * x for w, x in zip(ew, tup[k:]))
        if lhs == rhs:
            total += 1
    return total


def oracle_strict_tuple_expectation(n, k, inclusion):
    """Expected strict-tuple count at target n: sum over increasing k-tuples
    of positive integers summing to n (largest < n) of the product of
    inclusion probabilities."""
    total = 0.0

    def rec(start, left, budget, acc):
        nonlocal total
        if left == 1:
            if budget >= start and budget < n:
                total += acc * inclusion(budget)
            return
        x = start
        while x * left <= budget:
            rec(x + 1, left - 1, budget - x, acc * inclusion(x))
            x += 1

    rec(1, k, n, 1.0)
    return total
