"""Collision detection and the deletion set for the B_h[1] property.

Two distinct h-multisets over a set B with equal sums reduce, by cancelling
common terms and grouping repeats, to a canonical weighted equality

    d_1 b'_1 + ... + d_k b'_k = e_1 b'_{k+1} + ... + e_l b'_{k+l}

over pairwise-distinct elements.  Either all 2h entries were already
distinct (the "distinct_2h" form, k = l = h with unit weights) or the
reduced form satisfies sum(d) = sum(e) <= h and k + l <= 2h - 1.  The
deletion set C collects the largest participant of every such equality
present in B; removing C restores R_{h, B \\ C}(n) <= 1 for every n.

Canonical ordering: within a side, (weight, element) slots are sorted by
descending weight then descending element; the side containing the overall
largest element is placed on the d side (swapping sides if necessary, which
is sound because the two sides have equal weight sums) with the largest
element's slot first.

Collisions are found spec by spec with an equal-sum join on numpy arrays.
Each side's canonical assignments are rows of element values (one
increasing combination per run of equal weights, rows with a value repeated
across runs dropped), their weighted sums are int64, and the join sorts the
d sums stably and matches sums against them: the e sums by ``searchsorted``
when the weights differ, pairs inside each group of equal d sums when they
agree.  ``enumerate_collisions`` runs this join for every spec, checks
every disjoint pair it yields (equal weighted sums, pairwise-distinct
elements), then normalises and checks the pairs one at a time; the first
pair per record key becomes a record.  The join's row order is part of
its contract (see ``_equal_sum_rows``): one element set can satisfy two
assignments of a spec, so the order decides which assignment is reported.
``construct_a`` needs only C and runs no join: it reads C off the adjacent
pairs of b's h-multisets sorted by sum.
Values whose side sums could leave int64 are refused up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from itertools import groupby, product
import math

import numpy as np

from .counting import validate_elements

DISTINCT_2H = "distinct_2h"
WEIGHTED = "weighted"

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class WeightSpec:
    """Two-sided positive weight vectors (d | e) of a canonical equality."""

    d: tuple[int, ...]
    e: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(w < 1 for w in self.d) or any(w < 1 for w in self.e):
            raise ValueError("weights must be positive integers")

    @property
    def arity(self) -> int:
        return len(self.d) + len(self.e)

    def is_reduced_form(self, h: int) -> bool:
        """Valid reduced (weighted-branch) spec: sum(d) = sum(e) <= h, arity <= 2h-1."""
        return bool(self.d) and bool(self.e) and sum(self.d) == sum(self.e) <= h and self.arity <= 2 * h - 1

    @classmethod
    def distinct_2h(cls, h: int) -> "WeightSpec":
        return cls((1,) * h, (1,) * h)

    def sort_key(self) -> tuple:
        return (self.d, self.e)

    def orderings(self) -> int:
        """Ordered solutions per pair joined by ``_equal_sum_rows``: slots of
        equal weight permute within a side, and equal sides swap."""
        swaps = 2 if self.d == self.e else 1
        return swaps * math.prod(math.factorial(c) for side in (self.d, self.e) for _, c in _runs(side))


def one_sided_weights(h: int) -> list[tuple[int, ...]]:
    """Canonical single-equation weight vectors f: sum(f) <= 2h, t <= 2h - 1.

    Vectors are descending tuples, deduplicated up to permutation (ordered
    distinct-tuple counts are permutation invariant).
    """
    out = []
    for s in range(1, 2 * h + 1):
        for part in _descending_partitions(s):
            if len(part) <= 2 * h - 1:
                out.append(part)
    return sorted(set(out), key=lambda p: (len(p), p))


def validate_one_sided(f, h: int) -> tuple[int, ...]:
    weights = tuple(int(w) for w in f)
    if not weights or any(w < 1 for w in weights):
        raise ValueError("weights must be positive integers")
    if sum(weights) > 2 * h:
        raise ValueError(f"weight sum {sum(weights)} exceeds 2h = {2 * h}")
    if len(weights) > 2 * h - 1:
        raise ValueError(f"arity {len(weights)} exceeds 2h - 1 = {2 * h - 1}")
    return weights


def _descending_partitions(s: int, cap: int | None = None) -> list[tuple[int, ...]]:
    cap = s if cap is None else cap
    if s == 0:
        return [()]
    out = []
    for first in range(min(s, cap), 0, -1):
        for rest in _descending_partitions(s - first, first):
            out.append((first,) + rest)
    return out


def reduced_weight_pairs(h: int) -> list[WeightSpec]:
    """All canonical weighted-branch specs for order h, mirrors deduplicated.

    Pairs of descending partitions (P, Q) with equal sum s <= h and
    |P| + |Q| <= 2h - 1; the lexicographically larger side is put first.
    Singleton-vs-singleton pairs are dropped (s*x = s*y has no
    distinct-element solution).
    """
    specs = []
    for s in range(1, h + 1):
        parts = _descending_partitions(s)
        for p, q in product(parts, parts):
            if p < q:
                continue
            if len(p) + len(q) > 2 * h - 1:
                continue
            if len(p) == 1 and len(q) == 1:
                continue
            specs.append(WeightSpec(p, q))
    return sorted(set(specs), key=WeightSpec.sort_key)


@dataclass(frozen=True)
class CollisionRecord:
    """One reduced equality: its kind, weights, element assignment, and the
    largest participant (the element the deletion set removes).

    elements lists the d side's slots, then the e side's; elements[i]
    carries weight spec.d[i] (likewise for the e side after them).
    """

    kind: str
    spec: WeightSpec
    elements: tuple[int, ...]
    largest: int

    def sort_key(self) -> tuple:
        return (self.largest, self.kind, self.spec.d, self.spec.e, self.elements)


def normalize_largest(spec: WeightSpec, row) -> tuple[WeightSpec, tuple[int, ...]]:
    """Normalise one pair of a spec (d slots, then e slots, in any slot
    order): the side holding the largest element moves to d with that
    element first, and every other slot follows in descending weight, then
    descending element, order.

    Returns the normalised weights and elements.  Swapping sides is
    harmless since the weighted sums are equal.
    """
    k = len(spec.d)
    d = sorted(zip(spec.d, row[:k]), reverse=True)
    e = sorted(zip(spec.e, row[k:]), reverse=True)
    largest = max(row)
    if largest not in row[:k]:
        d, e = e, d
    head = next(slot for slot in d if slot[1] == largest)
    d.remove(head)
    d = [head] + d
    return WeightSpec(tuple(w for w, _ in d), tuple(w for w, _ in e)), tuple(x for _, x in d + e)


def _check_row(spec: WeightSpec, elements: tuple[int, ...]) -> None:
    """Raise AssertionError unless a normalised row is an equality of its
    weights over pairwise-distinct elements, its largest first."""
    k = len(spec.d)
    lhs = sum(w * x for w, x in zip(spec.d, elements))
    rhs = sum(w * x for w, x in zip(spec.e, elements[k:]))
    if lhs != rhs or len(set(elements)) < len(elements) or elements[0] != max(elements):
        raise AssertionError(f"unsound collision row of {spec.d}|{spec.e}: {elements}")


def _runs(weights: tuple[int, ...]) -> list[tuple[int, int]]:
    """(weight, length) of each run of equal adjacent weights."""
    return [(w, len(list(run))) for w, run in groupby(weights)]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """range(start, start + count) for each pair, concatenated in order."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def _combination_rows(n: int, c: int) -> np.ndarray:
    """Increasing index c-tuples of range(n), one per row, in
    ``itertools.combinations`` (lexicographic) order."""
    rows = np.zeros((1, 0), dtype=np.int64)
    for k in range(c):
        first = rows[:, -1] + 1 if k else np.zeros(1, dtype=np.int64)
        # prefixes the c - k - 1 later slots cannot complete are never built
        counts = np.maximum(n - (c - k - 1) - first, 0)
        rows = np.column_stack([np.repeat(rows, counts, axis=0), _ranges(first, counts)])
    return rows


def _disjoint(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Mask of the rows whose `left` values all differ from their `right` values."""
    keep = np.ones(len(left), dtype=bool)
    for i in range(left.shape[1]):
        for j in range(right.shape[1]):
            keep &= left[:, i] != right[:, j]
    return keep


def _side_rows(vals: np.ndarray, weights: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Canonical element assignments of one side: (elements, weighted sums).

    Each run of equal weights takes an increasing combination of values
    (one canonical order per multiset of slots).  The runs combine in
    row-major order, first run outermost, and a row is dropped when a value
    repeats across runs, so each side is pairwise distinct.  Row i of
    `elements` lists its assignment in slot order.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    for _, c in _runs(weights):
        combo = vals[_combination_rows(len(vals), c)]
        rows, combo = np.repeat(rows, len(combo), axis=0), np.tile(combo, (len(rows), 1))
        keep = _disjoint(rows, combo)
        rows = np.hstack([rows[keep], combo[keep]])
    sums = np.zeros(len(rows), dtype=np.int64)
    for i, w in enumerate(weights):
        sums += w * rows[:, i]
    return rows, sums


def _equal_sum_rows(values, spec: WeightSpec, side=None) -> tuple[np.ndarray, np.ndarray]:
    """Disjoint pairs of canonical side assignments with equal weighted
    sums, as element rows (d side, e side), in a fixed order.

    The join is a sort-and-match on index arrays: each side's assignments
    are rows built by `side(weights)` (``_side_rows`` over the values by
    default), the d sums are sorted stably, and the e sums are matched into
    them with ``searchsorted``.  When both sides carry the same weights
    each unordered pair is joined once, inside a group of equal d sums.

    Row order: for d != e, by e assignment, then by d assignment; for
    d == e, groups by where their first member appears, then pairs (i, j)
    in ``combinations`` order; assignments count in generation order
    (``_side_rows``).  The order matters: ``enumerate_collisions`` keeps the
    first pair per record key, and one element set can satisfy two
    assignments of a spec (at h = 3, {1, 5, 17, 25} has 2·1+25 = 2·5+17
    and 2·5+25 = 2·17+1).

    Sums are int64; a spec and values whose largest side sum could leave
    int64 are refused before any row is built.
    """
    vals = np.asarray(values, dtype=np.int64)
    if vals.size:
        bound = max(sum(spec.d), sum(spec.e)) * max(abs(int(vals.min())), abs(int(vals.max())))
        if bound > _INT64_MAX:
            raise OverflowError(f"side sums of {spec.d}|{spec.e} may reach {bound}, beyond int64")
    if side is None:
        side = partial(_side_rows, vals)
    d_rows, d_sums = side(spec.d)
    order = np.argsort(d_sums, kind="stable")
    sorted_sums = d_sums[order]
    if spec.d == spec.e:
        # groups of equal sums that hold a pair, in first-member order; a
        # member at sorted position p pairs with the later members p+1, ...
        starts = np.flatnonzero(np.r_[True, sorted_sums[1:] != sorted_sums[:-1]])
        sizes = np.diff(np.r_[starts, len(sorted_sums)])
        starts, sizes = starts[sizes > 1], sizes[sizes > 1]
        rank = np.argsort(order[starts])
        starts, sizes = starts[rank], sizes[rank]
        slots = _ranges(starts, sizes)
        later = np.repeat(starts + sizes, sizes) - slots - 1
        left = d_rows[order[np.repeat(slots, later)]]
        right = d_rows[order[_ranges(slots + 1, later)]]
    else:
        e_rows, e_sums = side(spec.e)
        lo = np.searchsorted(sorted_sums, e_sums, side="left")
        hits = np.searchsorted(sorted_sums, e_sums, side="right") - lo
        left = d_rows[order[_ranges(lo, hits)]]
        right = np.repeat(e_rows, hits, axis=0)
    keep = _disjoint(left, right)
    return left[keep], right[keep]


def enumerate_collisions(b, h: int) -> list[CollisionRecord]:
    """Every (largest element, canonical equality) pair witnessed inside b.

    Covers the distinct-2h branch (two disjoint h-subsets with equal sums)
    and every reduced weighted branch; records are deduplicated by
    (largest, kind, weights, element set) and returned in canonical order.

    Specs share sides: each weight tuple's rows are built once per call.
    Every joined pair (d slots, then e slots) is checked before its records
    are read: its signed weighted sum must be 0 and its elements pairwise
    distinct, or AssertionError is raised.  Each pair is then normalised
    (``normalize_largest``) and checked again, and the first pair per
    (normalised weights, element set) becomes a record.
    """
    vals = validate_elements(b)
    side = cache(lambda weights: _side_rows(vals, weights))
    seen: dict[tuple, CollisionRecord] = {}
    for kind, spec in [(DISTINCT_2H, WeightSpec.distinct_2h(h))] + [
        (WEIGHTED, spec) for spec in reduced_weight_pairs(h)
    ]:
        left, right = _equal_sum_rows(vals, spec, side)
        rows = np.hstack([left, right])
        ok = rows @ np.array(spec.d + tuple(-w for w in spec.e), dtype=np.int64) == 0
        for i in range(1, rows.shape[1]):
            ok &= (rows[:, :i] != rows[:, i : i + 1]).all(axis=1)
        if not ok.all():
            raise AssertionError(f"unsound join rows of {spec.d}|{spec.e}: {rows[~ok][:3].tolist()}")
        for row in rows.tolist():
            weights, elements = normalize_largest(spec, row)
            _check_row(weights, elements)
            # no two specs share normalised weights, so keys never clash
            # across specs, and the first row per key is kept
            key = weights, frozenset(elements)
            if key not in seen:
                seen[key] = CollisionRecord(kind, weights, elements, elements[0])
    return sorted(seen.values(), key=CollisionRecord.sort_key)


def deletion_set(records) -> frozenset[int]:
    """The deletion set C: the largest participant of every record."""
    return frozenset(r.largest for r in records)


def construct_a(b, h: int) -> tuple[int, ...]:
    """b minus its deletion set C: B_h[1] by construction.

    C is the largest element of the symmetric difference of every two
    distinct h-multisets of b with equal sums.  As rows of descending
    values, that is the larger value at the pair's first differing column.
    Sorted lexicographically, the rows between two rows of one sum group
    share the prefix the two share, so some adjacent pair differs first at
    the same column with the same larger value: adjacent pairs give all of
    C.  Values whose sort keys could leave int64 are refused before any work.
    """
    vals = validate_elements(b)
    m = math.comb(len(vals) + h - 1, h)
    if vals.size and (h * int(vals[-1]) + 1) * m > _INT64_MAX:
        raise OverflowError(f"sort keys of {m} {h}-multisets up to {vals[-1]} may leave int64")
    # non-decreasing indices into the descending values, in lexicographic order
    rows = vals[::-1][_combination_rows(len(vals) + h - 1, h) - np.arange(h)]
    key = np.sort(rows.sum(axis=1) * m + np.arange(m))
    sums, rank = np.divmod(key, m)
    pair = np.flatnonzero(sums[1:] == sums[:-1])
    left, right = rows[rank[pair]], rows[rank[pair + 1]]
    differ = left != right
    ok = (left.sum(axis=1) == right.sum(axis=1)) & differ.any(axis=1)
    if not ok.all():
        pairs = np.hstack([left, right])[~ok][:3].tolist()
        raise AssertionError(f"unsound adjacent {h}-multisets (left | right): {pairs}")
    at = np.arange(len(pair)), differ.argmax(axis=1)
    bad = set(np.maximum(left[at], right[at]).tolist())
    return tuple(x for x in vals.tolist() if x not in bad)
