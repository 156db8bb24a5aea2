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
agree.  The disjoint pairs stay rows: they are normalised, checked and keyed
as arrays, and only the first pair per record key becomes a record.  The
join's row order is part of its contract (see ``_equal_sum_rows``): one
element set can satisfy two assignments of a spec, so the order decides
which assignment is reported.  Values whose side sums could leave int64 are
refused up front.
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

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "d": list(self.spec.d),
            "e": list(self.spec.e),
            "elements": list(self.elements),
            "largest": self.largest,
        }


@dataclass(frozen=True)
class _Plan:
    """How ``normalize_largest`` rearranges the rows of one spec.

    Columns are taken in `order` (each side by descending weight, d side
    first); `runs` are the column ranges of equal weight on one side that
    hold more than one slot.  When column c then holds the largest element,
    `perms[c]` puts it first, the rest of its side after it and the other
    side last, and `pattern[c]` indexes the normalised weights in `specs`.
    """

    order: np.ndarray
    runs: tuple[tuple[int, int], ...]
    perms: np.ndarray
    pattern: np.ndarray
    specs: tuple[WeightSpec, ...]


@cache
def _plan(spec: WeightSpec) -> _Plan:
    k, arity = len(spec.d), spec.arity
    sides = (range(k), range(k, arity))
    weights = spec.d + spec.e
    order = [i for side in sides for i in sorted(side, key=lambda i: -weights[i])]
    weights = tuple(weights[i] for i in order)
    runs, start = [], 0
    for side in sides:
        for _, size in _runs(weights[side.start : side.stop]):
            if size > 1:
                runs.append((start, start + size))
            start += size
    perms, pattern, specs = [], [], {}
    for c in range(arity):
        own, other = sides if c < k else sides[::-1]
        perm = [c] + [i for i in own if i != c] + list(other)
        normalised = WeightSpec(
            tuple(weights[i] for i in perm[: len(own)]), tuple(weights[i] for i in perm[len(own) :])
        )
        perms.append(perm)
        pattern.append(specs.setdefault(normalised, len(specs)))
    return _Plan(np.array(order), tuple(runs), np.array(perms), np.array(pattern), tuple(specs))


def normalize_largest(
    spec: WeightSpec, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[WeightSpec, ...]]:
    """Normalise the pairs of one spec, one pair per row (d slots, then e
    slots, in any slot order): the side holding the largest element moves
    to d with that element first, and every other slot follows in
    descending weight, then descending element, order.

    Returns the normalised rows, and per row the index of its normalised
    weights in the returned specs.  Swapping sides is harmless since the
    weighted sums are equal.
    """
    plan = _plan(spec)
    rows = rows[:, plan.order]
    for lo, hi in plan.runs:
        rows[:, lo:hi] = np.sort(rows[:, lo:hi], axis=1)[:, ::-1]
    # within a run the first column is the largest, so the head is the
    # first column of some run and its side is already in slot order
    head = rows.argmax(axis=1)
    return np.take_along_axis(rows, plan.perms[head], axis=1), plan.pattern[head], plan.specs


def _check_rows(rows: np.ndarray, pattern: np.ndarray, specs, ordered: np.ndarray) -> None:
    """Raise AssertionError unless every normalised row is an equality of
    its weights (``specs[pattern[i]]`` for row i) over pairwise-distinct
    elements, its largest first; `ordered` is `rows` sorted along each row."""
    signed = np.array([s.d + tuple(-w for w in s.e) for s in specs], dtype=np.int64)
    ok = (rows * signed[pattern]).sum(axis=1) == 0
    ok &= (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
    ok &= rows[:, 0] == ordered[:, -1]
    if not ok.all():
        raise AssertionError(f"unsound collision rows: {rows[~ok][:3].tolist()}")


def _spec_records(kind: str, spec: WeightSpec, rows: np.ndarray) -> list[CollisionRecord]:
    """Records of one spec's joined rows: normalised, checked, and the
    first row per (normalised weights, element set) in row order."""
    rows, pattern, specs = normalize_largest(spec, rows)
    ordered = np.sort(rows, axis=1)
    _check_rows(rows, pattern, specs, ordered)
    # the largest element is ordered[:, -1], and the kind is the spec's:
    # no two specs share a normalised weight pattern, so keys never clash
    # across specs
    key = np.column_stack([pattern, ordered])
    by_key = np.lexsort(key.T[::-1])
    sorted_key = key[by_key]
    starts = np.r_[True, (sorted_key[1:] != sorted_key[:-1]).any(axis=1)]
    # lexsort is stable: a group's first member is its first row
    first = by_key[starts]
    return [
        CollisionRecord(kind, specs[p], tuple(elements), elements[0])
        for p, elements in zip(pattern[first].tolist(), rows[first].tolist())
    ]


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
    """
    vals = validate_elements(b)
    # specs share sides: each weight tuple's rows are built once per call
    side = cache(lambda weights: _side_rows(vals, weights))
    records: list[CollisionRecord] = []
    # the distinct-2h branch, then every reduced weighted branch
    for kind, spec in [(DISTINCT_2H, WeightSpec.distinct_2h(h))] + [
        (WEIGHTED, spec) for spec in reduced_weight_pairs(h)
    ]:
        left, right = _equal_sum_rows(vals, spec, side)
        if len(left):
            records += _spec_records(kind, spec, np.hstack([left, right]))

    return sorted(records, key=CollisionRecord.sort_key)


def deletion_set(records) -> frozenset[int]:
    """The deletion set C: the largest participant of every record."""
    return frozenset(r.largest for r in records)


def construct_a(b, h: int, *, records=None) -> tuple[int, ...]:
    """b minus the deletion set of its `records` (enumerated if omitted): B_h[1] by construction."""
    arr = validate_elements(b)
    if records is None:
        records = enumerate_collisions(arr, h)
    bad = deletion_set(records)
    return tuple(int(x) for x in arr if int(x) not in bad)
