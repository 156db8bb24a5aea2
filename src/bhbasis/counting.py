"""Exact representation-count tables over finite integer sets.

Three counting semantics, all exact:

* multiset(h)  -- number of nondecreasing h-tuples from A summing to n.
* strict(k)    -- number of strictly increasing k-tuples from A summing to n
                  with largest part < n.  For k = 1 the largest-part
                  constraint empties every count (n < n is false), so the
                  table is identically zero; this edge is deliberate.
* weighted(f)  -- number of ordered tuples of pairwise-distinct elements
                  (x_1, ..., x_t) of D with f_1 x_1 + ... + f_t x_t = n.

Every table comes from one counting kernel, ``_add_counts``: sparse
sum-lists in its low rows, dense shift-adds above.  Each path is priced in
bytes of table streamed, a sparse entry at ``_SCATTER_BYTES``.  When every
row below the table is sparse, the table's own row either scatters its sums
or is added one cache-sized segment of the last sparse row at a time, so
each shift reads a buffer in cache and streams only the table, and segments
that row never reaches are skipped; the kernel takes whichever costs less on
the input at hand.  Two or more dense rows are built at full width.  There
is one kernel path per table; the test suite checks each table entrywise
against its one brute-force oracle in ``tests/oracles.py``.  Counts use
checked unsigned arithmetic, so wraparound is impossible rather than
detected: every table takes the narrowest of uint16, uint32 and uint64 that
admits the smallest bound on its entries known before it is allocated, and
a bound beyond uint64 raises ``OverflowError`` before any work.  That bound
is the combinatorial one (the number of tuples counted; for strict(k) the
largest C(|A|, j), j <= k, which covers every kernel row) except for
kernel-built ``repr_multiset`` and ``repr_strict`` tables, which the kernel
sizes once its sparse rows exist: each dense row adds at most one shifted
copy of the row below per element that fits, so no entry exceeds (largest
multiplicity in the last sparse row) x (fitting elements)^(rows above it),
and the table and every dense row take the smaller of the two bounds.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
import math

import numpy as np

# Index orders the kernel counts tuples in.
_NONDECREASING = "nondecreasing"
_STRICT = "strict"
_UNORDERED = "unordered"

# Cost of one sparse entry (a tuple sum generated, then written to a row or
# scattered with np.add.at) in bytes of table that a dense shift-add streams;
# a dense row costs its cells times the table's itemsize.  Measured on a
# 2-core Xeon VM with numpy 2.4.6: 9-17 ns per top-row entry scattered into
# 3- and 4-fold tables 1e6-1e7 wide and 7-13 ns per entry of a held row,
# against 0.10-0.12 ns per byte of a segmented uint16 row at 1e7, 0.07-0.09
# ns per byte of a segmented int64 row at 1e6-4e6, and 0.14-0.22 ns per byte
# of a full-width row of either.
_SCATTER_BYTES = 120

# Candidate sums per block of a sparse step (a few hundred KiB of int64).
_BLOCK = 1 << 16

# Bytes of one source segment of the dense row built on the last sparse row
# (2^18 uint16 or 2^16 int64 entries), a buffer that stays in L2 while every
# element adds it into the table.  Measured on a 2-core Xeon VM (2 MiB L2 per
# core) for B's 4-fold table at N = 1e7: 0.32-0.41 s at 2^18 and 2^19 bytes,
# 0.39-0.59 s at 2^16 and 2^17, 0.42-0.57 s at 2^20 and 2^21.
_SEGMENT_BYTES = 1 << 19


def validate_elements(a) -> np.ndarray:
    """Canonicalize a set of positive integers to a sorted distinct array."""
    arr = np.asarray(sorted(set(int(x) for x in a)), dtype=np.int64)
    if arr.size and arr[0] < 1:
        raise ValueError("elements must be positive integers")
    return arr


@dataclass(frozen=True)
class ReprTable:
    """Dense table of exact representation counts indexed by target value.

    counts[n] is the exact count of representations of n under the tagged
    semantics; the array is frozen after construction.
    """

    counts: np.ndarray
    semantics: tuple
    source_size: int

    def __post_init__(self) -> None:
        self.counts.flags.writeable = False

    @property
    def max_n(self) -> int:
        return len(self.counts) - 1


def _count_dtype(bound: int):
    """Narrowest of uint16, uint32 and uint64 that admits every entry up to
    the bound; refuses a larger bound before anything is allocated."""
    for dtype in (np.uint16, np.uint32, np.uint64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise OverflowError(f"count bound {bound} exceeds the uint64 maximum {np.iinfo(np.uint64).max}")


def _extended(ends: np.ndarray, adds: np.ndarray, max_n: int, order: str) -> list[int]:
    """For each index whose addend fits below max_n, the number of leading
    tuples of a sparse row (grouped by last index, see ``_blocks``) that the
    index extends in the order."""
    fit = int(np.searchsorted(adds, max_n, side="right"))
    if order == _NONDECREASING:
        return ends[1 : fit + 1].tolist()
    if order == _STRICT:
        return ends[:fit].tolist()
    return [int(ends[-1])] * fit


def _blocks(sums: np.ndarray, ends: np.ndarray, xs: list[int], w: int, max_n: int, order: str):
    """Extend a sparse row by one index, a block of consecutive indices at a time.

    A sparse row lists its tuple sums grouped by last index: the tuples
    ending at index i are sums[ends[i]:ends[i + 1]] (the empty tuple of row 0
    lies before ends[0]).  Index i, with addend w * xs[i], extends every tuple
    that may precede it in the order.  Yields (i0, sizes, sums): sizes[k] new
    tuples end at index i0 + k, their sums following in that order.
    """
    adds = w * np.asarray(xs, dtype=np.int64)
    allowed = _extended(ends, adds, max_n, order)
    fit = len(allowed)
    i0 = 0
    while i0 < fit:
        i1 = i0 + 1
        while i1 < fit and (i1 + 1 - i0) * allowed[i1] <= _BLOCK:
            i1 += 1
        p = allowed[i1 - 1]
        cand = sums[:p] + adds[i0:i1, None]
        keep = cand <= max_n
        if order != _UNORDERED:
            keep &= np.arange(p) < np.array(allowed[i0:i1])[:, None]
        yield i0, keep.sum(axis=1), cand[keep]
        i0 = i1


def _next_row(sums, ends, xs: list[int], w: int, max_n: int, order: str):
    """The sparse row one index longer, written block by block into one
    array sized for every extended tuple.  The tail left by the sums beyond
    max_n is never written, so in a large row it is never paged in; a
    concatenation of the blocks would hold the row twice."""
    adds = w * np.asarray(xs, dtype=np.int64)
    row = np.empty(sum(_extended(ends, adds, max_n, order)), dtype=np.int64)
    sizes = np.zeros(len(xs) + 1, dtype=np.int64)
    size = 0
    for i0, counts, part in _blocks(sums, ends, xs, w, max_n, order):
        sizes[i0 + 1 : i0 + 1 + counts.size] = counts
        row[size : size + part.size] = part
        size += part.size
    return row[:size], np.cumsum(sizes)


def _dense_cells(xs: list[int], w: int, width: int) -> int:
    """Cells one full-width dense row adds: width - w x for each element x
    whose shift fits."""
    return sum(width - w * x for x in xs if w * x < width)


def _sparse_rows(xs: list[int], weights: tuple[int, ...], width: int, order: str, itemsize: int):
    """The low rows the kernel holds as sparse sum-lists for a table `width`
    wide: (how many, the last one's sums, its group ends).

    Row j below the top row is built sparse while its sums, as many as
    ``_extended`` allots it, cost less than one full-width dense row of
    `itemsize`-byte cells, and while there are no more of them than cells in
    the t - j + 1 full-width rows the dense path would allocate in its place.
    The top row is priced by ``_scatters_top_row`` once the table exists.
    """
    t = len(weights)
    sums, ends = np.zeros(1, dtype=np.int64), np.ones(len(xs) + 1, dtype=np.int64)  # row 0
    for j, w in enumerate(weights[:-1], start=1):
        size = sum(_extended(ends, w * np.asarray(xs, dtype=np.int64), width - 1, order))
        if size * _SCATTER_BYTES >= _dense_cells(xs, w, width) * itemsize or size > (t - j + 1) * width:
            return j - 1, sums, ends
        sums, ends = _next_row(sums, ends, xs, w, width - 1, order)
    return t - 1, sums, ends


def _groups(sums: np.ndarray, ends: np.ndarray, order: str) -> tuple[list[int], int]:
    """Bounds of the groups of a sparse row in the order the segmented top
    row adds them, and the lag: the buffer holds groups 0 .. i + lag when
    element i shifts it.  Group 0 holds row 0's empty tuple (or, unordered,
    every tuple); group i + 1 the tuples ending at index i."""
    if order == _UNORDERED:
        return [0, sums.size], 0
    return [0, *ends.tolist()], 1 if order == _NONDECREASING else 0


def _streamed_cells(sums, ends, xs: list[int], w: int, width: int, order: str, seg: int) -> int:
    """Cells of the table that ``_add_segmented_top_row`` streams with
    segments of `seg` entries: in each segment, one shift per element from
    the first that meets a nonzero buffer on; a segment the held row never
    reaches is skipped."""
    starts, lag = _groups(sums, ends, order)
    groups = len(starts) - 1
    first = np.full(-(-width // seg), groups)
    np.minimum.at(first, sums // seg, np.repeat(np.arange(groups), np.diff(starts)))
    shifts = w * np.asarray(xs, dtype=np.int64)
    cells = 0
    for a, g in zip(range(0, width, seg), first.tolist()):
        if g < groups:
            s = shifts[max(0, g - lag) : np.searchsorted(shifts, width - a)]
            cells += int((np.minimum(seg, width - a - s)).sum())
    return cells


def _scatters_top_row(sums, ends, xs: list[int], w: int, width: int, order: str, itemsize: int) -> bool:
    """True when scattering the top row's sums costs less than the
    segmented dense row on the held row (sums, ends): the held row's own
    entries, sorted into the buffer, and the table bytes its segments
    stream."""
    scatter = sum(_extended(ends, w * np.asarray(xs, dtype=np.int64), width - 1, order)) * _SCATTER_BYTES
    held = sums.size * _SCATTER_BYTES
    if scatter <= held:
        return True
    if scatter >= held + _dense_cells(xs, w, width) * itemsize:
        return False  # dearer than even the segmented row at full width
    seg = _SEGMENT_BYTES // itemsize
    return scatter < held + _streamed_cells(sums, ends, xs, w, width, order, seg) * itemsize


def multiset_is_sparse(a, h: int, max_n: int) -> bool:
    """True when listing the h-fold multiset sums over [0, max_n]
    (``multiset_sums``) costs less than building their table and scanning
    it, so ``verify.is_bhg`` lists them.  The sums must number no more than
    the table's cells, and cost `_SCATTER_BYTES` each; the table path
    streams every cell a dense row reaches three times (the row adds it, a
    comparison reads it and writes a flag, a search reads the flag), at the
    itemsize of the table's combinatorial bound."""
    xs = validate_elements(a)
    xs = xs[xs <= max_n].tolist()
    size = math.comb(len(xs) + h - 1, h)
    itemsize = np.dtype(_count_dtype(size)).itemsize
    cells = _dense_cells(xs, 1, max_n + 1)
    return size <= max_n + 1 and size * _SCATTER_BYTES < cells * (2 * itemsize + 2)


def _largest_multiplicity(sums: np.ndarray, width: int) -> int:
    """The most times one value occurs among the sums, all below width.
    Counted in the narrowest dtype that holds every count, not in
    np.bincount's int64, which at width 1e7 would be the largest buffer of
    a kernel call."""
    counts = np.zeros(width, dtype=_count_dtype(sums.size))
    np.add.at(counts, sums, counts.dtype.type(1))
    return int(counts.max(initial=0))


def _add_segmented_top_row(out: np.ndarray, sums, ends, xs: list[int], w: int, order: str, one) -> None:
    """Add into `out` the dense top row seeded by the last sparse row
    (sums, ends), one source segment [a, b) at a time.

    The segment's share of the seed row is a buffer of `_SEGMENT_BYTES`
    that stays in cache: it gains each last-index group of the sparse row
    at the moment the order asks for (before element i's shift when
    nondecreasing, after it when strict, all before the first element when
    unordered), and element i adds it into out[a + w x_i : b + w x_i].
    Elements that would add it while it is still zero are skipped, and so is
    a segment the sparse row never reaches.  Each
    group of `sums` is sorted in place (a count does not depend on the
    order inside a group), cut at the segment bounds, and reduced to
    offsets within its segment.
    """
    width = out.size
    seg = _SEGMENT_BYTES // out.itemsize
    cuts = np.arange(-(-width // seg) + 1, dtype=np.int64) * seg
    starts, lag = _groups(sums, ends, order)
    edges = np.empty((cuts.size, len(starts) - 1), dtype=np.int64)
    for g, (lo, hi) in enumerate(zip(starts, starts[1:])):
        sums[lo:hi].sort()
        edges[:, g] = lo + np.searchsorted(sums[lo:hi], cuts)
    sums %= seg
    edges = edges.tolist()
    last = len(starts) - 2
    shifts = [w * x for x in xs]
    buf = np.empty(seg, dtype=out.dtype)
    for k, a in enumerate(range(0, width, seg)):
        b = min(a + seg, width)
        lo, hi = edges[k], edges[k + 1]
        added = next((g for g in range(last + 1) if lo[g] < hi[g]), last + 1)
        if added > last:
            continue
        buf.fill(0)
        for i in range(max(0, added - lag), bisect_left(shifts, width - a)):
            while added <= min(i + lag, last):
                if lo[added] < hi[added]:
                    np.add.at(buf, sums[lo[added] : hi[added]], one)
                added += 1
            s = shifts[i]
            stop = min(b, width - s)
            out[a + s : stop + s] += buf[: stop - a]


def _add_counts(
    width: int, vals: np.ndarray, weights: tuple[int, ...], order: str, table, sign: int = 1
) -> np.ndarray:
    """The counting kernel: add sign times the number of index tuples
    (i_1, ..., i_t) of the sorted array vals, in the given order, with
    weights[0] * vals[i_1] + ... + weights[t-1] * vals[i_t] = n into entry n
    of the table, and return it.

    Row j counts the tuples of the first j positions; the low rows are
    sparse sum-lists (``_sparse_rows``).  The rows above them are dense,
    each built by shift-adding row j-1 once per element, and the top row is
    the table itself, so no buffer outlives the call.  When every row below
    the top is sparse, the top row takes the cheaper of two paths
    (``_scatters_top_row``): its sums scattered into the table block by
    block, or one dense row built a source segment of the last sparse row
    at a time (``_add_segmented_top_row``), where a cache-sized buffer of
    `_SEGMENT_BYTES` replaces a full-width seed row and each shift streams
    the table alone.  Two or more dense rows stay full width.  `table` is an
    array of `width` entries, or a function that returns one given a bound
    on every entry of every dense row, called once the sparse rows exist.
    The dense rows take the table's dtype.
    """
    max_n = width - 1
    xs = vals.tolist()
    t = len(weights)
    # A table made on demand takes its dtype once the sparse rows exist;
    # until then a dense row is priced at the narrowest count dtype.
    itemsize = np.dtype(np.uint16).itemsize if callable(table) else table.itemsize
    held, sums, ends = _sparse_rows(xs, weights, width, order, itemsize)  # the last sparse row, in full
    out = table
    if callable(table):
        # An entry of row j + 1 adds at most one entry of row j per element
        # x with w x <= max_n, so a row above `held` is bounded by the
        # largest multiplicity among held's sums times those counts.
        bound = row_bound = _largest_multiplicity(sums, width)
        for w in weights[held:]:
            row_bound *= bisect_right(xs, max_n // w)
            bound = max(bound, row_bound)
        out = table(bound)
    one = out.dtype.type(sign)
    if held == t - 1 and _scatters_top_row(sums, ends, xs, weights[-1], width, order, out.itemsize):
        # Scatter the top row block by block, never holding all of it.
        for _, _, part in _blocks(sums, ends, xs, weights[-1], max_n, order):
            np.add.at(out, part, one)
        return out
    if held == t - 1:
        _add_segmented_top_row(out, sums, ends, xs, weights[-1], order, one)
        return out

    # Dense rows held + 1 .. t, seeded by the sparse row `held`, at full
    # width: an ordered row j reads row j-1 as it stands at element i, at
    # positions in other source segments, so these rows are not segmented.
    # Such tables are narrow in the library (the audit's, 5e4 wide).
    rows = [np.zeros(width, dtype=out.dtype) for _ in range(t - held)] + [out]
    dense_weights = weights[held:]
    if order == _UNORDERED:
        np.add.at(rows[0], sums, one)
        for j, w in enumerate(dense_weights, start=1):
            for x in xs:
                if w * x > max_n:
                    break
                rows[j][w * x :] += rows[j - 1][: width - w * x]
        return out
    # An ordered row j gains element i from row j-1 as it stands after
    # element i (nondecreasing) or before it (strict); the seed row gains
    # its tuples ending at i at the matching moment.
    levels = list(enumerate(dense_weights, start=1))
    if order == _STRICT:
        levels.reverse()
    np.add.at(rows[0], sums[: ends[0]], one)
    for i, x in enumerate(xs):
        if order == _NONDECREASING:
            np.add.at(rows[0], sums[ends[i] : ends[i + 1]], one)
        for j, w in levels:
            if w * x <= max_n:
                rows[j][w * x :] += rows[j - 1][: width - w * x]
        if order == _STRICT:
            np.add.at(rows[0], sums[ends[i] : ends[i + 1]], one)
    return out


def repr_multiset(a, h: int, max_n: int, *, backend: str = "dp") -> ReprTable:
    """Table of nondecreasing h-tuple sums: counts[n] = #{a_1 <= ... <= a_h, sum = n}."""
    if backend != "dp":  # the one path; kept as a keyword because perfbench/tracer.py reads it
        raise ValueError(f"unknown backend {backend!r}")
    if h < 1:
        raise ValueError("h must be >= 1")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    arr = validate_elements(a)
    arr = arr[arr <= max_n]
    bound = math.comb(int(arr.size) + h - 1, h)
    _count_dtype(bound)  # a bound beyond uint64 is refused before any work

    def table(row_bound):
        return np.zeros(max_n + 1, dtype=_count_dtype(min(bound, row_bound)))

    counts = _add_counts(max_n + 1, arr, (1,) * h, _NONDECREASING, table)
    return ReprTable(counts, ("multiset", h), int(arr.size))


def repr_strict(a, k: int, max_n: int, *, backend: str = "dp") -> ReprTable:
    """Table of strictly increasing k-tuple sums with largest part < n.

    For k >= 2 the largest-part constraint is automatic (the other parts are
    positive); for k = 1 it forces every count to zero.
    """
    if backend != "dp":  # the one path; kept as a keyword because perfbench/tracer.py reads it
        raise ValueError(f"unknown backend {backend!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    arr = validate_elements(a)
    arr = arr[arr <= max_n]
    # rows j < k of the kernel hold up to C(|A|, j) tuples
    bound = max(math.comb(int(arr.size), j) for j in range(k + 1))
    dtype = _count_dtype(bound)
    if k == 1:  # the largest-part constraint empties every count
        counts = np.zeros(max_n + 1, dtype=dtype)
    else:

        def table(row_bound):
            return np.zeros(max_n + 1, dtype=_count_dtype(min(bound, row_bound)))

        counts = _add_counts(max_n + 1, arr, (1,) * k, _STRICT, table)
    return ReprTable(counts, ("strict", k), int(arr.size))


def repr_weighted(d, f, max_n: int) -> ReprTable:
    """Table of weighted sums over ordered tuples of pairwise-distinct elements.

    counts[n] = #{(x_1, ..., x_t) : x_i in D pairwise distinct,
                  f_1 x_1 + ... + f_t x_t = n}.
    Distinctness applies to the chosen elements, not the weights.
    """
    weights = tuple(int(w) for w in f)
    if not weights or any(w < 1 for w in weights):
        raise ValueError("weights must be a nonempty tuple of positive integers")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    arr = validate_elements(d)
    dtype = _count_dtype(math.perm(int(arr.size), len(weights)))
    counts = _moebius_weighted(arr[arr <= max_n], weights, max_n).astype(dtype)
    return ReprTable(counts, ("weighted", weights), int(arr.size))


def _set_partitions(items: list[int]):
    """All set partitions of a small list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _moebius_weighted(arr: np.ndarray, weights, max_n: int) -> np.ndarray:
    """Moebius inversion over set partitions of the positions.

    Tuples that are merely equal on the blocks of a partition are unordered
    kernel counts with the block weight sums; alternating block factorials
    invert them to the pairwise-distinct count.  An unordered count depends
    only on the multiset of block weights, so partitions with the same one
    share one kernel call whose sign is the sum of their coefficients.
    """
    t = len(weights)
    # the running sum never exceeds sum |mu| * |D|^t = t! |D|^t in magnitude
    bound = math.factorial(t) * int(arr.size) ** t
    if bound > np.iinfo(np.int64).max:
        raise OverflowError(f"Moebius sum bound {bound} exceeds the int64 maximum")
    signs: dict[tuple[int, ...], int] = {}
    for part in _set_partitions(list(range(t))):
        mu = math.prod((-1) ** (len(block) - 1) * math.factorial(len(block) - 1) for block in part)
        block_weights = tuple(sorted(sum(weights[i] for i in block) for block in part))
        signs[block_weights] = signs.get(block_weights, 0) + mu
    total = np.zeros(max_n + 1, dtype=np.int64)
    for block_weights, mu in signs.items():
        if mu:
            _add_counts(max_n + 1, arr, block_weights, _UNORDERED, total, mu)
    if total.min() < 0:
        raise AssertionError("partition inversion produced a negative count")
    return total


def multiset_sums(a, h: int, *, limit: int = 8_000_000) -> np.ndarray:
    """All h-fold nondecreasing sums as a flat array (one entry per multiset).

    The kernel's sparse rows for the nondecreasing order, the top one held
    in full rather than scattered; refuses beyond `limit` outputs.
    """
    arr = validate_elements(a)
    total = math.comb(int(arr.size) + h - 1, h)
    if total > limit:
        raise ValueError(f"{total} multisets exceeds enumeration limit {limit}")
    xs = arr.tolist()
    sums, ends = np.zeros(1, dtype=np.int64), np.ones(len(xs) + 1, dtype=np.int64)  # row 0
    for _ in range(h):
        sums, ends = _next_row(sums, ends, xs, 1, h * int(arr.max(initial=0)), _NONDECREASING)
    return sums
