"""Exact representation-count tables over finite integer sets.

Three counting semantics, all exact:

* multiset(h)  -- number of nondecreasing h-tuples from A summing to n.
* strict(k)    -- number of strictly increasing k-tuples from A summing to n
                  with largest part < n.  For k = 1 the largest-part
                  constraint empties every count (n < n is false), so the
                  table is identically zero; this edge is deliberate.
* weighted(f)  -- number of ordered tuples of pairwise-distinct elements
                  (x_1, ..., x_t) of D with f_1 x_1 + ... + f_t x_t = n.

Every table comes from one counting kernel, ``_add_counts`` (the "dp"
backend): sparse sum-lists in its low rows, dense shift-adds above.  Each
operation also has a naive enumeration (the oracle path, ``backend="naive"``),
cross-validated against the kernel in the test suite.  Counts use checked
unsigned arithmetic, so wraparound is impossible rather than detected: every
table takes the narrowest of uint16, uint32 and uint64 that admits the
smallest bound on its entries known before it is allocated, and a bound
beyond uint64 raises ``OverflowError`` before any work.  That bound is the
combinatorial one (the number of tuples counted; for strict(k) the largest
C(|A|, j), j <= k, which covers every kernel row) except for kernel-built
``repr_multiset`` and ``repr_strict`` tables, which the kernel sizes once
its sparse rows exist: each dense row adds at most one shifted copy of the
row below per element that fits, so no entry exceeds (largest multiplicity
in the last sparse row) x (fitting elements)^(rows above it), and the table
and every dense row take the smaller of the two bounds.
"""

from __future__ import annotations

from bisect import bisect_right
import contextlib
from dataclasses import dataclass
from itertools import combinations, permutations
import math
import struct

import numpy as np

_MAGIC = b"BHREPR01"
_KIND_CODES = {"multiset": 1, "strict": 2, "weighted": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

# Index orders the kernel counts tuples in.
_NONDECREASING = "nondecreasing"
_STRICT = "strict"
_UNORDERED = "unordered"

# Cost of one sparse entry (a tuple sum generated, then scattered with
# np.add.at) in dense cells (one element of a shift-add).  Measured on a
# 2-core Xeon VM with numpy 2.4.6 for 4-fold and 3-fold top rows 1e6-1e7
# wide: 11-16 ns per sparse entry against 0.7-0.9 ns per cell.
_SPARSE_COST = 20

# Candidate sums per block of a sparse step (a few hundred KiB of int64).
_BLOCK = 1 << 16

# Rows per chunk of a CSV write.
_CSV_ROWS = 1 << 16


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

    def to_csv(self, path) -> None:
        with _open(path, "w") as fh:
            fh.write("n,count\n")
            write_csv_rows(fh, 0, [self.counts])

    def to_binary(self, path) -> None:
        """Compact dump: magic, semantics tag, max_n, little-endian u64 counts."""
        kind = self.semantics[0]
        with _open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<B", _KIND_CODES[kind]))
            if kind == "weighted":
                weights = self.semantics[1]
                fh.write(struct.pack("<I", len(weights)))
                fh.write(struct.pack(f"<{len(weights)}I", *weights))
            else:
                fh.write(struct.pack("<I", self.semantics[1]))
            fh.write(struct.pack("<QQ", self.max_n, self.source_size))
            fh.write(self.counts.astype("<u8").tobytes())

    @classmethod
    def from_binary(cls, path) -> "ReprTable":
        """Load a ``to_binary`` dump; a bad magic, an unknown semantics code
        or a dump shorter than its header promises raises ValueError."""
        with _open(path, "rb") as fh:
            if fh.read(8) != _MAGIC:
                raise ValueError("bad magic in table dump")
            (code,) = _unpack(fh, "<B")
            if code not in _KIND_NAMES:
                raise ValueError(f"unknown semantics code {code} in table dump")
            kind = _KIND_NAMES[code]
            if kind == "weighted":
                (t,) = _unpack(fh, "<I")
                semantics = ("weighted", tuple(int(w) for w in _unpack(fh, f"<{t}I")))
            else:
                semantics = (kind, _unpack(fh, "<I")[0])
            max_n, source_size = _unpack(fh, "<QQ")
            counts = np.frombuffer(_read(fh, 8 * (max_n + 1)), dtype="<u8").astype(np.uint64)
            return cls(counts, semantics, source_size)


def _read(fh, size: int) -> bytes:
    """Exactly `size` bytes of a dump; fewer means it was cut short."""
    data = fh.read(size)
    if len(data) < size:
        raise ValueError(f"table dump truncated: {len(data)} of {size} bytes")
    return data


def _unpack(fh, fmt: str) -> tuple:
    return struct.unpack(fmt, _read(fh, struct.calcsize(fmt)))


def write_csv_rows(fh, n_lo: int, columns) -> None:
    """Write the lines "n,c_1,...,c_k" for n = n_lo, n_lo + 1, ..., where
    c_i is entry n - n_lo of columns[i] written as an integer; the columns
    share one length and are formatted a chunk of rows at a time."""
    stride = len(columns) + 1
    line = ",".join(["%d"] * stride) + "\n"
    for lo in range(0, len(columns[0]), _CSV_ROWS):
        parts = [np.asarray(col[lo : lo + _CSV_ROWS]).tolist() for col in columns]
        rows = len(parts[0])
        cells = [0] * (rows * stride)
        cells[::stride] = range(n_lo + lo, n_lo + lo + rows)
        for i, part in enumerate(parts, start=1):
            cells[i::stride] = part
        fh.write((line * rows) % tuple(cells))


def _open(path, mode):
    """Open a path; a file object passes through and is left open."""
    if hasattr(path, "write" if "w" in mode else "read"):
        return contextlib.nullcontext(path)
    return open(path, mode)


def _count_dtype(bound: int):
    """Narrowest of uint16, uint32 and uint64 that admits every entry up to
    the bound; refuses a larger bound before anything is allocated."""
    for dtype in (np.uint16, np.uint32, np.uint64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise OverflowError(f"count bound {bound} exceeds the uint64 maximum {np.iinfo(np.uint64).max}")


def _index_tuples(n: int, j: int, order: str) -> int:
    """Number of index tuples of length j over n indices in the given order."""
    if order == _NONDECREASING:
        return math.comb(n + j - 1, j)
    if order == _STRICT:
        return math.comb(n, j)
    return n**j


def _blocks(sums: np.ndarray, ends: np.ndarray, xs: list[int], w: int, max_n: int, order: str):
    """Extend a sparse row by one index, a block of consecutive indices at a time.

    A sparse row lists its tuple sums grouped by last index: the tuples
    ending at index i are sums[ends[i]:ends[i + 1]] (the empty tuple of row 0
    lies before ends[0]).  Index i, with addend w * xs[i], extends every tuple
    that may precede it in the order.  Yields (i0, sizes, sums): sizes[k] new
    tuples end at index i0 + k, their sums following in that order.
    """
    adds = w * np.asarray(xs, dtype=np.int64)
    fit = int(np.searchsorted(adds, max_n, side="right"))
    if order == _NONDECREASING:
        allowed = ends[1 : fit + 1].tolist()
    elif order == _STRICT:
        allowed = ends[:fit].tolist()
    else:
        allowed = [int(ends[-1])] * fit
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
    sizes = np.zeros(len(xs) + 1, dtype=np.int64)
    parts = [np.zeros(0, dtype=np.int64)]
    for i0, counts, part in _blocks(sums, ends, xs, w, max_n, order):
        sizes[i0 + 1 : i0 + 1 + counts.size] = counts
        parts.append(part)
    return np.concatenate(parts), np.cumsum(sizes)


def _sparse_rows(xs: list[int], weights: tuple[int, ...], width: int, order: str) -> int:
    """Number of low rows the kernel keeps sparse for a table `width` wide.

    Row j stays a sparse sum-list while its tuples cost less than one dense
    shift-add row; below the top row it must also hold no more entries than
    a dense row.
    """
    t = len(weights)
    for j, w in enumerate(weights):
        size = _index_tuples(len(xs), j + 1, order)
        cells = sum(width - w * x for x in xs if w * x < width)
        if size * _SPARSE_COST >= cells or (j + 1 < t and size > width):
            return j
    return t


def multiset_is_sparse(a, h: int, max_n: int) -> bool:
    """True when the kernel keeps every row of the h-fold multiset table over
    [0, max_n] sparse and the top row holds no more sums than the table has
    cells, so ``multiset_sums`` lists them in less work than the table."""
    xs = validate_elements(a)
    xs = xs[xs <= max_n].tolist()
    fits = math.comb(len(xs) + h - 1, h) <= max_n + 1
    return fits and _sparse_rows(xs, (1,) * h, max_n + 1, _NONDECREASING) == h


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
    the table itself, so no buffer outlives the call.  `table` is an
    array of `width` entries, or a function that returns one given a bound
    on every entry of every dense row, called once the sparse rows exist.
    The dense rows take the table's dtype.
    """
    max_n = width - 1
    xs = vals.tolist()
    t = len(weights)
    sparse = _sparse_rows(xs, weights, width, order)
    held = min(sparse, t - 1)  # the last sparse row held in full
    sums, ends = np.zeros(1, dtype=np.int64), np.ones(len(xs) + 1, dtype=np.int64)  # row 0
    for w in weights[:held]:
        sums, ends = _next_row(sums, ends, xs, w, max_n, order)
    out = table
    if callable(table):
        # An entry of row j + 1 adds at most one entry of row j per element
        # x with w x <= max_n, so a row above `held` is bounded by the
        # largest multiplicity among held's sums times those counts.
        bound = row_bound = int(np.bincount(sums).max(initial=0))
        for w in weights[held:]:
            row_bound *= bisect_right(xs, max_n // w)
            bound = max(bound, row_bound)
        out = table(bound)
    one = out.dtype.type(sign)
    if sparse == t:
        # Scatter the top row block by block, never holding all of it.
        for _, _, part in _blocks(sums, ends, xs, weights[-1], max_n, order):
            np.add.at(out, part, one)
        return out

    # Dense rows sparse + 1 .. t, seeded by the sparse row `sparse`.
    rows = [np.zeros(width, dtype=out.dtype) for _ in range(t - sparse)] + [out]
    dense_weights = weights[sparse:]
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
    if h < 1:
        raise ValueError("h must be >= 1")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    arr = validate_elements(a)
    arr = arr[arr <= max_n]
    bound = math.comb(int(arr.size) + h - 1, h)
    dtype = _count_dtype(bound)
    if backend == "naive":
        counts = np.zeros(max_n + 1, dtype=dtype)
        _naive_multiset(counts, arr, h)
    elif backend == "dp":

        def table(row_bound):
            return np.zeros(max_n + 1, dtype=_count_dtype(min(bound, row_bound)))

        counts = _add_counts(max_n + 1, arr, (1,) * h, _NONDECREASING, table)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return ReprTable(counts, ("multiset", h), int(arr.size))


def _naive_multiset(counts: np.ndarray, arr: np.ndarray, h: int) -> None:
    max_n = counts.size - 1
    vals = arr.tolist()

    def rec(start: int, depth: int, total: int) -> None:
        if depth == 0:
            counts[total] += 1
            return
        for i in range(start, len(vals)):
            t = total + vals[i]
            if t > max_n:
                break
            rec(i, depth - 1, t)

    if vals:
        rec(0, h, 0)


def repr_strict(a, k: int, max_n: int, *, backend: str = "dp") -> ReprTable:
    """Table of strictly increasing k-tuple sums with largest part < n.

    For k >= 2 the largest-part constraint is automatic (the other parts are
    positive); for k = 1 it forces every count to zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    arr = validate_elements(a)
    arr = arr[arr <= max_n]
    # rows j < k of the kernel hold up to C(|A|, j) tuples
    bound = max(math.comb(int(arr.size), j) for j in range(k + 1))
    dtype = _count_dtype(bound)
    if backend == "naive":
        counts = np.zeros(max_n + 1, dtype=dtype)
        _naive_strict(counts, arr, k)
    elif backend == "dp" and k == 1:  # the largest-part constraint empties every count
        counts = np.zeros(max_n + 1, dtype=dtype)
    elif backend == "dp":

        def table(row_bound):
            return np.zeros(max_n + 1, dtype=_count_dtype(min(bound, row_bound)))

        counts = _add_counts(max_n + 1, arr, (1,) * k, _STRICT, table)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return ReprTable(counts, ("strict", k), int(arr.size))


def _naive_strict(counts: np.ndarray, arr: np.ndarray, k: int) -> None:
    for combo in combinations(arr.tolist(), k):
        s = sum(combo)
        if combo[-1] < s < counts.size:
            counts[s] += 1


def repr_weighted(d, f, max_n: int, *, backend: str = "dp") -> ReprTable:
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
    if backend == "naive":
        counts = np.zeros(max_n + 1, dtype=dtype)
        _naive_weighted(counts, arr, weights)
    elif backend == "dp":
        counts = _moebius_weighted(arr[arr <= max_n], weights, max_n).astype(dtype)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return ReprTable(counts, ("weighted", weights), int(arr.size))


def _naive_weighted(counts: np.ndarray, arr: np.ndarray, weights) -> None:
    for tup in permutations(arr.tolist(), len(weights)):
        s = sum(w * x for w, x in zip(weights, tup))
        if s < counts.size:
            counts[s] += 1


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
    invert them to the pairwise-distinct count.
    """
    t = len(weights)
    # the running sum never exceeds sum |mu| * |D|^t = t! |D|^t in magnitude
    bound = math.factorial(t) * int(arr.size) ** t
    if bound > np.iinfo(np.int64).max:
        raise OverflowError(f"Moebius sum bound {bound} exceeds the int64 maximum")
    total = np.zeros(max_n + 1, dtype=np.int64)
    for part in _set_partitions(list(range(t))):
        mu = math.prod((-1) ** (len(block) - 1) * math.factorial(len(block) - 1) for block in part)
        block_weights = tuple(sum(weights[i] for i in block) for block in part)
        _add_counts(max_n + 1, arr, block_weights, _UNORDERED, total, mu)
    if total.min() < 0:
        raise AssertionError("partition inversion produced a negative count")
    return total


def pairsum_histogram(a, h: int) -> ReprTable:
    """Dense histogram of all h-fold nondecreasing sums of a finite set."""
    arr = validate_elements(a)
    top = int(arr[-1]) * h if arr.size else 0
    return repr_multiset(arr, h, top)


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
