"""Finite-scale certification of the two construction claims.

* the B_h[1] half: every target has at most one h-fold representation in
  the cleaned set (``is_bhg``);
* the basis half: 2h-fold counts are eventually positive and grow like a
  power of n (``basis_window``);
* plus an audit of the deleted-representation decomposition, which bounds
  how many 2h-fold representations the deletion step can destroy.

Window truncation is exact: every part of a representation of n is <= n,
so counts computed from A intersected with [1, N] agree with counts for the
full A at all targets n <= N.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, asdict

import numpy as np

from . import collisions as _col
from .counting import ReprTable, multiset_is_sparse, multiset_sums, validate_elements
from .counting import repr_multiset, repr_strict
from .fits import dyadic_fit

_ZERO_SCAN = 1 << 20


@dataclass(frozen=True)
class BhgVerdict:
    """Outcome of a B_h[g] check: ok, smallest violating target if any, and
    the scanned window [0, max_n].  The scan always covers every
    representable target, so window_limited is always false; the field
    stays because stored reports carry it."""

    ok: bool
    witness: int | None
    window_limited: bool
    max_n: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def is_bhg(a, h: int, g: int) -> BhgVerdict:
    """True iff every target n has at most g nondecreasing h-fold
    representations in a; the scan covers every n <= h * max(a)."""
    if g < 1:
        raise ValueError("g must be >= 1")
    arr = validate_elements(a)
    if arr.size == 0:
        return BhgVerdict(True, None, False, 0)
    max_n = h * int(arr[-1])
    if multiset_is_sparse(arr, h, max_n):
        sums = multiset_sums(arr, h, limit=max_n + 1)
        uniq, cnt = np.unique(sums, return_counts=True)
        bad = uniq[cnt > g]
    else:
        bad = np.flatnonzero(repr_multiset(arr, h, max_n).counts > g)
    if bad.size:
        return BhgVerdict(False, int(bad[0]), False, max_n)
    return BhgVerdict(True, None, False, max_n)


@dataclass(frozen=True)
class BasisReport:
    """Coverage and growth of k-fold representation counts over a window."""

    k: int
    n_lo: int
    n_hi: int
    last_zero: int | None
    coverage: float
    fit_c: float
    fit_exp: float
    fit_bins: int
    fit_resid: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def basis_window(table: ReprTable, n_lo: int, n_hi: int) -> BasisReport:
    """Report last zero, coverage, and dyadic power-law fit of a k-fold
    multiset table over [n_lo, n_hi]; k is read from the table.

    The table's semantics and length are checked.  n_hi must not exceed the
    provenance window of the table's set, so that truncation is exact.
    """
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError("window must satisfy 1 <= n_lo <= n_hi")
    kind, k = table.semantics
    if kind != "multiset":
        raise ValueError(f"table semantics {table.semantics} are not multiset counts")
    if table.max_n < n_hi:
        raise ValueError("table too short for requested window")
    window = table.counts[n_lo : n_hi + 1]
    # the last zero, scanned down from the top a piece at a time: a mask as
    # wide as A's 4-fold window at N = 1e7 would sit on top of both tables
    last_zero = None
    for hi in range(window.size, 0, -_ZERO_SCAN):
        lo = max(hi - _ZERO_SCAN, 0)
        zero = window[lo:hi] == 0
        if zero.any():
            last_zero = n_lo + hi - 1 - int(np.argmax(zero[::-1]))
            break
    coverage = float(np.count_nonzero(window) / window.size)
    fit_c, fit_exp, bins, resid = dyadic_fit(n_lo, window)
    return BasisReport(k, n_lo, n_hi, last_zero, coverage, fit_c, fit_exp, bins, resid)


def _decomposition_arrays(b, h: int, n_lo: int, n_hi: int, tables, records):
    """lhs, r1, r2, r3 over [n_lo, n_hi] for deleting C, the largest
    participants of b's collision `records`, from B = b.

    lhs counts 2h-multisets over B that use an element of C; r1 bounds those
    with a repeated term, r2/r3 the strictly increasing ones touching a
    distinct-branch / weighted-branch deletion.  `tables` are the 2h-fold
    multiset tables of B and A = B \\ C and the strict table of B, covering
    n_hi; another kind, fold, length or set raises ValueError."""
    arr = validate_elements(b)
    c = _col.deletion_set(records)
    c1 = {r.largest for r in records if r.kind == _col.DISTINCT_2H}
    c2 = {r.largest for r in records if r.kind == _col.WEIGHTED}
    k = 2 * h
    vals = arr.tolist()
    a_vals = [x for x in vals if x not in c]
    for table, kind, source in zip(tables, ("multiset", "multiset", "strict"), (vals, a_vals, vals)):
        if table.semantics != (kind, k) or table.max_n < n_hi:
            raise ValueError(f"need a {(kind, k)} table up to {n_hi}, got {table.semantics} up to {table.max_n}")
        if table.source_size != bisect_right(source, table.max_n):
            raise ValueError(f"{kind} table was not built from the expected set")

    def rows(table):
        return table.counts[n_lo : n_hi + 1].astype(np.int64)

    full, full_a, strict_all = (rows(t) for t in tables)
    lhs = full - full_a
    r1 = full - strict_all
    r2 = strict_all - rows(repr_strict([x for x in vals if x not in c1], k, n_hi))
    r3 = strict_all - rows(repr_strict([x for x in vals if x not in c2], k, n_hi))
    return lhs, r1, r2, r3


def decomposition_summary(b, h: int, n_lo: int, n_hi: int, tables, records) -> dict:
    """Sweep of the bound lhs <= r1 + r2 + r3 (the classes may overlap);
    reports violations (none expected) and the largest slack seen."""
    lhs, r1, r2, r3 = _decomposition_arrays(b, h, n_lo, n_hi, tables, records)
    slack = r1 + r2 + r3 - lhs
    return {
        "n_lo": n_lo,
        "n_hi": n_hi,
        "checked": int(lhs.size),
        "violations": int(np.count_nonzero(slack < 0)),
        "max_slack": int(slack.max()) if slack.size else 0,
        "lhs_total": int(lhs.sum()),
    }
