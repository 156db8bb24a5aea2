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
from .counting import repr_multiset, repr_strict, write_csv_rows
from .fits import dyadic_fit


@dataclass(frozen=True)
class BhgVerdict:
    """Outcome of a B_h[g] check: ok, smallest violating target if any,
    and whether the scan window covered every representable target."""

    ok: bool
    witness: int | None
    window_limited: bool
    max_n: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def is_bhg(a, h: int, g: int, max_n: int | None = None) -> BhgVerdict:
    """True iff every target n <= max_n has at most g nondecreasing h-fold
    representations in a.

    max_n defaults to h * max(a), which makes the scan exhaustive; passing a
    smaller window flags the verdict window_limited instead of raising.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    arr = validate_elements(a)
    if arr.size == 0:
        return BhgVerdict(True, None, False, 0 if max_n is None else max_n)
    full = h * int(arr[-1])
    if max_n is None:
        max_n = full
    window_limited = max_n < full
    arr = arr[arr <= max_n]
    if multiset_is_sparse(arr, h, max_n):
        sums = multiset_sums(arr, h, limit=max_n + 1)
        uniq, cnt = np.unique(sums[sums <= max_n], return_counts=True)
        bad = uniq[cnt > g]
    else:
        bad = np.flatnonzero(repr_multiset(arr, h, max_n).counts > g)
    if bad.size:
        return BhgVerdict(False, int(bad[0]), window_limited, max_n)
    return BhgVerdict(True, None, window_limited, max_n)


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
    zeros = np.nonzero(window == 0)[0]
    last_zero = int(zeros.max()) + n_lo if zeros.size else None
    coverage = float(np.count_nonzero(window) / window.size)
    fit_c, fit_exp, bins, resid = dyadic_fit(n_lo, window)
    return BasisReport(k, n_lo, n_hi, last_zero, coverage, fit_c, fit_exp, bins, resid)


@dataclass(frozen=True)
class DecompositionAudit:
    """Per-target audit of lost 2h-fold representations after deletion.

    lhs counts 2h-multisets over B that use a deleted element; r1 bounds
    those with a repeated term, r2/r3 the strictly increasing ones touching
    a distinct-branch / weighted-branch deletion.  The construction only
    guarantees lhs <= r1 + r2 + r3 (the classes may overlap).
    """

    n: int
    lhs: int
    r1: int
    r2: int
    r3: int

    @property
    def ok(self) -> bool:
        return self.lhs <= self.r1 + self.r2 + self.r3

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["ok"] = self.ok
        return d


def _decomposition_arrays(b, c_set, h: int, n_lo: int, n_hi: int, tables, records=None):
    """lhs, r1, r2, r3 over [n_lo, n_hi]: lhs and r1 are differences of the
    shared `tables`; r2 and r3 count strict tuples meeting the case conditions
    by complement against the tuples avoiding the respective deletion branch."""
    arr = validate_elements(b)
    if records is None:
        records = _col.enumerate_collisions(arr, h)
    expected_c = frozenset(r.largest for r in records)
    if frozenset(int(x) for x in c_set) != expected_c:
        raise ValueError("c_set does not match the deletion set of b")
    c1 = {r.largest for r in records if r.kind == _col.DISTINCT_2H}
    c2 = {r.largest for r in records if r.kind == _col.WEIGHTED}
    k = 2 * h
    vals = arr.tolist()
    a_vals = [x for x in vals if x not in expected_c]
    for table, kind, source in zip(tables, ("multiset", "multiset", "strict"), (vals, a_vals, vals)):
        if table.semantics != (kind, k) or table.max_n < n_hi:
            raise ValueError(f"need a {(kind, k)} table up to {n_hi}, got {table.semantics} up to {table.max_n}")
        if table.source_size != bisect_right(source, table.max_n):
            raise ValueError(f"{kind} table was not built from the expected set")

    def window(table):
        return table.counts[n_lo : n_hi + 1].astype(np.int64)

    full, full_a, strict_all = (window(t) for t in tables)
    lhs = full - full_a
    r1 = full - strict_all
    r2 = strict_all - window(repr_strict([x for x in vals if x not in c1], k, n_hi))
    r3 = strict_all - window(repr_strict([x for x in vals if x not in c2], k, n_hi))
    return lhs, r1, r2, r3


def decomposition_audit_range(
    b, c_set, h: int, n_lo: int, n_hi: int, tables, *, records=None
) -> list[DecompositionAudit]:
    """Audit every target in [n_lo, n_hi]; raises at the first violation.
    `tables` are the 2h-fold tables (multiset of B, multiset of A = B \\ C,
    strict of B) covering n_hi; another kind, length or set raises ValueError."""
    lhs, r1, r2, r3 = (a.tolist() for a in _decomposition_arrays(b, c_set, h, n_lo, n_hi, tables, records))
    audits = [DecompositionAudit(n, *row) for n, row in enumerate(zip(lhs, r1, r2, r3), n_lo)]
    bad = next((audit for audit in audits if not audit.ok), None)
    if bad is not None:
        raise AssertionError(f"decomposition bound violated at n={bad.n}: {bad}")
    return audits


def decomposition_summary(b, c_set, h: int, n_lo: int, n_hi: int, tables, *, records=None) -> dict:
    """Sweep of the decomposition bound; reports violations (none expected)
    and the largest slack r1 + r2 + r3 - lhs seen."""
    lhs, r1, r2, r3 = _decomposition_arrays(b, c_set, h, n_lo, n_hi, tables, records)
    slack = r1 + r2 + r3 - lhs
    return {
        "n_lo": n_lo,
        "n_hi": n_hi,
        "checked": int(lhs.size),
        "violations": int(np.count_nonzero(slack < 0)),
        "max_slack": int(slack.max()) if slack.size else 0,
        "lhs_total": int(lhs.sum()),
    }


def counts_csv(path, n_lo: int, n_hi: int, series: dict[str, np.ndarray]) -> None:
    """Plot-ready CSV of count tables over a window; columns keyed by name."""
    names = list(series)
    if any(len(series[name]) <= n_hi for name in names):
        raise ValueError(f"every series must cover n = {n_hi}")
    with open(path, "w") as fh:
        fh.write("n," + ",".join(names) + "\n")
        write_csv_rows(fh, n_lo, [series[name][n_lo : n_hi + 1] for name in names])
