import numpy as np
import pytest

from bhbasis import cli
from bhbasis.collisions import DISTINCT_2H, deletion_set, enumerate_collisions
from bhbasis.counting import ReprTable, repr_multiset, repr_strict
from bhbasis.fits import dyadic_fit, theil_sen_slope
from bhbasis.verify import _decomposition_arrays, basis_window, decomposition_summary, is_bhg

from tests.oracles import oracle_decomposition, oracle_multiset
from tests.tables import audit_tables


def test_is_bhg_examples():
    assert is_bhg([1, 2, 5, 11], 2, 1).ok is True
    bad = is_bhg([1, 2, 3], 2, 1)
    assert bad.ok is False and bad.witness == 4
    assert is_bhg([], 3, 1).ok is True
    assert is_bhg([42], 3, 1).ok is True
    # a few large elements: decided without a table of width h * max(a)
    assert is_bhg([1, 10**10], 2, 1).ok is True
    bad = is_bhg([10**10, 2 * 10**10, 3 * 10**10], 2, 1)
    assert bad.ok is False and bad.witness == 4 * 10**10


def test_is_bhg_window_flag():
    full = is_bhg([1, 2, 5, 11], 2, 1)
    assert full.window_limited is False and full.max_n == 22
    partial = is_bhg([1, 2, 5, 11], 2, 1, max_n=10)
    assert partial.window_limited is True


def test_is_bhg_methods_agree():
    rng = np.random.default_rng(8)
    for _ in range(40):
        a = sorted(rng.choice(np.arange(1, 100), size=rng.integers(2, 15), replace=False).tolist())
        h = int(rng.integers(2, 4))
        g = int(rng.integers(1, 3))
        fast = is_bhg(a, h, g)
        dense_bad = np.nonzero(oracle_multiset(a, h, h * max(a)) > g)[0]
        assert fast.ok == (dense_bad.size == 0)
        if not fast.ok:
            assert fast.witness == int(dense_bad.min())


def test_basis_window_dense_set():
    n = 512
    rep = basis_window(repr_multiset(range(1, n + 1), 4, n), 1, n)
    assert rep.k == 4
    assert rep.last_zero == 3
    assert rep.coverage == pytest.approx((n - 3) / n)


def test_basis_window_last_zero_at_the_window_edges():
    counts = np.ones(101, dtype=np.uint16)
    for zeros, want in (([10], 10), ([100], 100), ([10, 57], 57), ([], None), ([5], None)):
        table = counts.copy()
        table[zeros] = 0
        rep = basis_window(ReprTable(table, ("multiset", 4), 0), 10, 100)
        assert rep.last_zero == want, zeros


def test_exact_power_law_recovery():
    # real-valued exact power law: geometric-mean binning keeps log-log
    # affine, so the exponent comes back to float precision
    n_lo, n_hi = 1024, 1024 * 256 - 1
    ns = np.arange(n_lo, n_hi + 1, dtype=np.float64)
    values = 3.7 * ns ** (1.0 / 7.0)
    c, expo, bins, resid = dyadic_fit(n_lo, values)
    assert abs(expo - 1.0 / 7.0) < 1e-6
    assert abs(c - 3.7) / 3.7 < 1e-6
    assert resid < 1e-20


def test_injected_ceil_power_law_table():
    n_lo, n_hi = 1 << 17, 1 << 26
    counts = np.ceil(np.arange(0, n_hi + 1, dtype=np.float64) ** (1.0 / 7.0)).astype(np.uint8)
    table = ReprTable(counts, ("multiset", 4), 0)
    rep = basis_window(table, n_lo, n_hi)
    assert abs(rep.fit_exp - 1.0 / 7.0) < 0.01
    assert rep.coverage == 1.0 and rep.last_zero is None


def test_basis_window_validation():
    table = repr_multiset([1, 2], 2, 10)
    with pytest.raises(ValueError):
        basis_window(table, 5, 4)
    with pytest.raises(ValueError):
        basis_window(repr_strict([1, 2], 2, 10), 1, 10)
    with pytest.raises(ValueError):
        basis_window(table, 1, 50)


def _audit_rows(b, n_lo, n_hi, tables, records):
    """Per-target (n, lhs, r1, r2, r3) of the h = 2 audit over [n_lo, n_hi]."""
    arrays = _decomposition_arrays(b, 2, n_lo, n_hi, tables, records)
    return [(n, *row) for n, row in enumerate(zip(*(a.tolist() for a in arrays)), n_lo)]


def test_decomposition_small_example():
    b = [1, 2, 3, 4]
    records = enumerate_collisions(b, 2)
    [(_, lhs, r1, r2, r3)] = _audit_rows(b, 10, 10, audit_tables(b, records, 2, 10), records)
    assert (lhs, r1, r2, r3) == (5, 4, 1, 1)
    assert lhs <= r1 + r2 + r3


def test_decomposition_clean_set_is_all_zero_lhs():
    b = [1, 2, 5, 11]
    records = enumerate_collisions(b, 2)
    assert deletion_set(records) == frozenset()
    rows = _audit_rows(b, 1, 4 * 11, audit_tables(b, records, 2, 4 * 11), records)
    assert len(rows) == 4 * 11
    for _, lhs, r1, r2, r3 in rows:
        assert lhs == 0 and lhs <= r1 + r2 + r3


def test_decomposition_table_guards():
    b = [1, 2, 3, 4, 7, 11, 13]
    records = enumerate_collisions(b, 2)
    full_b, full_a, strict_b = audit_tables(b, records, 2, 40)
    # longer tables are sliced: the same audit as tables ending at n_hi
    longer = _decomposition_arrays(b, 2, 1, 40, audit_tables(b, records, 2, 60), records)
    exact = _decomposition_arrays(b, 2, 1, 40, (full_b, full_a, strict_b), records)
    assert all(np.array_equal(x, y) for x, y in zip(longer, exact, strict=True))
    for tables in (
        (strict_b, full_a, strict_b),  # wrong semantics
        (full_b, full_a, repr_strict(b, 6, 40)),  # wrong fold
        audit_tables(b, records, 2, 39),  # shorter than n_hi
        (full_b, full_b, strict_b),  # the A table is not built from B minus C
    ):
        with pytest.raises(ValueError):
            _decomposition_arrays(b, 2, 1, 40, tables, records)


def test_decomposition_vs_oracle():
    rng = np.random.default_rng(77)
    for _ in range(30):
        b = sorted(rng.choice(np.arange(1, 50), size=rng.integers(4, 14), replace=False).tolist())
        records = enumerate_collisions(b, 2)
        c1 = {r.largest for r in records if r.kind == DISTINCT_2H}
        c2 = {r.largest for r in records if r.kind != DISTINCT_2H}
        tables = audit_tables(b, records, 2, 4 * max(b))
        for n, lhs, r1, r2, r3 in _audit_rows(b, 1, 4 * max(b), tables, records):
            want = oracle_decomposition(b, c1, c2, 2, n)
            assert (lhs, r1, r2, r3) == want, (b, n)
            assert lhs <= r1 + r2 + r3


def test_decomposition_summary_matches_range():
    b = [1, 2, 3, 4, 7, 11, 13]
    records = enumerate_collisions(b, 2)
    tables = audit_tables(b, records, 2, 40)
    summary = decomposition_summary(b, 2, 1, 40, tables, records)
    rows = _audit_rows(b, 1, 40, tables, records)
    assert summary["checked"] == len(rows) == 40
    assert summary["violations"] == 0
    assert summary["max_slack"] == max(r1 + r2 + r3 - lhs for _, lhs, r1, r2, r3 in rows)
    assert summary["lhs_total"] == sum(row[1] for row in rows)


def test_truncation_exactness():
    # counts over the truncated set equal counts over the full set at
    # targets inside the window: all parts of a representation of n are <= n
    full = [1, 4, 9, 40, 120]
    n_win = 30
    truncated = [x for x in full if x <= n_win]
    t_full = repr_multiset(full, 3, n_win)
    t_trunc = repr_multiset(truncated, 3, n_win)
    assert np.array_equal(t_full.counts, t_trunc.counts)


def test_theil_sen_flat_and_sloped():
    x = np.log(np.arange(10, 200, dtype=np.float64))
    assert abs(theil_sen_slope(x, 0 * x + 3.0)) < 1e-12
    assert theil_sen_slope(x, 0.25 * x + 1.0) == pytest.approx(0.25, abs=1e-9)


def _series_csv(out, n_lo: int, n_hi: int, series: dict) -> None:
    """The count series CSV as `construct --series` writes it."""
    columns = [range(n_lo, n_hi + 1)] + [counts[n_lo : n_hi + 1] for counts in series.values()]
    cli._write_csv(str(out), "series.csv", ["n", *series], columns)


def test_counts_csv(tmp_path):
    t_b = repr_multiset([1, 2, 3], 4, 12)
    t_a = repr_multiset([1, 2], 4, 12)
    path = tmp_path / "series.csv"
    _series_csv(tmp_path, 4, 12, {"count_b": t_b.counts, "count_a": t_a.counts})
    lines = path.read_text().splitlines()
    assert lines[0] == "n,count_b,count_a"
    assert len(lines) == 1 + (12 - 4 + 1)


def test_counts_csv_bytes_match_row_loop(tmp_path):
    """The chunked writer against the one-row-at-a-time one it replaced."""
    rng = np.random.default_rng(8)
    series = {
        "count_b": repr_multiset(range(1, 30), 4, 150_000).counts,
        "count_a": rng.integers(0, 2**32, size=150_001, dtype=np.uint64),
        "wide": np.full(150_001, 2**64 - 1, dtype=np.uint64),
    }
    path = tmp_path / "series.csv"
    for n_lo, n_hi in ((0, 150_000), (70_000, 140_123), (5, 5)):
        _series_csv(tmp_path, n_lo, n_hi, series)
        want = "n," + ",".join(series) + "\n"
        for n in range(n_lo, n_hi + 1):
            want += f"{n}," + ",".join(str(int(series[name][n])) for name in series) + "\n"
        assert path.read_bytes() == want.encode()
    # a window past the series' end leaves its slices short of the n column
    with pytest.raises(ValueError):
        _series_csv(tmp_path, 4, 150_001, series)
