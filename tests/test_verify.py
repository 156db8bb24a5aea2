import numpy as np
import pytest

from bhbasis.collisions import DISTINCT_2H, deletion_set, enumerate_collisions
from bhbasis.counting import ReprTable, repr_multiset, repr_strict
from bhbasis.fits import dyadic_fit, theil_sen_slope
from bhbasis.verify import (
    basis_window,
    counts_csv,
    decomposition_audit_range,
    decomposition_summary,
    is_bhg,
)

from tests.oracles import oracle_decomposition
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
        table = repr_multiset(a, h, h * max(a), backend="naive")
        dense_bad = np.nonzero(table.counts > g)[0]
        assert fast.ok == (dense_bad.size == 0)
        if not fast.ok:
            assert fast.witness == int(dense_bad.min())


def test_basis_window_dense_set():
    n = 512
    rep = basis_window(repr_multiset(range(1, n + 1), 4, n), 1, n)
    assert rep.k == 4
    assert rep.last_zero == 3
    assert rep.coverage == pytest.approx((n - 3) / n)


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


def test_decomposition_small_example():
    b = [1, 2, 3, 4]
    c = deletion_set(b, 2)
    audit = decomposition_audit_range(b, c, 2, 10, 10, audit_tables(b, c, 2, 10))[0]
    assert (audit.lhs, audit.r1, audit.r2, audit.r3) == (5, 4, 1, 1)
    assert audit.ok


def test_decomposition_clean_set_is_all_zero_lhs():
    b = [1, 2, 5, 11]
    assert deletion_set(b, 2) == frozenset()
    for audit in decomposition_audit_range(b, (), 2, 1, 4 * 11, audit_tables(b, (), 2, 4 * 11)):
        assert audit.lhs == 0 and audit.ok


def test_decomposition_contract_violation():
    with pytest.raises(ValueError):
        decomposition_audit_range([1, 2, 3, 4], {4}, 2, 10, 10, audit_tables([1, 2, 3, 4], {4}, 2, 10))


def test_decomposition_table_guards():
    b = [1, 2, 3, 4, 7, 11, 13]
    c = deletion_set(b, 2)
    full_b, full_a, strict_b = audit_tables(b, c, 2, 40)
    # longer tables are sliced: the same audit as tables ending at n_hi
    longer = decomposition_audit_range(b, c, 2, 1, 40, audit_tables(b, c, 2, 60))
    assert longer == decomposition_audit_range(b, c, 2, 1, 40, (full_b, full_a, strict_b))
    for tables in (
        (strict_b, full_a, strict_b),  # wrong semantics
        (full_b, full_a, repr_strict(b, 6, 40)),  # wrong fold
        audit_tables(b, c, 2, 39),  # shorter than n_hi
        (full_b, full_b, strict_b),  # the A table is not built from B minus C
    ):
        with pytest.raises(ValueError):
            decomposition_audit_range(b, c, 2, 1, 40, tables)


def test_decomposition_vs_oracle():
    rng = np.random.default_rng(77)
    for _ in range(30):
        b = sorted(rng.choice(np.arange(1, 50), size=rng.integers(4, 14), replace=False).tolist())
        records = enumerate_collisions(b, 2)
        c = deletion_set(b, 2, records=records)
        c1 = {r.largest for r in records if r.kind == DISTINCT_2H}
        c2 = {r.largest for r in records if r.kind != DISTINCT_2H}
        tables = audit_tables(b, c, 2, 4 * max(b))
        audits = decomposition_audit_range(b, c, 2, 1, 4 * max(b), tables, records=records)
        for audit in audits:
            want = oracle_decomposition(b, c1, c2, 2, audit.n)
            assert (audit.lhs, audit.r1, audit.r2, audit.r3) == want, (b, audit.n)
            assert audit.lhs <= audit.r1 + audit.r2 + audit.r3


def test_decomposition_summary_matches_range():
    b = [1, 2, 3, 4, 7, 11, 13]
    c = deletion_set(b, 2)
    summary = decomposition_summary(b, c, 2, 1, 40, audit_tables(b, c, 2, 40))
    audits = decomposition_audit_range(b, c, 2, 1, 40, audit_tables(b, c, 2, 40))
    assert summary["checked"] == len(audits) == 40
    assert summary["violations"] == 0
    assert summary["max_slack"] == max(a.r1 + a.r2 + a.r3 - a.lhs for a in audits)
    assert summary["lhs_total"] == sum(a.lhs for a in audits)


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


def test_counts_csv(tmp_path):
    t_b = repr_multiset([1, 2, 3], 4, 12)
    t_a = repr_multiset([1, 2], 4, 12)
    path = tmp_path / "series.csv"
    counts_csv(str(path), 4, 12, {"count_b": t_b.counts, "count_a": t_a.counts})
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
    for n_lo, n_hi in ((0, 150_000), (70_000, 140_123), (5, 5)):
        path = tmp_path / "series.csv"
        counts_csv(str(path), n_lo, n_hi, series)
        want = "n," + ",".join(series) + "\n"
        for n in range(n_lo, n_hi + 1):
            want += f"{n}," + ",".join(str(int(series[name][n])) for name in series) + "\n"
        assert path.read_bytes() == want.encode()
    with pytest.raises(ValueError):
        counts_csv(str(path), 4, 150_001, series)
