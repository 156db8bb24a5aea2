import io
import math

import numpy as np
import pytest

from bhbasis import cli, counting
from bhbasis.collisions import construct_a
from bhbasis.counting import (
    multiset_sums,
    repr_multiset,
    repr_strict,
    repr_weighted,
)
from bhbasis.harness import default_one_sided
from bhbasis.sampling import ModelParams, inclusion_probability, sample_set

from tests.oracles import (
    oracle_index_tuples,
    oracle_multiset,
    oracle_strict,
    oracle_strict_tuple_expectation,
    oracle_weighted,
)


def test_multiset_examples():
    t = repr_multiset([1, 2, 3], 2, 6)
    assert t.counts.tolist() == [0, 0, 1, 1, 2, 1, 1]
    assert repr_multiset([], 3, 10).counts.tolist() == [0] * 11
    assert t.semantics == ("multiset", 2)


# Fixed inputs that put the kernel's sparse/dense switch at every row:
# consecutive runs of small integers against narrow or wide windows.
_MULTISET_SWITCHES = [
    (np.arange(1, 26), 3, 30),  # every row dense
    (np.arange(1, 26), 3, 200),  # row 1 sparse, rows 2 and 3 dense
    (np.arange(1, 101), 3, 3000),  # row 2 would hold more sums than a dense row
    (np.arange(1, 11), 3, 2000),  # every row sparse
    (np.arange(1, 101), 2, 3000),  # every row sparse, top row wider than a dense row
    (np.arange(1, 31), 4, 10000),  # rows 1-3 sparse, top row dense
]


def test_multiset_random_vs_naive():
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(60):
        size = rng.integers(0, 30)
        a = rng.choice(np.arange(1, 201), size=size, replace=False)
        h = int(rng.integers(1, 4))
        max_n = int(rng.integers(10, 620))
        cases.append((a, h, max_n))
    for a, h, max_n in cases + _MULTISET_SWITCHES:
        assert np.array_equal(repr_multiset(a, h, max_n).counts, oracle_multiset(a, h, max_n))


def test_strict_examples():
    t = repr_strict([1, 2, 3, 4], 2, 7)
    assert t.counts[5] == 2
    assert t.counts[7] == 1
    assert repr_strict([1, 2], 2, 3).counts[3] == 1
    # k = 1 forces largest part < target, so every count vanishes
    assert repr_strict([4, 9, 11], 1, 30).counts.tolist() == [0] * 31


def test_strict_random_vs_naive():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(60):
        size = rng.integers(0, 28)
        a = rng.choice(np.arange(1, 151), size=size, replace=False)
        k = int(rng.integers(1, 5))
        max_n = int(rng.integers(10, 450))
        cases.append((a, k, max_n))
    # every row dense; every row sparse; row 2 wider than a dense row
    switches = [(np.arange(1, 21), 2, 25), (np.arange(1, 11), 3, 2000), (np.arange(1, 101), 3, 3000)]
    for a, k, max_n in cases + switches:
        assert np.array_equal(repr_strict(a, k, max_n).counts, oracle_strict(a, k, max_n))


def test_weighted_examples():
    t = repr_weighted([1, 2, 3], (1, 2), 8)
    assert t.counts[5] == 2
    assert t.counts.sum() == 6
    single = repr_weighted([5], (3,), 20)
    assert single.counts[15] == 1 and single.counts.sum() == 1


def test_weighted_random_vs_naive_all_backends():
    rng = np.random.default_rng(99)
    cases = []
    for _ in range(40):
        size = rng.integers(0, 20)
        d = rng.choice(np.arange(1, 101), size=size, replace=False)
        f = tuple(int(x) for x in rng.integers(1, 4, size=rng.integers(1, 4)))
        max_n = int(rng.integers(10, 700))
        cases.append((d, f, max_n))
    # t = 3 with every row dense, every row sparse, and row 2 wider than a dense row
    switches = [(np.arange(1, 21), (1, 1, 2), 30), (np.arange(1, 9), (2, 1, 1), 3000), (np.arange(1, 61), (1, 1, 2), 1500)]
    for d, f, max_n in cases + switches:
        got = repr_weighted(d, f, max_n).counts
        assert np.array_equal(got, oracle_weighted(d, f, max_n)), (d.tolist(), f)


@pytest.mark.parametrize("h", [2, 3])
def test_weighted_groups_equal_moebius_terms(h, monkeypatch):
    # one kernel call per multiset of block weights whose coefficients do
    # not cancel; the tables equal the oracle on every tracked spec
    calls = []
    kernel = counting._add_counts

    def counted(width, vals, weights, order, table, sign=1):
        calls.append((weights, sign))
        return kernel(width, vals, weights, order, table, sign)

    monkeypatch.setattr(counting, "_add_counts", counted)
    d = np.sort(np.random.default_rng(h).choice(np.arange(1, 120), size=14, replace=False))
    for f in default_one_sided(h):
        calls.clear()
        max_n = int(sum(f)) * 90
        got = repr_weighted(d, f, max_n).counts
        assert np.array_equal(got, oracle_weighted(d, f, max_n)), f
        assert len({w for w, _ in calls}) == len(calls) and all(sign for _, sign in calls)
        if f == (1, 1, 1):
            assert calls == [((3,), 2), ((1, 2), -3), ((1, 1, 1), 1)]
        if f == (2, 1, 1):
            assert len(calls) == 4


def test_weighted_wide_tuple_partition_backend():
    d = [1, 3, 4, 9, 11]
    f = (1, 1, 2, 1)
    got = repr_weighted(d, f, 60).counts
    assert np.array_equal(got, oracle_weighted(d, f, 60))


def test_mass_conservation_and_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = sorted(rng.choice(np.arange(1, 80), size=rng.integers(2, 14), replace=False).tolist())
        h = int(rng.integers(1, 4))
        t = repr_multiset(a, h, h * max(a))
        assert int(t.counts.sum()) == math.comb(len(a) + h - 1, h)
        extra = int(rng.integers(80, 120))
        wider = repr_multiset(a + [extra], h, h * max(a))
        assert np.all(wider.counts >= t.counts)


def test_overflow_is_loud():
    # C(10005, 6) ~ 1.4e21 multisets: beyond uint64, refused before any table exists
    with pytest.raises(OverflowError, match="uint64"):
        repr_multiset(range(1, 10001), 6, 10000)


def test_one_path_per_table():
    # "dp" is the only backend repr_multiset and repr_strict accept, and
    # repr_weighted takes no backend at all
    for build in (repr_multiset, repr_strict):
        assert np.array_equal(build([1, 2, 5], 2, 12, backend="dp").counts, build([1, 2, 5], 2, 12).counts)
        for backend in ("naive", "DP", ""):
            with pytest.raises(ValueError, match=f"unknown backend {backend!r}"):
                build([1, 2, 5], 2, 12, backend=backend)
    with pytest.raises(TypeError, match="backend"):
        repr_weighted([1, 2, 5], (1, 2), 12, backend="dp")


_BUILDERS = {"multiset": repr_multiset, "strict": repr_strict, "weighted": repr_weighted}
_ORACLES = {"multiset": oracle_multiset, "strict": oracle_strict, "weighted": oracle_weighted}
# One element far below max_n and 10000 just under it: C(10003, 3) > 2**32
# multisets, too many for the itertools oracle.  Only {1, 1, 1} and
# {1, 1, x} have a sum <= max_n, since 1 + x + y > max_n for x, y > 1.
_TOP_HEAVY = [1, *range(10**6 - 9999, 10**6 + 1)]


def _top_heavy_table(max_n: int) -> np.ndarray:
    want = np.zeros(max_n + 1, dtype=np.int64)
    want[3] = 1
    want[[2 + x for x in _TOP_HEAVY[1:] if 2 + x <= max_n]] = 1
    return want


# Per semantics, inputs whose documented bound lands in uint16, past it and
# (where cheap) past uint32.
_POLICY_CASES = {
    "multiset": [
        ([1, 2, 3], 2, 10),  # 6
        (range(1, 363), 2, 400),  # C(363, 2) = 65703
        (_TOP_HEAVY, 3, 10**6),  # C(10003, 3) ~ 1.7e11
    ],
    "strict": [
        ([4, 9, 11], 1, 30),  # 3
        (range(1, 65537), 1, 65536),  # 65536
        ([1, 2, 3, 4], 2, 10),  # C(4, 2) = 6
        (range(1, 364), 2, 400),  # C(363, 2) = 65703
    ],
    "weighted": [
        ([1, 2, 9], (1, 1, 2), 50),  # 3! = 6
        (range(1, 258), (1, 1), 300),  # 257 * 256 = 65792
        (range(1, 65538), (1, 1), 20),  # 65537 * 65536 > 2**32
    ],
}
_BEYOND_UINT64 = {
    "multiset": (range(1, 10001), 6, 10000),  # C(10005, 6) ~ 1.4e21
    "strict": (range(1, 10001), 6, 10000),  # C(10000, 6) ~ 1.4e21
    "weighted": (range(1, 10001), (1,) * 6, 10000),  # 10000! / 9994! ~ 1.0e24
}


def _narrowest(bound: int):
    return next(t for t in (np.uint16, np.uint32, np.uint64) if bound < 2 ** (8 * np.dtype(t).itemsize))


def _documented_bound(kind: str, a, k, max_n: int) -> int:
    """The bound the counting module's docstring sizes each table from."""
    vals = [x for x in a if x <= max_n]
    if kind == "weighted":
        return math.perm(len(a), len(k))
    if kind == "multiset":
        bound = math.comb(len(vals) + k - 1, k)
    else:
        bound = max(math.comb(len(vals), j) for j in range(k + 1))
    if kind == "strict" and k == 1:
        return bound
    row_bounds = []

    def table(row_bound):
        row_bounds.append(row_bound)
        return np.zeros(max_n + 1, dtype=np.uint64)

    order = "nondecreasing" if kind == "multiset" else "strict"
    counting._add_counts(max_n + 1, np.array(vals, dtype=np.int64), (1,) * k, order, table)
    return min(bound, row_bounds[0])


@pytest.mark.parametrize("kind", ["multiset", "strict", "weighted"])
def test_one_count_dtype_policy(kind):
    build = _BUILDERS[kind]
    dtypes = []
    for a, k, max_n in _POLICY_CASES[kind]:
        counts = build(a, k, max_n).counts
        dtypes.append(counts.dtype)
        assert counts.dtype == _narrowest(_documented_bound(kind, a, k, max_n)), (a, k)
        if a is _TOP_HEAVY:
            want = _top_heavy_table(max_n)
        else:  # the oracle sees only elements <= max_n: larger ones reach no target
            want = _ORACLES[kind]([x for x in a if x <= max_n], k, max_n)
        assert np.array_equal(counts, want), (a, k)
    assert dtypes[0] == np.uint16  # for every semantics
    with pytest.raises(OverflowError, match="uint64") as exc:
        build(*_BEYOND_UINT64[kind])
    assert "wider count dtype" not in str(exc.value)


# Sets whose combinatorial bound exceeds 65535 but whose row bound fits
# uint16, with the number of dense rows the kernel builds for each: 0 when
# every row is sparse, 1 for the segmented top row, 2 at full width.
_SPREAD = np.sort(np.random.default_rng(1).choice(np.arange(1, 100_001), 200, replace=False))
_WIDE = np.sort(np.random.default_rng(2).choice(np.arange(1, 300_001), 80, replace=False))
_NARROW = {
    repr_multiset: [
        (np.arange(1, 36), 4, 10_000, 2),
        (np.arange(1, 101), 3, 3000, 2),
        (_SPREAD, 3, 300_000, 1),
        (_WIDE, 3, 1_000_000, 0),
    ],
    repr_strict: [
        (np.arange(1, 41), 4, 10_000, 2),
        (np.arange(1, 101), 3, 3000, 2),
        (_SPREAD, 3, 300_000, 1),
        (_WIDE, 3, 1_000_000, 0),
    ],
}
_REFERENCES = {repr_multiset: oracle_multiset, repr_strict: oracle_strict}


@pytest.fixture
def dense_rows(monkeypatch):
    """Per kernel call, in call order, the number of dense rows it built: 0
    when it scattered the top row, 1 for the segmented top row, and t - held
    when it built its dense rows at full width."""
    calls = []
    sparse_rows, segmented = counting._sparse_rows, counting._add_segmented_top_row

    def spy_rows(xs, weights, *rest):
        held, sums, ends = sparse_rows(xs, weights, *rest)
        calls.append(0 if held == len(weights) - 1 else len(weights) - held)
        return held, sums, ends

    def spy_segmented(*args):
        calls[-1] = 1
        return segmented(*args)

    monkeypatch.setattr(counting, "_sparse_rows", spy_rows)
    monkeypatch.setattr(counting, "_add_segmented_top_row", spy_segmented)
    return calls


@pytest.mark.parametrize("fn", [repr_multiset, repr_strict])
def test_row_bound_gives_uint16(fn, dense_rows):
    for a, k, max_n, dense in _NARROW[fn]:
        t = fn(a, k, max_n)
        assert dense_rows[-1] == dense, (len(a), k, max_n)
        assert t.counts.dtype == np.uint16
        assert np.array_equal(t.counts, _REFERENCES[fn](a.tolist(), k, max_n))


@pytest.mark.parametrize("fn", [repr_multiset, repr_strict])
def test_row_bound_at_uint16_limit(fn, dense_rows):
    # row 1 sparse, rows 2 and 3 dense: the row bound is m**2 for m elements
    for m, dtype in ((255, np.uint16), (256, np.uint32)):
        a = np.arange(1, m + 1)
        t = fn(a, 3, 999)
        assert dense_rows[-1] == 2
        assert t.counts.dtype == dtype, m
        assert np.array_equal(t.counts, _REFERENCES[fn](a.tolist(), 3, 999))


def test_row_bound_covers_every_entry():
    rng = np.random.default_rng(41)
    for _ in range(150):
        vals = np.sort(rng.choice(np.arange(1, 301), size=rng.integers(0, 40), replace=False))
        order = ("nondecreasing", "strict", "unordered")[rng.integers(0, 3)]
        t = int(rng.integers(1, 5))
        weights = (1,) * t if order != "unordered" else tuple(rng.integers(1, 4, size=t).tolist())
        width = int(rng.integers(10, 1500))
        bounds = []

        def table(bound):
            bounds.append(bound)
            return np.zeros(width, dtype=np.uint64)

        out = counting._add_counts(width, vals, weights, order, table)
        assert bounds[0] >= int(out.max()), (vals.tolist(), order, weights, width)


# Tables the kernel builds as one dense row on its last sparse row, which it
# adds a source segment at a time: (order, weights, values, width).
_SEGMENTED = [
    ("nondecreasing", (2, 3), range(1, 66), 400),
    ("nondecreasing", (1, 2), range(5, 60), 300),
    ("strict", (3, 2), range(1, 66), 350),
    ("strict", (2, 2, 1), range(1, 30), 1000),
    ("unordered", (3, 1, 2), range(1, 13), 900),
    # the elements 1990 and 1995 shift the table but end no held tuple:
    # their groups of the last sparse row are empty
    ("nondecreasing", (1, 1, 1), [*range(11, 41), 1990, 1995], 2000),
    ("strict", (1, 1, 1), [*range(11, 51), 1990, 1995], 2000),
    ("unordered", (1, 2, 1), [*range(11, 31), 990, 1995], 2000),
    # one dense row on row 0: its empty tuple is the group before index 0
    ("nondecreasing", (1,), range(180, 200), 200),
    ("strict", (1,), range(180, 200), 200),
    ("unordered", (2,), range(90, 100), 200),
]


@pytest.mark.parametrize("segment_bytes", [16, 24, counting._SEGMENT_BYTES])
@pytest.mark.parametrize("order, weights, vals, width", _SEGMENTED)
def test_segmented_top_row_vs_oracle(order, weights, vals, width, segment_bytes, monkeypatch, dense_rows):
    monkeypatch.setattr(counting, "_SEGMENT_BYTES", segment_bytes)
    vals = np.array(vals, dtype=np.int64)
    want = oracle_index_tuples(vals.tolist(), weights, order, width - 1)
    assert want.any()
    # a uint16 table counted once and an int64 one at sign -2: segments of
    # 8 and 2, or 12 and 3 entries, shorter than the largest element's shift
    assert weights[-1] * int(vals[-1]) > 12
    got = counting._add_counts(width, vals, weights, order, np.zeros(width, dtype=np.uint16))
    assert got.dtype == np.uint16 and np.array_equal(got, want)
    got = counting._add_counts(width, vals, weights, order, np.zeros(width, dtype=np.int64), -2)
    assert np.array_equal(got, -2 * want)
    assert dense_rows == [1, 1]


def test_segmented_top_row_random_sweep(monkeypatch, dense_rows):
    monkeypatch.setattr(counting, "_SEGMENT_BYTES", 40)
    rng = np.random.default_rng(43)
    for _ in range(150):
        vals = np.sort(rng.choice(np.arange(1, 301), size=rng.integers(0, 30), replace=False))
        order = ("nondecreasing", "strict", "unordered")[rng.integers(0, 3)]
        t = int(rng.integers(1, 4))
        weights = tuple(rng.integers(1, 4, size=t).tolist())
        width = int(rng.integers(10, 1500))
        bounds = []

        def table(bound):
            bounds.append(bound)
            return np.zeros(width, dtype=np.uint64)

        out = counting._add_counts(width, vals, weights, order, table)
        assert np.array_equal(out, oracle_index_tuples(vals.tolist(), weights, order, width - 1)), (vals.tolist(), order, weights, width)
        assert bounds[0] >= int(out.max())
    assert dense_rows.count(1) >= 30


def _sampled_a(n: int, seed: int) -> np.ndarray:
    """A = B minus its collision deletions, as criterion 3 builds it (h = 2)."""
    return np.array(construct_a(sample_set(ModelParams(2, n, seed)).elements, 2))


_STRICT_WIDE = np.sort(np.random.default_rng(5).choice(np.arange(1, 1501), 72, replace=False))


def _multiset_oracle(a, max_n):
    return oracle_index_tuples(a, (1,) * 4, "nondecreasing", max_n)


def _strict_oracle(a, max_n):
    return oracle_strict(a, 4, max_n)


# 4-fold tables whose top-row path the cost model decides: (elements,
# builder, oracle, max_n, dense rows the kernel builds).
_PRICED = {
    # shaped like A at N = 1e7 (|A| = 105-199 over [1, 1e7]), scaled down to
    # |A| = 49 over [1, 1e5]: segmented
    "spread A": (lambda: _sampled_a(10**5, 2), repr_multiset, _multiset_oracle, 4 * 10**5, 1),
    # |A| = 17 over [1, 1e4]: too few sums to pay for streaming the table
    "small A": (lambda: _sampled_a(10**4, 1), repr_multiset, _multiset_oracle, 4 * 10**4, 0),
    # C(72, 3) = 59,640 index triples over a table 55,001 wide: row 3 stays
    # sparse and carries the segmented top row
    "strict wide": (lambda: _STRICT_WIDE, repr_strict, _strict_oracle, 55_000, 1),
}


@pytest.mark.parametrize("name", list(_PRICED))
def test_priced_top_row_vs_oracle(name, dense_rows, monkeypatch):
    elements, build, oracle, max_n, dense = _PRICED[name]
    a = elements()
    got = build(a, 4, max_n).counts
    assert dense_rows == [dense]
    assert np.array_equal(got, oracle(a.tolist(), max_n))
    # the other top-row path builds the same table in the same dtype
    priced = counting._scatters_top_row
    monkeypatch.setattr(counting, "_scatters_top_row", lambda *args: not priced(*args))
    other = build(a, 4, max_n).counts
    assert dense_rows == [dense, 1 - dense]
    assert got.dtype == other.dtype == np.uint16 and np.array_equal(got, other)


def test_moebius_term_stays_on_scatter(dense_rows, monkeypatch):
    # B at N = 1e4 (53 elements) and the weights (1, 3): the int64 table is
    # sum(f) * max B wide and the term is counted at sign -1
    d = sample_set(ModelParams(2, 10**4, 3)).elements
    width = 4 * d[-1] + 1
    want = oracle_index_tuples(d, (1, 3), "unordered", width - 1)
    got = counting._add_counts(width, np.array(d), (1, 3), "unordered", np.zeros(width, dtype=np.int64), -1)
    assert dense_rows == [0]
    assert got.dtype == np.int64 and np.array_equal(got, -want)
    table = repr_weighted(d, (1, 3), width - 1).counts
    assert dense_rows == [0, 0, 0]  # both Moebius terms, (1, 3) and (4,)
    assert table.dtype == _narrowest(math.perm(len(d), 2))
    assert np.array_equal(table, oracle_weighted(d, (1, 3), width - 1))
    priced = counting._scatters_top_row
    monkeypatch.setattr(counting, "_scatters_top_row", lambda *args: not priced(*args))
    other = counting._add_counts(width, np.array(d), (1, 3), "unordered", np.zeros(width, dtype=np.int64), -1)
    assert dense_rows[-1] == 1 and np.array_equal(other, got)


# multiset_is_sparse on criterion 2's sets (N = 1e5, seeds 21-40): True
# except for these (h, seed) of A, each a set of 2-4 elements.
_TABLE_PATH = {(3, 24), (3, 27), (3, 32), (3, 35), (3, 38)}


def test_is_bhg_path_unchanged_on_criterion_2_sets():
    for h in (2, 3):
        for seed in range(21, 41):
            b = sample_set(ModelParams(h, 10**5, seed)).elements
            a = construct_a(b, h)
            assert counting.multiset_is_sparse(b, h, h * b[-1])
            assert counting.multiset_is_sparse(a, h, h * a[-1]) == ((h, seed) not in _TABLE_PATH), (h, seed)


def test_validation_errors():
    with pytest.raises(ValueError):
        repr_multiset([0, 1], 2, 10)
    with pytest.raises(ValueError):
        repr_multiset([1, 2], 0, 10)
    with pytest.raises(ValueError):
        repr_weighted([1, 2], (), 10)
    with pytest.raises(ValueError):
        repr_weighted([1, 2], (1, 0), 10)


def _row_loop_csv(counts) -> str:
    """The one-row-at-a-time writer the chunked one must match byte for byte."""
    fh = io.StringIO()
    for n, c in enumerate(counts):
        fh.write(f"{n},{int(c)}\n")
    return fh.getvalue()


def test_csv_bytes_match_row_loop(tmp_path, capsys):
    rng = np.random.default_rng(3)
    tables = [
        repr_multiset([1, 2, 3], 2, 6).counts,
        repr_multiset(range(1, 30), 4, 2 * cli._CSV_ROWS + 5).counts,  # three chunks
        np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
        rng.integers(0, 2**31, size=cli._CSV_ROWS, dtype=np.int64),
        np.zeros(0, dtype=np.uint32),
    ]
    path = tmp_path / "counts.csv"
    for counts in tables:
        cli._write_csv(str(tmp_path), path.name, ("n", "count"), [range(len(counts)), counts])
        assert path.read_bytes() == ("n,count\n" + _row_loop_csv(counts)).encode()
    assert capsys.readouterr().out.splitlines() == [str(path)] * len(tables)
    # unequal columns are refused before the file is opened
    with pytest.raises(ValueError):
        cli._write_csv(str(tmp_path), "short.csv", ("n", "count"), [range(8), tables[0]])
    assert not (tmp_path / "short.csv").exists()


def test_multiset_sums_enumeration():
    a = [2, 3, 10]
    sums = sorted(multiset_sums(a, 2).tolist())
    assert sums == [4, 5, 6, 12, 13, 20]
    with pytest.raises(ValueError):
        multiset_sums(range(1, 2000), 4, limit=1000)


def test_tables_are_immutable():
    t = repr_multiset([1, 2], 2, 4)
    with pytest.raises(ValueError):
        t.counts[0] = 5


def test_strict_mean_matches_model():
    """Ties counting to the random model: the empirical mean of the strict
    k-count equals the sum over increasing k-tuples of the product of
    inclusion probabilities, within four standard errors."""
    h, n_win, m = 2, 200, 400
    params0 = ModelParams(h, n_win, 0)
    incl = lambda x: inclusion_probability(x, params0)
    targets = [(2, 60), (2, 200), (3, 120)]
    samples = {t: [] for t in targets}
    for seed in range(m):
        s = sample_set(ModelParams(h, n_win, seed))
        for k, n in targets:
            table = repr_strict(s.elements, k, n)
            samples[(k, n)].append(int(table.counts[n]))
    for (k, n), vals in samples.items():
        want = oracle_strict_tuple_expectation(n, k, incl)
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / m**0.5
        assert abs(mean - want) <= 4 * max(se, 1e-9), (k, n, mean, want, se)
