import io
import math

import numpy as np
import pytest

from bhbasis import counting
from bhbasis.counting import (
    ReprTable,
    multiset_sums,
    pairsum_histogram,
    repr_multiset,
    repr_strict,
    repr_weighted,
)
from bhbasis.sampling import ModelParams, inclusion_probability, sample_set

from tests.oracles import (
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
        dp = repr_multiset(a, h, max_n).counts
        naive = repr_multiset(a, h, max_n, backend="naive").counts
        assert np.array_equal(dp, naive)
        assert np.array_equal(dp, oracle_multiset(a, h, max_n))


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
        dp = repr_strict(a, k, max_n).counts
        assert np.array_equal(dp, repr_strict(a, k, max_n, backend="naive").counts)
        assert np.array_equal(dp, oracle_strict(a, k, max_n))


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
        want = oracle_weighted(d, f, max_n)
        for backend in ("naive", "dp"):
            got = repr_weighted(d, f, max_n, backend=backend).counts
            assert np.array_equal(got, want), (d.tolist(), f, backend)


def test_weighted_wide_tuple_partition_backend():
    d = [1, 3, 4, 9, 11]
    f = (1, 1, 2, 1)
    got = repr_weighted(d, f, 60).counts
    assert np.array_equal(got, oracle_weighted(d, f, 60))


def test_pairsum_histogram():
    t = pairsum_histogram([1, 2], 1)
    assert t.counts.tolist() == [0, 1, 1]
    t = pairsum_histogram([1, 2, 3], 2)
    assert {n: int(c) for n, c in enumerate(t.counts) if c} == {2: 1, 3: 1, 4: 2, 5: 1, 6: 1}
    assert int(t.counts.sum()) == math.comb(3 + 2 - 1, 2)


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


_BUILDERS = {"multiset": repr_multiset, "strict": repr_strict, "weighted": repr_weighted}
_ORACLES = {"multiset": oracle_multiset, "strict": oracle_strict, "weighted": oracle_weighted}
# One element far below max_n and 10000 just under it: C(10003, 3) > 2**32
# multisets, of which only about 2e4 have a sum <= max_n.
_TOP_HEAVY = [1, *range(10**6 - 9999, 10**6 + 1)]
# Per semantics, inputs whose documented bound lands in uint16, past it and
# (where cheap) past uint32, each tagged (cheap to enumerate, cheap for the
# oracle).  The oracle sees only elements <= max_n: larger ones reach no target.
_POLICY_CASES = {
    "multiset": [
        (([1, 2, 3], 2, 10), True, True),  # 6
        ((range(1, 363), 2, 400), True, True),  # C(363, 2) = 65703
        ((_TOP_HEAVY, 3, 10**6), True, False),  # C(10003, 3) ~ 1.7e11
    ],
    "strict": [
        (([4, 9, 11], 1, 30), True, True),  # 3
        ((range(1, 65537), 1, 65536), True, True),  # 65536
        (([1, 2, 3, 4], 2, 10), True, True),  # C(4, 2) = 6
        ((range(1, 364), 2, 400), True, True),  # C(363, 2) = 65703
    ],
    "weighted": [
        (([1, 2, 9], (1, 1, 2), 50), True, True),  # 3! = 6
        ((range(1, 258), (1, 1), 300), True, True),  # 257 * 256 = 65792
        ((range(1, 65538), (1, 1), 20), False, True),  # 65537 * 65536 > 2**32
    ],
}
_BEYOND_UINT64 = {
    "multiset": (range(1, 10001), 6, 10000),  # C(10005, 6) ~ 1.4e21
    "strict": (range(1, 10001), 6, 10000),  # C(10000, 6) ~ 1.4e21
    "weighted": (range(1, 10001), (1,) * 6, 10000),  # 10000! / 9994! ~ 1.0e24
}


def _narrowest(bound: int):
    return next(t for t in (np.uint16, np.uint32, np.uint64) if bound < 2 ** (8 * np.dtype(t).itemsize))


def _documented_bound(kind: str, backend: str, a, k, max_n: int) -> int:
    """The bound the counting module's docstring sizes each table from."""
    vals = [x for x in a if x <= max_n]
    if kind == "weighted":
        return math.perm(len(a), len(k))
    if kind == "multiset":
        bound = math.comb(len(vals) + k - 1, k)
    else:
        bound = max(math.comb(len(vals), j) for j in range(k + 1))
    if backend == "naive" or (kind == "strict" and k == 1):
        return bound
    row_bounds = []

    def table(row_bound):
        row_bounds.append(row_bound)
        return np.zeros(max_n + 1, dtype=np.uint64)

    order = "nondecreasing" if kind == "multiset" else "strict"
    counting._add_counts(max_n + 1, np.array(vals, dtype=np.int64), (1,) * k, order, table)
    return min(bound, row_bounds[0])


@pytest.mark.parametrize("backend", ["dp", "naive"])
@pytest.mark.parametrize("kind", ["multiset", "strict", "weighted"])
def test_one_count_dtype_policy(kind, backend):
    build = _BUILDERS[kind]
    other = "naive" if backend == "dp" else "dp"
    dtypes = []
    for (a, k, max_n), enumerable, oracle in _POLICY_CASES[kind]:
        if backend == "naive" and not enumerable:
            continue
        counts = build(a, k, max_n, backend=backend).counts
        dtypes.append(counts.dtype)
        assert counts.dtype == _narrowest(_documented_bound(kind, backend, a, k, max_n)), (a, k)
        if oracle:
            want = _ORACLES[kind]([x for x in a if x <= max_n], k, max_n)
        else:
            want = build(a, k, max_n, backend=other).counts
        assert np.array_equal(counts, want), (a, k)
    assert dtypes[0] == np.uint16  # on both backends, for every semantics
    with pytest.raises(OverflowError, match="uint64") as exc:
        build(*_BEYOND_UINT64[kind], backend=backend)
    assert "wider count dtype" not in str(exc.value)


# Sets whose combinatorial bound exceeds 65535 but whose row bound fits
# uint16, with the kernel's number of sparse rows for each.
_SPREAD = np.sort(np.random.default_rng(1).choice(np.arange(1, 100_001), 200, replace=False))
_NARROW = {
    repr_multiset: [
        (np.arange(1, 36), 4, 10_000, 3),  # one dense row
        (np.arange(1, 101), 3, 3000, 1),  # two dense rows
        (_SPREAD, 3, 300_000, 3),  # every row sparse
    ],
    repr_strict: [
        (np.arange(1, 41), 4, 10_000, 3),
        (np.arange(1, 101), 3, 3000, 1),
        (_SPREAD, 3, 300_000, 3),
    ],
}
_ORDERS = {repr_multiset: "nondecreasing", repr_strict: "strict"}
_REFERENCES = {repr_multiset: oracle_multiset, repr_strict: oracle_strict}


@pytest.mark.parametrize("fn", [repr_multiset, repr_strict])
def test_row_bound_gives_uint16(fn):
    for a, k, max_n, sparse in _NARROW[fn]:
        assert counting._sparse_rows(a.tolist(), (1,) * k, max_n + 1, _ORDERS[fn]) == sparse
        t = fn(a, k, max_n)
        assert t.counts.dtype == np.uint16
        assert np.array_equal(t.counts, _REFERENCES[fn](a.tolist(), k, max_n))
    a, k, max_n, _ = _NARROW[fn][0]
    assert np.array_equal(fn(a, k, max_n).counts, fn(a, k, max_n, backend="naive").counts)


@pytest.mark.parametrize("fn", [repr_multiset, repr_strict])
def test_row_bound_at_uint16_limit(fn):
    # row 1 sparse, rows 2 and 3 dense: the row bound is m**2 for m elements
    for m, dtype in ((255, np.uint16), (256, np.uint32)):
        a = np.arange(1, m + 1)
        assert counting._sparse_rows(a.tolist(), (1, 1, 1), 1000, _ORDERS[fn]) == 1
        t = fn(a, 3, 999)
        assert t.counts.dtype == dtype, m
        assert np.array_equal(t.counts, fn(a, 3, 999, backend="naive").counts)


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


def test_validation_errors():
    with pytest.raises(ValueError):
        repr_multiset([0, 1], 2, 10)
    with pytest.raises(ValueError):
        repr_multiset([1, 2], 0, 10)
    with pytest.raises(ValueError):
        repr_weighted([1, 2], (), 10)
    with pytest.raises(ValueError):
        repr_weighted([1, 2], (1, 0), 10)


def test_binary_and_csv_round_trip(tmp_path):
    t = repr_weighted([1, 2, 9], (1, 1, 2), 50)
    path = tmp_path / "table.bin"
    t.to_binary(str(path))
    back = ReprTable.from_binary(str(path))
    assert back.semantics == t.semantics
    assert back.source_size == t.source_size
    assert np.array_equal(back.counts, t.counts)

    buf = io.StringIO()
    t.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,count"
    assert len(lines) == t.max_n + 2


def test_corrupt_binary_dumps_refused():
    buf = io.BytesIO()
    repr_weighted([1, 2, 9], (1, 1, 2), 50).to_binary(buf)
    dump = buf.getvalue()
    kind_at = len(counting._MAGIC)
    corrupt = [
        dump[:-40],  # counts cut short: the header still says max_n = 50
        dump[: kind_at + 3],  # cut inside the weights' length
        dump[:kind_at] + bytes([9]) + dump[kind_at + 1 :],  # unknown semantics code
    ]
    for data in corrupt:
        with pytest.raises(ValueError):
            ReprTable.from_binary(io.BytesIO(data))
    assert ReprTable.from_binary(io.BytesIO(dump)).max_n == 50


def _row_loop_csv(counts) -> str:
    """The one-row-at-a-time writer the chunked one must match byte for byte."""
    fh = io.StringIO()
    fh.write("n,count\n")
    for n, c in enumerate(counts):
        fh.write(f"{n},{int(c)}\n")
    return fh.getvalue()


def test_csv_bytes_match_row_loop(tmp_path):
    rng = np.random.default_rng(3)
    tables = [
        repr_multiset([1, 2, 3], 2, 6).counts,
        repr_multiset(range(1, 30), 4, 2 * counting._CSV_ROWS + 5).counts,  # three chunks
        np.array([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
        rng.integers(0, 2**31, size=counting._CSV_ROWS, dtype=np.int64),
        np.zeros(0, dtype=np.uint32),
    ]
    for counts in tables:
        t = ReprTable(counts, ("multiset", 2), 3)
        path = tmp_path / "table.csv"
        t.to_csv(str(path))
        assert path.read_bytes() == _row_loop_csv(counts).encode()


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
