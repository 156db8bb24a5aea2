import tracemalloc

import numpy as np
import pytest

from bhbasis import fits
from bhbasis.fits import dyadic_fit, ols_loglog
from bhbasis.harness import run_construction


def _dyadic_fit_reference(n_lo: int, values: np.ndarray) -> tuple[float, float, int, float]:
    """The float64-copy formulation of dyadic_fit, kept verbatim as the pin."""
    vals = np.asarray(values, dtype=np.float64)
    n_hi = n_lo + vals.size - 1
    xs, ys = [], []
    lo = n_lo
    while lo <= n_hi:
        hi = min(2 * lo - 1, n_hi)
        block = vals[lo - n_lo : hi - n_lo + 1]
        pos = block > 0
        if pos.any():
            ns = np.arange(lo, hi + 1, dtype=np.float64)[pos]
            xs.append(np.exp(np.mean(np.log(ns))))
            ys.append(np.exp(np.mean(np.log(block[pos]))))
        lo = 2 * lo
    if len(xs) < 2:
        return float("nan"), float("nan"), len(xs), float("nan")
    c, expo, resid = ols_loglog(np.array(xs), np.array(ys))
    return c, expo, len(xs), resid


def _bits(fit) -> tuple:
    c, expo, bins, resid = fit
    return float(c).hex(), float(expo).hex(), bins, float(resid).hex()


def _windows():
    rng = np.random.default_rng(17)
    n = np.arange(1000, 70_000)
    power = np.floor(0.3 * n**0.4 + rng.integers(0, 3, size=n.size)).astype(np.int64)
    holes = power.copy()
    holes[rng.random(n.size) < 0.2] = 0  # zeros in every block
    dead = power.copy()
    dead[3000:6000] = 0  # the block [4000, 8000) mostly, [2000, 4000) partly
    gap = power.copy()
    gap[1000:3000] = 0  # the whole block [2000, 4000)
    yield 1000, power
    yield 1000, holes
    yield 1000, dead
    yield 1000, gap
    sparse_tail = power[:14_000].copy()
    sparse_tail[7000:13_500] = 0  # the partial last block [8000, 15000), the largest, mostly zeros
    yield 1000, sparse_tail
    # blocks of several 2^16-entry pieces: dense pieces, pieces with holes,
    # a run of zeros across a piece edge and partial last pieces
    n = np.arange(3, 400_003)
    long = np.floor(0.3 * n**0.4 + rng.integers(0, 3, size=n.size)).astype(np.int64)
    long[100_000:150_000][rng.random(50_000) < 0.1] = 0
    long[300_000:330_000] = 0
    yield 3, long
    yield 1, power[:40]
    yield 7, holes[:3]
    yield 5, np.zeros(100, dtype=np.int64)
    yield 3, np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.float64])
def test_dyadic_fit_matches_reference_bits(dtype):
    for n_lo, window in _windows():
        values = window.astype(dtype)
        assert _bits(dyadic_fit(n_lo, values)) == _bits(_dyadic_fit_reference(n_lo, values))
    fractions = np.linspace(-0.5, 3.0, 500)  # entries in (0, 1) enter, negatives do not
    assert _bits(dyadic_fit(2, fractions)) == _bits(_dyadic_fit_reference(2, fractions))


def _leaf_sum(values: np.ndarray):
    """fits._pairwise_sum over all of values."""
    taken = 0

    def leaf(m):
        nonlocal taken
        taken += m
        return np.add.reduce(values[taken - m : taken])

    total = fits._pairwise_sum(values.size, leaf)
    assert taken == values.size
    return total


def test_leaf_sums_equal_add_reduce(monkeypatch):
    rng = np.random.default_rng(5)
    lengths = [(n, 128) for n in range(1, 301)]  # 128: the longest run numpy does not split
    lengths += [(2**k + d, fits._PIECE) for k in range(1, 23) for d in (-1, 0, 1)]
    for n, size in lengths:
        monkeypatch.setattr(fits, "_PIECE", size)
        values = rng.random(n) * rng.integers(1, 1000, n)
        got, want = _leaf_sum(values), np.add.reduce(values)
        assert float(got).hex() == float(want).hex(), (
            f"numpy {np.__version__} no longer sums {n} float64 entries in the pairwise order "
            f"fits._pairwise_sum rebuilds from {size}-entry leaves ({float(got).hex()} != "
            f"{float(want).hex()}), so dyadic_fit's means would differ from np.mean"
        )


def test_dyadic_fit_matches_reference_bits_across_leaves():
    # Blocks [3 2^j, 3 2^(j+1)); the last one is partial, holds 2.4e6 > 2^21
    # entries and so about 2e6 positive logs, summed over several levels of
    # _pairwise_sum, and ends in a partial piece.
    n_lo, size = 3, 5_500_003
    lo = 3 * 2**20  # the last block's first target
    piece = fits._PIECE
    rng = np.random.default_rng(23)
    n = np.arange(n_lo, n_lo + size)
    values = (1 + 0.3 * n**0.4 + rng.integers(0, 3, size=n.size)).astype(np.uint16)  # zero-free pieces
    last = values[lo - n_lo :]
    last[3 * piece : 5 * piece][rng.random(2 * piece) < 0.3] = 0  # pieces with holes
    last[7 * piece : 8 * piece] = 0  # an all-zero piece
    last[10 * piece - 500 : 11 * piece + 700] = 0  # zeros across two piece edges
    assert (values.size - (lo - n_lo)) % piece and values.size - (lo - n_lo) > 2**21
    assert _bits(dyadic_fit(n_lo, values)) == _bits(_dyadic_fit_reference(n_lo, values))


def test_dyadic_fit_holds_no_window_sized_buffer():
    rng = np.random.default_rng(9)
    n = np.arange(1, 4 * 10**6 + 1)
    values = np.floor(0.3 * n**0.4 + rng.integers(0, 3, size=n.size)).astype(np.uint16)
    values[rng.random(n.size) < 0.05] = 0
    tracemalloc.start()
    try:
        dyadic_fit(1, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two 2^16-entry float64 buffers and one piece's positions and gathers;
    # the largest block's float64 logs alone would be 16 MiB
    assert peak <= 4 * 2**20, peak


def test_dyadic_fit_refuses_nonpositive_start():
    # dyadic blocks [n_lo 2^j, n_lo 2^(j+1)) never advance from n_lo = 0
    with pytest.raises(ValueError):
        dyadic_fit(0, np.ones(10))


def test_dyadic_fit_matches_golden_fits():
    import json
    import pathlib

    golden = json.loads((pathlib.Path(__file__).parent / "golden" / "report.json").read_text())
    n_lo, n_hi = golden["config"]["window"]
    for rec in golden["records"]:
        run = run_construction(
            2, golden["config"]["n"], rec["seed"], window=(n_lo, n_hi),
            floor=False, keep_tables=True,
        )
        for name in ("basis_b", "basis_a"):
            window = run["_tables"][name].counts[n_lo : n_hi + 1]
            fit = dyadic_fit(n_lo, window)
            assert _bits(fit) == _bits(_dyadic_fit_reference(n_lo, window))
            want = rec[name]
            assert fit == (want["fit_c"], want["fit_exp"], want["fit_bins"], want["fit_resid"])
