import numpy as np
import pytest

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
