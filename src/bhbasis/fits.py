"""Log-log fitting utilities for growth-rate diagnostics."""

from __future__ import annotations

import numpy as np

_THEIL_SEN_POINTS = 400
# dyadic_fit reads each block, and sums its logs, in pieces of this many entries
_PIECE = 1 << 16


def ols_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least squares of log y on log x: returns (C, exponent, mean sq residual)
    for the model y ~ C * x**exponent."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    if lx.size < 2:
        raise ValueError("need at least two points for a fit")
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.mean((ly - (slope * lx + intercept)) ** 2))
    return float(np.exp(intercept)), float(slope), resid


def _pairwise_sum(n: int, leaf):
    """np.add.reduce's sum of n float64 entries, formed from leaves of at
    most `_PIECE` entries: leaf(m) returns np.add.reduce of the next m
    entries (of each of several series side by side, as an array).

    numpy sums a contiguous float64 array pairwise: a run of more than 128
    entries is split into a first part of n2 = n // 2 - (n // 2) % 8 entries
    and the rest, each is summed the same way, and the two sums are added.
    Splitting by that rule down to runs of at most `_PIECE` >= 128 entries and
    reducing each with np.add.reduce therefore adds the same numbers in the
    same order as one np.add.reduce over all n, so the sum is equal bit for
    bit without the n entries ever being held at once.  This rests on
    numpy's summation order, which numpy does not document;
    ``tests/test_fits.py`` checks it against np.add.reduce.
    """
    if n <= _PIECE:
        return leaf(n)
    n2 = n // 2
    n2 -= n2 % 8
    first = _pairwise_sum(n2, leaf)
    return first + _pairwise_sum(n - n2, leaf)


def _block_log_sums(
    values: np.ndarray, n_lo: int, lo: int, hi: int, ybuf: np.ndarray, xbuf: np.ndarray, ramp: np.ndarray
):
    """The number of positive entries of values over the block [lo, hi]
    (values[i] sits at n = n_lo + i), and the sums of their logs and of
    their abscissae's logs as an array of two; None if there are none.

    Each sum is the one np.add.reduce forms over the block's compacted logs
    in index order, as np.mean does (``_pairwise_sum``).  The block is read
    in `_PIECE`-entry pieces, each leaf's values and abscissae are gathered
    into the `_PIECE`-entry buffers ybuf and xbuf, logged in place and
    reduced, and only the current piece's positive positions are held.  A
    piece with no zero takes its abscissae from `ramp`, the float64 ramp
    0, 1, ..., `_PIECE` - 1, shifted by the piece's start in one add.
    """
    starts = range(lo, hi + 1, _PIECE)

    def piece(start):
        return values[start - n_lo : min(hi, start + _PIECE - 1) - n_lo + 1]

    counts = [int(np.count_nonzero(piece(start) > 0)) for start in starts]
    total = sum(counts)
    if not total:
        return None
    pieces = ((start, piece(start), count) for start, count in zip(starts, counts) if count)
    start = part = pos = None
    off = left = 0

    def leaf(m):
        nonlocal start, part, pos, off, left
        k = 0
        while k < m:
            if not left:
                start, part, left = next(pieces)
                pos = None if left == part.size else np.flatnonzero(part > 0)
                off = 0
            c = min(m - k, left)
            y, x = ybuf[k : k + c], xbuf[k : k + c]
            if pos is None:
                y[...] = part[off : off + c]
                np.add(ramp[off : off + c], start, out=x)
            else:
                sel = pos[off : off + c]
                y[...] = part[sel]
                np.add(sel, start, out=x)
            off, left, k = off + c, left - c, k + c
        y, x = ybuf[:m], xbuf[:m]
        np.log(y, out=y)
        np.log(x, out=x)
        return np.array([np.add.reduce(y), np.add.reduce(x)])

    return total, _pairwise_sum(total, leaf)


def dyadic_fit(n_lo: int, values: np.ndarray) -> tuple[float, float, int, float]:
    """Power-law fit over dyadic blocks using geometric means.

    `values[i]` is the count at n = n_lo + i.  Within each block
    [n_lo 2^j, n_lo 2^(j+1)) only entries >= 1 (strictly positive) enter;
    both the representative abscissa and the block value are geometric
    means, which keeps an exact power law exactly affine in log-log and so
    recovers its exponent to float precision.  Each mean log is the bits
    np.mean gives over the block's compacted logs (``_block_log_sums``),
    formed in buffers of `_PIECE` entries whatever the window's size.
    Returns (C, exponent, blocks_used, mean_sq_residual).
    """
    if n_lo < 1:
        raise ValueError(f"n_lo must be >= 1, got {n_lo}")
    values = np.asarray(values)
    n_hi = n_lo + values.size - 1
    ybuf, xbuf, ramp = np.empty(_PIECE), np.empty(_PIECE), np.arange(_PIECE, dtype=np.float64)
    xs, ys = [], []
    lo = n_lo
    while lo <= n_hi:
        logs = _block_log_sums(values, n_lo, lo, min(2 * lo - 1, n_hi), ybuf, xbuf, ramp)
        if logs is not None:
            k, (sum_y, sum_x) = logs
            ys.append(np.exp(sum_y / k))
            xs.append(np.exp(sum_x / k))
        lo = 2 * lo
    if len(xs) < 2:
        return float("nan"), float("nan"), len(xs), float("nan")
    c, expo, resid = ols_loglog(np.array(xs), np.array(ys))
    return c, expo, len(xs), resid


def theil_sen_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Median of pairwise slopes; robust trend estimate.

    Inputs longer than _THEIL_SEN_POINTS are thinned evenly first to keep
    the O(P^2) pair set small.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two same-length vectors")
    if x.size > _THEIL_SEN_POINTS:
        idx = np.linspace(0, x.size - 1, _THEIL_SEN_POINTS).astype(int)
        x, y = x[idx], y[idx]
    dx = x[:, None] - x[None, :]
    dy = y[:, None] - y[None, :]
    mask = np.triu(np.ones_like(dx, dtype=bool), k=1) & (dx != 0)
    return float(np.median(dy[mask] / dx[mask]))
