"""Log-log fitting utilities for growth-rate diagnostics."""

from __future__ import annotations

import numpy as np

_THEIL_SEN_POINTS = 400
# dyadic_fit gathers each block's logs in pieces of this many entries
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


def _mean_log(values: np.ndarray, n_lo: int, lo: int, hi: int, buf: np.ndarray, ramp=None):
    """Mean log of the positive entries of values over [lo, hi] or, given
    ramp = arange(_PIECE) as float64, of their abscissae; None if there are
    none.

    The logs are gathered piece by piece into buf as one contiguous float64
    array, in index order, so np.mean sees exactly the array a whole-block
    evaluation would build.
    """
    k = 0
    for start in range(lo, hi + 1, _PIECE):
        piece = values[start - n_lo : min(hi, start + _PIECE - 1) - n_lo + 1]
        src = piece if ramp is None else ramp[: piece.size]
        pos = piece > 0
        npos = np.count_nonzero(pos)
        out = buf[k : k + npos]
        out[...] = src if npos == piece.size else src[np.flatnonzero(pos)]
        if ramp is not None:
            out += start
        np.log(out, out=out)
        k += npos
    return np.mean(buf[:k]) if k else None


def dyadic_fit(n_lo: int, values: np.ndarray) -> tuple[float, float, int, float]:
    """Power-law fit over dyadic blocks using geometric means.

    `values[i]` is the count at n = n_lo + i.  Within each block
    [n_lo 2^j, n_lo 2^(j+1)) only entries >= 1 (strictly positive) enter;
    both the representative abscissa and the block value are geometric
    means, which keeps an exact power law exactly affine in log-log and so
    recovers its exponent to float precision.  Returns
    (C, exponent, blocks_used, mean_sq_residual).
    """
    if n_lo < 1:
        raise ValueError(f"n_lo must be >= 1, got {n_lo}")
    values = np.asarray(values)
    n_hi = n_lo + values.size - 1
    blocks = []
    lo = n_lo
    while lo <= n_hi:
        blocks.append((lo, min(2 * lo - 1, n_hi)))
        lo = 2 * lo
    # one buffer for the largest block, reused for every block's logs
    buf = np.empty(max((hi - lo + 1 for lo, hi in blocks), default=0))
    ramp = np.arange(_PIECE, dtype=np.float64)
    xs, ys = [], []
    for lo, hi in blocks:
        mean_log_y = _mean_log(values, n_lo, lo, hi, buf)
        if mean_log_y is not None:
            ys.append(np.exp(mean_log_y))
            xs.append(np.exp(_mean_log(values, n_lo, lo, hi, buf, ramp)))
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
