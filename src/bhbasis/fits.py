"""Log-log fitting utilities for growth-rate diagnostics."""

from __future__ import annotations

import numpy as np

_THEIL_SEN_POINTS = 400


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


def dyadic_fit(n_lo: int, values: np.ndarray) -> tuple[float, float, int, float]:
    """Power-law fit over dyadic blocks using geometric means.

    `values[i]` is the count at n = n_lo + i.  Within each block
    [n_lo 2^j, n_lo 2^(j+1)) only entries >= 1 (strictly positive) enter;
    both the representative abscissa and the block value are geometric
    means, which keeps an exact power law exactly affine in log-log and so
    recovers its exponent to float precision.  Returns
    (C, exponent, blocks_used, mean_sq_residual).
    """
    values = np.asarray(values)
    n_hi = n_lo + values.size - 1
    xs, ys = [], []
    lo = n_lo
    while lo <= n_hi:
        hi = min(2 * lo - 1, n_hi)
        block = values[lo - n_lo : hi - n_lo + 1]
        ns = np.arange(lo, hi + 1, dtype=np.float64)
        pos = block > 0
        if not pos.all():
            block, ns = block[pos], ns[pos]
        if ns.size:
            xs.append(np.exp(np.mean(np.log(ns))))
            ys.append(np.exp(np.mean(np.log(block.astype(np.float64)))))
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
