"""The per-point tail evaluation that ratio_bounds batched per curve, kept
as the reference the batched code must reproduce byte for byte."""

import math

import numpy as np

from bhbasis.ratio_bounds import (
    _SERIES_TERMS,
    _T_CAP,
    TailBoundError,
    _composition_table,
    _envelope,
    _limit_constant,
    composition_rhs_exponent,
    weight_exponent,
)


def series_integral(u, a, b, alpha, beta):
    """Integral of (x+a)^-alpha (x+b)^-beta over [u, inf) and its bound."""
    s = alpha + beta
    if s <= 1:
        raise TailBoundError(f"integral diverges: alpha + beta = {s} <= 1")
    r = max(abs(a), abs(b), 1.0)
    if u < 4 * r:
        raise ValueError("series integral needs u >= 4 max(|a|, |b|, 1)")
    kk = _SERIES_TERMS
    k_arr = np.arange(kk + 1, dtype=np.float64)
    j = k_arr[1:]
    pa = np.ones(kk + 1)
    pb = np.ones(kk + 1)
    np.cumprod(-(alpha + j - 1) / j * a, out=pa[1:])
    np.cumprod(-(beta + j - 1) / j * b, out=pb[1:])
    ck = np.convolve(pa, pb)[: kk + 1]
    with np.errstate(under="ignore"):
        terms = ck * u ** (1.0 - s - k_arr) / (s + k_arr - 1.0)
    val = float(math.fsum(terms.tolist()))
    rho = r / u
    err = (u ** (1.0 - s) / (s + kk)) * (rho ** (kk + 1)) * (kk + 2) / (1 - rho) ** 2
    return val, 2.0 * abs(err)


def tail_bracket(t_cut, a, b, alpha, beta):
    """Bracket of sum_{n > t_cut} (n+a)^-alpha (n+b)^-beta."""
    low, err_low = series_integral(t_cut + 1.0, a, b, alpha, beta)
    high, err_high = series_integral(t_cut + 0.5, a, b, alpha, beta)
    return low - err_low, high + err_high


def certified_shifted_sum(a, b, alpha, beta, n_start, tail_eps, head_extra=0.0):
    """sum_{n >= n_start} (n+a)^-alpha (n+b)^-beta, cutoff doubled until the
    tail certificate is within tail_eps."""
    t_cut = max(16, n_start, int(4 * max(abs(a), abs(b), 1.0)) + 1)
    head = 0.0
    head_to = n_start - 1
    while True:
        if head_to < t_cut:
            n = np.arange(head_to + 1, t_cut + 1, dtype=np.float64)
            head += float(np.sum((n + a) ** (-alpha) * (n + b) ** (-beta)))
            head_to = t_cut
        lo, hi = tail_bracket(t_cut, a, b, alpha, beta)
        est = head + 0.5 * (lo + hi)
        cert = 0.5 * (hi - lo)
        if cert <= tail_eps * (est + head_extra):
            return est, cert
        if t_cut >= _T_CAP:
            raise TailBoundError(f"cannot certify tail to eps={tail_eps} below cutoff {t_cut}")
        t_cut *= 2


def shifted_tail_point(alpha, beta, m, tail_eps):
    """Part ii's lhs at one M, with certificate."""
    if m >= 0:
        return certified_shifted_sum(m + 1.0, 0.0, alpha, beta, 1, tail_eps)
    n = np.arange(1, -m + 1, dtype=np.float64)
    hump = float(np.sum((np.abs(n + m) + 1.0) ** (-alpha) * n ** (-beta)))
    val, cert = certified_shifted_sum(m + 1.0, 0.0, alpha, beta, -m + 1, tail_eps, head_extra=hump)
    return val + hump, cert


def signed_sum_point(s, t, h, m, tail_eps, length):
    """lhs of part iv at one M >= 0 for interior 0 < s < t, with certificate."""
    q = float(weight_exponent(h))
    if s == 1 and t == 2:
        return certified_shifted_sum(float(m), 0.0, q, q, max(1, 1 - m), tail_eps)
    gam_s = -float(composition_rhs_exponent(s, h))
    gam_r = -float(composition_rhs_exponent(t - s, h))
    if gam_s + gam_r <= 1:
        raise TailBoundError(f"signed sum diverges for interior s={s}, t={t} at h={h}")
    tab_s = _composition_table(h, s, length)
    tab_r = _composition_table(h, t - s, length)
    lo_s, hi_s = _envelope(h, s, length), _limit_constant(h, s)
    lo_r, hi_r = _envelope(h, t - s, length), _limit_constant(h, t - s)
    if 4 * m > length:
        raise ValueError(f"|M| = {m} too large for table length {length}")
    t_cut = length - m
    head = float(np.dot(tab_s[1 + m : t_cut + m + 1], tab_r[1 : t_cut + 1]))
    n_mid = np.arange(t_cut + 1, length + 1, dtype=np.float64)
    mid_core = float(np.dot(tab_r[t_cut + 1 : length + 1], (n_mid + m) ** (-gam_s)))
    in_lo, in_hi = tail_bracket(length, float(m), 0.0, gam_s, gam_r)
    tail_lo = lo_s * mid_core + lo_s * lo_r * in_lo
    tail_hi = hi_s * mid_core + hi_s * hi_r * in_hi
    val = head + 0.5 * (tail_lo + tail_hi)
    cert = 0.5 * (tail_hi - tail_lo)
    if cert > tail_eps * val:
        raise TailBoundError(f"signed-sum tail certificate exceeds eps={tail_eps} (M={m})")
    return val, cert
