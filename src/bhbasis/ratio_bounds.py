"""Bounded-ratio verification of four power-weighted sum inequalities.

Each part compares an exact (or tail-certified) left-hand sum against its
claimed envelope and reports the ratio as a function of the target M:

* part i   : sum_{n<M} n^-a (M-n)^-b              vs  M^(1-a-b)
* part ii  : sum_{n>=1} (|n+M|+1)^-a n^-b         vs  (|M|+1)^(1-a-b)
* part iii : sum over ordered positive l-tuples with z_1+...+z_l = M of
             (z_1...z_l)^-q, q = (4h-3)/(4h-1)    vs  M^-(1-2l/(4h-1))
* part iv  : same weights, signed constraint z_1+..+z_s - rest = M
                                                  vs  (|M|+1)^-(1-2t/(4h-1))

An asymptotic domination claim has no constant to reproduce, so the
falsifiable finite-scale statement is: the ratio stays bounded over the
sweep and shows no growth trend (robust log-log slope near zero).

Infinite sums are split into an exact head plus a certified tail.  Tails of
products of shifted powers are bracketed rigorously between integrals of a
convex decreasing summand, with the integrals evaluated by a binomial
series that carries its own truncation bound.  Signed-constraint sums whose
factors are genuine convolution curves use two-sided envelopes
c_lo * x^-gamma <= S_l(x) <= c_hi * x^-gamma, where c_hi is the exact
limiting constant Gamma(1-q)^l / Gamma(l(1-q)) and c_lo is the last
computed point of the monotone normalized curve; the certified error of
every reported value is stored alongside it.

Exponents are carried as exact fractions and floated once at evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math

import numpy as np

from .fits import theil_sen_slope

_T_CAP = 1 << 24
_SERIES_TERMS = 60
_LONG_TABLE = 1 << 19


class TailBoundError(Exception):
    """Raised when a truncation tail cannot be certified to the requested
    relative accuracy, or the sum does not converge at all."""


def weight_exponent(h: int) -> Fraction:
    """Per-factor decay exponent q = (4h-3)/(4h-1)."""
    if h < 2:
        raise ValueError("h must be >= 2")
    return Fraction(4 * h - 3, 4 * h - 1)


def composition_rhs_exponent(l: int, h: int) -> Fraction:
    """Envelope exponent of the l-fold composition sum: -(1 - 2l/(4h-1))."""
    return Fraction(2 * l - (4 * h - 1), 4 * h - 1)


@dataclass(frozen=True)
class RatioCurve:
    """Sweep of (M, lhs, rhs, ratio) with certified tail errors when the
    lhs required truncation."""

    part: str
    params: dict
    m: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tail_err: np.ndarray | None = None

    def __post_init__(self) -> None:
        for arr in (self.m, self.lhs, self.rhs):
            arr.flags.writeable = False
        if self.tail_err is not None:
            self.tail_err.flags.writeable = False
        if np.any(self.lhs <= 0) or np.any(self.rhs <= 0):
            raise ValueError("ratio curve requires positive lhs and rhs at every point")

    @property
    def ratio(self) -> np.ndarray:
        return self.lhs / self.rhs

    @property
    def sup_ratio(self) -> float:
        return float(self.ratio.max())

    @property
    def argmax_m(self) -> int:
        return int(self.m[int(np.argmax(self.ratio))])

    def slope(self, m_min: int = 100, side: str = "pos") -> float:
        """Robust trend of log ratio against log |M| beyond m_min, on the
        "pos", "neg" or "both" side of the grid."""
        if side == "pos":
            sel = self.m >= m_min
        elif side == "neg":
            sel = self.m <= -m_min
        elif side == "both":
            sel = np.abs(self.m) >= m_min
        else:
            raise ValueError(f"side must be 'pos', 'neg' or 'both', not {side!r}")
        if sel.sum() < 2:
            raise ValueError("not enough points beyond m_min")
        return theil_sen_slope(np.log(np.abs(self.m[sel])), np.log(self.ratio[sel]))


def geometric_grid(lo: int, hi: int, per_decade: int = 40, include=()) -> list[int]:
    """Roughly geometric integer grid on [lo, hi], always containing both
    endpoints and every value in `include`."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    pts = {lo, hi}
    pts.update(x for x in include if lo <= x <= hi)
    steps = int(per_decade * math.log10(hi / lo)) + 1
    for i in range(steps + 1):
        pts.add(int(round(lo * (hi / lo) ** (i / steps))))
    return sorted(pts)


# ----------------------------------------------------------------- part i


def split_sum_curve(alpha: float, beta: float, m_max: int) -> RatioCurve:
    """Part i: finite split sums for every M in [2, m_max], computed exactly
    in double precision via one convolution."""
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("exponents must lie strictly inside (0, 1)")
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    n = np.arange(m_max + 1, dtype=np.float64)
    wa = np.zeros(m_max + 1)
    wb = np.zeros(m_max + 1)
    wa[1:] = n[1:] ** (-alpha)
    wb[1:] = n[1:] ** (-beta)
    lhs_all = np.convolve(wa, wb)[: m_max + 1]
    ms = np.arange(2, m_max + 1, dtype=np.int64)
    lhs = lhs_all[2:]
    rhs = ms.astype(np.float64) ** (1.0 - alpha - beta)
    return RatioCurve("i", {"alpha": alpha, "beta": beta, "m_max": m_max}, ms, lhs, rhs)


# ------------------------------------------------------- tail machinery


def _series_integral(u: float, a: float, b: float, alpha: float, beta: float) -> tuple[float, float]:
    """Integral of (x+a)^-alpha (x+b)^-beta over [u, inf) with a certified
    truncation bound.

    Expands the integrand as x^-(alpha+beta) times a binomial double series
    in 1/x; requires u >= 4 max(|a|, |b|, 1) so the series remainder is
    dominated by a fast geometric envelope.
    """
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


def _tail_bracket(t_cut: int, a: float, b: float, alpha: float, beta: float) -> tuple[float, float]:
    """Rigorous bracket of sum_{n > t_cut} (n+a)^-alpha (n+b)^-beta.

    The summand is positive, decreasing and convex on [t_cut + 1/2, inf)
    (product of such factors), so the sum lies between the integrals from
    t_cut + 1 and from t_cut + 1/2.
    """
    low, err_low = _series_integral(t_cut + 1.0, a, b, alpha, beta)
    high, err_high = _series_integral(t_cut + 0.5, a, b, alpha, beta)
    return low - err_low, high + err_high


def _certified_shifted_sum(
    a: float,
    b: float,
    alpha: float,
    beta: float,
    n_start: int,
    tail_eps: float,
    head_extra: float = 0.0,
) -> tuple[float, float]:
    """sum_{n >= n_start} (n+a)^-alpha (n+b)^-beta with certified relative
    tail error <= tail_eps.

    head_extra is an already-exact additive contribution counted toward the
    total when judging relative accuracy.  Returns (value, certified_err).
    """
    t_cut = max(16, n_start, int(4 * max(abs(a), abs(b), 1.0)) + 1)
    head = 0.0
    head_to = n_start - 1
    while True:
        if head_to < t_cut:
            n = np.arange(head_to + 1, t_cut + 1, dtype=np.float64)
            head += float(np.sum((n + a) ** (-alpha) * (n + b) ** (-beta)))
            head_to = t_cut
        lo, hi = _tail_bracket(t_cut, a, b, alpha, beta)
        est = head + 0.5 * (lo + hi)
        cert = 0.5 * (hi - lo)
        if cert <= tail_eps * (est + head_extra):
            return est, cert
        if t_cut >= _T_CAP:
            raise TailBoundError(
                f"cannot certify tail to eps={tail_eps} below cutoff {t_cut}"
            )
        t_cut *= 2


# ---------------------------------------------------------------- part ii


def shifted_tail_curve(
    alpha: float,
    beta: float,
    m_lo: int,
    m_hi: int,
    tail_eps: float = 1e-6,
    grid=None,
) -> RatioCurve:
    """Part ii: infinite shifted sums over a signed M range with certified
    truncation tails."""
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("exponents must lie strictly inside (0, 1)")
    if alpha + beta <= 1:
        raise ValueError("alpha + beta must exceed 1 for convergence")
    if grid is None:
        ms = list(range(m_lo, m_hi + 1))
    else:
        ms = sorted(set(int(m) for m in grid))
    lhs, err, kept = [], [], []
    for m in ms:
        if m >= 0:
            val, cert = _certified_shifted_sum(m + 1.0, 0.0, alpha, beta, 1, tail_eps)
        else:
            n = np.arange(1, -m + 1, dtype=np.float64)
            hump = float(np.sum((np.abs(n + m) + 1.0) ** (-alpha) * n ** (-beta)))
            val, cert = _certified_shifted_sum(
                m + 1.0, 0.0, alpha, beta, -m + 1, tail_eps, head_extra=hump
            )
            val += hump
        kept.append(m)
        lhs.append(val)
        err.append(cert)
    ms_arr = np.array(kept, dtype=np.int64)
    rhs = (np.abs(ms_arr) + 1.0) ** (1.0 - alpha - beta)
    return RatioCurve(
        "ii",
        {"alpha": alpha, "beta": beta, "tail_eps": tail_eps},
        ms_arr,
        np.array(lhs),
        rhs,
        np.array(err),
    )


# --------------------------------------------------------------- part iii


def _weight_array(h: int, length: int) -> np.ndarray:
    q = float(weight_exponent(h))
    w = np.zeros(length + 1)
    n = np.arange(1, length + 1, dtype=np.float64)
    w[1:] = n ** (-q)
    return w


@lru_cache(maxsize=64)
def _composition_table(h: int, l: int, length: int) -> np.ndarray:
    """S_l indexed by value: sum over ordered l-compositions of the index of
    the product weight.

    Entries below l are exact zeros.  Tables with (length + 1)^2 <= 4e7 are
    built by direct convolution, exact up to double-precision summation.
    Longer ones are built by FFT, which is not exact: its roundoff is
    absolute, a few ulps of the table's largest entry, so the smallest
    entries (near index l) carry the largest relative error, below 1e-12
    for h <= 3 at length 8192.
    """
    w = _weight_array(h, length)
    if l == 1:
        out = w.copy()
    else:
        prev = _composition_table(h, l - 1, length)
        if (length + 1) ** 2 <= 40_000_000:
            out = np.convolve(prev, w)[: length + 1]
        else:
            # index 0 of both factors is zero, so convolve from index 1 on
            # (half the transform size) and shift the result by two
            out = np.zeros(length + 1)
            out[2:] = _fft_convolve_trunc(
                prev[1:], w[1:], length - 1, fb=_weight_spectrum(h, length)
            )
        out[:l] = 0.0
    out.flags.writeable = False
    return out


@lru_cache(maxsize=8)
def _weight_spectrum(h: int, length: int) -> np.ndarray:
    """rfft of w[1:], shared by every order of the (h, length) tables."""
    n = _fft_size(2 * length - 1)
    return np.fft.rfft(_weight_array(h, length)[1:], n)


def _fft_size(n_linear: int) -> int:
    n = 1
    while n < n_linear:
        n <<= 1
    return n


def _fft_convolve_trunc(
    a: np.ndarray, b: np.ndarray, n_out: int, fb: np.ndarray | None = None
) -> np.ndarray:
    """First n_out entries of the linear convolution a * b; fb, when given,
    is b's rfft at the transform size this helper picks."""
    n = _fft_size(len(a) + len(b) - 1)
    if fb is None:
        fb = np.fft.rfft(b, n)
    return np.fft.irfft(np.fft.rfft(a, n) * fb, n)[:n_out]


def composition_curve(l: int, h: int, m_max: int) -> RatioCurve:
    """Part iii: iterated convolution of the weight sequence (accuracy as
    in _composition_table)."""
    if not 1 <= l <= 2 * h:
        raise ValueError(f"l must lie in [1, 2h] = [1, {2 * h}]")
    if m_max < l:
        raise ValueError("m_max must be at least l")
    table = _composition_table(h, l, m_max)
    ms = np.arange(l, m_max + 1, dtype=np.int64)
    lhs = table[l:].copy()
    rhs = ms.astype(np.float64) ** float(composition_rhs_exponent(l, h))
    return RatioCurve("iii", {"l": l, "h": h, "m_max": m_max}, ms, lhs, rhs)


# ---------------------------------------------------------------- part iv


def _limit_constant(h: int, l: int) -> float:
    """Exact limit Gamma(1-q)^l / Gamma(l(1-q)) of the normalized curve S_l(x) x^gamma_l."""
    q = float(weight_exponent(h))
    return math.gamma(1 - q) ** l / math.gamma(l * (1 - q))


@lru_cache(maxsize=64)
def _envelope(h: int, l: int, length: int) -> float:
    """Lower constant of the power envelope of S_l beyond the computed range.

    The normalized curve S_l(x) x^gamma_l climbs toward _limit_constant(h, l);
    monotonicity is checked on the top octave and the last computed value is
    returned, so S_l lies between that and the limit times x^-gamma_l.
    """
    if l == 1:
        return 1.0
    c_limit = _limit_constant(h, l)
    table = _composition_table(h, l, length)
    gamma = -float(composition_rhs_exponent(l, h))
    xs = np.arange(length // 2, length + 1, dtype=np.float64)
    rho = table[length // 2 :] * xs**gamma
    drops = np.diff(rho)
    if drops.min() < -1e-9 * c_limit:
        raise AssertionError("normalized composition curve is not monotone")
    lo = float(np.min(rho[-8:]))
    if lo > c_limit * (1 + 1e-9):
        raise AssertionError("normalized curve exceeded its limit constant")
    return lo


def _signed_sum_point(
    s: int, t: int, h: int, m: int, tail_eps: float, length: int
) -> tuple[float, float]:
    """lhs of part iv at one M >= 0 for interior 0 < s < t, with certificate."""
    q = float(weight_exponent(h))
    if s == 1 and t == 2:
        n_start = max(1, 1 - m)
        return _certified_shifted_sum(float(m), 0.0, q, q, n_start, tail_eps)
    gam_s = -float(composition_rhs_exponent(s, h))
    gam_r = -float(composition_rhs_exponent(t - s, h))
    if gam_s + gam_r <= 1:
        raise TailBoundError(
            f"signed sum diverges for interior s={s}, t={t} at h={h}: "
            f"tail exponent {gam_s + gam_r} <= 1"
        )
    tab_s = _composition_table(h, s, length)
    tab_r = _composition_table(h, t - s, length)
    lo_s, hi_s = _envelope(h, s, length), _limit_constant(h, s)
    lo_r, hi_r = _envelope(h, t - s, length), _limit_constant(h, t - s)
    t_cut = length - m
    if t_cut < length // 2:
        raise ValueError(f"|M| = {m} too large for table length {length}")
    head = float(np.dot(tab_s[1 + m : t_cut + m + 1], tab_r[1 : t_cut + 1]))
    # (t_cut, length]: exact right factor, enveloped left factor
    n_mid = np.arange(t_cut + 1, length + 1, dtype=np.float64)
    mid_core = float(np.dot(tab_r[t_cut + 1 : length + 1], (n_mid + m) ** (-gam_s)))
    # beyond the table: both factors enveloped, pure-power bracket
    in_lo, in_hi = _tail_bracket(length, float(m), 0.0, gam_s, gam_r)
    tail_lo = lo_s * mid_core + lo_s * lo_r * in_lo
    tail_hi = hi_s * mid_core + hi_s * hi_r * in_hi
    val = head + 0.5 * (tail_lo + tail_hi)
    cert = 0.5 * (tail_hi - tail_lo)
    if cert > tail_eps * val:
        raise TailBoundError(
            f"signed-sum tail certificate {cert / val:.3g} exceeds eps={tail_eps} "
            f"(s={s}, t={t}, h={h}, M={m}); raise tail_eps or enlarge the table"
        )
    return val, cert


def signed_composition_curve(
    s: int,
    t: int,
    h: int,
    grid,
    tail_eps: float | None = None,
    length: int = _LONG_TABLE,
) -> RatioCurve:
    """Part iv: signed-constraint composition sums over a grid of integers M.

    s = 0 and s = t reduce to part iii evaluated at |M| (the constraint
    becomes a plain composition), read from one composition table with no
    series to truncate.  Interior cases use the exact head plus certified
    tail; negative M folds onto the mirrored parameter (t-s, t) at -M.  Grid
    points where the lhs vanishes (only the degenerate |M| < t delegation
    points) are dropped.

    `tail_err` certifies series truncation only, so it is 0.0 for s = 0 and
    s = t.  FFT roundoff is not yet certified: composition tables of length
    6324 and more are built by FFT (see ``_composition_table``), which
    affects the s = 0 and s = t values once max|M| >= 6324 and the interior
    heads at the default `length`.  ROADMAP "Certify every part-iii/iv
    number" holds the planned bound.
    """
    if not 0 <= s <= t:
        raise ValueError("need 0 <= s <= t")
    if t > 2 * h:
        raise ValueError(f"t must not exceed 2h = {2 * h}")
    if t == 0:
        raise ValueError("t must be positive")
    ms = sorted(set(int(m) for m in grid))
    rhs_exp = float(composition_rhs_exponent(t, h))
    if tail_eps is None:
        tail_eps = 1e-6 if (s in (0, t) or t == 2) else 0.05

    kept, lhs, err = [], [], []
    max_abs = max(abs(m) for m in ms) if ms else 0
    if s in (0, t):
        table = _composition_table(h, t, max(max_abs, t))
        for m in ms:
            v = m if s == t else -m
            if v < t:
                continue
            kept.append(m)
            lhs.append(float(table[v]))
            err.append(0.0)
    else:
        for m in ms:
            ss = s if m >= 0 else t - s
            val, cert = _signed_sum_point(ss, t, h, abs(m), tail_eps, length)
            kept.append(m)
            lhs.append(val)
            err.append(cert)
    ms_arr = np.array(kept, dtype=np.int64)
    rhs = (np.abs(ms_arr) + 1.0) ** rhs_exp
    return RatioCurve(
        "iv",
        {"s": s, "t": t, "h": h, "tail_eps": tail_eps},
        ms_arr,
        np.array(lhs),
        rhs,
        np.array(err),
    )
