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
series that carries its own truncation bound.  A curve, not a grid point,
is the unit of work: the tails of all its points are bracketed in one
batched series evaluation (per cutoff-doubling round for the shifted sums
of part ii and part iv's (s, t) = (1, 2), per sign group for the other
interior part-iv curves), and each point keeps the exact head, bounds and
bytes it would have on its own.  Curve (s, t) of part iv at -M is curve
(t - s, t) at M, so each folded sign group is evaluated once per process
and serves both curves.  Signed-constraint sums whose
factors are genuine convolution curves use two-sided envelopes
c_lo * x^-gamma <= S_l(x) <= c_hi * x^-gamma, where c_hi is the exact
limiting constant Gamma(1-q)^l / Gamma(l(1-q)) and c_lo is the last
computed point of the monotone normalized curve; the certified error of
every reported value is stored alongside it.

Exponents are carried as exact fractions and floated once at evaluation.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
import threading

import numpy as np

from .fits import theil_sen_slope
from .harness import _cpus

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
    lhs required truncation (None for parts i and iii)."""

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
    return RatioCurve(ms, lhs, rhs)


# ------------------------------------------------------- tail machinery


def _series_integrals(u, a, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of (x+a)^-alpha x^-beta over [u, inf), one per entry of the
    float arrays u and a, each with a certified truncation bound.

    Expands the integrand as x^-(alpha+beta) times the binomial series of
    (1 + a/x)^-alpha; requires u >= 4 max(|a|, 1) so the series remainder
    is dominated by a fast geometric envelope.  Each row sums its own terms
    with math.fsum.  A row whose coefficients a^k overflow (|a| beyond about
    1.5e5) carries (a/u)^k instead, times u^(1-s); every other row keeps the
    unscaled arithmetic.
    """
    s = alpha + beta
    if s <= 1:
        raise TailBoundError(f"integral diverges: alpha + beta = {s} <= 1")
    r = np.maximum(np.abs(a), 1.0)
    if np.any(u < 4 * r):
        raise ValueError("series integral needs u >= 4 max(|a|, 1)")
    kk = _SERIES_TERMS
    k_arr = np.arange(kk + 1, dtype=np.float64)
    j = k_arr[1:]
    ck = np.ones((a.size, kk + 1))
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        np.cumprod(-(alpha + j - 1) / j * a[:, None], axis=1, out=ck[:, 1:])
        terms = ck * u[:, None] ** (1.0 - s - k_arr) / (s + k_arr - 1.0)
    over = ~np.isfinite(terms).all(axis=1)
    if over.any():
        # |a/u| <= 1/4, so the scaled terms cannot overflow
        uo = u[over]
        sc = np.ones((uo.size, kk + 1))
        with np.errstate(under="ignore"):
            np.cumprod(-(alpha + j - 1) / j * (a[over] / uo)[:, None], axis=1, out=sc[:, 1:])
            terms[over] = sc * (uo ** (1.0 - s))[:, None] / (s + k_arr - 1.0)
    val = [math.fsum(row.tolist()) for row in terms]
    # the bound in Python floats: libm's pow, which numpy's vector pow does
    # not match bit for bit
    err = [
        2.0 * abs((ui ** (1.0 - s) / (s + kk)) * (rho ** (kk + 1)) * (kk + 2) / (1 - rho) ** 2)
        for ui, rho in zip(u.tolist(), (r / u).tolist())
    ]
    return np.array(val), np.array(err)


def _tail_brackets(t_cut, a, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Rigorous brackets of sum_{n > t_cut} (n+a)^-alpha n^-beta, one per
    entry of the arrays t_cut and a.

    The summand is positive, decreasing and convex on [t_cut + 1/2, inf)
    (product of such factors), so the sum lies between the integrals from
    t_cut + 1 and from t_cut + 1/2.
    """
    low, err_low = _series_integrals(t_cut + 1.0, a, alpha, beta)
    high, err_high = _series_integrals(t_cut + 0.5, a, alpha, beta)
    return low - err_low, high + err_high


def _inverse_powers(pw: np.ndarray, top: int, alpha: float) -> np.ndarray:
    """pw (x^-alpha for x = 1 .. pw.size, at index x - 1) extended to x = top."""
    if pw.size >= top:
        return pw
    return np.concatenate([pw, np.arange(pw.size + 1, top + 1, dtype=np.float64) ** (-alpha)])


def _cutoffs(a: float, n_start: int) -> tuple[int, int]:
    """First and last cutoff of a shifted sum's head: the first lets the
    tail bracket start (u >= 4 max(|a|, 1)), the last is the first one
    doubled up to `_T_CAP`."""
    first = max(n_start, 16, int(4 * max(abs(a), 1.0)) + 1)
    return first, first << ((_T_CAP - 1) // first).bit_length()


def _uncertified(tail_eps: float, a: float, n_start: int) -> TailBoundError:
    return TailBoundError(f"cannot certify tail to eps={tail_eps} below cutoff {_cutoffs(a, n_start)[1]}")


def _certified_shifted_sums(a, alpha: float, beta: float, n_start, tail_eps: float, head_extra):
    """sum_{n >= n_start} (n+a)^-alpha n^-beta for each entry of the
    integral-valued float array a and the int array n_start (with
    n_start + a >= 1), with a certified tail error.

    head_extra holds an already-exact additive contribution per entry,
    counted toward the total when judging relative accuracy: an entry is
    certified when its error is at most tail_eps * (value + head_extra).
    The work runs in rounds: each adds every open entry's head up to its
    cutoff, brackets all their tails in one batched call and doubles the
    cutoffs of the entries still open.  Head factors are read from two
    shared vectors of x^-alpha and x^-beta over integer x.

    An entry closes when it is certified, when it has reached its last
    cutoff (see `_cutoffs`), or when it is refused.  The brackets of the
    entries open after round 1 are taken once more at their last cutoffs;
    brackets shrink as the cutoff grows, and no later value exceeds
    value + 2 error of any round, so an entry whose half-width there
    exceeds 2 tail_eps (value + 2 error + head_extra) can never be
    certified and is refused at once; the factor 2 absorbs rounding.
    Never raises for an uncertified entry: returns every entry's last
    (value, error), and the caller judges them.
    """
    cut, last = np.array([_cutoffs(x, n) for x, n in zip(a.tolist(), n_start.tolist())], np.int64).reshape(-1, 2).T
    shift = a.astype(np.int64)
    done_to = n_start - 1
    head, val, cert = np.zeros((3, a.size))
    floor = None
    pow_a = pow_b = np.empty(0)
    rows = np.arange(a.size)
    while rows.size:
        pow_a = _inverse_powers(pow_a, int((cut[rows] + shift[rows]).max()), alpha)
        pow_b = _inverse_powers(pow_b, int(cut[rows].max()), beta)
        for i in rows.tolist():
            # n in (done_to, cut]: factors (n + a)^-alpha and n^-beta
            lo, hi, sh = done_to[i], cut[i], shift[i]
            head[i] += float(np.sum(pow_a[lo + sh : hi + sh] * pow_b[lo:hi]))
        done_to[rows] = cut[rows]
        t_lo, t_hi = _tail_brackets(cut[rows], a[rows], alpha, beta)
        val[rows] = head[rows] + 0.5 * (t_lo + t_hi)
        cert[rows] = 0.5 * (t_hi - t_lo)
        rows = rows[(cert[rows] > tail_eps * (val[rows] + head_extra[rows])) & (cut[rows] < last[rows])]
        if floor is None:
            floor = np.zeros(a.size)
            t_lo, t_hi = _tail_brackets(last[rows], a[rows], alpha, beta)
            floor[rows] = 0.5 * (t_hi - t_lo)
        rows = rows[floor[rows] <= 2 * tail_eps * (val[rows] + 2 * cert[rows] + head_extra[rows])]
        cut[rows] *= 2
    return val, cert


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
    truncation tails; the first M, in grid order, whose tail cannot be
    certified to `tail_eps` raises TailBoundError."""
    if not (0 < alpha < 1 and 0 < beta < 1):
        raise ValueError("exponents must lie strictly inside (0, 1)")
    if alpha + beta <= 1:
        raise ValueError("alpha + beta must exceed 1 for convergence")
    if grid is None:
        ms = list(range(m_lo, m_hi + 1))
    else:
        ms = sorted(set(int(m) for m in grid))
    ms_arr = np.array(ms, dtype=np.int64)
    # for M < 0 the terms n <= -M (the hump) are summed exactly first
    humps = np.zeros(ms_arr.size)
    for i, m in enumerate(ms):
        if m < 0:
            n = np.arange(1, -m + 1, dtype=np.float64)
            humps[i] = float(np.sum((np.abs(n + m) + 1.0) ** (-alpha) * n ** (-beta)))
    a, n_start = ms_arr + 1.0, np.maximum(1, 1 - ms_arr)
    val, err = _certified_shifted_sums(a, alpha, beta, n_start, tail_eps, head_extra=humps)
    bad = np.flatnonzero(err > tail_eps * (val + humps))
    if bad.size:
        raise _uncertified(tail_eps, float(a[bad[0]]), int(n_start[bad[0]]))
    rhs = (np.abs(ms_arr) + 1.0) ** (1.0 - alpha - beta)
    return RatioCurve(ms_arr, val + humps, rhs, err)


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
    if l == 1:
        out = _weight_array(h, length)
    else:
        prev = _composition_table(h, l - 1, length)
        if (length + 1) ** 2 <= 40_000_000:
            out = np.convolve(prev, _composition_table(h, 1, length))[: length + 1]
        else:
            # index 0 of both factors is zero, so convolve from index 1 on
            # (half the transform size) against the cached spectrum of w[1:]
            # and shift the result by two; at l = 2 prev[1:] is w[1:] too,
            # so its spectrum is squared
            out = np.zeros(length + 1)
            fw = _weight_spectrum(h, length)
            if l == 2:
                out[2:] = np.fft.irfft(fw * fw, 2 * (fw.size - 1))[: length - 1]
            else:
                out[2:] = _fft_convolve_trunc(prev[1:], fw, length - 1)
        out[:l] = 0.0
    out.flags.writeable = False
    return out


@lru_cache(maxsize=8)
def _weight_spectrum(h: int, length: int) -> np.ndarray:
    """rfft of w[1:], shared by every order of the (h, length) tables."""
    n = _fft_size(2 * length - 1)
    return np.fft.rfft(_composition_table(h, 1, length)[1:], n)


def _fft_size(n_linear: int) -> int:
    n = 1
    while n < n_linear:
        n <<= 1
    return n


def _fft_convolve_trunc(a: np.ndarray, fb: np.ndarray, n_out: int) -> np.ndarray:
    """First n_out entries of the linear convolution of a with the sequence
    whose rfft is fb, at fb's transform size (which must hold the whole
    linear convolution)."""
    n = 2 * (fb.size - 1)
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
    return RatioCurve(ms, lhs, rhs)


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


@lru_cache(maxsize=1)
def _blas_threads() -> int | None:
    """The threads numpy's own OpenBLAS (the ILP64 scipy-openblas build of
    numpy's wheels) splits one long dot product across, as it reports them
    when first asked; None for any other BLAS, whose threads are unknown."""
    core = getattr(np, "_core", None) or np.core
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
        fn = lib.scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    fn.restype = ctypes.c_int
    return max(1, fn())


def _heads(tab_s: np.ndarray, tab_r: np.ndarray, ms: tuple[int, ...], length: int) -> np.ndarray:
    """The head np.dot(tab_s[1 + M : length + 1], tab_r[1 : length - M + 1])
    of each point M of `ms`, in order.

    With 2 points or more, and at least 2 CPUs per thread of numpy's
    OpenBLAS, a second thread takes every other point while this one takes
    the rest (np.dot releases the GIL), and it is joined before this
    returns or raises.  Otherwise the heads run one at a time: a BLAS that
    splits each dot product over the CPUs itself is left to do so alone,
    since a second caller only contends with it (OpenBLAS's default of one
    thread per CPU makes part iv slower split), and a BLAS whose threads
    are unknown is treated as one that splits.  Each head is the same np.dot
    over the same slices on either path, so the values are the same bytes,
    and an error is the first failing point's, the one the one-thread loop
    raises; an interrupt in this thread is raised as it comes, after the
    join.
    """
    out = np.empty(len(ms))

    def share(first: int, step: int) -> tuple[int, Exception] | None:
        # the heads of every step-th point from `first`, up to the first
        # failure: None, or (that point's index, its exception)
        for i in range(first, len(ms), step):
            m = ms[i]
            try:
                out[i] = np.dot(tab_s[1 + m : length + 1], tab_r[1 : length - m + 1])
            except Exception as exc:
                return i, exc
        return None

    threads = _blas_threads()
    if len(ms) < 2 or threads is None or _cpus() < 2 * threads:
        failures = [share(0, 1)]
    else:
        # the second share's result stays this failure if its thread ends
        # without one, so its points are never read unset
        failures = [None, (len(ms), RuntimeError("a part-iv head thread ended early"))]

        def other() -> None:
            failures[1] = share(1, 2)

        worker = threading.Thread(target=other, name="part-iv heads")
        worker.start()
        try:
            failures[0] = share(0, 2)
        finally:
            worker.join()
    failed = [f for f in failures if f is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return out


@lru_cache(maxsize=64)
def _signed_group(s: int, t: int, h: int, ms: tuple[int, ...], tail_eps: float, length: int):
    """lhs of part iv, with certificates, at the ascending points M >= 0 of
    `ms` (one folded sign group of a curve) for interior 0 < s < t, once per
    process.

    (s, t) = (1, 2) is a shifted sum of two weights.  Otherwise each point's
    head pairs two exact table slices; its mid range (t_cut, length] pairs
    the exact right factor with the enveloped left factor, whose powers
    (n + M)^-gamma_s are the slice env[:M] of one vector; and the
    pure-power tail beyond the table is bracketed for every point in one
    batched call.  The tables, envelopes and limit constants are looked up
    once.  The bracket beyond the table starts at u = length + 1/2 and
    needs u >= 4M and a convergent sum; ``signed_composition_curve`` checks
    both before any group is evaluated.  The heads run two points at a time
    on two threads where the CPUs allow (see ``_heads``), with the same
    bytes as one at a time.  Nothing is judged here: every
    point's (value, certificate) is returned, certified or not, so a
    failing group is evaluated once too.  Each point's value does not
    depend on the other points of `ms` or their order.

    Curve (s, t) at -M is curve (t - s, t) at M, so on a symmetric grid the
    negative group of one curve is the positive group of its mirror.  The
    arrays are read-only.
    """
    q = float(weight_exponent(h))
    m_arr = np.array(ms, dtype=np.float64)
    if t == 2:
        val, cert = _certified_shifted_sums(m_arr, q, q, np.ones(m_arr.size, np.int64), tail_eps, np.zeros_like(m_arr))
    else:
        gam_s = -float(composition_rhs_exponent(s, h))
        gam_r = -float(composition_rhs_exponent(t - s, h))
        tab_s = _composition_table(h, s, length)
        tab_r = _composition_table(h, t - s, length)
        lo_s, hi_s = _envelope(h, s, length), _limit_constant(h, s)
        lo_r, hi_r = _envelope(h, t - s, length), _limit_constant(h, t - s)
        # t_cut = length - M: the head runs over n <= t_cut
        head = _heads(tab_s, tab_r, ms, length)
        # (t_cut, length]: exact right factor, enveloped left factor
        env = np.arange(length + 1, length + max(ms) + 1, dtype=np.float64) ** (-gam_s)
        mid = np.array([np.dot(tab_r[length - m + 1 : length + 1], env[:m]) for m in ms])
        # beyond the table: both factors enveloped, pure-power bracket
        in_lo, in_hi = _tail_brackets(np.full(m_arr.size, length), m_arr, gam_s, gam_r)
        tail_lo = lo_s * mid + lo_s * lo_r * in_lo
        tail_hi = hi_s * mid + hi_s * hi_r * in_hi
        val = head + 0.5 * (tail_lo + tail_hi)
        cert = 0.5 * (tail_hi - tail_lo)
    val.flags.writeable = False
    cert.flags.writeable = False
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
    tail; negative M folds onto the mirrored parameter (t-s, t) at -M.  The
    interior points are evaluated per sign group (see ``_signed_group``):
    tables, envelopes and limit constants are looked up once, all tails
    of the group are bracketed in one batched call, and with at least 2
    CPUs per thread of numpy's OpenBLAS its heads are split across two
    threads (see ``_heads``), which leaves every value, certificate and
    error as it is on one thread (no thread outlives the call).  With
    OpenBLAS's default of one thread per CPU they stay on one thread.  The
    BLAS's own thread count is another
    matter: OpenBLAS splits each long dot product over its threads, so the
    interior values can differ in the last bits between, say,
    OPENBLAS_NUM_THREADS=1 and 2.  Each folded group (M < 0, M = 0 and
    M > 0, keyed by ascending |M|) is evaluated once per process,
    failing or not, so on a symmetric grid curve (t - s, t) reads its
    positive points from the negative group of (s, t) and the reverse.  The
    groups are read in grid order and each point is judged once, as it is
    read: the first point whose certificate exceeds `tail_eps` raises
    TailBoundError, and no later group is evaluated.  The l = 2 table squares
    the cached weight spectrum instead of transforming w again.  Grid points
    where the lhs vanishes (only the degenerate |M| < t delegation points)
    are dropped.

    `tail_eps` bounds each interior point's relative tail certificate
    (default 1e-6 for t = 2, else 0.05); s = 0 and s = t have no tail and
    refuse it with ValueError.  Interior points other than (1, 2) need
    |M| <= length/4 and t < 2h (a convergent sum); both are checked before
    any group is evaluated.  An error names the first failing M in grid
    order, whatever ran before it.  `tail_err`
    certifies series truncation only, so it is 0.0 for s = 0 and s = t.
    FFT roundoff is not yet certified: composition tables of length
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
    if s in (0, t) and tail_eps is not None:
        raise ValueError(f"s = {s}, t = {t} has no tail and does not read tail_eps")
    ms = sorted(set(int(m) for m in grid))
    rhs_exp = float(composition_rhs_exponent(t, h))
    if tail_eps is None:
        tail_eps = 1e-6 if t == 2 else 0.05

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
        if t > 2:
            # (1, 2) sums two weights and reads no table
            gam = -float(composition_rhs_exponent(s, h)) - float(composition_rhs_exponent(t - s, h))
            if gam <= 1:
                raise TailBoundError(f"signed sum diverges for interior s={s}, t={t} at h={h}: tail exponent {gam} <= 1")
            too_large = [abs(m) for m in ms if 4 * abs(m) > length]
            if too_large:
                raise ValueError(f"|M| = {too_large[0]} too large for table length {length}")
        # negative M folds onto (t - s, t) at |M|, read in ascending |M| and
        # reversed into grid order; M = 0 is a group of its own.  The groups
        # are read in grid order and each point is judged once, as it is read
        kept = ms
        neg = sorted(-m for m in ms if m < 0)
        zero, pos = [m for m in ms if m == 0], [m for m in ms if m > 0]
        for ss, group, step in ((t - s, neg, -1), (s, zero, 1), (s, pos, 1)):
            if not group:
                continue
            val, cert = (x[::step].tolist() for x in _signed_group(ss, t, h, tuple(group), tail_eps, length))
            for m, v, c in zip(group[::step], val, cert):
                if c > tail_eps * v:
                    if t == 2:
                        raise _uncertified(tail_eps, float(m), 1)
                    raise TailBoundError(
                        f"signed-sum tail certificate {c / v:.3g} exceeds eps={tail_eps} "
                        f"(s={ss}, t={t}, h={h}, M={m}); raise tail_eps or enlarge the table"
                    )
            lhs.extend(val)
            err.extend(cert)
    ms_arr = np.array(kept, dtype=np.int64)
    rhs = (np.abs(ms_arr) + 1.0) ** rhs_exp
    return RatioCurve(ms_arr, np.array(lhs), rhs, np.array(err))
