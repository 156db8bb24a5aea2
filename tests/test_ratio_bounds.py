import math

import numpy as np
import pytest

from bhbasis.ratio_bounds import (
    TailBoundError,
    composition_curve,
    geometric_grid,
    shifted_tail_curve,
    signed_composition_curve,
    split_sum_curve,
    weight_exponent,
)
from bhbasis.ratio_bounds import (
    _SERIES_TERMS,
    _composition_table,
    _fft_convolve_trunc,
    _series_integral,
    _weight_array,
)

from tests.curves import ratio_at


Q2 = float(weight_exponent(2))  # 5/7


def oracle_split_sum(alpha, beta, m):
    n = np.arange(1, m, dtype=np.float64)
    return float(np.sum(n ** (-alpha) * (m - n) ** (-beta)))


def oracle_shifted_bracket(alpha, beta, m, t=2_000_000):
    """Plain head sum plus an elementary integral bracket of the tail."""
    n = np.arange(1, t + 1, dtype=np.float64)
    head = float(np.sum((np.abs(n + m) + 1.0) ** (-alpha) * n ** (-beta)))
    s = alpha + beta
    # for n > t >= 2|m|: (|n+m|+1)^-a n^-b lies between (n+|m|+1)^-s-ish
    # envelopes; bound crudely by shifting the whole argument
    hi = (t - abs(m)) ** (1.0 - s) / (s - 1.0)
    lo = (t + abs(m) + 2.0) ** (1.0 - s) / (s - 1.0)
    return head + lo, head + hi


def oracle_compositions(h, l, m):
    q = float(weight_exponent(h))
    total = 0.0

    def rec(left, budget, prod):
        nonlocal total
        if left == 1:
            total += prod * budget ** (-q)
            return
        for z in range(1, budget - left + 2):
            rec(left - 1, budget - z, prod * z ** (-q))

    if m >= l:
        rec(l, m, 1.0)
    return total


def test_split_sum_examples():
    curve = split_sum_curve(Q2, Q2, 50)
    assert ratio_at(curve, 2) == pytest.approx(1.0 / 2.0 ** (1 - 2 * Q2), rel=1e-12)
    assert curve.lhs[0] == 1.0  # M = 2 has the single term n = 1
    for m in (3, 7, 29, 50):
        want = oracle_split_sum(Q2, Q2, m)
        assert curve.lhs[m - 2] == pytest.approx(want, rel=1e-12)


def test_split_sum_lhs_at_two_is_one_for_any_exponents():
    for alpha, beta in [(0.3, 0.9), (0.5, 0.5), (0.71, 0.11)]:
        assert split_sum_curve(alpha, beta, 2).lhs[0] == 1.0


def test_split_sum_domain_errors():
    with pytest.raises(ValueError):
        split_sum_curve(1.2, 0.5, 100)
    with pytest.raises(ValueError):
        split_sum_curve(0.5, 0.5, 1)


def test_split_sum_boundedness():
    # the ratio climbs toward the exact Beta-integral constant from below at
    # rate M^(alpha+beta-2) relative; boundedness by that constant is the
    # sharp invariant at finite scale
    curve = split_sum_curve(Q2, Q2, 10_000)
    limit = math.gamma(1 - Q2) ** 2 / math.gamma(2 - 2 * Q2)
    assert curve.sup_ratio <= limit * (1 + 1e-9)
    assert curve.ratio[-1] > 0.9 * limit
    ref = ratio_at(curve, 100)
    assert curve.ratio[curve.m >= 100].max() <= 2 * ref
    # positive but shrinking trend: convergence, not power growth
    early = curve.slope(100)
    late = curve.slope(3000)
    assert 0 < late < early


def test_shifted_tail_certificates_and_oracle():
    curve = shifted_tail_curve(Q2, Q2, -40, 40)
    assert np.all(curve.tail_err <= 1e-6 * curve.lhs)
    for m in (-40, -7, 0, 3, 40):
        lo, hi = oracle_shifted_bracket(Q2, Q2, m)
        i = list(curve.m).index(m)
        got, cert = curve.lhs[i], curve.tail_err[i]
        # the implementation's certified interval must meet the oracle's
        assert got - cert <= hi and got + cert >= lo, (m, lo, got, hi, cert)


def test_shifted_tail_finiteness_both_signs():
    curve = shifted_tail_curve(0.8, 0.9, -1000, 1000, grid=[-1000, -31, 0, 31, 1000])
    assert np.all(np.isfinite(curve.lhs)) and np.all(curve.lhs > 0)


def test_shifted_tail_divergence_error():
    with pytest.raises(ValueError):
        shifted_tail_curve(0.4, 0.5, 0, 10)


def test_slope_sides():
    curve = shifted_tail_curve(0.7, 0.8, -300, 300)
    assert curve.slope(100) == curve.slope(100, side="pos")
    assert all(math.isfinite(curve.slope(100, side=side)) for side in ("neg", "both"))
    for side in ("ngative", "Both", ""):
        with pytest.raises(ValueError, match="side must be"):
            curve.slope(100, side=side)


def test_composition_single_factor_ratio_is_exactly_one():
    for h in (2, 3):
        curve = composition_curve(1, h, 500)
        assert np.all(curve.ratio == 1.0)


def test_composition_small_values():
    curve = composition_curve(2, 2, 10)
    assert ratio_at(curve, 3) * 3.0 ** float(-3 / 7) == pytest.approx(2 * 2 ** (-Q2), rel=1e-12)
    for h, l in [(2, 2), (2, 3), (3, 2)]:
        curve = composition_curve(l, h, 40)
        for m in (l, l + 1, 17, 40):
            assert curve.lhs[m - l] == pytest.approx(oracle_compositions(h, l, m), rel=1e-10)


def test_composition_build_order_invariance():
    w = _composition_table(2, 1, 4000)
    s2 = np.convolve(w, w)[:4001]
    left = np.convolve(np.convolve(s2, w)[:4001], w)[:4001]
    right = np.convolve(s2, s2)[:4001]
    sel = left > 0
    assert np.max(np.abs(left[sel] - right[sel]) / left[sel]) < 1e-9


def test_composition_domain():
    with pytest.raises(ValueError):
        composition_curve(5, 2, 100)
    with pytest.raises(ValueError):
        composition_curve(0, 2, 100)


def test_fft_convolution_matches_direct():
    rng = np.random.default_rng(0)
    a, b = rng.random(3000), rng.random(3000)
    direct = np.convolve(a, b)[:3000]
    fft = _fft_convolve_trunc(a, b, 3000)
    assert np.max(np.abs(direct - fft)) < 1e-9


def test_fft_tables_match_iterated_convolution():
    # 8192 is just above the direct-convolution threshold, so every order
    # here is built by the half-size FFT from the shared weight spectrum
    length = 8192
    assert (length + 1) ** 2 > 40_000_000
    for h in (2, 3):
        w = _weight_array(h, length)
        direct = w.copy()
        for l in range(2, 2 * h + 1):
            direct = np.convolve(direct, w)[: length + 1]
            table = _composition_table(h, l, length)
            assert np.all(table[:l] == 0.0), (h, l)
            assert np.all(table >= 0.0), (h, l)
            rel = np.abs(table[l:] - direct[l:]) / direct[l:]
            assert rel.max() < 1e-12, (h, l, rel.max())


def _series_integral_loop(u, a, b, alpha, beta):
    """The coefficient loop _series_integral used before it was vectorised."""
    s = alpha + beta
    r = max(abs(a), abs(b), 1.0)
    kk = _SERIES_TERMS
    pa = np.zeros(kk + 1)
    pb = np.zeros(kk + 1)
    pa[0] = pb[0] = 1.0
    for j in range(1, kk + 1):
        pa[j] = pa[j - 1] * (-(alpha + j - 1) / j) * a
        pb[j] = pb[j - 1] * (-(beta + j - 1) / j) * b
    ck = np.convolve(pa, pb)[: kk + 1]
    k_arr = np.arange(kk + 1, dtype=np.float64)
    with np.errstate(under="ignore"):
        terms = ck * u ** (1.0 - s - k_arr) / (s + k_arr - 1.0)
    val = float(math.fsum(terms.tolist()))
    rho = r / u
    err = (u ** (1.0 - s) / (s + kk)) * (rho ** (kk + 1)) * (kk + 2) / (1 - rho) ** 2
    return val, 2.0 * abs(err)


def test_series_integral_matches_coefficient_loop():
    cases = [
        (17.0, 0.0, 0.0, Q2, Q2),
        (16.5, 3.0, 0.0, Q2, Q2),
        (40.0, -9.5, 0.0, 0.8, 0.9),
        (40.0, -9.5, 7.25, 0.8, 0.9),
        (1025.0, 256.0, -100.0, 0.6, 0.7),
        (524289.0, 131072.0, 0.0, 0.5714285714285714, 0.7142857142857143),
        (12.5, 2.0, -3.0, 0.3, 0.95),
    ]
    for u, a, b, alpha, beta in cases:
        val, err = _series_integral(u, a, b, alpha, beta)
        want_val, want_err = _series_integral_loop(u, a, b, alpha, beta)
        assert val == pytest.approx(want_val, rel=1e-13), (u, a, b)
        assert err == pytest.approx(want_err, rel=1e-13), (u, a, b)


def test_signed_delegation_matches_composition_exactly():
    comp = composition_curve(2, 2, 300)
    sign = signed_composition_curve(2, 2, 2, grid=range(2, 301))
    assert np.array_equal(comp.lhs, sign.lhs)
    # rhs convention differs: (|M|+1) raised to the same exponent
    assert sign.rhs[0] == pytest.approx((2 + 1.0) ** float(-3 / 7), rel=1e-12)
    neg = signed_composition_curve(0, 2, 2, grid=range(-300, 0))
    assert np.array_equal(neg.lhs[::-1], comp.lhs)


def test_signed_pair_diagonal_sum():
    # s=1, t=2 at M=0 is the plain sum of n^(-2q)
    curve = signed_composition_curve(1, 2, 2, grid=[0])
    n = np.arange(1, 3_000_001, dtype=np.float64)
    head = float(np.sum(n ** (-2 * Q2)))
    s = 2 * Q2
    lo = head + 3_000_001.0 ** (1 - s) / (s - 1)
    hi = head + 3_000_000.0 ** (1 - s) / (s - 1)
    got, cert = curve.lhs[0], curve.tail_err[0]
    assert got - cert <= hi and got + cert >= lo
    assert curve.rhs[0] == 1.0
    assert cert <= 1e-6 * got


def test_signed_sign_fold_symmetry():
    pos = signed_composition_curve(1, 3, 2, grid=[70])
    neg = signed_composition_curve(2, 3, 2, grid=[-70])
    assert pos.lhs[0] == pytest.approx(neg.lhs[0], rel=1e-12)


def test_signed_interior_refinement_consistency():
    for s, t, m in [(1, 3, 12), (2, 3, 55)]:
        coarse = signed_composition_curve(s, t, 2, grid=[m], length=1 << 17)
        fine = signed_composition_curve(s, t, 2, grid=[m], length=1 << 19)
        tol = coarse.tail_err[0] + fine.tail_err[0]
        assert abs(coarse.lhs[0] - fine.lhs[0]) <= tol, (s, t, m)


def test_signed_divergence_and_domain_errors():
    with pytest.raises(TailBoundError):
        signed_composition_curve(2, 4, 2, grid=[10])  # interior t = 2h diverges
    with pytest.raises(ValueError):
        signed_composition_curve(1, 5, 2, grid=[10])  # t > 2h
    with pytest.raises(ValueError):
        signed_composition_curve(3, 2, 2, grid=[10])


def test_signed_tail_eps_enforced():
    with pytest.raises(TailBoundError):
        signed_composition_curve(1, 3, 2, grid=[50], tail_eps=1e-9)


def test_geometric_grid():
    grid = geometric_grid(1, 10_000, include=(100,))
    assert grid[0] == 1 and grid[-1] == 10_000 and 100 in grid
    assert all(b > a for a, b in zip(grid, grid[1:]))
