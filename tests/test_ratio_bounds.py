import math

import numpy as np
import pytest

from bhbasis import ratio_bounds
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
    _series_integrals,
    _weight_array,
)

from tests import ratio_points
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
    fft = _fft_convolve_trunc(a, np.fft.rfft(b, 8192), 3000)
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
    """The coefficient loop the series integral used before it was vectorised."""
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
    # the second shift b of the reference loop is 0, as in every tail bracket
    cases = [
        (17.0, 0.0, Q2, Q2),
        (16.5, 3.0, Q2, Q2),
        (40.0, -9.5, 0.8, 0.9),
        (524289.0, 131072.0, 0.5714285714285714, 0.7142857142857143),
    ]
    for u, a, alpha, beta in cases:
        (val,), (err,) = _series_integrals(np.array([u]), np.array([a]), alpha, beta)
        want_val, want_err = _series_integral_loop(u, a, 0.0, alpha, beta)
        assert val == pytest.approx(want_val, rel=1e-13), (u, a)
        assert err == pytest.approx(want_err, rel=1e-13), (u, a)


def test_series_integrals_rows_equal_per_point_calls():
    # one batched call per (alpha, beta) gives each row's per-point bytes
    u = np.array([17.0, 16.5, 40.0, 1025.0, 524289.0, 524288.5])
    a = np.array([0.0, 3.0, -9.5, 256.0, 131072.0, 5.0])
    for alpha, beta in [(Q2, Q2), (0.5714285714285714, 0.7142857142857143)]:
        vals, errs = _series_integrals(u, a, alpha, beta)
        for row, (ui, ai) in enumerate(zip(u.tolist(), a.tolist())):
            assert (vals[row], errs[row]) == ratio_points.series_integral(ui, ai, 0.0, alpha, beta), (row, alpha)


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
    assert pos.lhs[0] == neg.lhs[0]


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


@pytest.mark.parametrize("s", [0, 2])
def test_signed_without_tail_refuses_tail_eps(s):
    # s = 0 and s = t are plain composition sums: there is no tail to certify
    grid = [-5] if s == 0 else [5]
    assert signed_composition_curve(s, 2, 2, grid=grid).tail_err.tolist() == [0.0]
    with pytest.raises(ValueError, match="does not read tail_eps"):
        signed_composition_curve(s, 2, 2, grid=grid, tail_eps=1e-30)


def test_signed_tail_eps_enforced():
    with pytest.raises(TailBoundError):
        signed_composition_curve(1, 3, 2, grid=[50], tail_eps=1e-9)


def test_geometric_grid():
    grid = geometric_grid(1, 10_000, include=(100,))
    assert grid[0] == 1 and grid[-1] == 10_000 and 100 in grid
    assert all(b > a for a, b in zip(grid, grid[1:]))


def _per_point_curve(s, t, h, grid, tail_eps, length):
    """Part iv's interior lhs and certificates, one reference call per M."""
    pairs = [
        ratio_points.signed_sum_point(s if m >= 0 else t - s, t, h, abs(m), tail_eps, length)
        for m in sorted(grid)
    ]
    return np.array([v for v, _ in pairs]), np.array([c for _, c in pairs])


@pytest.mark.parametrize("s, t, h", [(1, 2, 2), (1, 3, 2), (2, 3, 2), (1, 4, 3)])
def test_signed_curve_matches_per_point_code(s, t, h):
    grid = [-3000, -700, -100, -31, -5, -1, 0, 1, 2, 7, 64, 100, 999, 4000]
    eps = 1e-6 if (s, t) == (1, 2) else 0.05
    curve = signed_composition_curve(s, t, h, grid=grid, tail_eps=eps, length=1 << 17)
    lhs, err = _per_point_curve(s, t, h, grid, eps, 1 << 17)
    assert curve.lhs.tobytes() == lhs.tobytes()
    assert curve.tail_err.tobytes() == err.tobytes()


def test_shifted_tail_curve_matches_per_point_code():
    grid = [-2000, -333, -40, -7, -1, 0, 1, 3, 40, 512, 2000]
    for alpha, beta, eps in [(Q2, Q2, 1e-6), (0.6, 0.7, 1e-6), (0.8, 0.9, 1e-9)]:
        curve = shifted_tail_curve(alpha, beta, -2000, 2000, tail_eps=eps, grid=grid)
        pairs = [ratio_points.shifted_tail_point(alpha, beta, m, eps) for m in grid]
        assert curve.lhs.tobytes() == np.array([v for v, _ in pairs]).tobytes()
        assert curve.tail_err.tobytes() == np.array([c for _, c in pairs]).tobytes()


def test_uncertifiable_point_mid_grid_is_named():
    # at length 2^17 the (1, 3) certificates grow with M: 0.0055 at M = 50,
    # 0.0068 at M = 400, so M = 400 is the first point above eps = 0.006
    grid = [1, 2, 3, 50, 400, 1000, 5000]
    with pytest.raises(TailBoundError, match=r"M=400\)"):
        signed_composition_curve(1, 3, 2, grid=grid, tail_eps=0.006, length=1 << 17)
    with pytest.raises(TailBoundError, match=r"M=400\)"):
        _per_point_curve(1, 3, 2, grid, 0.006, 1 << 17)


def test_negative_group_error_names_first_m_in_grid_order():
    # the negative group is cached in ascending |M|; its error still names
    # the first failing M in grid order, the largest |M| that fails
    grid = [-5000, -1000, -400, -50, -3]
    with pytest.raises(TailBoundError, match=r"M=5000\)"):
        signed_composition_curve(2, 3, 2, grid=grid, tail_eps=0.006, length=1 << 17)
    with pytest.raises(ValueError, match="70000 too large"):
        signed_composition_curve(1, 3, 2, grid=[-70000, -40000, 5], length=1 << 17)
    # M = 0 is cached apart from M > 0, but a too-large M > 0 still comes
    # first, as in the sign group M >= 0
    with pytest.raises(ValueError, match="70000 too large"):
        signed_composition_curve(1, 3, 2, grid=[0, 70000], tail_eps=1e-9, length=1 << 17)
    # (1, 2): the cutoff named is that of M = -300 (4 * 300 + 1 doubled past 2^24)
    with pytest.raises(TailBoundError, match="below cutoff 19677184$"):
        signed_composition_curve(1, 2, 2, grid=[-300, -5, 0, 5, 300], tail_eps=1e-13)


def _count_shifted_sums(monkeypatch) -> list:
    """Record the a-array of every _certified_shifted_sums call."""
    calls = []
    real = ratio_bounds._certified_shifted_sums

    def counted(a, *args, **kwargs):
        calls.append(a.tolist())
        return real(a, *args, **kwargs)

    monkeypatch.setattr(ratio_bounds, "_certified_shifted_sums", counted)
    return calls


def test_failing_group_is_evaluated_once(monkeypatch):
    # for (1, 2) the negative group (5, 300) is the positive one too; the
    # curve reads it once and judges it in grid order, so no other group runs
    calls = _count_shifted_sums(monkeypatch)
    ratio_bounds._signed_group.cache_clear()
    with pytest.raises(TailBoundError, match="below cutoff 19677184$"):
        signed_composition_curve(1, 2, 2, grid=[-300, -5, 0, 5, 300], tail_eps=1e-13)
    assert calls == [[5.0, 300.0]]


def test_failing_group_is_served_from_the_cache(monkeypatch):
    ratio_bounds._signed_group.cache_clear()
    with pytest.raises(TailBoundError):
        signed_composition_curve(1, 2, 2, grid=[-300, -5, 0, 5, 300], tail_eps=1e-13)
    calls = _count_shifted_sums(monkeypatch)
    with pytest.raises(TailBoundError, match="below cutoff 19677184$"):
        signed_composition_curve(1, 2, 2, grid=[-300, -5, 0, 5, 300], tail_eps=1e-13)
    assert calls == []


@pytest.mark.parametrize(
    "curve",
    [
        lambda: shifted_tail_curve(0.6, 0.7, -10, 10, tail_eps=1e-13),
        lambda: signed_composition_curve(1, 2, 2, grid=[-300, -5, 0, 5, 300], tail_eps=1e-13),
    ],
    ids=["ii", "iv-1-2"],
)
def test_uncertifiable_tail_is_refused_after_one_round(curve, monkeypatch):
    # no entry certifies at 1e-13 below the cap, and the half-width at its
    # last cutoff shows that after the first round: no head grows past its
    # first cutoff (without the refusal the heads reach about 2^24)
    tops = []
    real = ratio_bounds._inverse_powers

    def recorded(pw, top, alpha):
        tops.append(top)
        return real(pw, top, alpha)

    monkeypatch.setattr(ratio_bounds, "_inverse_powers", recorded)
    ratio_bounds._signed_group.cache_clear()
    with pytest.raises(TailBoundError, match="below cutoff"):
        curve()
    # one round reads both power vectors once
    assert len(tops) == 2 and max(tops) < 2000, tops


def test_refusal_spares_a_point_certified_at_its_last_cutoff(monkeypatch):
    # with the cap lowered to 2^12, tighten tail_eps just below the largest
    # relative certificate of the per-point reference, which has no refusal,
    # until the reference refuses the grid.  Then that certificate is one
    # point's at its last cutoff: at eps just above it every point
    # certifies, that one with a margin of 1e-12, and the curve gives the
    # reference's bytes; just below it the curve gives its message
    for module in (ratio_bounds, ratio_points):
        monkeypatch.setattr(module, "_T_CAP", 1 << 12)
    alpha, beta, grid = 0.6, 0.7, [-7, 0, 5, 40]

    def reference(eps):
        return [ratio_points.shifted_tail_point(alpha, beta, m, eps) for m in grid]

    pairs = reference(1.0)
    while True:
        stricter = max(c / v for v, c in pairs) * (1 - 1e-9)
        try:
            pairs = reference(stricter)
        except TailBoundError as exc:
            message = str(exc)
            break
    eps = max(c / v for v, c in pairs) * (1 + 1e-12)
    pairs = reference(eps)
    curve = shifted_tail_curve(alpha, beta, -7, 40, tail_eps=eps, grid=grid)
    assert curve.lhs.tobytes() == np.array([v for v, _ in pairs]).tobytes()
    assert curve.tail_err.tobytes() == np.array([c for _, c in pairs]).tobytes()
    with pytest.raises(TailBoundError) as exc:
        shifted_tail_curve(alpha, beta, -7, 40, tail_eps=stricter, grid=grid)
    assert str(exc.value) == message


def test_too_large_m_raises_before_any_head(monkeypatch):
    # |M| = 70000 exceeds a quarter of 2^17; no head dot product may run first
    _composition_table(2, 2, 1 << 17)

    def no_dot(*args, **kwargs):
        raise AssertionError("a head was computed")

    monkeypatch.setattr(np, "dot", no_dot)
    with pytest.raises(ValueError, match="70000 too large"):
        signed_composition_curve(1, 3, 2, grid=[5, 70000], length=1 << 17)


def test_interior_m_above_a_quarter_of_the_table_is_refused(monkeypatch):
    # the tail bracket beyond the table starts at u = length + 1/2 and needs
    # u >= 4|M|: 2^17 is the last |M| a 2^19 table serves, and 2^17 + 1 is
    # refused before any table or envelope is looked up
    curve = signed_composition_curve(1, 3, 2, grid=[131072])
    assert curve.lhs[0] == pytest.approx(9.2372, rel=1e-4)
    assert curve.tail_err[0] == pytest.approx(0.0714, rel=1e-2)

    def no_table(*args, **kwargs):
        raise AssertionError("a table was looked up")

    monkeypatch.setattr(ratio_bounds, "_composition_table", no_table)
    monkeypatch.setattr(ratio_bounds, "_envelope", no_table)
    for grid in ([131073], [-131073], [5, 131073]):
        with pytest.raises(ValueError, match="131073 too large"):
            signed_composition_curve(1, 3, 2, grid=grid)


@pytest.mark.parametrize("h", [2, 3])
def test_mirror_curves_agree_bytewise_in_either_order(h):
    # curve (s, t) at -M is curve (t - s, t) at M, byte for byte, whichever
    # of the two runs first on a cold group cache
    pos = [1, 7, 100, 3000]
    grid = [-m for m in pos] + [0] + pos
    # every convergent interior (s, t): 0 < s < t < 2h
    for s, t in [(s, t) for t in range(2, 2 * h) for s in range(1, t)]:
        eps = None if t == 2 else 0.5
        runs = []
        for order in (((s, t), (t - s, t)), ((t - s, t), (s, t))):
            ratio_bounds._signed_group.cache_clear()
            kwargs = {"grid": grid, "tail_eps": eps, "length": 1 << 17}
            runs.append({pair: signed_composition_curve(*pair, h, **kwargs) for pair in order})
            # M = 0 is a group of its own, so both nonzero groups of the
            # second curve (and the first's positive one, if it is its own
            # mirror) come from the cache
            assert ratio_bounds._signed_group.cache_info().hits == (4 if 2 * s == t else 2), (h, order)
        for curves in runs:
            here, mirror = curves[(s, t)], curves[(t - s, t)]
            i, j = np.searchsorted(here.m, [-m for m in pos]), np.searchsorted(mirror.m, pos)
            assert here.lhs[i].tobytes() == mirror.lhs[j].tobytes(), (h, s, t)
            assert here.tail_err[i].tobytes() == mirror.tail_err[j].tobytes(), (h, s, t)
        for pair in ((s, t), (t - s, t)):
            assert runs[0][pair].lhs.tobytes() == runs[1][pair].lhs.tobytes(), (h, pair)
            assert runs[0][pair].tail_err.tobytes() == runs[1][pair].tail_err.tobytes(), (h, pair)


def test_mirror_curve_runs_no_head(monkeypatch):
    # on a symmetric grid without 0, both sign groups of (2, 3) are the
    # groups (1, 3) already evaluated
    grid = [-700, -5, 5, 700]
    ratio_bounds._signed_group.cache_clear()
    first = signed_composition_curve(1, 3, 2, grid=grid, length=1 << 17)

    def no_dot(*args, **kwargs):
        raise AssertionError("a head was computed")

    monkeypatch.setattr(np, "dot", no_dot)
    mirror = signed_composition_curve(2, 3, 2, grid=grid, length=1 << 17)
    assert mirror.lhs.tobytes() == first.lhs[::-1].tobytes()
    assert ratio_bounds._signed_group.cache_info().hits == 2


def test_cached_groups_are_read_only():
    ratio_bounds._signed_group.cache_clear()
    curve = signed_composition_curve(1, 3, 2, grid=[-70, -5, 5, 70], length=1 << 17)
    for val, cert in (ratio_bounds._signed_group(s, 3, 2, (5, 70), 0.05, 1 << 17) for s in (1, 2)):
        assert not val.flags.writeable and not cert.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            val[0] = 0.0
    assert curve.lhs[2:].tolist() == ratio_bounds._signed_group(1, 3, 2, (5, 70), 0.05, 1 << 17)[0].tolist()


def _shifted_sum_bracket(alpha, beta, m, n_head=1 << 22):
    """Independent bracket of part ii's sum_{n >= 1} (|n+M|+1)^-alpha n^-beta:
    an exact head over n <= n_head plus closed-form integral bounds of the
    rest, where the summand lies between (n + max(a, 0))^-s and
    (n + min(a, 0))^-s for a = M + 1 and s = alpha + beta, decreasing in n."""
    s, a = alpha + beta, m + 1.0
    head = 0.0
    for lo in range(1, n_head + 1, 1 << 20):
        n = np.arange(lo, min(lo + (1 << 20), n_head + 1), dtype=np.float64)
        head += float(np.sum((np.abs(n + m) + 1.0) ** (-alpha) * n ** (-beta)))
    low = (n_head + 1 + max(a, 0.0)) ** (1 - s) / (s - 1)
    high = (n_head + min(a, 0.0)) ** (1 - s) / (s - 1)
    return head + low, head + high


@pytest.mark.parametrize("m", [150_000, -150_000])
def test_shifted_sum_certified_beyond_coefficient_overflow(m):
    # a^k overflows for |a| near 1.5e5 at k = 60; those rows carry (a/u)^k
    curve = shifted_tail_curve(0.6, 0.7, -10, 10, grid=[m])
    lo, hi = _shifted_sum_bracket(0.6, 0.7, m)
    assert lo <= curve.lhs[0] <= hi, (lo, curve.lhs[0], hi)
    assert curve.tail_err[0] <= 1e-6 * curve.lhs[0]
    if m > 0:
        assert (round(lo, 6), round(hi, 6)) == (0.165904, 0.166264)


def test_signed_pair_certified_beyond_coefficient_overflow():
    # part iv's (1, 2) at M >= 1 sums (n+M)^-q n^-q over n >= 1, part ii's sum at M - 1
    curve = signed_composition_curve(1, 2, 2, grid=[-150_000, 150_000])
    lo, hi = _shifted_sum_bracket(Q2, Q2, 150_000 - 1)
    assert curve.lhs[0] == curve.lhs[1]
    assert lo <= curve.lhs[1] <= hi, (lo, curve.lhs[1], hi)
    assert curve.tail_err[1] <= 1e-6 * curve.lhs[1]
