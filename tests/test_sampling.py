import hashlib
import math

import numpy as np
import pytest

from bhbasis.sampling import (
    ModelParams,
    SampledSet,
    expected_count,
    inclusion_probability,
    sample_set,
)
from bhbasis import sampling
from bhbasis.sampling import _CHUNK, _stream_uniform_block
from tests import sampler_oracle
from tests.sampler_oracle import stream_uniform


def test_inclusion_probability_examples():
    p = ModelParams(2, 1000, 0)
    assert inclusion_probability(1, p) == 1.0
    # 128^(-5/7) = 2^-5 up to one ulp of the double-precision power
    assert inclusion_probability(128, p) == pytest.approx(0.03125, abs=1e-12)
    assert inclusion_probability(3, p) == pytest.approx(3.0 ** (-5.0 / 7.0), abs=1e-12)
    assert abs(inclusion_probability(3, p) - 0.45624) < 1e-4


def test_inclusion_probability_domain_error():
    p = ModelParams(2, 10, 0)
    with pytest.raises(ValueError):
        inclusion_probability(0, p)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 10, 0)
    with pytest.raises(ValueError):
        ModelParams(2, 0, 0)
    with pytest.raises(ValueError):
        ModelParams(2, 10, -1)
    with pytest.raises(ValueError):
        ModelParams(2, 10, 1 << 64)


def test_alpha_is_derived_exact():
    from fractions import Fraction

    assert ModelParams(2, 10, 0).alpha == Fraction(2, 7)
    assert ModelParams(3, 10, 0).alpha == Fraction(2, 11)
    assert ModelParams(2, 10, 0).inclusion_exponent == float(Fraction(-5, 7))


def test_singleton_window_always_contains_one():
    for h in (2, 3):
        for seed in (0, 1, 99991):
            s = sample_set(ModelParams(h, 1, seed))
            assert s.elements == (1,)


def test_one_always_included():
    for seed in range(100):
        s = sample_set(ModelParams(2, 50, seed))
        assert s.elements[0] == 1


def test_determinism_and_scalar_reference():
    params = ModelParams(2, 10_000, 123456)
    s1 = sample_set(params)
    s2 = sample_set(params)
    assert s1.elements == s2.elements
    # vectorized stream agrees with the pure-int reference implementation,
    # also when its buffers are reused for further, shorter index arrays
    out, tmp = np.empty(5, dtype=np.uint64), np.empty(5, dtype=np.uint64)
    cases = [
        (params.seed, [1, 2, 17, 999, 10_000]),
        (7, [_CHUNK, 2**40 + 1, 3]),
        (2**64 - 1, [2**63 + 5]),
    ]
    for seed, idx in cases:
        m = len(idx)
        k = _stream_uniform_block(seed, np.array(idx, dtype=np.uint64), out[:m], tmp[:m])
        for i, n in enumerate(idx):
            assert float(k[i]) * 2.0**-53 == stream_uniform(seed, n)


def test_sample_set_matches_full_chunk_oracle():
    # N at and around the block edges and the edges 2^k of the first
    # block's dyadic runs, for every h the oracle supports
    run_edges = {n for k in range(1, 16) for n in (2**k - 1, 2**k, 2**k + 1)}
    for h in (2, 3, 4, 5):
        for n in sorted(run_edges | {1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7}):
            for seed in [*range(12), 99991, 2**64 - 1]:
                params = ModelParams(h, n, seed)
                assert sample_set(params).elements == sampler_oracle.sample_set(params), (h, n, seed)
    # the sets B of criterion 3's seeds, pinned as computed by the oracle
    digest = hashlib.sha256()
    for seed in range(1, 25):
        elements = sample_set(ModelParams(2, 10**7, seed)).elements
        digest.update(np.asarray(elements, dtype="<u8").tobytes())
    assert digest.hexdigest() == "0ad5942c8450777b1a11ccbc556fbc8f910aee9be133bd248c8b73ffb957b00a"


def test_membership_matches_threshold_rule():
    params = ModelParams(3, 3000, 42)
    s = sample_set(params)
    members = set(s.elements)
    for n in range(1, 3001):
        expected = stream_uniform(params.seed, n) < inclusion_probability(n, params)
        assert (n in members) == expected


def test_nested_windows_prefix_consistent():
    params = ModelParams(2, 5000, 777)
    full = sample_set(params)
    small = sample_set(ModelParams(2, 500, 777))
    assert small.elements == tuple(x for x in full.elements if x <= 500)


def test_binomial_bands_per_index():
    m = 600
    params_list = [ModelParams(2, 2000, seed) for seed in range(m)]
    targets = [2, 17, 100, 1234]
    hits = {n: 0 for n in targets}
    for p in params_list:
        s = set(sample_set(p).elements)
        for n in targets:
            hits[n] += n in s
    for n in targets:
        alpha = inclusion_probability(n, params_list[0])
        sigma = (m * alpha * (1 - alpha)) ** 0.5
        assert abs(hits[n] - m * alpha) <= 4 * sigma, (n, hits[n], m * alpha, sigma)


def test_expected_count_examples():
    p = ModelParams(2, 10**6, 0)
    assert expected_count(p, 1, 1) == 1.0
    assert expected_count(p, 5, 4) == 0.0
    direct = 1 + 2.0 ** (-5 / 7) + 3.0 ** (-5 / 7) + 4.0 ** (-5 / 7)
    assert expected_count(p, 1, 4) == pytest.approx(direct, abs=1e-12)
    assert expected_count(p, 1, 4) == pytest.approx(2.4374, abs=1e-3)


def _inclusion_terms(p, lo, hi):
    """The float64 terms expected_count adds, evaluated over the same chunks."""
    expo = np.float64(p.inclusion_exponent)
    starts = range(lo, hi + 1, _CHUNK)
    chunks = [np.arange(s, min(hi, s + _CHUNK - 1) + 1, dtype=np.float64) ** expo for s in starts]
    return np.concatenate(chunks).tolist()


def test_expected_count_is_exactly_rounded(monkeypatch):
    for h in (2, 3):
        for lo, hi in ((1, _CHUNK + 5), (12_345, 2 * _CHUNK + 17)):
            p = ModelParams(h, hi, 0)
            exact = math.fsum(_inclusion_terms(p, lo, hi))
            assert expected_count(p, lo, hi) == exact
            # correct rounding leaves no trace of the chunking
            monkeypatch.setattr(sampling, "_CHUNK", 1000)
            assert expected_count(p, lo, hi) == exact
            monkeypatch.undo()
    # the value stored in the golden report (h=2, N=2e4)
    assert expected_count(ModelParams(2, 20_000, 1), 1, 20_000) == 56.33993700880703


def test_expected_count_equals_fsum_on_random_ranges():
    # every block past the first is summed by one exact split; the result is
    # still the exactly rounded sum of the same float64 terms
    rng = np.random.default_rng(31)
    for _ in range(12):
        h = int(rng.integers(2, 6))
        lo = int(rng.integers(1, 3 * _CHUNK))
        hi = lo + int(rng.integers(0, 6 * _CHUNK))
        p = ModelParams(h, hi, 0)
        assert expected_count(p, lo, hi) == math.fsum(_inclusion_terms(p, lo, hi)), (h, lo, hi)


def test_split_is_exact_within_a_factor_2():
    rng = np.random.default_rng(8)
    for scale in (1.0, 2.0**-20, 3.0**-7):
        x = rng.uniform(1.0, 2.0, _CHUNK) * scale  # full random mantissas
        parts = sampling._split_parts(x.copy(), np.empty_like(x))
        assert len(parts) == 2 and math.fsum(parts) == math.fsum(x.tolist())
    for bad in ([1.0, 0.49], [0.0, 0.0], [1.0, float("nan")]):
        with pytest.raises(ValueError, match="factor 2"):
            sampling._split_parts(np.array(bad), np.empty(2))


def test_mean_size_concentrates():
    n = 10**6
    v = expected_count(ModelParams(2, n, 0), 1, n)
    sizes = [len(sample_set(ModelParams(2, n, seed))) for seed in range(200)]
    assert abs(np.mean(sizes) - v) <= 3 * v**0.5


def test_json_round_trip():
    s = sample_set(ModelParams(2, 300, 5))
    d = s.to_json_dict()
    assert set(d) == {"h", "N", "seed", "elements"}
    assert d["elements"] == sorted(d["elements"])
    back = SampledSet(tuple(d["elements"]), ModelParams(d["h"], d["N"], d["seed"]))
    assert back == s


def test_sampled_set_validation():
    p = ModelParams(2, 10, 0)
    with pytest.raises(ValueError):
        SampledSet((3, 2), p)
    with pytest.raises(ValueError):
        SampledSet((2, 11), p)
