"""Random set model: independent inclusion of each integer n with probability n^(alpha-1).

The model has a single density exponent alpha = 2/(4h-1) tied to the order
parameter h >= 2, so that n is kept with probability n^(-(4h-3)/(4h-1)).
Inclusion decisions are made by a counter-based generator keyed by
(seed, n); the decision for index n does not depend on the window bound N
or on iteration order, so windows of different N with the same seed agree
on their common prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# 53-bit mantissa uniform step: value >> 11 scaled into [0, 1)
_INV53 = 2.0 ** -53

_CHUNK = 1 << 20


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijective mixer."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def stream_uniform(seed: int, n: int) -> float:
    """Uniform draw in [0, 1) for index n of the stream keyed by seed.

    Counter-based: u(seed, n) = mix64(mix64(seed) + n * golden) >> 11, scaled
    by 2^-53.  Pure integer arithmetic, identical across platforms.
    """
    state = (mix64(seed) + n * _GOLDEN) & _MASK64
    return (mix64(state) >> 11) * _INV53


def _stream_uniform_block(seed: int, n: np.ndarray) -> np.ndarray:
    """Vectorized stream_uniform for a uint64 index array."""
    with np.errstate(over="ignore"):
        x = (np.uint64(mix64(seed)) + n * np.uint64(_GOLDEN)).astype(np.uint64)
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX2)
        x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * _INV53


def alpha_fraction(h: int) -> Fraction:
    """Density exponent alpha = 2/(4h-1), kept exact until evaluation."""
    return Fraction(2, 4 * h - 1)


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
        return alpha_fraction(self.h)

    @property
    def inclusion_exponent(self) -> float:
        """float of alpha - 1 = -(4h-3)/(4h-1)."""
        return float(self.alpha - 1)


def inclusion_probability(n: int, params: ModelParams) -> float:
    """Probability that index n is included: n^(-(4h-3)/(4h-1)) in (0, 1].

    Evaluated in double precision through the same power routine used by
    sample_set, so scalar queries match the sampler's thresholds bit for bit.
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
    kept: list[np.ndarray] = []
    for lo in range(1, params.N + 1, _CHUNK):
        hi = min(params.N, lo + _CHUNK - 1)
        idx = np.arange(lo, hi + 1, dtype=np.uint64)
        u = _stream_uniform_block(params.seed, idx)
        thresh = idx.astype(np.float64) ** expo
        kept.append(idx[u < thresh])
    elements = tuple(int(x) for x in np.concatenate(kept))
    return SampledSet(elements, params)


def _exact_parts(x: np.ndarray) -> list[float]:
    """Floats whose exact sum is the exact sum of x (at most _CHUNK entries).

    Error-free extraction (Rump, Ogita and Oishi 2008, ExtractVector): with
    sigma a power of two above _CHUNK * max|x|, q = (sigma + x) - sigma
    keeps the high bits of each entry on the grid 2^-53 * sigma, x - q is the
    exact remainder, and every partial sum of q stays below sigma on that
    grid, so np.sum(q) is exact in any order.  Repeating on the remainder
    until it vanishes yields a short list of exact partial sums.
    """
    if x.size > _CHUNK:
        raise ValueError("at most _CHUNK terms per extraction")
    x = x.astype(np.float64)  # a private copy: the loop consumes it
    q = np.empty_like(x)
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


def expected_count(params: ModelParams, lo: int, hi: int) -> float:
    """Sum of inclusion probabilities over [lo, hi]: the exactly rounded sum of
    the float64 terms.

    Correct rounding makes the result independent of summation order, so it
    does not depend on numpy's summation strategy, on _CHUNK or on lo.
    """
    if lo < 1 or hi > params.N:
        raise ValueError("range must satisfy 1 <= lo, hi <= N")
    if lo > hi:
        return 0.0
    expo = np.float64(params.inclusion_exponent)
    parts: list[float] = []
    for start in range(lo, hi + 1, _CHUNK):
        stop = min(hi, start + _CHUNK - 1)
        idx = np.arange(start, stop + 1, dtype=np.float64)
        parts += _exact_parts(idx**expo)
    return math.fsum(parts)
