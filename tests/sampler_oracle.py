"""The full-chunk sampler that `sampling.sample_set` replaced, kept verbatim
as an oracle, and the scalar reference of the uniform stream.

The sampler hashes every index of a 2^20-index chunk into fresh float64
uniforms and evaluates the power threshold of every index.  `sample_set`
must keep exactly the same elements: it tests only candidates against the
threshold, and its candidate filter may not lose an index this sampler
keeps.  `stream_uniform` computes one uniform in Python integers, the
reference for `sampling._premix` and `sampling._uniform_bits`.
"""

import numpy as np

from bhbasis.sampling import ModelParams, mix64

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV53 = 2.0 ** -53

_CHUNK = 1 << 20


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


def sample_set(params: ModelParams) -> tuple[int, ...]:
    """The elements of the random set for params, one chunk at a time."""
    expo = np.float64(params.inclusion_exponent)
    kept: list[np.ndarray] = []
    for lo in range(1, params.N + 1, _CHUNK):
        hi = min(params.N, lo + _CHUNK - 1)
        idx = np.arange(lo, hi + 1, dtype=np.uint64)
        u = _stream_uniform_block(params.seed, idx)
        thresh = idx.astype(np.float64) ** expo
        kept.append(idx[u < thresh])
    return tuple(int(x) for x in np.concatenate(kept))
