"""Counter-based random streams for reproducible, scheduling-independent sampling.

Every chunk of draws is generated by a Philox generator keyed by
(seed, stream tag, chunk index), so the sample stream depends only on the
chunk partition, never on which worker produced it.

Stream tags keep independent uses of the same seed apart:
  0  uniform theta draws, drawn only by norms._mc_mean for every Monte Carlo statistic
  1  the smoothing Gaussian Z of the CLT chain audit

numpy.random (~6 MB of resident memory) is named here only at call time, as
np.random.Philox and np.random.Generator, so a process that draws nothing
(quadrature, energy, moments, exhaustive search) never loads it. The first
draw would load it on whatever thread makes it, so norms._mc_mean, the
driver of every draw on the worker pool, imports it on the caller's thread
before the pool starts.
"""

from __future__ import annotations

import numpy as np

STREAM_THETA = 0
STREAM_Z = 1


def _philox(seed: int, stream: int, chunk: int) -> np.random.Philox:
    key = np.array(
        [np.uint64(seed), np.uint64((stream << 56) ^ chunk)],  # McConfig keeps seed in [0, 2^64)
        dtype=np.uint64,
    )
    return np.random.Philox(key=key)


def chunk_uniform63(seed: int, stream: int, chunk: int, count: int) -> np.ndarray:
    """count dyadic numerators m, theta = m / 2^63, uniform on [0,1).

    Each m is a raw 64-bit Philox word shifted right by one. For the range
    [0, 2^63) numpy's bounded draw integers(0, 2^63) never rejects and
    returns exactly these values, so the stream is the same, at half the cost.
    """
    m = _philox(seed, stream, chunk).random_raw(count)
    m >>= np.uint64(1)
    return m


def chunk_gaussian_pairs(seed: int, stream: int, chunk: int, count: int, sigma: float) -> np.ndarray:
    """count iid N(0, sigma^2) pairs, shape (count, 2)."""
    rg = np.random.Generator(_philox(seed, stream, chunk))
    z = rg.standard_normal((count, 2))
    z *= sigma  # in place: the same IEEE products without a second array
    return z


def chunk_layout(total: int, chunk_size: int) -> list[tuple[int, int]]:
    """Fixed partition of `total` draws into (chunk index, count) pieces; none for total <= 0."""
    nchunks = (total + chunk_size - 1) // chunk_size
    return [
        (c, min(chunk_size, total - c * chunk_size))
        for c in range(nchunks)
    ]
