import numpy as np
import pytest
from numpy.random import Generator, Philox

from lacsum import rng


@pytest.mark.parametrize("seed", [0, 3, 2**63 + 5, 12345678901234567])
@pytest.mark.parametrize("chunk,count", [(0, 1), (1, 7), (5, 65536), (9, 100001)])
def test_theta_draws_equal_bounded_philox_integers(seed, chunk, count):
    # the raw word shifted right by one is exactly numpy's bounded draw on
    # [0, 2^63), so the theta stream is that of integers(0, 2**63)
    key = np.array([seed % 2**64, (rng.STREAM_THETA << 56) ^ chunk], dtype=np.uint64)
    want = Generator(Philox(key=key)).integers(0, 2**63, size=count, dtype=np.uint64)
    got = rng.chunk_uniform63(seed, rng.STREAM_THETA, chunk, count)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)
