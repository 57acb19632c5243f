"""Independent reference integrals for the tests; none of them uses lacsum's quadrature or kernels.

A trigonometric polynomial of degree D has mean equal to its average over
D + 1 equally spaced points, since every harmonic 0 < |h| <= D sums to zero
there. Exponential sums are evaluated from exact integer phases with libm
cos and sin.
"""

import numpy as np


def periodic_mean(fn, degree):
    """Mean over [0, 1) of fn, a vectorized trigonometric polynomial of degree <= degree."""
    m = degree + 1
    return np.mean(fn(np.arange(m) / m))


def exact_phase_sum(freqs, j, m):
    """S(j/m) for an int64 array j, from the exact phases (k j mod m)/m; needs k j < 2^63."""
    re = np.zeros(j.shape)
    im = np.zeros(j.shape)
    for k in freqs:
        ang = 2 * np.pi * ((k * j) % m / m)
        re += np.cos(ang)
        im += np.sin(ang)
    return re + 1j * im


def midpoint_l1(fs, m=2_000_000):
    """Midpoint rule for the mean of |S| on m cells, at theta_i = (2i+1)/(2m)."""
    odd = 2 * np.arange(m, dtype=np.int64) + 1
    return float(np.mean(np.abs(exact_phase_sum(fs.freqs, odd, 2 * m))))
