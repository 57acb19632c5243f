"""Independent reference integrals for the tests; none of them uses lacsum's quadrature or kernels.

A trigonometric polynomial of degree D has mean equal to its average over
D + 1 equally spaced points, since every harmonic 0 < |h| <= D sums to zero
there. Exponential sums are evaluated from exact integer phases with libm
cos and sin.
"""

import math

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


def abs_cos_sum_mean(terms, cuts):
    """Mean over [0, 1] of |sum a cos(pi w t)| for terms [(a, w), ...], w > 0.

    cuts must include every sign change in (0, 1); between them the sum keeps
    its sign, so the mean is a sum of exact antiderivative differences.
    """
    def anti(t):
        return sum(a * math.sin(math.pi * w * t) / (math.pi * w) for a, w in terms)

    edges = (0.0, *cuts, 1.0)
    return sum(abs(anti(b) - anti(a)) for a, b in zip(edges, edges[1:]))


def l1_1_2_6_7():
    """||S||_1 for {1,2,6,7}: S = z(1+z)(1+z^5), |S| = 4|cos(pi t) cos(5 pi t)| = 2|cos 4 pi t + cos 6 pi t|.

    Double zero at 1/2, simple zeros at 1/10, 3/10, 7/10, 9/10.
    """
    return abs_cos_sum_mean([(2.0, 4), (2.0, 6)], (0.1, 0.3, 0.5, 0.7, 0.9))


def l1_1_2_4_5_6_7_9_10():
    """||S||_1 for {1,2,4,5,6,7,9,10}: |S| = 2|cos pi t + cos 3 pi t + cos 7 pi t + cos 9 pi t|.

    Triple zero at 1/2; the other zeros are 1/10, 1/6, 3/10, 7/10, 5/6, 9/10.
    """
    return abs_cos_sum_mean([(2.0, 1), (2.0, 3), (2.0, 7), (2.0, 9)],
                            (1 / 10, 1 / 6, 3 / 10, 1 / 2, 7 / 10, 5 / 6, 9 / 10))
