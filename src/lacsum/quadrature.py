"""Adaptive composite Gauss-Legendre quadrature of |S| on [0,1].

There is one rule, integrate_abs_adaptive: 8-point Gauss-Legendre on 8
first-level panels per unit of the highest harmonic k_max (64 nodes per
period), one integrand evaluation per level. norms.lp_norm_quadrature runs
it on the canonical set (sets.canonicalize): |S| of a*k + b is |S| of
k at a*theta, so the norm is the same and the cost follows the canonical
k_max, not the given one. |S| has kinks at the zeros of S, so any panel
that might contain a zero is bisected, to a fixed depth. A coarser first
level saves nothing: at one panel per harmonic, lipschitz * width >= 2 pi
> n >= max |S| for n <= 6, so every panel fails the kink test and is split
anyway; 8 to 128 points per period agree to 2e-15. Agreement is not
accuracy: panels that pass the kink test carry no error bound, and on
{1, 4, 24}, where S has no zero, the rule returns 1.5746186317190314,
7.05e-14 above the 30-digit 1.574618631718960863529, with bound 0.0
(ROADMAP item 11). The nodes and weights are literals, the bits of
numpy's leggauss(8), so the rule loads no numpy.polynomial. A panel's sum
is numpy's pairwise row sum of its 8 weighted values, not a BLAS dot, so
its bits do not follow the CPU's SIMD path; |S| is the caller's, norms._abs
in lp_norm_quadrature.

lp_norm_quadrature admits a canonical k_max <= MAX_HARMONIC = 2^21, i.e.
up to 2^27 first-level nodes; above it, FrequencyTooLarge sends callers to
Monte Carlo. The limit bounds time, not well: |S| of the canonical
{1, 2, 2^21} takes ~14 s and 91 MB on a 2-vCPU Xeon, while
{1, 2, 2^21 - 1, 2^21}, where |S| is small on a wide interval around 1/2,
ran 8 minutes without finishing and passed 4.5 GB. Blocks and the depth limit bound memory only where few panels fail
the kink test. L2 and L4 norms need no quadrature: they are exact (see
norms.lp_norm_quadrature).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# 8-point Gauss-Legendre on [-1, 1]: the bits of numpy's leggauss(8),
# written out so the rule loads no numpy.polynomial
_GL_X = np.array([float.fromhex(h) for h in (
    "-0x1.ebab1cb0acc66p-1", "-0x1.97e4ab249f41ep-1", "-0x1.0d129583284b4p-1", "-0x1.77ac94f3c7344p-3",
    "0x1.77ac94f3c7344p-3", "0x1.0d129583284b4p-1", "0x1.97e4ab249f41ep-1", "0x1.ebab1cb0acc66p-1",
)])
_GL_W = np.array([float.fromhex(h) for h in (
    "0x1.9ea1d04ca03aep-4", "0x1.c76fb531d2b94p-3", "0x1.413c50a25560ep-2", "0x1.736360b19933dp-2",
    "0x1.736360b19933dp-2", "0x1.413c50a25560ep-2", "0x1.c76fb531d2b94p-3", "0x1.9ea1d04ca03aep-4",
)])
_X01 = (_GL_X + 1.0) / 2.0  # nodes on [0,1]
_W01 = _GL_W / 2.0

MAX_HARMONIC = 1 << 21
_PANELS_PER_HARMONIC = 8

# Bisections of a first-level panel before a still-suspect panel is accepted.
# Near a zero of order m >= 2 the suspect set grows as width^(1/m - 1), so a
# depth relative to the first level, not an absolute width, bounds it.
_MAX_DEPTH = 20

# First-level panels of one integrand refined together, to bound peak memory:
# 2^17 panels are 2^20 nodes, and the rule on |S| for {1, 3, 2^17} peaks at
# 70 MB of arrays.
_BLOCK_PANELS = 1 << 17


def integrate_abs_adaptive(
    absfn: Callable[[np.ndarray], np.ndarray], lipschitz: float, max_harmonic: int
) -> tuple[float, float]:
    """(integral, bound) over [0,1] of a nonnegative lipschitz-Lipschitz function with kinks at its zeros.

    absfn evaluates the function at each level's nodes. A panel is accepted
    once its node minimum exceeds lipschitz * width (so the panel cannot
    reach zero), else bisected; at depth _MAX_DEPTH it is accepted anyway,
    within lipschitz * width^2, and bound sums those. Panels that passed the
    kink test are not in bound, and their error is not bounded either: it
    was <= 2.2e-15 on the closed forms tested, but |S| of {1, 4, 24}, which
    has no zero, comes out 7.05e-14 too high with bound 0.0 (ROADMAP item
    11). The first level goes in blocks of _BLOCK_PANELS panels, each
    refined before the next is evaluated.
    """
    npanels = _PANELS_PER_HARMONIC * max_harmonic
    total = bound = 0.0
    for start in range(0, npanels, _BLOCK_PANELS):
        lefts = np.arange(start, min(start + _BLOCK_PANELS, npanels), dtype=np.float64) / npanels
        width = 1.0 / npanels
        lip_width = lipschitz * width
        for depth in range(_MAX_DEPTH + 1):
            vals = absfn((lefts[:, None] + width * _X01).ravel()).reshape(-1, 8)
            # the kink test: some node of the panel is below lipschitz * width;
            # a panel's 8 comparisons are the 8 bytes of one uint64
            suspect = (vals < lip_width).view(np.uint64)[:, 0] != 0
            if depth == _MAX_DEPTH:
                bound += np.count_nonzero(suspect) * lipschitz * width * width
                suspect[:] = False
            vals *= _W01  # in place: the kink test has read vals
            # a pairwise row sum, not a BLAS dot, whose bits follow the CPU
            total += float((width * vals.sum(axis=1))[~suspect].sum())
            del vals  # freed before the next level is evaluated
            if not suspect.any():
                break
            lefts = np.repeat(lefts[suspect], 2)
            width /= 2.0
            lip_width /= 2.0  # lipschitz * width: halving is exact
            lefts[1::2] += width
    return total, bound
