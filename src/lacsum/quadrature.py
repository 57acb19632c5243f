"""Adaptive composite Gauss-Legendre quadrature of |S| on [0,1].

There is one rule: 8-point Gauss-Legendre on 8 first-level panels per unit
of the highest harmonic k_max (64 nodes per period). |S| has kinks at the
zeros of S, so any panel that might contain a zero is bisected. A coarser
first level saves nothing: at one panel per harmonic, lipschitz * width >=
2 pi > n >= max |S| for n <= 6, so every panel fails the kink test and is
split anyway, and rules from 8 to 128 points per period agree to ~2e-15.

The rule accepts k_max <= MAX_HARMONIC = 2^21, i.e. up to 2^27 first-level
nodes; above it, FrequencyTooLarge sends callers to Monte Carlo. The limit
bounds time; memory is bounded by refining in blocks. L2 and L4 norms need
no quadrature: they are exact (see norms.lp_norm_quadrature).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import FrequencyTooLarge

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_X01 = (_GL_X + 1.0) / 2.0  # nodes on [0,1]
_W01 = _GL_W / 2.0

MAX_HARMONIC = 1 << 21
_PANELS_PER_HARMONIC = 8

# Panels narrower than this are accepted outright; their residual error is
# O(lipschitz * _MIN_WIDTH^2) each. First-level widths are at most 1/8 and
# halve per level, so no panel is split more than ~41 times.
_MIN_WIDTH = 1e-13

# First-level panels refined together, to bound peak memory: 2^17 panels are
# 2^20 nodes, and the rule on |S| for {1, 3, 2^17} peaks at 70 MB of arrays.
_BLOCK_PANELS = 1 << 17


def panel_count(max_harmonic: int) -> int:
    """First-level panels for a given highest harmonic; raises above MAX_HARMONIC."""
    if max_harmonic > MAX_HARMONIC:
        raise FrequencyTooLarge(
            f"harmonic {max_harmonic} exceeds the quadrature limit {MAX_HARMONIC}; "
            "use Monte Carlo instead"
        )
    return _PANELS_PER_HARMONIC * max_harmonic


def integrate_abs_adaptive(
    absfn: Callable[[np.ndarray], np.ndarray],
    lipschitz: float,
    max_harmonic: int,
) -> float:
    """Integral of a nonnegative function with isolated kinks at its zeros.

    A panel is accepted once its node minimum exceeds lipschitz * width
    (so the panel cannot reach zero); otherwise it is bisected. The first
    level goes in blocks of _BLOCK_PANELS panels, each refined to the end
    before the next is evaluated.
    """
    npanels = panel_count(max_harmonic)
    total = 0.0
    for start in range(0, npanels, _BLOCK_PANELS):
        lefts = np.arange(start, min(start + _BLOCK_PANELS, npanels), dtype=np.float64) / npanels
        widths = np.full(lefts.size, 1.0 / npanels)
        while lefts.size:
            nodes = (lefts[:, None] + widths[:, None] * _X01[None, :]).ravel()
            vals = absfn(nodes).reshape(-1, 8)
            integ = widths * (vals @ _W01)
            suspect = (vals.min(axis=1) < lipschitz * widths) & (widths > _MIN_WIDTH)
            total += float(integ[~suspect].sum())
            lefts = np.repeat(lefts[suspect], 2)
            widths = np.repeat(widths[suspect] / 2.0, 2)
            lefts[1::2] += widths[1::2]
    return total
