"""Adaptive composite Gauss-Legendre quadrature of |S| on [0,1].

The rule is 8-point Gauss-Legendre per panel, with the first-level panel
count scaled to the highest harmonic present. |S| has kinks at the zeros of
S, so any panel that might contain a zero is bisected. L2 and L4 norms need
no quadrature: they are exact (see norms.lp_norm_quadrature).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import FrequencyTooLarge

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_X01 = (_GL_X + 1.0) / 2.0  # nodes on [0,1]
_W01 = _GL_W / 2.0

# Panels narrower than this are accepted outright; their residual error is
# O(lipschitz * _MIN_WIDTH^2) each. First-level widths are at most 1/8 and
# halve per level, so no panel is split more than ~41 times.
_MIN_WIDTH = 1e-13

# First-level panels refined together, to bound peak memory: 2^17 panels are
# 2^20 nodes, and the rule on |S| for {1, 3, 2^17} peaks at 70 MB of arrays.
_BLOCK_PANELS = 1 << 17


@dataclass(frozen=True)
class QuadratureConfig:
    points_per_period: int = 32
    max_total_points: int = 1 << 26

    def __post_init__(self):
        if self.points_per_period < 8:
            raise ValueError("points_per_period must be >= 8")


def panel_count(max_harmonic: int, cfg: QuadratureConfig) -> int:
    """Number of panels for a given highest harmonic; raises when over budget."""
    npanels = max(math.ceil(cfg.points_per_period * max_harmonic / 8), 8)
    if 8 * npanels > cfg.max_total_points:
        raise FrequencyTooLarge(
            f"harmonic {max_harmonic} needs {8 * npanels} quadrature points "
            f"(budget {cfg.max_total_points}); use Monte Carlo instead"
        )
    return npanels


def integrate_abs_adaptive(
    absfn: Callable[[np.ndarray], np.ndarray],
    lipschitz: float,
    max_harmonic: int,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Integral of a nonnegative function with isolated kinks at its zeros.

    A panel is accepted once its node minimum exceeds lipschitz * width
    (so the panel cannot reach zero); otherwise it is bisected. The first
    level goes in blocks of _BLOCK_PANELS panels, each refined to the end
    before the next is evaluated.
    """
    cfg = cfg or QuadratureConfig()
    npanels = panel_count(max_harmonic, cfg)
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
