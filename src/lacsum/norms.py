"""L^p norms of the exponential sum: deterministic quadrature and reproducible Monte Carlo.

The Monte Carlo estimators are bit-reproducible for a given
(seed, samples, chunk_size): the draw stream is counter-based per chunk and
the chunk statistics are combined by a fixed pairwise tree, so the result is
independent of the worker count (set via LACSUM_THREADS).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import frequency as fq
from . import rng
from .energy import _pair_sum_energy
from .errors import BudgetExceeded, FrequencyTooLarge
from .frequency import FrequencySet
from .quadrature import QuadratureConfig, integrate_abs_adaptive, integrate_periodic, panel_count

MAX_MC_SAMPLES = 10**10


@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int = 0
    chunk_size: int = 1 << 16

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")


@dataclass(frozen=True)
class NormEstimate:
    p: int
    value: float
    normalized: Optional[float]  # value / sqrt(n); reported for p = 1 only
    std_error: Optional[float]   # absent for quadrature
    method: str                  # "quadrature" | "monte-carlo"
    n: int
    seed: Optional[int] = None
    samples: Optional[int] = None


def num_workers() -> int:
    env = os.environ.get("LACSUM_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def _map_chunks(fn: Callable[[int], np.ndarray], layout) -> list:
    """Apply fn to every (chunk, count) pair; output order follows chunk index."""
    workers = num_workers()
    if workers == 1 or len(layout) <= 1:
        return [fn(item) for item in layout]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, layout))


def _tree_reduce(parts: list) -> np.ndarray:
    """Pairwise reduction in a fixed order, independent of how parts were produced."""
    items = list(parts)
    while len(items) > 1:
        items = [
            items[i] + items[i + 1] if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def _moment_sums(*values: np.ndarray) -> list:
    """sum v and sum v^2 of each array, in order."""
    return [f for v in values for f in (v.sum(), np.square(v).sum())]


def _mean_and_error(s1: float, s2: float, count: int) -> tuple[float, float]:
    """Mean and ddof=1 standard error of count values from their sum s1 and sum of squares s2."""
    mean = s1 / count
    var = max(s2 / count - mean * mean, 0.0) * (count / (count - 1.0)) if count > 1 else math.nan
    return float(mean), math.sqrt(var / count)


def _mc_mean(
    fs: FrequencySet,
    cfg: McConfig,
    valfn: Callable[[FrequencySet, np.ndarray], np.ndarray],
) -> tuple[float, float]:
    """Mean of valfn over cfg.samples iid theta draws, with its standard error."""

    def stats(item) -> np.ndarray:
        m = rng.chunk_uniform63(cfg.seed, rng.STREAM_THETA, *item)
        return np.array(_moment_sums(valfn(fs, m)))

    s1, s2 = _tree_reduce(_map_chunks(stats, rng.chunk_layout(cfg.samples, cfg.chunk_size)))
    return _mean_and_error(s1, s2, cfg.samples)


def _abs_sum_dyadic(fs: FrequencySet, m: np.ndarray) -> np.ndarray:
    re, im = fq.sum_components_dyadic(fs, m)
    return np.hypot(re, im)


def quadrature_fits(fs: FrequencySet, cfg: QuadratureConfig) -> bool:
    try:
        panel_count(fs.k_max, cfg)
        return True
    except FrequencyTooLarge:
        return False


def lp_norm_quadrature(
    fs: FrequencySet, p: int, cfg: QuadratureConfig | None = None
) -> NormEstimate:
    """Deterministic L^p norm, p in {1, 2, 4}.

    For p in {2, 4} the integrand is a trigonometric polynomial and the
    composite rule resolves it to near machine precision. For p = 1 the
    integrand |S| has kinks at zeros of S; those panels are refined
    adaptively and the accuracy is validated empirically against closed
    forms.
    """
    cfg = cfg or QuadratureConfig()
    if p not in (1, 2, 4):
        raise ValueError("p must be one of 1, 2, 4")
    panel_count(fs.k_max, cfg)  # enforce the budget against k_max up front
    if p == 1:
        lip = 2.0 * math.pi * sum(fs.freqs)  # |S'| bound
        value = integrate_abs_adaptive(
            lambda th: np.abs(fq.sum_values(fs, th)), lip, fs.k_max, cfg
        )
    else:
        # |S|^p has harmonics up to (p/2) * (k_max - k_min) < (p/2) * k_max
        power = integrate_periodic(
            lambda th: np.abs(fq.sum_values(fs, th)) ** p, (p // 2) * fs.k_max, cfg
        )
        value = float(power) ** (1.0 / p)
    return NormEstimate(
        p=p,
        value=value,
        normalized=value / math.sqrt(fs.n) if p == 1 else None,
        std_error=None,
        method="quadrature",
        n=fs.n,
    )


def l1_monte_carlo(fs: FrequencySet, cfg: McConfig) -> NormEstimate:
    """Unbiased Monte Carlo estimate of the L1 norm over the dyadic theta stream."""
    mean, se = _mc_mean(fs, cfg, _abs_sum_dyadic)
    rt = math.sqrt(fs.n)
    return NormEstimate(
        p=1,
        value=mean,
        normalized=mean / rt,
        std_error=se,
        method="monte-carlo",
        n=fs.n,
        seed=cfg.seed,
        samples=cfg.samples,
    )


def l1_auto(
    fs: FrequencySet,
    tol: float,
    seed: int = 0,
    quad_cfg: QuadratureConfig | None = None,
) -> NormEstimate:
    """Quadrature when the frequency budget allows, else Monte Carlo sized to tol.

    The Monte Carlo branch targets std_error <= tol/3 on the (unnormalized)
    value, with the sample count sized from a pilot run.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    quad_cfg = quad_cfg or QuadratureConfig()
    if quadrature_fits(fs, quad_cfg):
        return lp_norm_quadrature(fs, 1, quad_cfg)
    pilot = l1_monte_carlo(fs, McConfig(samples=1 << 14, seed=seed))
    sigma = (pilot.std_error or 0.0) * math.sqrt(pilot.samples)
    needed = max(int(math.ceil((3.0 * sigma / tol) ** 2)), 1 << 14)
    if needed > MAX_MC_SAMPLES:
        raise BudgetExceeded(f"tolerance {tol} would need {needed} samples")
    return l1_monte_carlo(fs, McConfig(samples=needed, seed=seed))


def fourth_moment_cos(fs: FrequencySet) -> float:
    """E[(sum_j cos 4 pi k_j theta)^4], exactly.

    The cosine sum is (1/2) sum_{g in F u -F} e^{4 pi i g theta}, a real
    trigonometric polynomial, so its fourth moment is (1/16) times the
    additive energy of F u -F (Parseval).
    """
    return _pair_sum_energy(fs.freqs + tuple(-k for k in fs.freqs)) / 16


def markov_tail_fraction(fs: FrequencySet, mc: McConfig) -> float:
    """Monte Carlo measure of {theta : |sum_j cos 4 pi k_j theta| >= n^(3/4)}.

    Ties at the threshold count as exceeding (a measure-zero convention).
    """
    threshold = fs.n ** 0.75

    def indicator(f: FrequencySet, m: np.ndarray) -> np.ndarray:
        return (np.abs(fq.cos_double_sum_dyadic(f, m)) >= threshold).astype(np.float64)

    mean, _ = _mc_mean(fs, mc, indicator)
    return mean
