"""L^p norms of the exponential sum: exact L2 and L4, L1 by quadrature or reproducible Monte Carlo.

The Monte Carlo estimators are bit-reproducible for a given
(seed, samples, chunk_size): the draw stream is counter-based per chunk and
the chunk statistics are combined by a fixed pairwise tree, so the result is
independent of the worker count (set via LACSUM_THREADS).

_mc_mean is the one theta driver of the package: it draws every chunk once
and sums the vector its caller's chunk function returns, so every Monte
Carlo statistic, here and in cltlab, is a sum over the same stream. The L1
norms of nested prefixes {k_1..k_n} (the convergence study) take one draw of
theta and one running sum of S; l1_monte_carlo is the case of a single prefix.

lp_norm_quadrature measures one set per call with the one L1 rule
(quadrature.integrate_abs_adaptive); the search calls it once per candidate.
Every |S|, sampled or in the rule, is _abs of the sum's parts: no libm call
and no BLAS, so both keep their bits under numpy's baseline loops and
OpenBLAS's Prescott kernels; other CPUs are untested (README, Determinism).
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import frequency as fq
from . import rng
from .energy import _pair_sum_energy, count_quadruple_solutions
from .errors import BudgetExceeded, FrequencyTooLarge
from .frequency import FrequencySet, canonicalize
from .quadrature import MAX_HARMONIC, integrate_abs_adaptive

MAX_MC_SAMPLES = 10**10
# One pass holds a task and a result per chunk. 2^18 is the least power of two
# that admits the default chunk at MAX_MC_SAMPLES (152 588 chunks).
MAX_CHUNKS = 1 << 18
# LACSUM_THREADS above this raises: a pass starts min(workers, chunks) threads,
# each holding a chunk's working set (~3.5 MiB at the default chunk), so 256
# workers can hold ~0.9 GB, and one thread per chunk at MAX_MC_SAMPLES would
# start 152 588.
MAX_WORKERS = 256

@dataclass(frozen=True)
class McConfig:
    samples: int
    seed: int = 0
    chunk_size: int = 1 << 16

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.samples > MAX_MC_SAMPLES:
            raise BudgetExceeded(f"{self.samples} samples exceed the cap MAX_MC_SAMPLES = {MAX_MC_SAMPLES}")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        chunks = -(-self.samples // self.chunk_size)
        if chunks > MAX_CHUNKS:
            raise BudgetExceeded(
                f"{self.samples} samples in chunks of {self.chunk_size} make {chunks} chunks, "
                f"over MAX_CHUNKS = {MAX_CHUNKS}"
            )


@dataclass(frozen=True)
class NormEstimate:
    p: int
    value: float
    normalized: Optional[float]  # value / sqrt(n); reported for p = 1 only
    std_error: Optional[float]   # absent for exact and quadrature values
    method: str                  # "exact" | "quadrature" | "monte-carlo"
    n: int
    seed: Optional[int] = None
    samples: Optional[int] = None
    error_bound: Optional[float] = None  # quadrature only: see quadrature.integrate_abs_adaptive


def num_workers() -> int:
    """Worker threads for the chunked passes: LACSUM_THREADS if set, else the usable cores.

    The usable cores are those this process may run on (its CPU affinity),
    or the CPU count where the platform cannot tell.

    An empty LACSUM_THREADS counts as unset; any other value that is not an
    integer from 1 to MAX_WORKERS raises ValueError.
    """
    env = os.environ.get("LACSUM_THREADS", "")
    if not env.strip():
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"LACSUM_THREADS must be an integer >= 1, got {env!r}")
    if workers > MAX_WORKERS:
        raise ValueError(f"LACSUM_THREADS {env!r} exceeds the cap MAX_WORKERS = {MAX_WORKERS}")
    return workers


def _map_chunks(fn: Callable, layout: Sequence) -> list:
    """Apply fn to every item of layout on num_workers() threads; output order follows layout.

    At most 2 x workers items are submitted ahead of the one being
    collected, so a pass holds a bounded number of futures, not one per chunk.
    """
    workers = num_workers()
    if workers == 1 or len(layout) <= 1:
        return [fn(item) for item in layout]
    from concurrent.futures import ThreadPoolExecutor

    results, ahead = [], deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item in layout:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > 2 * workers:
                results.append(ahead.popleft().result())
        return results + [future.result() for future in ahead]


def _tree_reduce(parts: list) -> np.ndarray:
    """Pairwise reduction in a fixed order, independent of how parts were produced."""
    items = list(parts)
    while len(items) > 1:
        items = [
            items[i] + items[i + 1] if i + 1 < len(items) else items[i]
            for i in range(0, len(items), 2)
        ]
    return items[0]


def _abs(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """|re + i im| as sqrt(re^2 + im^2), for |S| and |X+Z|.

    Only IEEE squares, an add and a square root touch the values, so the
    bits do not depend on the platform's libm, as np.hypot's do. It is
    within 1 ulp of hypot and ~8x faster. The squares do not overflow at
    the sizes of |S|; they underflow only where |S| < 1e-154, which moves
    the result by less than that.
    """
    out = np.square(re)
    out += np.square(im)
    return np.sqrt(out, out=out)


def _moment_sums(*values: np.ndarray) -> list:
    """sum v and sum v^2 of each array, in order."""
    return [f for v in values for f in (v.sum(), np.square(v).sum())]


def _mean_and_error(s1: float, s2: float, count: int) -> tuple[float, float]:
    """Mean and ddof=1 standard error of count values from their sum s1 and sum of squares s2."""
    mean = s1 / count
    var = max(s2 / count - mean * mean, 0.0) * (count / (count - 1.0)) if count > 1 else math.nan
    return float(mean), math.sqrt(var / count)


def _mc_mean(cfg: McConfig, chunk_sums: Callable[[tuple, np.ndarray], np.ndarray]) -> np.ndarray:
    """Sum, over cfg.samples iid theta draws, of the vector chunk_sums returns per chunk.

    chunk_sums(item, m) gets a (chunk, count) item of rng.chunk_layout and
    that chunk's draws m, theta = m/2^63; the draw is bound nowhere here, so
    chunk_sums can free it once it has evaluated S. The per-chunk vectors are
    combined in the fixed _tree_reduce order.

    numpy.random is imported here, on the caller's thread, before the pool
    draws: rng names it only at call time, so a process that never samples
    does not load it, and no first import runs on a worker thread.
    """
    import numpy.random  # noqa: F401

    return _tree_reduce(_map_chunks(
        lambda item: chunk_sums(item, rng.chunk_uniform63(cfg.seed, rng.STREAM_THETA, *item)),
        rng.chunk_layout(cfg.samples, cfg.chunk_size),
    ))


def _abs_prefix_sums(fs: FrequencySet, m: np.ndarray, ns: Sequence[int]) -> np.ndarray:
    """_moment_sums of |S| at theta = m/2^63 for each prefix {k_1..k_n}, n in ns (ascending, distinct).

    One running sum takes the frequencies segment by segment, so each prefix
    costs only its new frequencies and is bit-identical to evaluating it
    alone.
    """
    z = np.zeros(m.shape, dtype=np.complex128)
    sums, done = [], 0
    for n in ns:
        fq.sum_components_dyadic(FrequencySet(fs.freqs[done:n]), m, z)
        done = n
        sums += _moment_sums(_abs(z.real, z.imag))
    return np.array(sums)


def lp_norm_quadrature(fs: FrequencySet, p: int) -> NormEstimate:
    """Deterministic L^p norm, p in {1, 2, 4}.

    For p in {2, 4} the norm is exact: ||S||_2^2 = n by Parseval and
    ||S||_4^4 is the additive energy K, counted exactly for any 64-bit set.
    For p = 1 the rule integrates |S| of c = canonicalize(fs), whose norm is
    fs's (fs itself if canonical), so its cost follows c.k_max; the
    estimate describes fs and is bit for bit c's. |S| is _abs of
    frequency.sum_values, and the rule sums each panel without BLAS. |S|
    has kinks at zeros of S; those panels are refined to a fixed depth, and
    error_bound bounds the panels kept at that depth only, not those that
    pass the kink test, even where S has no zero: {1, 4, 24} measures
    1.5746186317190314, 7.05e-14 above its 30-digit value
    1.574618631718960863529, with error_bound 0.0 (ROADMAP item 11).
    p = 1 raises FrequencyTooLarge when c.k_max is above
    quadrature.MAX_HARMONIC; l1_monte_carlo is the fallback.
    """
    if p not in (1, 2, 4):
        raise ValueError("p must be one of 1, 2, 4")
    if p != 1:
        value = math.sqrt(fs.n) if p == 2 else count_quadruple_solutions(fs) ** 0.25
        return NormEstimate(p=p, value=value, normalized=None, std_error=None, method="exact", n=fs.n)
    c = canonicalize(fs)
    if c.k_max > MAX_HARMONIC:
        raise FrequencyTooLarge(
            f"k_max {fs.k_max} (canonical k_max {c.k_max}) exceeds the quadrature limit {MAX_HARMONIC}; "
            "use Monte Carlo instead (l1_monte_carlo, or --method mc)"
        )
    lipschitz = 2.0 * math.pi * sum(c.freqs)  # bounds |S'|

    def abs_s(th: np.ndarray) -> np.ndarray:
        z = fq.sum_values(c, th)
        return _abs(z.real, z.imag)

    value, bound = integrate_abs_adaptive(abs_s, lipschitz, c.k_max)
    return NormEstimate(
        p=1,
        value=value,
        normalized=value / math.sqrt(fs.n),
        std_error=None,
        method="quadrature",
        n=fs.n,
        error_bound=bound,
    )


def l1_monte_carlo(fs: FrequencySet, cfg: McConfig) -> NormEstimate:
    """Unbiased Monte Carlo estimate of the L1 norm over the dyadic theta stream."""
    return _l1_prefixes(fs, [fs.n], cfg)[0]


def _l1_prefixes(fs: FrequencySet, ns: Sequence[int], cfg: McConfig) -> list[NormEstimate]:
    """l1_monte_carlo of the prefix {k_1..k_n} for each n in ns (ascending, distinct), in one theta pass.

    Every prefix sees the same draws as l1_monte_carlo would give it, and
    its estimate is bit-identical. The pass evaluates S once on fs and takes
    |S| once per prefix.
    """
    total = _mc_mean(cfg, lambda item, m: _abs_prefix_sums(fs, m, ns))
    moments = [_mean_and_error(s1, s2, cfg.samples) for s1, s2 in total.reshape(-1, 2)]
    return [
        NormEstimate(
            p=1,
            value=mean,
            normalized=mean / math.sqrt(n),
            std_error=se,
            method="monte-carlo",
            n=n,
            seed=cfg.seed,
            samples=cfg.samples,
        )
        for n, (mean, se) in zip(ns, moments)
    ]


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
    # Re S at 2 theta: m < 2^63, so m << 1 is 2m and the kernel wraps its phases mod 1
    hits = _mc_mean(mc, lambda item, m: np.count_nonzero(
        np.abs(fq.sum_components_dyadic(fs, m << np.uint64(1))[0]) >= threshold))
    return int(hits) / mc.samples
