"""Exact additive-energy counting and the Hoelder L1 lower-bound certificate.

The energy K counts ordered quadruples (a,b,c,d) with k_a + k_b = k_c + k_d
(repeats allowed). By Parseval K equals the integral of |S|^4, which gives
the rigorous bound ||S||_1 >= n^{3/2} / sqrt(K) via
||S||_2^2 <= ||S||_1^{2/3} ||S||_4^{4/3}.

One counter serves every caller (count_quadruple_solutions, is_sidon,
holder_lower_bound, and norms.fourth_moment_cos on F u -F). Each path adds
the n (n + 1) / 2 unordered pairs a <= b once and turns their counts into
the ordered energy (_pair_sum_energy). It takes the first path that fits:

1. Python ints, for at most _SMALL_VALUES = 16 values, where a Counter of
   the pair sums costs no more than numpy's per-call overhead and numpy is
   not imported, or when the span reaches 2^62 and a sum could reach 2^63.
2. Histogram, while the span of the values, shifted by their minimum, is
   dense: 2 span + 1 bins, at most 4 n^2 and at most _CHUNK_SUMS. The
   sorted values are cut into tiles of _TILE; np.bincount bins each pair of
   tiles over that pair's own sum range only, so its bins stay in cache,
   into one int64 histogram h of the ordered sums, and K = h . h.
3. Sort, otherwise (every sum stays below 2^63): the sum range is cut into
   bands of at most _CHUNK_SUMS sums; each band is gathered from the sorted
   values by searchsorted, sorted, and its runs counted.

Memory: the histogram path holds h (at most _CHUNK_SUMS = 2^20 int64,
8 MB) and one tile pair's 2^14 sums; the sort path a few buffers of one
band's sums (8 MB each at most). The count is capped by its work, n^2
ordered pair sums, and raises CapacityExceeded before it starts:
MAX_PAIR_SUMS for the numpy paths (n <= 16384; there the slowest, the sort
path, takes ~3 s on a 2-vCPU Xeon) and MAX_WIDE_PAIR_SUMS for Python ints
at a span of 2^62 or more (n <= 1024, ~0.25 s).

mian_chowla builds the greedy Sidon sequence on three Python-int bitsets.
It is capped by its work, ~n^3/6 marks: MAX_SIDON_MARKS (n <= 1338, ~2.5 s
and ~41 MB RSS on the same machine).

numpy is imported inside the numpy counting paths only, so importing this
module, counting a set of at most 16 values, or building a Mian-Chowla
prefix does not load it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, starmap
from operator import add
from typing import TYPE_CHECKING, Sequence

from .errors import CapacityExceeded, DomainError
from .sets import FrequencySet, _as_int, make_frequency_set

if TYPE_CHECKING:
    import numpy as np

MAX_PAIR_SUMS = 1 << 28
MAX_WIDE_PAIR_SUMS = 1 << 20
MAX_SIDON_MARKS = 4 * 10**8

# Sums per chunk of the counter, and bins of its largest histogram (8 MB of int64).
_CHUNK_SUMS = 1 << 20
# Values per tile of the histogram path: a pair of tiles bins 2^14 sums.
_TILE = 1 << 7
# Two shifted values below 2^62 sum to less than 2^63, i.e. fit in int64.
_INT64_SPAN = 1 << 62
# Values up to which the Counter of Python-int sums is used at any span. In
# process, with numpy already loaded (2-vCPU Xeon, numpy 2.4.6), 16 values
# took 20-32 us there against 24-32 us on the histogram path and 35-56 us on
# the sort path; from 18-20 values the histogram path was faster, and at 32
# values both numpy paths were.
_SMALL_VALUES = 16


def count_quadruple_solutions(fs: FrequencySet) -> int:
    """Exact ordered count of k_a + k_b = k_c + k_d over [n]^4."""
    return _pair_sum_energy(fs.freqs)


def _pair_sum_energy(values: Sequence[int]) -> int:
    """Ordered count of a + b = c + d over distinct Python ints of either sign.

    Each path adds the unordered pairs a <= b once. A sum s made by c(s)
    pairs a < b and d(s) in {0, 1} pairs a = b is made by 2 c + d ordered
    pairs, so its run of m = c + d unordered pairs adds
    (2 c + d)^2 = 4 m^2 - d (4 m - 1) to the energy.
    """
    n = len(values)
    lo = min(values)
    span = max(values) - lo
    wide = span >= _INT64_SPAN
    limit = MAX_WIDE_PAIR_SUMS if wide else MAX_PAIR_SUMS
    if n * n > limit:
        raise CapacityExceeded(
            f"n = {n} values make {n * n} pair sums; the counter's limit is {limit}"
            + (" for a span of 2^62 or more" if wide else "")
        )
    if wide or n <= _SMALL_VALUES:
        runs = Counter(starmap(add, combinations_with_replacement(values, 2)))
        return 4 * sum(m * m for m in runs.values()) - sum(4 * runs[2 * a] - 1 for a in values)
    import numpy as np

    u = np.sort(np.array([v - lo for v in values], dtype=np.int64))
    bins = 2 * span + 1
    if bins <= min(4 * n * n, _CHUNK_SUMS):
        return _histogram_energy(u, bins)
    return _sorted_energy(u)


def _histogram_energy(u: np.ndarray, bins: int) -> int:
    """Energy of sorted non-negative u from one histogram of its ordered pair sums.

    The sorted u is cut into tiles of _TILE values. Each pair of tiles i < j
    is binned once, over its own sum range only, so its bins stay in cache; doubling h then gives both orders, and the diagonal tiles add
    their ordered pairs once. K = h . h.
    """
    import numpy as np

    hist = np.zeros(bins, dtype=np.int64)
    tiles = [(int(t[0]), int(t[-1]), t - t[0]) for t in np.split(u, range(_TILE, u.size, _TILE))]
    for i, (a0, a1, a) in enumerate(tiles):
        for b0, b1, b in tiles[i + 1 :]:
            hist[a0 + b0 : a1 + b1 + 1] += np.bincount(np.add.outer(a, b).ravel())
    hist *= 2
    for a0, a1, a in tiles:
        hist[2 * a0 : 2 * a1 + 1] += np.bincount(np.add.outer(a, a).ravel())
    return int(hist @ hist)  # each count is <= n, so h . h <= n^3 fits int64


def _sorted_energy(u: np.ndarray) -> int:
    """Energy of sorted non-negative u (2 max(u) < 2^63), one band of sums at a time.

    A band [lo, hi) of sum values takes, from each row a, the columns b >= a
    with lo <= u_a + u_b < hi: one contiguous run of the sorted u. Every
    unordered pair lands in exactly one band, so adding each band's
    4 m^2 - d (4 m - 1) over the runs of its sorted sums gives the energy.
    A band over _CHUNK_SUMS is retried narrower; one value has at most
    n <= _CHUNK_SUMS sums, so this ends.
    """
    import numpy as np

    n = u.size
    top = 2 * int(u[-1])
    start = np.arange(n)  # per row, the first column not yet counted
    twice = 2 * u  # the diagonal sums, ascending
    lo, width, energy = 0, max(1, (top + 1) * _CHUNK_SUMS // (n * n)), 0
    while lo <= top:
        hi = min(lo + width, top + 1)
        stop = np.maximum(np.searchsorted(u, hi - u), start)
        count = stop - start
        m = int(count.sum())
        # aim the next band at half a chunk from this band's density
        width = max(1, (hi - lo) * _CHUNK_SUMS // (2 * max(m, 1)))
        if m > _CHUNK_SUMS:
            continue
        diagonal = twice[np.searchsorted(twice, lo) : np.searchsorted(twice, hi)]
        energy += _band_energy(u, start, count, m, diagonal)
        start, lo = stop, hi
    return energy


def _band_energy(u: np.ndarray, start: np.ndarray, count: np.ndarray, m: int, diagonal: np.ndarray) -> int:
    """Energy of the m sums u_a + u_b, start_a <= b < start_a + count_a, whose diagonal sums 2 u_a are given."""
    import numpy as np

    first = np.cumsum(count) - count  # where each row's columns start among the m sums
    cols = np.repeat(start - first, count)
    cols += np.arange(m)
    sums = u[cols]
    del cols
    sums += np.repeat(u, count)
    sums.sort()
    # a run of r + 1 equal sums has r equal neighbours, and sum (r + 1)^2 = m + sum r + sum r^2
    tied = np.flatnonzero(sums[1:] == sums[:-1])
    r = np.diff(np.flatnonzero(np.diff(tied) != 1), prepend=-1, append=tied.size - 1)
    on_diagonal = np.searchsorted(sums, diagonal, "right") - np.searchsorted(sums, diagonal)
    return 4 * (m + tied.size + int(r @ r)) - int((4 * on_diagonal - 1).sum())


def is_sidon(fs: FrequencySet) -> bool:
    """True iff the energy attains its minimum 2n^2 - n (all pairwise sums distinct)."""
    n = fs.n
    return count_quadruple_solutions(fs) == 2 * n * n - n


def mian_chowla(n: int) -> FrequencySet:
    """First n terms of the greedy Sidon sequence 1, 2, 4, 8, 13, 21, ...

    A candidate x past the last term c is forbidden iff x = b + d for a term b
    and a positive difference d of two terms. When c joins, the new forbidden
    candidates past c are exactly c + d over every difference d of the new
    set (b + (c - a) = c + (b - a)). Three Python ints hold the state as
    bitsets: r has bit j set iff c - j is a term, d iff j is 0 or a
    difference, and f iff c + j is forbidden. When c joins, d |= r adds its
    differences and f |= d marks c + d. The next term is c + g for the lowest
    clear bit g > 0 of f; r and f then shift by g to count from it. Every
    mark is below 2c, so g <= c, and a window doubling from 64 bits finds g
    while reading only the low end of f. The work is ~n^3/6 marks, capped
    at MAX_SIDON_MARKS (n <= 1338).
    """
    n = _as_int(n, "n")
    if n < 1:
        raise DomainError("n must be >= 1")
    marks = n * (n - 1) * (n + 1) // 6  # sum over k < n of k (k + 1) / 2
    if marks > MAX_SIDON_MARKS:
        raise CapacityExceeded(
            f"n = {n} needs ~{marks} marks; the greedy construction's limit is {MAX_SIDON_MARKS}"
        )
    seq = [1]
    terms, diffs, forbidden = 1, 0, 0  # the bitsets r, d and f
    for _ in range(n - 1):
        diffs |= terms
        forbidden |= diffs
        width = 64
        while True:
            window = (2 << width) - 1  # bits 0..width of f
            free = (forbidden & window) ^ window  # bit 0, c itself, is set in f
            if free:
                break
            width *= 2
        gap = (free & -free).bit_length() - 1
        terms = terms << gap | 1
        forbidden >>= gap
        seq.append(seq[-1] + gap)
    return make_frequency_set(seq)


@dataclass(frozen=True)
class EnergyCertificate:
    n: int
    energy: int
    l1_lower_bound: float          # n^{3/2} / sqrt(K)
    normalized_lower_bound: float  # n / sqrt(K)
    is_sidon: bool


def holder_lower_bound(fs: FrequencySet) -> EnergyCertificate:
    n = fs.n
    k = count_quadruple_solutions(fs)
    root = math.sqrt(k)
    return EnergyCertificate(
        n=n,
        energy=k,
        l1_lower_bound=n**1.5 / root,
        normalized_lower_bound=n / root,
        is_sidon=(k == 2 * n * n - n),
    )
