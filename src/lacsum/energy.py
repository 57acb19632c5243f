"""Exact additive-energy counting and the Hoelder L1 lower-bound certificate.

The energy K counts ordered quadruples (a,b,c,d) with k_a + k_b = k_c + k_d
(repeats allowed). By Parseval K equals the integral of |S|^4, which gives
the rigorous bound ||S||_1 >= n^{3/2} / sqrt(K) via
||S||_2^2 <= ||S||_1^{2/3} ||S||_4^{4/3}.

One counter serves every caller (count_quadruple_solutions, is_sidon,
holder_lower_bound, and norms.fourth_moment_cos on F u -F). It shifts the
values by their minimum and takes the first path that fits:

1. Histogram, while the span is dense: 2 span + 1 bins, at most 4 n^2 and
   at most _CHUNK_SUMS. np.bincount adds the outer sums, _CHUNK_SUMS at a
   time, into one int64 histogram h, and K = h . h.
2. Sort, while every sum stays below 2^63 (span < 2^62): the sum range is
   cut into bands of at most _CHUNK_SUMS sums; each band is gathered from
   the sorted values by searchsorted, sorted, and its run lengths squared.
3. Python ints, when the span reaches 2^62 and a sum could reach 2^63.

Memory stays within a few buffers of _CHUNK_SUMS = 2^20 int64 (8 MB each).
The count is capped by its work, n^2 pair sums, and raises CapacityExceeded
before it starts: MAX_PAIR_SUMS for the numpy paths (n <= 16384; there the
slowest, the sort path, takes ~7 s on a 2-vCPU Xeon) and MAX_WIDE_PAIR_SUMS
for Python ints (n <= 1024, ~0.6 s).

mian_chowla builds the greedy Sidon sequence from a bitmap of forbidden
candidates. It is capped by its work, ~n^3/6 marks: MAX_SIDON_MARKS
(n <= 1338, ~7 s and ~90 MB RSS on the same machine).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityExceeded, DomainError
from .frequency import FrequencySet, make_frequency_set

MAX_PAIR_SUMS = 1 << 28
MAX_WIDE_PAIR_SUMS = 1 << 20
MAX_SIDON_MARKS = 4 * 10**8

# Sums per chunk of the counter, and bins of its largest histogram (8 MB of int64).
_CHUNK_SUMS = 1 << 20
# Two shifted values below 2^62 sum to less than 2^63, i.e. fit in int64.
_INT64_SPAN = 1 << 62


def count_quadruple_solutions(fs: FrequencySet) -> int:
    """Exact ordered count of k_a + k_b = k_c + k_d over [n]^4."""
    return _pair_sum_energy(fs.freqs)


def _pair_sum_energy(values: Sequence[int]) -> int:
    """Ordered count of a + b = c + d over distinct Python ints of either sign."""
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
    if wide:
        counts = Counter(a + b for a in values for b in values)
        return sum(c * c for c in counts.values())
    u = np.sort(np.array([v - lo for v in values], dtype=np.int64))
    bins = 2 * span + 1
    if bins <= min(4 * n * n, _CHUNK_SUMS):
        return _histogram_energy(u, bins)
    return _sorted_energy(u)


def _histogram_energy(u: np.ndarray, bins: int) -> int:
    """Energy of sorted non-negative u from one histogram of its pair sums."""
    rows = max(1, _CHUNK_SUMS // u.size)
    hist = np.zeros(bins, dtype=np.int64)
    for i in range(0, u.size, rows):
        hist += np.bincount(np.add.outer(u[i : i + rows], u).ravel(), minlength=bins)
    return int(hist @ hist)  # each count is <= n, so h . h <= n^3 fits int64


def _sorted_energy(u: np.ndarray) -> int:
    """Energy of sorted non-negative u (2 max(u) < 2^63), one band of sums at a time.

    A band [lo, hi) of sum values takes, from each row a, the columns b with
    lo <= u_a + u_b < hi: one contiguous run of the sorted u. Every sum lands
    in exactly one band, so squaring the run lengths of each band's sorted
    sums and adding them gives the energy. A band over _CHUNK_SUMS is retried
    narrower; one value has at most n <= _CHUNK_SUMS sums, so this ends.
    """
    n = u.size
    top = 2 * int(u[-1])
    start = np.zeros(n, dtype=np.int64)  # per row, the first column not yet counted
    lo, width, energy = 0, max(1, (top + 1) * _CHUNK_SUMS // (2 * n * n)), 0
    while lo <= top:
        hi = min(lo + width, top + 1)
        stop = np.searchsorted(u, hi - u)
        count = stop - start
        m = int(count.sum())
        # aim the next band at half a chunk from this band's density
        width = max(1, (hi - lo) * _CHUNK_SUMS // (2 * max(m, 1)))
        if m > _CHUNK_SUMS:
            continue
        energy += _band_energy(u, start, count, m)
        start, lo = stop, hi
    return energy


def _band_energy(u: np.ndarray, start: np.ndarray, count: np.ndarray, m: int) -> int:
    """Sum of squared multiplicities of the m sums u_a + u_b, start_a <= b < start_a + count_a."""
    first = np.cumsum(count) - count  # where each row's columns start among the m sums
    cols = np.repeat(start - first, count)
    cols += np.arange(m)
    sums = u[cols]
    del cols
    sums += np.repeat(u, count)
    sums.sort()
    runs = np.diff(np.flatnonzero(sums[1:] != sums[:-1]), prepend=-1, append=m - 1)
    return int(runs @ runs)


def is_sidon(fs: FrequencySet) -> bool:
    """True iff the energy attains its minimum 2n^2 - n (all pairwise sums distinct)."""
    n = fs.n
    return count_quadruple_solutions(fs) == 2 * n * n - n


def mian_chowla(n: int) -> FrequencySet:
    """First n terms of the greedy Sidon sequence 1, 2, 4, 8, 13, 21, ...

    A candidate x past the last term c is forbidden iff x = b + d for a term b
    and a positive difference d of two terms. When c joins, the new forbidden
    candidates past c are exactly c + d over every difference d of the new
    set (b + (c - a) = c + (b - a)), so those are marked in a bitmap and the
    next term is its first unmarked entry past c. Every mark is below 2c, so
    the next term is at most 2c, and the bitmap keeps only the candidates
    past c: when 2c passes its end it is rebuilt over (c, 3c]. The work is
    ~n^3/6 marks, capped at MAX_SIDON_MARKS (n <= 1338).
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    marks = n * (n - 1) * (n + 1) // 6  # sum over k < n of k (k + 1) / 2
    if marks > MAX_SIDON_MARKS:
        raise CapacityExceeded(
            f"n = {n} needs ~{marks} bitmap marks; the greedy construction's limit is {MAX_SIDON_MARKS}"
        )
    seq = np.zeros(n, dtype=np.int64)
    diffs = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    forbidden = np.zeros(1024, dtype=bool)  # forbidden[i] marks candidate lo + i
    lo, c, used = 0, 1, 0
    for k in range(n):
        seq[k] = c
        diffs[used : used + k] = c - seq[:k]
        used += k
        if 2 * c >= lo + forbidden.size:
            live = np.zeros(2 * c, dtype=bool)
            live[: lo + forbidden.size - c - 1] = forbidden[c + 1 - lo :]
            forbidden, lo = live, c + 1
        forbidden[c - lo + diffs[:used]] = True
        # 2c is never marked, so a window doubling from c + 1 finds the next term
        width = 64
        while forbidden[c + 1 - lo : c + 1 - lo + width].all():
            width *= 2
        c += 1 + int(np.argmin(forbidden[c + 1 - lo : c + 1 - lo + width]))
    return make_frequency_set(seq.tolist())


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
