"""Exact additive-energy counting and the Hoelder L1 lower-bound certificate.

The energy K counts ordered quadruples (a,b,c,d) with k_a + k_b = k_c + k_d
(repeats allowed). By Parseval K equals the integral of |S|^4, which gives
the rigorous bound ||S||_1 >= n^{3/2} / sqrt(K) via
||S||_2^2 <= ||S||_1^{2/3} ||S||_4^{4/3}.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityExceeded, DomainError
from .frequency import FrequencySet, make_frequency_set

MAX_COUNT_N = 10**6
MAX_SIDON_N = 10**4

# np.add.outer of two int64 values is exact while each |value| < 2^62; larger
# entries fall back to Python integers.
_NUMPY_SUM_LIMIT = 2**62


def count_quadruple_solutions(fs: FrequencySet) -> int:
    """Exact ordered count of k_a + k_b = k_c + k_d over [n]^4."""
    return _pair_sum_energy(fs.freqs)


def _pair_sum_energy(values: Sequence[int]) -> int:
    """Ordered count of a + b = c + d over distinct Python ints of either sign."""
    n = len(values)
    if n > MAX_COUNT_N:
        raise CapacityExceeded(f"n = {n} exceeds the pairwise-sum capacity")
    if max(map(abs, values)) >= _NUMPY_SUM_LIMIT or n > 4096:
        counts = Counter()
        for a in values:
            for b in values:
                counts[a + b] += 1
        return sum(c * c for c in counts.values())
    arr = np.array(values, dtype=np.int64)
    sums = np.add.outer(arr, arr).ravel()
    _, mult = np.unique(sums, return_counts=True)
    return int(sum(int(c) * int(c) for c in mult))


def is_sidon(fs: FrequencySet) -> bool:
    """True iff the energy attains its minimum 2n^2 - n (all pairwise sums distinct)."""
    n = fs.n
    return count_quadruple_solutions(fs) == 2 * n * n - n


def mian_chowla(n: int) -> FrequencySet:
    """First n terms of the greedy Sidon sequence 1, 2, 4, 8, 13, 21, ..."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if n > MAX_SIDON_N:
        raise CapacityExceeded(f"n = {n} exceeds the greedy-construction cap")
    seq: list[int] = []
    sums: set[int] = set()
    candidate = 1
    while len(seq) < n:
        new_sums = [candidate + a for a in seq] + [2 * candidate]
        if all(s not in sums for s in new_sums):
            seq.append(candidate)
            sums.update(new_sums)
        candidate += 1
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
