"""Search for the best normalized L1 value over n-element frequency sets.

The L1 norm is invariant under shifting all frequencies and under dilating
them by a positive integer, so the search runs over canonical
representatives (frequency.canonicalize): minimum element 1 and gcd of
pairwise differences 1. The L1 rule measures every set as its canonical
one, so a canonical candidate is measured as given. The mirror
k -> 1 + k_max - k of a canonical set is canonical too, with the same
|S|, so exhaustive_sigma measures one set of each mirror pair.

convergence_study measures the normalized L1 of {q, ..., q^n} across n by
Monte Carlo. The sets are nested prefixes of one lacunary set, so all rows
come from one theta pass over the largest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb, gcd
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from .errors import DomainError, SearchSpaceTooLarge
from .frequency import FrequencySet, canonicalize, lacunary_set, make_frequency_set
from .norms import McConfig, NormEstimate, _l1_prefixes, lp_norm_quadrature
from .quadrature import MAX_HARMONIC

SQRT_PI_OVER_2 = math.sqrt(math.pi) / 2.0

# exhaustive_sigma refuses more candidates than this, as comb(max_freq - 1, n - 1)
# counts them; it admits (6, 30), 118 755 of them, of which it measures the
# 58 680 sets of the mirror halving in ~3 min on 2 vCPUs.
MAX_EXHAUSTIVE_CANDIDATES = 200_000
# anneal_sigma refuses a walk whose scoring could evaluate more first-level
# kernel terms than this, (budget + min(100, budget) + 1) sets of n terms at
# 64 nodes per unit of max_freq. At the cap, (n, max_freq, budget) =
# (12, 1000, 1200) takes ~58 s on 2 vCPUs; the count leaves out refinement,
# which grows with n: (100, 1000, 77) took 207 s.
MAX_ANNEAL_TERMS = 10**9


@dataclass(frozen=True)
class SearchResult:
    n: int
    best_set: FrequencySet
    best_value: float       # normalized L1 of best_set
    method: str             # "exhaustive" | "anneal"
    evaluations: int
    value_error: float      # quadrature error_bound of best_set / sqrt(n)
    seed: Optional[int] = None


@dataclass(frozen=True)
class StudyRow:
    n: int
    normalized_l1: float
    std_error: float
    gap_to_limit: float  # sqrt(pi)/2 - normalized_l1


def _canonical_candidates(n: int, max_freq: int):
    """The canonical n-sets with entries <= max_freq, one of each mirror pair, in lexicographic order.

    S of the mirror {1 + k_max - k} is e((1 + k_max) theta) conj S(theta),
    so |S| is the same at every theta. Of each pair only the
    lexicographically smaller set is yielded; a palindrome is its own mirror.
    """
    for rest in combinations(range(2, max_freq + 1), n - 1):
        if gcd(*(k - 1 for k in rest)) <= 1:  # gcd() of no differences is 0: n = 1 yields {1}
            freqs = (1,) + rest
            if freqs <= tuple(1 + freqs[-1] - k for k in reversed(freqs)):
                yield make_frequency_set(freqs)


def exhaustive_sigma(n: int, max_freq: int) -> SearchResult:
    """Enumerate the canonical n-sets with entries <= max_freq and keep the maximizer.

    One set of each mirror pair (_canonical_candidates) is measured with
    lp_norm_quadrature, and best_value and value_error are that measurement;
    evaluations counts the sets measured. Ties break toward the
    lexicographically smallest set. value_error covers only the panels the
    rule accepted at its depth limit; the others carry no bound, and the L1
    of {1, 4, 24} errs by 7.05e-14 with error_bound 0 (ROADMAP item 11).
    """
    if n < 1 or max_freq < n:
        raise DomainError("need n >= 1 and max_freq >= n")
    if comb(max_freq - 1, n - 1) > MAX_EXHAUSTIVE_CANDIDATES:
        raise SearchSpaceTooLarge(
            f"up to {comb(max_freq - 1, n - 1)} candidate sets (guard {MAX_EXHAUSTIVE_CANDIDATES})"
        )
    best_set = best = None
    evaluations = 0
    for fs in _canonical_candidates(n, max_freq):
        est = lp_norm_quadrature(fs, 1)
        evaluations += 1
        # candidates arrive in lexicographic order, so a strict improvement
        # test keeps the lexicographically smallest maximizer on ties
        if best is None or est.normalized > best.normalized + 1e-12:
            best_set, best = fs, est
    assert best is not None
    return SearchResult(
        n=n,
        best_set=best_set,
        best_value=best.normalized,
        method="exhaustive",
        evaluations=evaluations,
        value_error=best.error_bound / math.sqrt(n),
    )


def anneal_sigma(n: int, max_freq: int, budget: int, seed: int) -> SearchResult:
    """Simulated annealing over canonical sets; geometric cooling, seeded moves.

    Every distinct candidate, the initial random sample included, is scored
    alone with lp_norm_quadrature and cached. The result is the cached set
    with the largest score, ties going to the lexicographically smallest
    set; best_value and value_error are its measurement, as in
    exhaustive_sigma, and evaluations counts the distinct sets scored. For
    n = 1 every set is {1}, scored exactly 1.0 with error_bound 0.0.

    max_freq may not exceed quadrature.MAX_HARMONIC, above which the rule
    would raise FrequencyTooLarge mid-walk, and a walk over MAX_ANNEAL_TERMS
    raises SearchSpaceTooLarge before any set is scored.
    """
    if budget < 1:
        raise DomainError("budget must be >= 1")
    if n < 1 or max_freq < n or max_freq > MAX_HARMONIC:
        raise DomainError(f"need 1 <= n <= max_freq <= {MAX_HARMONIC}, the quadrature limit")
    terms = (budget + min(100, budget) + 1) * n * 64 * max_freq
    if terms > MAX_ANNEAL_TERMS:
        raise SearchSpaceTooLarge(f"up to {terms} first-level kernel terms (guard {MAX_ANNEAL_TERMS})")

    rg = np.random.default_rng(seed)
    cache: dict[tuple, NormEstimate] = {}

    def score(fs: FrequencySet) -> float:
        if fs.freqs not in cache:
            cache[fs.freqs] = lp_norm_quadrature(fs, 1)
        return cache[fs.freqs].normalized

    def random_set() -> FrequencySet:
        vals = 1 + rg.choice(max_freq, size=n, replace=False)
        return canonicalize(make_frequency_set(vals.tolist()))

    # initial temperature from the spread over a small random sample
    probe = [score(random_set()) for _ in range(min(100, budget))]
    temperature = max(float(np.std(probe)), 1e-4)
    cooling = (1e-3) ** (1.0 / max(budget, 2))

    current = random_set()
    current_value = score(current)
    for _ in range(budget):
        idx = int(rg.integers(n))
        vals = list(current.freqs)
        vals[idx] = int(1 + rg.integers(max_freq))
        if len(set(vals)) < n:
            temperature *= cooling
            continue
        proposal = canonicalize(make_frequency_set(vals))
        value = score(proposal)
        if value >= current_value or rg.random() < math.exp((value - current_value) / temperature):
            current, current_value = proposal, value
        temperature *= cooling

    best_freqs, best = min(cache.items(), key=lambda kv: (-kv[1].normalized, kv[0]))
    return SearchResult(
        n=n,
        best_set=FrequencySet(best_freqs),
        best_value=best.normalized,
        method="anneal",
        evaluations=len(cache),
        value_error=best.error_bound / math.sqrt(n),
        seed=seed,
    )


def convergence_study(
    q: int, n_list: Iterable[int], mc: McConfig
) -> list[StudyRow]:
    """Normalized L1 of {q, ..., q^n} for each n, with the gap to sqrt(pi)/2.

    Rows follow the order of n_list, and a duplicate n repeats its row. All
    rows come from one theta pass over {q, ..., q^N}, N = max(n_list): each
    row is bit-identical to l1_monte_carlo(lacunary_set(q, n), mc). The
    study evaluates S once, on the N frequencies, and adds one |S| and its
    sums per distinct n.
    """
    n_list = list(n_list)
    if not n_list:
        return []
    ns = sorted(set(n_list))
    fs = lacunary_set(q, ns[-1])
    if ns[0] < 1:
        raise DomainError("n must be >= 1")
    est = dict(zip(ns, _l1_prefixes(fs, ns, mc)))
    return [
        StudyRow(
            n=n,
            normalized_l1=est[n].normalized,
            std_error=est[n].std_error / math.sqrt(n),
            gap_to_limit=SQRT_PI_OVER_2 - est[n].normalized,
        )
        for n in n_list
    ]
