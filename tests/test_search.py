import math
import tracemalloc
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from lacsum import (
    McConfig,
    SQRT_PI_OVER_2,
    StudyRow,
    anneal_sigma,
    canonicalize,
    convergence_study,
    exhaustive_sigma,
    holder_lower_bound,
    l1_monte_carlo,
    lacunary_set,
    lp_norm_quadrature,
    make_frequency_set,
)
from lacsum import search
from lacsum.errors import DomainError, SearchSpaceTooLarge
from lacsum.quadrature import MAX_HARMONIC
from lacsum.search import _canonical_candidates


def test_limit_constant():
    assert SQRT_PI_OVER_2 == math.sqrt(math.pi) / 2


def test_canonicalize_shift_and_gcd():
    assert canonicalize(make_frequency_set([10, 20])).freqs == (1, 2)
    assert canonicalize(make_frequency_set([3, 7, 11])).freqs == (1, 2, 3)
    assert canonicalize(make_frequency_set([5])).freqs == (1,)


def test_canonicalize_preserves_l1():
    fs = make_frequency_set([6, 21, 36, 51])
    canon = canonicalize(fs)
    a = lp_norm_quadrature(fs, p=1).value
    b = lp_norm_quadrature(canon, p=1).value
    assert abs(a - b) < 1e-8


def test_canonicalize_idempotent():
    fs = make_frequency_set([4, 9, 14, 100])
    once = canonicalize(fs)
    assert canonicalize(once).freqs == once.freqs


def test_exhaustive_trivial_sizes():
    r1 = exhaustive_sigma(1, 10)
    assert r1.best_set.freqs == (1,)
    assert abs(r1.best_value - 1.0) < 1e-10

    r2 = exhaustive_sigma(2, 10)
    assert r2.best_set.freqs == (1, 2)
    assert abs(r2.best_value - 4 / (math.pi * math.sqrt(2))) < 1e-8

    # anneal's general loop at n = 1: every set canonicalizes to {1}, which
    # the L1 rule measures as exactly 1 with no error
    for budget in (1, 10**4):
        r = anneal_sigma(1, max_freq=1000, budget=budget, seed=7)
        assert (r.best_set.freqs, r.best_value, r.evaluations, r.value_error) == ((1,), 1.0, 1, 0.0)
        assert (r.method, r.seed) == ("anneal", 7)


def test_exhaustive_three_frequencies_regression():
    r = exhaustive_sigma(3, 12)
    assert r.best_set.freqs == (1, 2, 4)
    assert abs(r.best_value - 0.9236878858009567) < 1e-9
    # the maximizer must beat its own Holder certificate
    assert r.best_value >= holder_lower_bound(r.best_set).normalized_lower_bound
    # one L1 rule: the reported value is the quadrature value of the best set
    assert r.best_value == lp_norm_quadrature(r.best_set, 1).normalized


def test_exhaustive_four_frequencies_regression():
    # many 4-sets with entries <= 14 have a double zero of S, where the L1 rule
    # stops at its depth limit; value_error is the best set's bound over sqrt(n)
    r = exhaustive_sigma(4, 14)
    assert r.best_set.freqs == (1, 2, 5, 7)
    assert abs(r.best_value - 0.9287453236029001) < 1e-12
    assert r.best_value.hex() == "0x1.db8481ce5ff1fp-1"
    assert math.isfinite(r.value_error) and r.value_error >= 0.0
    assert r.value_error == lp_norm_quadrature(r.best_set, 1).error_bound / 2


def _mirror(freqs):
    return tuple(1 + freqs[-1] - k for k in reversed(freqs))


@lru_cache(maxsize=None)
def _every_canonical_set(n, max_freq):
    """Every canonical n-set with entries <= max_freq, by brute force, in lexicographic order."""
    sets = (make_frequency_set(c) for c in combinations(range(1, max_freq + 1), n))
    return tuple(fs for fs in sets if canonicalize(fs) is fs)


@lru_cache(maxsize=None)
def _measured_alone(n, max_freq):
    """lp_norm_quadrature of every canonical n-set with entries <= max_freq, keyed by its freqs."""
    return {fs.freqs: lp_norm_quadrature(fs, 1) for fs in _every_canonical_set(n, max_freq)}


@pytest.mark.parametrize("n, max_freq", [(1, 4), (2, 9), (3, 3), (3, 12), (4, 8), (4, 14), (5, 11)])
def test_candidates_are_one_set_per_mirror_pair(n, max_freq):
    # the yielded sets and their mirrors are exactly the canonical sets; each
    # yielded set is the smaller of its pair, palindromes such as {1, 2, 3}
    # and {1, 2, 6, 7} included, and none repeats
    got = [fs.freqs for fs in _canonical_candidates(n, max_freq)]
    assert got == sorted(set(got))
    assert all(freqs <= _mirror(freqs) for freqs in got)
    every = [fs.freqs for fs in _every_canonical_set(n, max_freq)]
    assert set(got) | {_mirror(freqs) for freqs in got} == set(every)
    assert len(got) == len({min(freqs, _mirror(freqs)) for freqs in every})


@pytest.mark.parametrize("n, max_freq", [(4, 14), (5, 16)])
def test_mirror_pairs_measure_alike(n, max_freq):
    # |S| of a set and of its mirror agree at every theta, so the L1 rule
    # measures both within the search's 1e-12 tie tolerance
    measured = _measured_alone(n, max_freq)
    pairs = [(freqs, _mirror(freqs)) for freqs in measured if freqs < _mirror(freqs)]
    assert len(pairs) > 100
    for freqs, mirror in pairs:
        assert abs(measured[freqs].normalized - measured[mirror].normalized) <= 1e-12


@pytest.mark.parametrize("n, max_freq", [(3, 12), (4, 8), (4, 14)])
def test_exhaustive_equals_a_full_scan(n, max_freq):
    # measuring one set per mirror pair keeps the full lexicographic scan's
    # result bit for bit; (4, 8) holds {1,2,6,7} with its double zero
    best_set = best = None
    for freqs, est in _measured_alone(n, max_freq).items():
        if best is None or est.normalized > best.normalized + 1e-12:
            best_set, best = freqs, est
    r = exhaustive_sigma(n, max_freq)
    assert r.best_set.freqs == best_set
    assert r.best_value.hex() == best.normalized.hex()
    assert r.value_error.hex() == (best.error_bound / math.sqrt(n)).hex()
    assert r.evaluations == len(list(_canonical_candidates(n, max_freq)))


@pytest.mark.parametrize(
    "n, max_freq, best_set, best_hex",
    [
        (3, 24, (1, 2, 4), "0x1.d8ed9e5a73f6ep-1"),
        (5, 16, (1, 3, 8, 9, 12), "0x1.dea415fcdb57cp-1"),
    ],
)
def test_exhaustive_best_values_are_pinned(n, max_freq, best_set, best_hex):
    r = exhaustive_sigma(n, max_freq)
    assert r.best_set.freqs == best_set
    assert r.best_value.hex() == best_hex


def test_anneal_result_is_pinned():
    # every set, the initial sample included, is scored alone; scoring draws
    # nothing, so the seeded stream fixes the sets and their count
    r = anneal_sigma(4, 20, 300, 5)
    assert r.best_set.freqs == (1, 3, 6, 7)
    assert r.best_value.hex() == "0x1.db8481ce5ff1fp-1"
    assert r.evaluations == 205


def test_exhaustive_memory_stays_small():
    # several candidates of (4, 14) have a double zero, whose suspect panels
    # reach ~10^4 per set at depth; each set is measured alone, so the peak
    # is that of one set
    tracemalloc.start()
    try:
        exhaustive_sigma(4, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


def test_exhaustive_monotone_in_max_freq():
    small = exhaustive_sigma(3, 8)
    large = exhaustive_sigma(3, 12)
    assert large.best_value >= small.best_value - 1e-12


def test_exhaustive_space_guard():
    with pytest.raises(SearchSpaceTooLarge):
        exhaustive_sigma(8, 2000)


def test_anneal_cap_message_names_the_cap():
    # above the quadrature limit the rule would raise mid-walk; refused up front
    with pytest.raises(DomainError, match=f"{MAX_HARMONIC}, the quadrature limit"):
        anneal_sigma(2, max_freq=MAX_HARMONIC + 1, budget=1, seed=0)


def test_anneal_refuses_a_walk_over_its_work_guard_before_scoring(monkeypatch):
    # (10^4 + 100 + 1) sets of 3 terms at 64 * 10^6 nodes: ~8 hours of scoring
    def no_scoring(*args):
        raise AssertionError("a set was scored")

    monkeypatch.setattr(search, "lp_norm_quadrature", no_scoring)
    terms = (10**4 + 100 + 1) * 3 * 64 * 10**6
    with pytest.raises(SearchSpaceTooLarge, match=f"up to {terms} first-level kernel terms") as err:
        anneal_sigma(3, 10**6, 10**4, 1)
    assert f"(guard {search.MAX_ANNEAL_TERMS})" in str(err.value)


def test_anneal_recovers_known_optimum():
    r = anneal_sigma(2, max_freq=100, budget=300, seed=1)
    assert r.best_set.freqs == (1, 2)
    assert abs(r.best_value - 4 / (math.pi * math.sqrt(2))) < 1e-7


def test_anneal_at_least_exhaustive():
    exact = exhaustive_sigma(3, 12)
    r = anneal_sigma(3, max_freq=30, budget=1500, seed=3)
    assert r.best_value >= exact.best_value - 1e-6


def test_anneal_deterministic_for_fixed_seed():
    a = anneal_sigma(3, max_freq=20, budget=200, seed=11)
    b = anneal_sigma(3, max_freq=20, budget=200, seed=11)
    assert a.best_set.freqs == b.best_set.freqs
    assert a.best_value == b.best_value
    # the best cached score is returned as measured, not re-measured
    assert a.best_value == lp_norm_quadrature(a.best_set, 1).normalized


def test_convergence_study_rows():
    rows = convergence_study(8, [1, 2, 4], McConfig(samples=100_000, seed=2))
    assert [r.n for r in rows] == [1, 2, 4]
    assert rows[0].normalized_l1 == 1.0
    for r in rows:
        assert r.gap_to_limit == SQRT_PI_OVER_2 - r.normalized_l1
        assert r.std_error >= 0.0


@pytest.mark.parametrize(
    "q, n_list, mc",
    [
        (8, [4, 8, 16], McConfig(samples=10**6, seed=3)),
        (3, [16, 4, 8, 4], McConfig(samples=70_001, seed=1, chunk_size=8192)),
        (8, [1], McConfig(samples=5, seed=0, chunk_size=2)),
    ],
)
def test_convergence_study_matches_per_n_estimates(q, n_list, mc):
    # one theta pass over the nested prefixes gives the per-n estimates bit for bit
    expected = []
    for n in n_list:
        est = l1_monte_carlo(lacunary_set(q, n), mc)
        expected.append(
            StudyRow(
                n=n,
                normalized_l1=est.normalized,
                std_error=est.std_error / math.sqrt(n),
                gap_to_limit=SQRT_PI_OVER_2 - est.normalized,
            )
        )
    assert convergence_study(q, n_list, mc) == expected


def test_convergence_study_empty_and_invalid_n():
    assert convergence_study(8, [], McConfig(samples=10)) == []
    with pytest.raises(DomainError):
        convergence_study(8, [0, 2], McConfig(samples=10))
    with pytest.raises(DomainError):
        convergence_study(8, [2, 30], McConfig(samples=10))


def test_convergence_study_approaches_limit():
    rows = convergence_study(8, [2, 8], McConfig(samples=400_000, seed=2))
    assert abs(rows[-1].gap_to_limit) < abs(rows[0].gap_to_limit)

