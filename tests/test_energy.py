import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from lacsum import (
    count_quadruple_solutions,
    holder_lower_bound,
    is_sidon,
    lacunary_set,
    lp_norm_quadrature,
    make_frequency_set,
    mian_chowla,
)
from lacsum import energy
from lacsum.energy import MAX_PAIR_SUMS, MAX_SIDON_MARKS, MAX_WIDE_PAIR_SUMS
from lacsum.errors import CapacityExceeded, DomainError
from lacsum.norms import fourth_moment_cos
from oracles import greedy_sidon


def brute_energy(freqs):
    """O(n^4) oracle: count (a, b, c, d) with k_a + k_b = k_c + k_d."""
    count = 0
    for a, b, c, d in itertools.product(freqs, repeat=4):
        if a + b == c + d:
            count += 1
    return count


def test_energy_small_examples():
    assert count_quadruple_solutions(make_frequency_set([1])) == 1
    assert count_quadruple_solutions(make_frequency_set([1, 2])) == 6
    # arithmetic progression has extra quadruples
    assert count_quadruple_solutions(make_frequency_set([1, 2, 3])) == brute_energy(
        (1, 2, 3)
    )


def test_energy_matches_brute_force_random():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        freqs = tuple(
            sorted(rng.choice(np.arange(1, 300), size=n, replace=False).tolist())
        )
        fs = make_frequency_set(freqs)
        assert count_quadruple_solutions(fs) == brute_energy(freqs)


def test_energy_shift_dilation_invariant():
    fs = make_frequency_set([2, 3, 7, 20])
    base = count_quadruple_solutions(fs)
    assert count_quadruple_solutions(make_frequency_set([k + 9 for k in fs.freqs])) == base
    assert count_quadruple_solutions(make_frequency_set([5 * k for k in fs.freqs])) == base


def test_is_sidon():
    assert is_sidon(make_frequency_set([1, 2, 4]))
    assert not is_sidon(make_frequency_set([1, 2, 3]))
    assert is_sidon(lacunary_set(8, 6))


def test_mian_chowla_prefix():
    # greedy Sidon sequence, OEIS A005282
    assert mian_chowla(10).freqs == (1, 2, 4, 8, 13, 21, 31, 45, 66, 81)


def test_mian_chowla_is_greedy():
    fs = mian_chowla(8)
    freqs = list(fs.freqs)
    assert is_sidon(fs)
    # greedy optimality: no smaller candidate would have kept the set Sidon
    for i in range(1, len(freqs)):
        prefix = freqs[:i]
        for cand in range(prefix[-1] + 1, freqs[i]):
            assert not is_sidon(make_frequency_set(prefix + [cand]))


def test_sidon_energy_formula():
    for n in (2, 5, 10, 20):
        fs = mian_chowla(n)
        assert count_quadruple_solutions(fs) == 2 * n * n - n


def test_holder_certificate_fields():
    fs = lacunary_set(8, 4)
    cert = holder_lower_bound(fs)
    k = count_quadruple_solutions(fs)
    assert cert.energy == k
    assert abs(cert.l1_lower_bound - fs.n**1.5 / math.sqrt(k)) < 1e-12
    assert abs(cert.normalized_lower_bound - fs.n / math.sqrt(k)) < 1e-12
    assert cert.is_sidon


def test_holder_bound_is_sound():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        freqs = np.sort(rng.choice(np.arange(1, 1500), size=n, replace=False))
        fs = make_frequency_set(freqs.tolist())
        cert = holder_lower_bound(fs)
        l1 = lp_norm_quadrature(fs, p=1).value
        assert cert.l1_lower_bound <= l1 + 1e-8


def test_counter_fallback_for_huge_frequencies():
    # a narrow set near 2^62 is shifted into int64; a span of 2^62 or more
    # forces the pure-Python summation path; both must agree
    base = 2**62
    for freqs in ((base + 1, base + 2, base + 5, base + 11), (1, 5, base + 1, 2**64 - 1)):
        fs = make_frequency_set(freqs)
        assert count_quadruple_solutions(fs) == brute_energy(freqs)


def unique_energy(freqs):
    """Reference: squared multiplicities of np.unique over all n^2 int64 sums."""
    arr = np.asarray(freqs, dtype=np.int64)
    _, mult = np.unique(np.add.outer(arr, arr), return_counts=True)
    return int(mult @ mult)


def test_energy_of_an_interval_is_closed_form_and_fast():
    n = 5000
    start = time.perf_counter()
    energy = count_quadruple_solutions(make_frequency_set(range(1, n + 1)))
    assert time.perf_counter() - start < 1.0
    assert energy == (2 * n**3 + n) // 3


def test_energy_of_a_sparse_set_matches_unique_reference():
    # 1500^2 sums over [1, 2^41]: the sort path, in several bands
    rng = np.random.default_rng(47)
    freqs = np.unique(rng.integers(1, 2**40, size=1500))
    assert freqs.size == 1500
    fs = make_frequency_set(freqs.tolist())
    assert count_quadruple_solutions(fs) == unique_energy(fs.freqs)


def test_fourth_moment_counts_f_and_minus_f():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(1, 7))
        freqs = rng.choice(np.arange(1, 200), size=n, replace=False).tolist()
        both = freqs + [-k for k in freqs]
        assert fourth_moment_cos(make_frequency_set(freqs)) == brute_energy(both) / 16


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_energy_on_both_sides_of_the_histogram_span(extra):
    # the histogram path takes 2 span + 1 <= 4 n^2 bins; the sort path the rest
    n = 40
    span = (4 * n * n - 1) // 2 + extra
    rng = np.random.default_rng(59 + extra)
    inner = rng.choice(np.arange(2, span + 1), size=n - 2, replace=False).tolist()
    freqs = [1, *inner, span + 1]
    assert count_quadruple_solutions(make_frequency_set(freqs)) == unique_energy(sorted(freqs))


def test_mian_chowla_known_terms():
    # checked against the candidate-by-candidate greedy construction
    assert mian_chowla(120).freqs[-1] == 44879
    assert mian_chowla(200).freqs[-1] == 172922


def test_mian_chowla_matches_the_candidate_by_candidate_greedy():
    reference = greedy_sidon(150)
    for n in range(1, 151):
        assert mian_chowla(n).freqs == tuple(reference[:n]), n


def test_mian_chowla_bitsets_stay_small():
    # a_800 = 7 600 544: each bitset holds < c bits (~0.9 MiB), and the
    # three with the copies that each step makes peak at ~4.9 MiB
    tracemalloc.start()
    try:
        last = mian_chowla(800).freqs[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last == 7600544
    assert peak < 8 * 2**20


@pytest.mark.parametrize("n", [True, 2.0, "3"])
def test_mian_chowla_takes_integers_only(n):
    with pytest.raises(DomainError, match=f"n {n!r} is not an integer"):
        mian_chowla(n)


def test_mian_chowla_takes_numpy_integers():
    assert mian_chowla(np.int64(10)).freqs == mian_chowla(10).freqs


def test_mian_chowla_capacity_guard():
    n = 1
    while (n + 1) * n * (n + 2) // 6 <= MAX_SIDON_MARKS:
        n += 1  # n is the largest accepted length
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded, match=str(MAX_SIDON_MARKS)):
        mian_chowla(n + 1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("base, limit", [(0, MAX_PAIR_SUMS), (2**63, MAX_WIDE_PAIR_SUMS)])
def test_energy_capacity_guard(base, limit):
    n = math.isqrt(limit) + 1
    fs = make_frequency_set(range(base + 1, base + n + 1))
    if base:
        fs = make_frequency_set((1, *fs.freqs))  # a span beyond 2^62
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded, match=str(limit)):
        count_quadruple_solutions(fs)
    assert time.perf_counter() - start < 1.0


def counter_energy(values):
    """O(n^2) oracle: squared multiplicities of the n^2 ordered pair sums."""
    sums = Counter(a + b for a in values for b in values)
    return sum(c * c for c in sums.values())


def spread(n, base, span, seed):
    """n distinct ints from base to base + span, both ends included (span 0 when n = 1)."""
    if n == 1:
        return [base]
    inner = random.Random(seed).sample(range(base + 1, base + span), n - 2)
    return [base, *inner, base + span]


# the largest span of each path for n values; the histogram takes 2 span + 1 bins
PATH_SPANS = {
    "histogram": lambda n: (min(4 * n * n, 1 << 20) - 1) // 2,
    "sorted": lambda n: 1 << 40,
    "wide": lambda n: (1 << 62) + 12345,
}


def spy_paths(monkeypatch):
    """Record which numpy path the counter takes; neither means the Python-int path."""
    taken = []
    for path in ("histogram", "sorted"):
        name = f"_{path}_energy"
        inner = getattr(energy, name)
        monkeypatch.setattr(energy, name, lambda *a, inner=inner, path=path: taken.append(path) or inner(*a))
    return taken


@pytest.mark.parametrize("path", sorted(PATH_SPANS))
@pytest.mark.parametrize("n", [1, 2, 16, 17, 127, 128, 129, 257])
def test_energy_matches_counter_on_every_path(monkeypatch, n, path):
    # at most 16 values take Python ints at any span; tile edges at 128 and
    # 256 values; signed values on every path
    taken = spy_paths(monkeypatch)
    freqs = spread(n, -(1 << 61) if path == "wide" else -5 * 10**6, PATH_SPANS[path](n), seed=n)
    assert energy._pair_sum_energy(freqs) == counter_energy(freqs)
    assert taken == ([] if n <= 16 or path == "wide" else [path])


@pytest.mark.parametrize("path", sorted(PATH_SPANS))
@pytest.mark.parametrize("n", [2, 8, 9, 64, 129])
def test_fourth_moment_counts_f_and_minus_f_on_every_path(monkeypatch, n, path):
    # F u -F has 2n values and twice F's largest value as its span
    taken = spy_paths(monkeypatch)
    freqs = spread(n, 1, PATH_SPANS[path](2 * n) // 2 - 1, seed=n)
    both = freqs + [-k for k in freqs]
    assert fourth_moment_cos(make_frequency_set(freqs)) == counter_energy(both) / 16
    assert taken == ([] if 2 * n <= 16 or path == "wide" else [path])


def test_histogram_memory_is_tile_sized():
    # h holds 2 * 10^5 bins (1.6 MB); binning all 4 * 10^6 ordered sums at
    # once, in chunks of 2^20, peaked at ~11 MB
    rng = np.random.default_rng(61)
    fs = make_frequency_set(rng.choice(np.arange(1, 10**5), size=2000, replace=False).tolist())
    tracemalloc.start()
    try:
        cert = holder_lower_bound(fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.energy == unique_energy(fs.freqs)
    assert peak < 3 * 2**20
