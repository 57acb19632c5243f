import math
import time

import numpy as np
import pytest

from lacsum import (
    FrequencySet,
    evaluate_sum,
    lacunary_set,
    make_frequency_set,
    parse_freqs_file,
)
from lacsum import frequency as fq
from lacsum.errors import DomainError
from lacsum.frequency import sum_components_dyadic


def test_make_frequency_set_sorts_and_freezes():
    fs = make_frequency_set([512, 8, 64])
    assert fs.freqs == (8, 64, 512)
    assert fs.n == 3
    assert fs.k_max == 512
    with pytest.raises(Exception):
        fs.freqs = (1,)  # frozen dataclass
    # numpy integers become Python ints
    assert make_frequency_set(np.array([9, 2], dtype=np.uint64)).freqs == (2, 9)
    assert all(type(k) is int for k in make_frequency_set([np.int64(3), 1]).freqs)


@pytest.mark.parametrize("values", [
    [1, 2.5, 3.9],
    np.array([1.7, 5.2]),
    [True, 2],
    [np.bool_(True), 2],
    [1, math.inf],
    [math.nan, 3],
    [1, "2"],
])
def test_make_frequency_set_rejects_non_integers(values):
    with pytest.raises(DomainError, match="is not an integer"):
        make_frequency_set(values)


def test_make_frequency_set_rejects_bad_input():
    with pytest.raises(ValueError):
        make_frequency_set([])
    with pytest.raises(ValueError):
        make_frequency_set([1, 1, 2])
    with pytest.raises(ValueError):
        make_frequency_set([0, 3])
    with pytest.raises(ValueError):
        make_frequency_set([-5])


def test_lacunary_set():
    assert lacunary_set(8, 4).freqs == (8, 64, 512, 4096)
    assert lacunary_set(2, 1).freqs == (2,)
    # 8**22 > 2**63-1 would overflow the exact dyadic path
    with pytest.raises(ValueError):
        lacunary_set(8, 22)


def test_lacunary_set_takes_numpy_integers():
    fs = lacunary_set(np.int64(8), np.uint8(3))
    assert fs.freqs == (8, 64, 512)
    assert all(type(k) is int for k in fs.freqs)


@pytest.mark.parametrize("q, n, named", [
    (8, True, "length n True"),
    (8, 2.5, "length n 2.5"),
    (True, 3, "lacunary base q True"),
    (8.0, 3, "lacunary base q 8.0"),
])
def test_lacunary_set_rejects_bool_and_float(q, n, named):
    with pytest.raises(DomainError, match=f"^{named} is not an integer$"):
        lacunary_set(q, n)


def test_lacunary_set_rejects_huge_n_before_the_power():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="8\\^1000000000 exceeds the 64-bit frequency range"):
        lacunary_set(8, 10**9)
    assert time.perf_counter() - start < 1.0


def test_evaluate_sum_exact_points():
    fs = make_frequency_set([1, 2, 5])
    assert evaluate_sum(fs, 0.0) == 3.0 + 0.0j
    # theta = 1/4, frequencies 8 and 64: both phases are integers
    assert evaluate_sum(make_frequency_set([8, 64]), 0.25) == 2.0 + 0.0j
    # e(1/2) + e(1) = -1 + 1 = 0
    assert abs(evaluate_sum(make_frequency_set([1, 2]), 0.5)) < 1e-12


def test_evaluate_sum_periodicity_is_exact():
    fs = lacunary_set(8, 6)
    th = 8191 / 2**20  # dyadic, so th + 1.0 and th - 3.0 are exact floats
    assert evaluate_sum(fs, th) == evaluate_sum(fs, th + 1.0)
    assert evaluate_sum(fs, th) == evaluate_sum(fs, th - 3.0)


def test_conjugate_symmetry():
    rng = np.random.default_rng(11)
    fs = make_frequency_set([3, 17, 120, 999])
    for th in rng.random(50):
        s_plus = evaluate_sum(fs, th)
        s_minus = evaluate_sum(fs, -th)
        assert abs(s_plus - np.conj(s_minus)) < 1e-10


def _scalar_sums(fs, thetas):
    """evaluate_sum at each theta: the scalar libm reference for the bulk kernel."""
    return np.array([evaluate_sum(fs, float(t)) for t in thetas])


def test_pointwise_bound_random():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        freqs = np.sort(rng.choice(np.arange(1, 5000), size=n, replace=False))
        fs = make_frequency_set(freqs.tolist())
        thetas = rng.random(200)
        vals = _scalar_sums(fs, thetas)
        assert np.all(np.abs(vals) <= n + 1e-9)


def test_dyadic_bulk_path_matches_exact_oracle():
    # theta = m / 2^63 reduced with exact integer arithmetic
    fs = lacunary_set(8, 12)
    rng = np.random.default_rng(9)
    m = rng.integers(0, 1 << 63, size=100, dtype=np.uint64)
    re, im = sum_components_dyadic(fs, m)
    for j in range(m.size):
        mj = int(m[j])
        z = sum(
            np.exp(2j * np.pi * ((k * mj) % (1 << 63)) / (1 << 63))
            for k in fs.freqs
        )
        assert abs(z.real - re[j]) < 1e-12 * fs.n
        assert abs(z.imag - im[j]) < 1e-12 * fs.n


def unit_oracle(p, bits):
    """(cos, sin) of 2 pi p / 2^bits: p reduced exactly in integers to the
    nearest quarter turn plus an offset of at most an octant, whose angle
    goes to math.cos / math.sin; the quarter turns are exact swaps."""
    quarter = 1 << (bits - 2)
    turns, offset = divmod(p + quarter // 2, quarter)
    ang = math.pi * (offset - quarter // 2) / (1 << (bits - 1))
    c, s = math.cos(ang), math.sin(ang)
    for _ in range(turns % 4):
        c, s = -s, c
    return c, s


def kernel_test_points():
    """Random 63-bit m and the edge phases of the table kernel."""
    b = fq._TABLE_BITS
    edges = [0, 1, 2**63 - 1]
    for j in (1, 2, 2 ** (b - 3), 2 ** (b - 2) - 1, 2 ** (b - 1), 2**b - 1):
        edges += [j * 2 ** (63 - b) + d for d in (-1, 0, 1)]  # table boundaries at k = 1
    edges += [2**62 + d for d in (-(2 ** (62 - b)), -2, -1, 0, 1, 2, 2 ** (62 - b))]  # the doubled phase wraps
    random = np.random.default_rng(17).integers(0, 1 << 63, size=300, dtype=np.uint64)
    return np.concatenate([np.array(edges, dtype=np.uint64), random])


@pytest.mark.parametrize("k", [1, 3, 8**5, 8**21, 12345678901234567, 2**64 - 1])
def test_dyadic_kernel_matches_octant_oracle(k):
    m = kernel_test_points()
    fs = make_frequency_set([k])
    re, im = sum_components_dyadic(fs, m)
    cos2 = sum_components_dyadic(fs, m << np.uint64(1))[0]
    worst = 0.0
    for j, mj in enumerate(m.tolist()):
        c, s = unit_oracle(k * mj, 63)
        c2, _ = unit_oracle(2 * k * mj, 63)
        worst = max(worst, abs(re[j] - c), abs(im[j] - s), abs(cos2[j] - c2))
    assert worst <= 8e-16


def test_dyadic_sums_match_octant_oracle():
    fs = lacunary_set(8, 16)
    m = kernel_test_points()
    re, im = sum_components_dyadic(fs, m)
    cos2 = sum_components_dyadic(fs, m << np.uint64(1))[0]
    for j, mj in enumerate(m.tolist()):
        terms = [unit_oracle(k * mj, 63) for k in fs]
        assert abs(re[j] - math.fsum(c for c, _ in terms)) <= fs.n * 8e-16
        assert abs(im[j] - math.fsum(s for _, s in terms)) <= fs.n * 8e-16
        assert abs(cos2[j] - math.fsum(unit_oracle(2 * k * mj, 63)[0] for k in fs)) <= fs.n * 8e-16


def test_dyadic_kernel_does_not_depend_on_blocking():
    # values are per point: any split of m gives the same bits, across the
    # kernel's own block boundaries and a short last block
    fs = make_frequency_set([3, 10, 8**20])
    m = np.random.default_rng(5).integers(0, 1 << 63, size=2 * fq._BLOCK + 5, dtype=np.uint64)
    re, im = sum_components_dyadic(fs, m)
    cos2 = sum_components_dyadic(fs, m << np.uint64(1))[0]
    for lo in range(0, m.size, 7777):
        part = m[lo : lo + 7777]
        pre, pim = sum_components_dyadic(fs, part)
        assert np.array_equal(pre, re[lo : lo + 7777]) and np.array_equal(pim, im[lo : lo + 7777])
        assert np.array_equal(sum_components_dyadic(fs, part << np.uint64(1))[0], cos2[lo : lo + 7777])
    empty = np.zeros(0, dtype=np.uint64)
    assert sum_components_dyadic(fs, empty)[0].size == 0
    assert sum_components_dyadic(fs, empty << np.uint64(1))[0].size == 0
    # and any split of the frequencies, added into one out in order
    out = np.zeros(m.shape, dtype=np.complex128)
    sum_components_dyadic(make_frequency_set([3, 10]), m, out)
    sum_components_dyadic(make_frequency_set([8**20]), m, out)
    assert np.array_equal(out.real, re) and np.array_equal(out.imag, im)
    # an out that the sums cannot go into in place is refused, not left at 0
    m42 = m[:8].reshape(4, 2)
    for bad in (
        np.zeros((4, 4), dtype=np.complex128)[:, :2],
        np.zeros((2, 4), dtype=np.complex128).T,
        np.zeros((4, 2), dtype=np.complex64),
        np.zeros(8, dtype=np.complex128),
    ):
        with pytest.raises(ValueError, match="C-contiguous complex128"):
            sum_components_dyadic(lacunary_set(8, 3), m42, bad)


def test_sum_values_matches_scalar_reference():
    # the bulk path runs the dyadic kernel on m = floor((theta mod 1) 2^64),
    # exact for theta mod 1 >= 2^-11; the libm reference rounds each angle
    rg = np.random.default_rng(3)
    for _ in range(10):
        fs = make_frequency_set(sorted({int(x) for x in rg.integers(1, 2**63, size=8)}))
        th = np.concatenate([rg.random(200), -5 * rg.random(20), 1 + 7 * rg.random(20)])
        th = th[np.mod(th, 1.0) >= 2**-11]
        assert np.abs(fq.sum_values(fs, th) - _scalar_sums(fs, th)).max() <= fs.n * 1e-15
    fs = lacunary_set(8, 5)
    assert fq.sum_values(fs, np.zeros((2, 3))).shape == (2, 3)
    assert fq.sum_values(fs, 0.0) == 5.0  # a float theta gives a 0-d array
    assert fq.sum_values(fs, -1e-300) == 5.0  # -1e-300 mod 1 rounds to 1, which wraps to 0


@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_small_kernel_path_matches_the_block_loop(n):
    # the one-pass path must give the block loop's bits on either side of the
    # crossover, with wrapping multipliers, m >= 2^63 and sums already in out
    rg = np.random.default_rng(n)
    edge = fq._SMALL_TERMS // n
    for size in (0, 1, 7, edge - 1, edge + 1):
        mults = rg.integers(0, 2**64, size=n, dtype=np.uint64)
        mults[0] = 2**64 - 1
        m = rg.integers(0, 2**64, size=size, dtype=np.uint64)
        m[: min(size, 4)] = [0, 2**63, 2**64 - 1, 2**63 - 1][: min(size, 4)]
        start = rg.standard_normal(size) + 1j * rg.standard_normal(size)
        small, blocks = start.copy(), start.copy()
        fq._add_unit_roots_small(mults, m, small)
        fq._add_unit_roots_blocks(mults, m, blocks)
        assert np.array_equal(small.view(np.uint64), blocks.view(np.uint64)), size


def test_freqs_file_roundtrip(tmp_path):
    fs = make_frequency_set([1, 8, 64, 4097])
    path = tmp_path / "freqs.txt"
    path.write_text("".join(f"{k}\n" for k in fs))
    assert parse_freqs_file(path).freqs == fs.freqs
    # comments and blank lines are ignored
    path.write_text("# comment\n3\n\n7\n# tail\n9\n")
    assert parse_freqs_file(path).freqs == (3, 7, 9)
