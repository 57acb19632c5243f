import math
import os

import numpy as np
import pytest

from lacsum import (
    McConfig,
    QuadratureConfig,
    fourth_moment_cos,
    l1_auto,
    l1_monte_carlo,
    lacunary_set,
    lp_norm_quadrature,
    make_frequency_set,
    markov_tail_fraction,
    mian_chowla,
)
from lacsum.energy import count_quadruple_solutions
from lacsum.errors import BudgetExceeded, FrequencyTooLarge
from lacsum.quadrature import integrate_periodic, panel_count


def midpoint_l1(fs, m=2_000_000):
    """Independent oracle: midpoint rule on a fine uniform grid.

    At theta_i = (2i+1)/(2m) the phase k theta_i mod 1 is the exact integer
    ratio (k (2i+1) mod 2m) / (2m).
    """
    odd = 2 * np.arange(m, dtype=np.int64) + 1
    re = np.zeros(m)
    im = np.zeros(m)
    for k in fs:
        ang = 2 * np.pi * ((k * odd) % (2 * m) / (2 * m))
        re += np.cos(ang)
        im += np.sin(ang)
    return float(np.mean(np.hypot(re, im)))


def test_l1_singleton_is_one():
    est = lp_norm_quadrature(make_frequency_set([7]), p=1)
    assert abs(est.value - 1.0) < 1e-12
    assert abs(est.normalized - 1.0) < 1e-12


def test_l1_closed_form_two_frequencies():
    # |e(th) + e(2 th)| = 2|cos(pi th)|, integral = 4/pi
    est = lp_norm_quadrature(make_frequency_set([1, 2]), p=1)
    assert abs(est.value - 4 / math.pi) < 1e-9
    assert abs(est.normalized - 4 / (math.pi * math.sqrt(2))) < 1e-9


def test_l1_quadrature_vs_midpoint_oracle():
    fs = make_frequency_set([1, 3, 9, 27])
    est = lp_norm_quadrature(fs, p=1)
    assert abs(est.value - midpoint_l1(fs)) < 1e-5


def test_parseval_random_sets():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        freqs = np.sort(rng.choice(np.arange(1, 10_000), size=n, replace=False))
        fs = make_frequency_set(freqs.tolist())
        est = lp_norm_quadrature(fs, p=2)
        assert abs(est.value**2 - n) < 1e-9 * n


def test_l4_equals_additive_energy():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        freqs = np.sort(rng.choice(np.arange(1, 2000), size=n, replace=False))
        fs = make_frequency_set(freqs.tolist())
        est = lp_norm_quadrature(fs, p=4)
        energy = count_quadruple_solutions(fs)
        assert abs(est.value**4 - energy) < 1e-7 * energy


def test_l1_shift_and_dilation_invariance():
    base = make_frequency_set([1, 4, 11])
    ref = lp_norm_quadrature(base, p=1).value
    shifted = make_frequency_set([k + 5 for k in base.freqs])
    dilated = make_frequency_set([3 * k for k in base.freqs])
    assert abs(lp_norm_quadrature(shifted, p=1).value - ref) < 1e-8
    assert abs(lp_norm_quadrature(dilated, p=1).value - ref) < 1e-8


def test_quadrature_budget_enforced():
    fs = lacunary_set(8, 16)
    with pytest.raises(FrequencyTooLarge):
        lp_norm_quadrature(fs, p=1)


def test_panel_count_scales_with_harmonic():
    cfg = QuadratureConfig()
    assert panel_count(100, cfg) >= panel_count(10, cfg)


def test_mc_singleton_exact():
    est = l1_monte_carlo(make_frequency_set([5]), McConfig(samples=10_000, seed=0))
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_mc_agrees_with_quadrature():
    fs = make_frequency_set([1, 2])
    est = l1_monte_carlo(fs, McConfig(samples=400_000, seed=4))
    assert abs(est.value - 4 / math.pi) < 4 * est.std_error + 1e-12


def test_mc_deterministic_across_worker_counts():
    fs = lacunary_set(8, 10)
    cfg = McConfig(samples=200_000, seed=42)
    results = []
    old = os.environ.get("LACSUM_THREADS")
    try:
        for workers in ("1", "4", "8"):
            os.environ["LACSUM_THREADS"] = workers
            est = l1_monte_carlo(fs, cfg)
            results.append((est.value, est.std_error))
    finally:
        if old is None:
            os.environ.pop("LACSUM_THREADS", None)
        else:
            os.environ["LACSUM_THREADS"] = old
    assert results[0] == results[1] == results[2]


def test_mc_seed_sensitivity():
    fs = lacunary_set(8, 6)
    a = l1_monte_carlo(fs, McConfig(samples=100_000, seed=1))
    b = l1_monte_carlo(fs, McConfig(samples=100_000, seed=2))
    assert a.value != b.value
    assert abs(a.value - b.value) < 6 * math.hypot(a.std_error, b.std_error)


def test_l1_auto_dispatch():
    quad = l1_auto(make_frequency_set([1, 2]), tol=1e-9)
    assert quad.method == "quadrature"
    mc = l1_auto(lacunary_set(8, 16), tol=5e-3)
    assert mc.method == "monte-carlo"
    assert mc.std_error <= 5e-3


def test_l1_auto_meets_its_error_target():
    # the Monte Carlo branch sizes its run for std_error <= tol/3
    tol = 5e-3
    assert l1_auto(lacunary_set(8, 16), tol=tol, seed=1).std_error <= 1.1 * tol / 3


def test_l1_auto_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        l1_auto(lacunary_set(8, 16), tol=1e-7)


def test_fourth_moment_singleton():
    # int cos^4(4 pi k theta) d theta = 3/8
    val = fourth_moment_cos(make_frequency_set([8]))
    assert abs(val - 3 / 8) < 1e-10


def test_fourth_moment_lacunary_closed_form():
    # for q >= 3 lacunary sets the cosine-sum fourth moment is
    # 3 n (n - 1) / 4 + 3 n / 8 (count the surviving quadruples directly);
    # the count is exact up to the 64-bit frequency 8^21
    for n in range(1, 22):
        fs = lacunary_set(8, n)
        expect = 3 * n * (n - 1) / 4 + 3 * n / 8
        assert fourth_moment_cos(fs) == expect
    assert fourth_moment_cos(lacunary_set(8, 21)) == 322.875


def test_fourth_moment_matches_quadrature():
    # reference: the Gauss-Legendre integral of (sum_j cos 4 pi k_j theta)^4,
    # a trigonometric polynomial of degree 8 k_max
    for fs in (make_frequency_set([1, 2, 3, 7]), mian_chowla(12)):
        ref = integrate_periodic(
            lambda th: sum(np.cos(4 * np.pi * k * th) for k in fs.freqs) ** 4,
            8 * fs.k_max,
        )
        assert abs(fourth_moment_cos(fs) - ref) <= 1e-12 * ref


def test_markov_tail_singleton_is_zero():
    frac = markov_tail_fraction(
        make_frequency_set([8]), McConfig(samples=100_000, seed=0)
    )
    assert frac == 0.0


def test_markov_tail_below_reciprocal_n():
    for n in (2, 4, 6):
        fs = lacunary_set(8, n)
        frac = markov_tail_fraction(fs, McConfig(samples=200_000, seed=3))
        assert frac <= 1.0 / n


def test_integrate_periodic_complex_passthrough():
    val = integrate_periodic(lambda t: np.exp(2j * np.pi * t), 4)
    assert isinstance(val, complex)
    assert abs(val) < 1e-14
    real = integrate_periodic(lambda t: np.cos(2 * np.pi * t) ** 2, 4)
    assert isinstance(real, float)
    assert abs(real - 0.5) < 1e-14
