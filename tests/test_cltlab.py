import cmath
import itertools
import math
import time
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from lacsum import (
    CharFnPoint,
    GaussianSpec,
    McConfig,
    SmoothingInputs,
    ValueWithError,
    alpha_at,
    alpha_mean,
    beta_at,
    clt_report,
    default_phi_grid,
    deviation_bound,
    empirical_char_fn,
    evaluate_mu_nu,
    gaussian_abs_mean,
    ks_distance_to_normal,
    l1_monte_carlo,
    lacunary_set,
    make_frequency_set,
    product_moment,
    sample_mu_nu,
    smoothing_bound,
    w_remainder,
)
from lacsum import rng as lrng
from lacsum.errors import CapacityExceeded, DomainError
from lacsum.quadrature import integrate_periodic


# ---------------------------------------------------------------- w remainder


def w_taylor(x, terms=300):
    """Oracle: w(x) = sum_{m>=3} (-1)^m (ix)^m / m, from the Log series."""
    total = 0.0 + 0.0j
    for m in range(3, terms + 3):
        total += (-1) ** m * (1j * x) ** m / m
    return total


def test_w_remainder_zero():
    assert w_remainder(0.0) == 0


def test_w_remainder_matches_taylor_oracle():
    for x in (0.1, -0.1, 0.45, -0.3, 0.8):
        assert abs(w_remainder(x) - w_taylor(x)) < 1e-14


def test_w_remainder_cubic_bound():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-0.999, 0.999, size=10_000)
    for x in xs:
        assert abs(w_remainder(float(x))) <= abs(x) ** 3 + 1e-15


def test_w_remainder_leading_coefficient():
    # w(x) ~ i x^3 / 3 as x -> 0
    x = 1e-2
    assert abs(w_remainder(x) / x**3 - 1j / 3) < 1e-2


def test_w_remainder_reconstruction():
    # exp(x^2/2 + ix - w(x)) must equal 1 + ix exactly in the disc
    for x in (0.3, -0.7, 0.05):
        lhs = cmath.exp(x**2 / 2 + 1j * x - w_remainder(x))
        assert abs(lhs - (1 + 1j * x)) < 1e-14


def test_w_remainder_domain_guard():
    with pytest.raises(DomainError):
        w_remainder(1.0)
    with pytest.raises(DomainError):
        w_remainder(-1.5)


# ------------------------------------------------------- alpha / beta algebra


def test_alpha_beta_pointwise_identity():
    # alpha * exp(-(s^2+t^2)/4 + beta) == exp(i(s mu + t nu)) pointwise
    fs = lacunary_set(8, 5)
    rng = np.random.default_rng(13)
    for _ in range(25):
        th = float(rng.random())
        s, t = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
        mn = evaluate_mu_nu(fs, th)
        lhs = alpha_at(fs, s, t, th) * cmath.exp(
            -(s * s + t * t) / 4 + beta_at(fs, s, t, th)
        )
        rhs = cmath.exp(1j * (s * mn.mu + t * mn.nu))
        assert abs(lhs - rhs) < 1e-10


def test_alpha_mean_is_one_for_lacunary():
    # exact up to the 64-bit frequency 8^21
    for n in range(1, 22):
        fs = lacunary_set(8, n)
        for s, t in [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0)]:
            assert alpha_mean(fs, s, t) == 1.0


def test_alpha_mean_matches_quadrature():
    # reference: Gauss-Legendre integral of alpha_at, a trigonometric
    # polynomial of degree 2 sum(k); float64 rounding sets the tolerance
    for freqs in ([1, 2, 3], [3, 4, 10]):
        fs = make_frequency_set(freqs)
        for s, t in [(0.5, 1.0), (2.0, 2.0), (1.0, 0.0)]:
            ref = integrate_periodic(lambda th: alpha_at(fs, s, t, th), 2 * sum(freqs))
            assert abs(alpha_mean(fs, s, t) - ref) <= 1e-12


def test_product_moment_matches_quadrature():
    fs = make_frequency_set([1, 2, 3])
    s, t = 1.5, -0.75
    for sel in itertools.product((0, 1), repeat=6):
        delta, delta_hat = sel[:3], sel[3:]

        def integrand(th):
            out = np.ones(th.shape, dtype=np.complex128)
            for k, d, dh in zip(fs.freqs, delta, delta_hat):
                if d:
                    out *= 1j * s * np.sin(2 * np.pi * k * th)
                if dh:
                    out *= 1j * t * np.cos(2 * np.pi * k * th)
            return out

        ref = integrate_periodic(integrand, 2 * sum(fs.freqs))
        assert abs(product_moment(fs, delta, delta_hat, s, t) - ref) <= 1e-12


def test_moment_state_capacity_guard():
    # generic large frequencies leave nothing to prune: 5^n live exponents
    fs = make_frequency_set([10**18 + 7**j for j in range(1, 13)])
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded, match="live exponents"):
        alpha_mean(fs, 1.0, 1.0)
    assert time.perf_counter() - start < 1.0


def test_alpha_mean_origin_exact():
    assert alpha_mean(lacunary_set(8, 3), 0.0, 0.0) == 1.0


def test_alpha_mean_negative_control():
    # for a non-lacunary set the cancellation fails visibly
    dev = abs(alpha_mean(make_frequency_set([1, 2, 3]), 2.0, 2.0) - 1.0)
    assert dev > 0.1


def test_product_moment_trivial_cases():
    fs = make_frequency_set([8, 64])
    assert product_moment(fs, (0, 0), (0, 0), 1.0, 1.0) == 1.0
    # a single unmatched sine factor integrates to zero
    assert abs(product_moment(fs, (1, 0), (0, 0), 1.0, 1.0)) < 1e-12
    # sin(2 pi 8 th) * sin(2 pi 64 th): orthogonal frequencies
    assert abs(product_moment(fs, (1, 1), (0, 0), 1.0, 1.0)) < 1e-10


def test_deviation_bound_arithmetic():
    s, t, n = 1.0, 1.0, 16.0
    expect = (
        math.expm1((abs(s) ** 3 + abs(t) ** 3) / math.sqrt(n))
        + math.expm1((s * s + t * t) / n**0.25)
        + math.exp(s * s + t * t) / n
    )
    assert abs(deviation_bound(s, t, 16) - expect) < 1e-15
    assert deviation_bound(0.0, 0.0, 100) == 1.0 / 100


# --------------------------------------------------------- gaussian / smoothing


def test_gaussian_abs_mean_closed_form():
    assert abs(gaussian_abs_mean(GaussianSpec(sigma2=0.5)) - math.sqrt(math.pi) / 2) < 1e-15
    assert abs(gaussian_abs_mean(GaussianSpec(sigma2=1.0)) - math.sqrt(math.pi / 2)) < 1e-15


def test_gaussian_abs_mean_against_simulation():
    rng = np.random.default_rng(3)
    z = rng.normal(scale=math.sqrt(0.5), size=(2, 1_000_000))
    sim = float(np.mean(np.hypot(z[0], z[1])))
    assert abs(sim - gaussian_abs_mean(GaussianSpec(sigma2=0.5))) < 0.002


def test_smoothing_bound_arithmetic():
    inp = SmoothingInputs(
        t1=2.0, t2=2.0, delta1=1.0, delta2=1.0, x=1.0, y=1.0, integral_term=0.3
    )
    expect = 0.3 + 1.0 * (math.exp(-2.0) + math.exp(-2.0))
    assert abs(smoothing_bound(inp) - expect) < 1e-12


def test_smoothing_bound_asymmetric():
    inp = SmoothingInputs(
        t1=1.0, t2=2.0, delta1=0.5, delta2=1.0, x=2.0, y=1.0, integral_term=0.0
    )
    expect = 2.0 * (
        (1.0 / 0.5) * math.exp(-(1.0**2) * (0.5**2) / 2)
        + (0.5 / 1.0) * math.exp(-(2.0**2) * (1.0**2) / 2)
    )
    assert abs(smoothing_bound(inp) - expect) < 1e-12


# ------------------------------------------------------------ empirical CLT


def test_sample_mu_nu_deterministic():
    fs = lacunary_set(8, 4)
    cfg = McConfig(samples=50_000, seed=9)
    mu1, nu1 = sample_mu_nu(fs, cfg)
    mu2, nu2 = sample_mu_nu(fs, cfg)
    assert np.array_equal(mu1, mu2)
    assert np.array_equal(nu1, nu2)
    # Parseval: each coordinate has variance 1/2
    assert abs(np.var(mu1) - 0.5) < 0.01
    assert abs(np.var(nu1) - 0.5) < 0.01


def test_empirical_char_fn_origin_exact():
    pts = empirical_char_fn(
        lacunary_set(8, 3), [(0.0, 0.0)], McConfig(samples=1000, seed=0)
    )
    assert pts[0].phi == 1.0 + 0.0j
    assert pts[0].std_error == 0.0


def j0(s, terms=30):
    """Oracle: Bessel J_0 from its power series sum_k (-1)^k (s/2)^{2k} / (k!)^2."""
    return sum((-1) ** k * (s / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms))


def test_empirical_char_fn_singleton_bessel():
    # n = 1: phi(s, 0) = E exp(i s sin 2 pi theta) = J_0(s)
    pts = empirical_char_fn(
        make_frequency_set([1]),
        [(1.0, 0.0), (2.0, 0.0)],
        McConfig(samples=200_000, seed=2),
    )
    for pt in pts:
        assert abs(pt.phi - j0(pt.s)) < 5 * pt.std_error + 1e-12


def test_empirical_char_fn_matches_per_point_reference():
    fs = lacunary_set(8, 6)
    mc = McConfig(samples=50_000, seed=12, chunk_size=4096)
    mu, nu = sample_mu_nu(fs, mc)
    grid = [
        (-1.0, 0.5), (-2.0, -1.0), (-0.5, 0.0),  # negative s only
        (0.0, 1.0), (0.0, -2.0), (1.0, 0.0), (2.0, -0.0),
        (-0.0, 0.0), (0.3, -0.7), (0.3, -0.7), (1.5, 0.25), (-0.3, 0.7),
    ]
    pts = empirical_char_fn(fs, grid, mc)
    assert [(pt.s, pt.t) for pt in pts] == grid
    for pt in pts:
        if pt.s == 0.0 and pt.t == 0.0:
            assert (pt.phi, pt.std_error) == (1.0, 0.0)
            continue
        z = np.exp(1j * (pt.s * mu + pt.t * nu))
        se = math.sqrt((z.real.var(ddof=1) + z.imag.var(ddof=1)) / z.size)
        assert abs(pt.phi - z.mean()) <= 1e-13
        assert abs(pt.std_error - se) <= 1e-13
        assert pt.gaussian == math.exp(-(pt.s**2 + pt.t**2) / 4)


def test_empirical_char_fn_rejects_non_finite_points():
    mc = McConfig(samples=1000, seed=0)
    for bad in ((math.nan, 0.0), (1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(DomainError, match="finite"):
            empirical_char_fn(lacunary_set(8, 3), [(1.0, 1.0), bad], mc)


def test_empirical_char_fn_single_sample():
    pts = empirical_char_fn(
        lacunary_set(8, 3), [(1.0, 0.5), (0.0, 0.0)], McConfig(samples=1, seed=4)
    )
    assert abs(abs(pts[0].phi) - 1.0) < 1e-15
    assert math.isnan(pts[0].std_error)
    assert (pts[1].phi, pts[1].std_error) == (1.0, 0.0)


def test_empirical_char_fn_near_gaussian():
    fs = lacunary_set(8, 16)
    pts = empirical_char_fn(fs, [(1.0, 1.0)], McConfig(samples=300_000, seed=5))
    pt = pts[0]
    gauss = math.exp(-0.5)
    assert abs(pt.phi - gauss) < 0.01 + 4 * pt.std_error


def test_char_fn_within_deviation_bound_on_grid():
    fs = lacunary_set(8, 16)
    grid = [(s, t) for (s, t) in default_phi_grid() if deviation_bound(s, t, 16) < 1.0]
    pts = empirical_char_fn(fs, grid, McConfig(samples=200_000, seed=8))
    for pt in pts:
        gauss = math.exp(-(pt.s**2 + pt.t**2) / 4)
        gap = abs(pt.phi - gauss)
        assert gap <= deviation_bound(pt.s, pt.t, fs.n) + 4 * pt.std_error


def ks_reference(sample, sigma2):
    """Oracle: the KS statistic with the normal CDF evaluated at every sample."""
    x = sorted(float(v) for v in sample)
    n = len(x)
    best = 0.0
    for i, v in enumerate(x, start=1):
        cdf = 0.5 * math.erfc(-v / math.sqrt(2.0 * sigma2))
        best = max(best, i / n - cdf, cdf - (i - 1) / n)
    return best


def test_ks_distance_matches_full_evaluation():
    rng = np.random.default_rng(31)
    samples = [
        rng.normal(scale=math.sqrt(0.5), size=20_000),
        rng.normal(scale=0.6, size=5_000),
        rng.uniform(-1.0, 1.0, size=3_000),
        rng.normal(size=1),
        rng.normal(size=2),
        rng.normal(size=7),
        np.round(rng.normal(size=4_000), 2),  # many ties
        np.repeat([-0.3, 0.0, 0.1], [50, 100, 70]),
    ]
    for x in samples:
        for sigma2 in (0.5, 1.0):
            assert ks_distance_to_normal(x, sigma2) == ks_reference(x, sigma2)
    assert ks_distance_to_normal(np.array([0.0]), 1.0) == 0.5


def test_ks_distance_gaussian_and_not():
    rng = np.random.default_rng(21)
    good = rng.normal(scale=math.sqrt(0.5), size=100_000)
    assert ks_distance_to_normal(good, sigma2=0.5) < 0.01
    bad = rng.normal(scale=1.5, size=100_000)
    assert ks_distance_to_normal(bad, sigma2=0.5) > 0.1


def test_clt_report_singleton_degenerate():
    # n = 1: |S| = 1 identically, marginals are arcsine-like, far from normal
    rep = clt_report(make_frequency_set([1]), McConfig(samples=100_000, seed=1))
    assert rep.radial_mean == 1.0
    assert rep.ks_mu > 0.05
    assert rep.ks_nu > 0.05


def test_clt_report_chain_audit_holds():
    rep = clt_report(
        lacunary_set(8, 8), McConfig(samples=200_000, seed=6), with_chain_audit=True
    )
    audit = rep.chain_audit
    assert abs(audit.truncation_radius - math.log(8) ** 0.25) < 1e-15
    assert abs(audit.sigma2_z - math.log(8) ** -0.125) < 1e-15
    for check in audit.inequalities():
        assert check["ok"], check["name"]


def test_clt_report_identical_across_threads(monkeypatch):
    fs = lacunary_set(8, 10)
    mc = McConfig(samples=70_000, seed=17, chunk_size=8192)
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("LACSUM_THREADS", workers)
        reports.append(asdict(clt_report(fs, mc, with_chain_audit=True)))
    assert reports[0] == reports[1]


def test_chain_audit_requires_two_frequencies():
    with pytest.raises(DomainError):
        clt_report(
            make_frequency_set([1]),
            McConfig(samples=1000, seed=0),
            with_chain_audit=True,
        )


def test_clt_report_is_one_pass_of_the_references():
    fs = lacunary_set(8, 12)
    mc = McConfig(samples=30_001, seed=23, chunk_size=4096)
    rep = clt_report(fs, mc, with_chain_audit=True)
    est = l1_monte_carlo(fs, mc)
    assert rep.radial_mean == est.normalized
    assert rep.radial_std_error == est.std_error / math.sqrt(fs.n)
    assert rep.chain_audit.e_abs_x.value == rep.radial_mean
    assert rep.chain_audit.e_abs_x.std_error == rep.radial_std_error
    assert rep.phi_grid == empirical_char_fn(fs, default_phi_grid(), mc)
    mu, nu = sample_mu_nu(fs, mc)
    assert rep.ks_mu == ks_distance_to_normal(mu, 0.5)
    assert rep.ks_nu == ks_distance_to_normal(nu, 0.5)


def test_clt_report_matches_full_array_reference():
    # reference: every statistic from full-length arrays, with two-pass
    # mean/variance formulas and np.cov; 13 chunks, the last one short
    fs = lacunary_set(8, 8)
    mc = McConfig(samples=50_000, seed=12, chunk_size=4096)
    rep = clt_report(fs, mc, with_chain_audit=True)
    mu, nu = sample_mu_nu(fs, mc)
    layout = lrng.chunk_layout(mc.samples, mc.chunk_size)
    audit = rep.chain_audit

    def gauss(stream, sigma):
        pairs = [lrng.chunk_gaussian_pairs(mc.seed, stream, c, k, sigma) for c, k in layout]
        return np.concatenate(pairs)

    z = gauss(lrng.STREAM_Z, math.sqrt(math.log(8) ** -0.125))
    y = gauss(lrng.STREAM_Y, math.sqrt(0.5))
    abs_xz = np.hypot(mu + z[:, 0], nu + z[:, 1])
    abs_yz = np.hypot(y[:, 0] + z[:, 0], y[:, 1] + z[:, 1])
    r = math.log(8) ** 0.25
    expected = {
        "e_abs_x": np.hypot(mu, nu),
        "e_abs_xz": abs_xz,
        "e_abs_xz_trunc": abs_xz * (abs_xz <= r),
        "e_abs_yz": abs_yz,
        "e_abs_yz_trunc": abs_yz * (abs_yz <= r),
        "e_abs_z": np.hypot(z[:, 0], z[:, 1]),
    }
    got = {name: getattr(audit, name) for name in expected}
    got["radial"] = ValueWithError(rep.radial_mean, rep.radial_std_error)
    expected["radial"] = expected["e_abs_x"]
    for name, v in expected.items():
        assert abs(got[name].value - v.mean()) <= 1e-15, name
        assert abs(got[name].std_error - math.sqrt(v.var(ddof=1) / v.size)) <= 1e-17, name
    assert np.abs(np.array(rep.cov_hat) - np.cov(np.stack([mu, nu]), ddof=1)).max() <= 1e-15


def test_single_sample_reports_nan_uncertainty():
    fs = lacunary_set(8, 4)
    mc = McConfig(samples=1, seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = l1_monte_carlo(fs, mc)
        rep = clt_report(fs, mc, with_chain_audit=True)
    assert math.isfinite(est.value) and math.isnan(est.std_error)
    assert rep.radial_mean == est.normalized and math.isnan(rep.radial_std_error)
    assert all(math.isnan(c) for row in rep.cov_hat for c in row)
    for name in ("e_abs_x", "e_abs_xz", "e_abs_xz_trunc", "e_abs_yz", "e_abs_yz_trunc", "e_abs_z"):
        assert math.isnan(getattr(rep.chain_audit, name).std_error), name


def test_clt_report_memory_is_chunk_sized_plus_mu_nu(monkeypatch):
    # only mu and nu are kept at full length (16 bytes per sample), and the
    # KS distance sorts a copy of one of them at a time (8 more)
    monkeypatch.setenv("LACSUM_THREADS", "1")
    fs = lacunary_set(8, 6)
    clt_report(fs, McConfig(samples=1000, seed=1), with_chain_audit=True)
    peaks = []
    tracemalloc.start()
    try:
        for samples in (1 << 18, 1 << 19):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            clt_report(fs, McConfig(samples=samples, seed=1), with_chain_audit=True)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (1 << 18) <= 40
