import cmath
import gc
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
    evaluate_sum,
    gaussian_abs_mean,
    ks_distance_to_normal,
    l1_monte_carlo,
    lacunary_set,
    make_frequency_set,
    product_moment,
    smoothing_bound,
    w_remainder,
)
from lacsum import rng as lrng
from lacsum.cltlab import _GRID_PIECE, _MAX_KEPT_SAMPLES, _phase_rows, _truncated_abs_mean
from lacsum.errors import CapacityExceeded, DomainError
from lacsum.frequency import sum_components_dyadic
from oracles import periodic_mean


def mu_nu(fs, mc):
    """mu and nu at full length, made as clt_report's pass makes them: S of each chunk's draws over sqrt(n)."""
    parts = [
        sum_components_dyadic(fs, lrng.chunk_uniform63(mc.seed, lrng.STREAM_THETA, c, k))
        for c, k in lrng.chunk_layout(mc.samples, mc.chunk_size)
    ]
    rt = math.sqrt(fs.n)
    return np.concatenate([im for _, im in parts]) / rt, np.concatenate([re for re, _ in parts]) / rt


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
        sm = evaluate_sum(fs, th) / math.sqrt(fs.n)  # nu + i mu
        lhs = alpha_at(fs, s, t, th) * cmath.exp(
            -(s * s + t * t) / 4 + beta_at(fs, s, t, th)
        )
        rhs = cmath.exp(1j * (s * sm.imag + t * sm.real))
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("fn", [alpha_at, beta_at])
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_alpha_beta_reject_non_finite_theta(fn, theta):
    # sum_values would read a NaN or infinite theta as 1/2
    with pytest.raises(DomainError, match="theta must be finite"):
        fn(make_frequency_set([1, 3, 7]), 1.0, 1.0, np.array([0.25, theta]))
    assert np.isfinite(fn(make_frequency_set([1, 3, 7]), 1.0, 1.0, [0.25, 0.5])).all()


def test_alpha_mean_is_one_for_lacunary():
    # exact up to the 64-bit frequency 8^21
    for n in range(1, 22):
        fs = lacunary_set(8, n)
        for s, t in [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0)]:
            assert alpha_mean(fs, s, t) == 1.0


def test_alpha_mean_matches_quadrature():
    # reference: equispaced mean of alpha_at, a trigonometric
    # polynomial of degree 2 sum(k); float64 rounding sets the tolerance
    for freqs in ([1, 2, 3], [3, 4, 10]):
        fs = make_frequency_set(freqs)
        for s, t in [(0.5, 1.0), (2.0, 2.0), (1.0, 0.0)]:
            ref = periodic_mean(lambda th: alpha_at(fs, s, t, th), 2 * sum(freqs))
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

        ref = periodic_mean(integrand, 2 * sum(fs.freqs))
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


def test_deviation_bound_past_the_float_range_is_vacuous():
    # the cubic term overflows expm1 at (27, 0, 16), exp(900) at (0, 30, 10^6)
    assert deviation_bound(27.0, 0.0, 16) == math.inf
    assert deviation_bound(0.0, 30.0, 10**6) == math.inf


_FS3 = make_frequency_set([1, 3, 7])
_ST_TAKERS = {
    "deviation_bound": lambda s, t: deviation_bound(s, t, 4),
    "alpha_mean": lambda s, t: alpha_mean(_FS3, s, t),
    "product_moment": lambda s, t: product_moment(_FS3, (1, 0, 1), (0, 1, 0), s, t),
    "alpha_at": lambda s, t: alpha_at(_FS3, s, t, np.array([0.25, 0.5])),
    "beta_at": lambda s, t: beta_at(_FS3, s, t, np.array([0.25, 0.5])),
}


@pytest.mark.parametrize("taker", sorted(_ST_TAKERS))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_clt_ingredients_reject_non_finite_s_and_t(taker, bad):
    # before the guard: nan from deviation_bound, alpha_mean and alpha_at, a
    # silent 0j from product_moment, a RuntimeWarning from beta_at at inf
    fn = _ST_TAKERS[taker]
    with pytest.raises(DomainError, match="s must be finite"):
        fn(bad, 0.5)
    with pytest.raises(DomainError, match="t must be finite"):
        fn(0.5, bad)
    assert np.isfinite(fn(0.5, 1.0)).all()


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


@pytest.mark.parametrize("sigma2", [math.nan, math.inf, -0.5])
def test_gaussian_spec_rejects_non_finite_and_negative(sigma2):
    with pytest.raises(DomainError, match="sigma2"):
        GaussianSpec(sigma2)
    with pytest.raises(DomainError, match="sigma2"):
        gaussian_abs_mean(sigma2)


@pytest.mark.parametrize("name", ["t1", "t2", "delta1", "delta2", "x", "y", "integral_term"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_smoothing_inputs_reject_non_finite_and_negative(name, bad):
    fields = dict(t1=1.0, t2=1.0, delta1=1.0, delta2=1.0, x=1.0, y=1.0, integral_term=0.1)
    with pytest.raises(DomainError, match=name):
        SmoothingInputs(**{**fields, name: bad})


# ------------------------------------------------------------ empirical CLT


@pytest.mark.parametrize("axis", [[0.0, 0.5, 1.0, 2.0], [2.0**e for e in range(-6, 4)]])
def test_phase_rows_within_a_few_ulp_of_exp(axis):
    x = np.random.default_rng(5).normal(scale=2.0, size=4096)
    rows = _phase_rows(axis, x)
    for row, a in zip(rows, axis):
        assert np.abs(row - np.exp(1j * a * x)).max() < 2e-15, a
    if axis[0] == 0.0:
        assert (rows[0] == 1.0).all()


def test_phase_row_without_its_half_is_libm_cos_sin():
    x = np.random.default_rng(6).normal(scale=2.0, size=4096)
    rows = _phase_rows([0.3, 1.0], x)
    for row, a in zip(rows, (0.3, 1.0)):
        assert np.array_equal(row.real, np.cos(a * x)) and np.array_equal(row.imag, np.sin(a * x)), a


def test_clt_report_deterministic():
    fs = lacunary_set(8, 4)
    cfg = McConfig(samples=50_000, seed=9)
    rep = clt_report(fs, cfg)
    assert asdict(rep) == asdict(clt_report(fs, cfg))
    # Parseval: each coordinate has variance 1/2
    assert abs(rep.cov_hat[0][0] - 0.5) < 0.01
    assert abs(rep.cov_hat[1][1] - 0.5) < 0.01


def test_clt_report_char_fn_origin_exact():
    pts = {(pt.s, pt.t): pt for pt in clt_report(lacunary_set(8, 3), McConfig(samples=1000, seed=0)).phi_grid}
    assert pts[0.0, 0.0].phi == 1.0 + 0.0j
    assert pts[0.0, 0.0].std_error == 0.0


def j0(s, terms=30):
    """Oracle: Bessel J_0 from its power series sum_k (-1)^k (s/2)^{2k} / (k!)^2."""
    return sum((-1) ** k * (s / 2) ** (2 * k) / math.factorial(k) ** 2 for k in range(terms))


def test_clt_report_char_fn_singleton_bessel():
    # n = 1: phi(s, 0) = E exp(i s sin 2 pi theta) = J_0(s)
    pts = clt_report(make_frequency_set([1]), McConfig(samples=200_000, seed=2)).phi_grid
    for pt in pts:
        if pt.s in (1.0, 2.0) and pt.t == 0.0:
            assert abs(pt.phi - j0(pt.s)) < 5 * pt.std_error + 1e-12


def test_clt_report_char_fn_matches_per_point_reference():
    # the default grid has negative s and t, zero s or t on its axes, and both at the origin
    fs = lacunary_set(8, 6)
    mc = McConfig(samples=50_000, seed=12, chunk_size=4096)
    mu, nu = mu_nu(fs, mc)
    pts = clt_report(fs, mc).phi_grid
    assert [(pt.s, pt.t) for pt in pts] == default_phi_grid()
    for pt in pts:
        if pt.s == 0.0 and pt.t == 0.0:
            assert (pt.phi, pt.std_error) == (1.0, 0.0)
            continue
        z = np.exp(1j * (pt.s * mu + pt.t * nu))
        se = math.sqrt((z.real.var(ddof=1) + z.imag.var(ddof=1)) / z.size)
        assert abs(pt.phi - z.mean()) <= 1e-13
        assert abs(pt.std_error - se) <= 1e-13
        assert pt.gaussian == math.exp(-(pt.s**2 + pt.t**2) / 4)


def test_char_fn_sums_across_grid_pieces(monkeypatch):
    # three full pieces and a ragged one per chunk; the last chunk is one full
    # piece and a ragged one
    fs = lacunary_set(8, 6)
    chunk = 3 * _GRID_PIECE + 100
    mc = McConfig(samples=2 * chunk + _GRID_PIECE + 904, seed=29, chunk_size=chunk)
    mu, nu = mu_nu(fs, mc)
    for pt in clt_report(fs, mc).phi_grid:
        z = np.exp(1j * (pt.s * mu + pt.t * nu))
        se = math.sqrt((z.real.var(ddof=1) + z.imag.var(ddof=1)) / z.size)
        assert abs(pt.phi - z.mean()) <= 1e-13, (pt.s, pt.t)
        assert abs(pt.std_error - se) <= 1e-13, (pt.s, pt.t)
    reports = []
    for workers in ("1", "2"):
        monkeypatch.setenv("LACSUM_THREADS", workers)
        reports.append(asdict(clt_report(fs, mc)))
    assert reports[0] == reports[1]


def test_clt_report_char_fn_single_sample():
    pts = {(pt.s, pt.t): pt for pt in clt_report(lacunary_set(8, 3), McConfig(samples=1, seed=4)).phi_grid}
    assert abs(abs(pts[1.0, 0.5].phi) - 1.0) < 1e-15
    assert math.isnan(pts[1.0, 0.5].std_error)
    assert (pts[0.0, 0.0].phi, pts[0.0, 0.0].std_error) == (1.0, 0.0)


def test_clt_report_char_fn_near_gaussian():
    fs = lacunary_set(8, 16)
    pts = {(pt.s, pt.t): pt for pt in clt_report(fs, McConfig(samples=300_000, seed=5)).phi_grid}
    pt = pts[1.0, 1.0]
    gauss = math.exp(-0.5)
    assert abs(pt.phi - gauss) < 0.01 + 4 * pt.std_error


def test_char_fn_within_deviation_bound_on_grid():
    fs = lacunary_set(8, 16)
    pts = clt_report(fs, McConfig(samples=200_000, seed=8)).phi_grid
    for pt in (pt for pt in pts if deviation_bound(pt.s, pt.t, 16) < 1.0):
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


@pytest.mark.parametrize(
    "sample, sigma2, name",
    [
        (np.array([]), 0.5, "sample"),
        (np.zeros(3), 0.0, "sigma2"),
        (np.zeros(3), -1.0, "sigma2"),
        # not one-dimensional, or not finite: an IndexError, 0.333 and nan before the guard
        (np.zeros((2, 3)), 0.5, "one-dimensional"),
        (np.array(0.5), 0.5, "one-dimensional"),
        (np.array([-math.inf, 0.0, math.inf]), 0.5, "finite"),
        (np.array([0.1, math.nan]), 0.5, "finite"),
    ],
)
def test_ks_distance_rejects_bad_input(sample, sigma2, name):
    with pytest.raises(DomainError, match=name):
        ks_distance_to_normal(sample, sigma2)


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
    mu, nu = mu_nu(fs, mc)
    assert rep.ks_mu == ks_distance_to_normal(mu, 0.5)
    assert rep.ks_nu == ks_distance_to_normal(nu, 0.5)


def test_clt_report_matches_full_array_reference():
    # reference: every statistic from full-length arrays, with two-pass
    # mean/variance formulas and np.cov; 13 chunks, the last one short
    fs = lacunary_set(8, 8)
    mc = McConfig(samples=50_000, seed=12, chunk_size=4096)
    rep = clt_report(fs, mc, with_chain_audit=True)
    mu, nu = mu_nu(fs, mc)
    layout = lrng.chunk_layout(mc.samples, mc.chunk_size)
    audit = rep.chain_audit

    def gauss(stream, sigma):
        pairs = [lrng.chunk_gaussian_pairs(mc.seed, stream, c, k, sigma) for c, k in layout]
        return np.concatenate(pairs)

    sigma2_z = math.log(8) ** -0.125
    z = gauss(lrng.STREAM_Z, math.sqrt(sigma2_z))
    abs_xz = np.hypot(mu + z[:, 0], nu + z[:, 1])
    r = math.log(8) ** 0.25
    expected = {
        "e_abs_x": np.hypot(mu, nu),
        "e_abs_xz": abs_xz,
        "e_abs_xz_trunc": abs_xz * (abs_xz <= r),
    }
    got = {name: getattr(audit, name) for name in expected}
    got["radial"] = ValueWithError(rep.radial_mean, rep.radial_std_error)
    expected["radial"] = expected["e_abs_x"]
    for name, v in expected.items():
        assert abs(got[name].value - v.mean()) <= 1e-15, name
        assert abs(got[name].std_error - math.sqrt(v.var(ddof=1) / v.size)) <= 1e-17, name
    assert np.abs(np.array(rep.cov_hat) - np.cov(np.stack([mu, nu]), ddof=1)).max() <= 1e-15
    # the Gaussian side is not sampled: Y + Z ~ N(0, (1/2 + sigma2_z) I)
    assert audit.e_abs_yz == ValueWithError(gaussian_abs_mean(0.5 + sigma2_z), 0.0)
    assert audit.e_abs_yz_trunc == ValueWithError(_truncated_abs_mean(0.5 + sigma2_z, r), 0.0)
    assert audit.e_abs_z == ValueWithError(gaussian_abs_mean(sigma2_z), 0.0)


def test_truncated_abs_mean_matches_midpoint_oracle():
    # E|G| 1{|G| <= R} is the integral of r * (r / s^2) e^{-r^2 / 2 s^2}, the
    # Rayleigh density times r, over [0, R]; the chain's own (s^2, R) at
    # n = 2, 16 and 1000, then small, large and far-tail radii
    cases = [
        (s2, math.log(n) ** 0.25)
        for n in (2, 16, 1000)
        for s2 in (math.log(n) ** -0.125, 0.5 + math.log(n) ** -0.125)
    ]
    cases += [(1.0, 0.01), (1.0, 1.0), (0.25, 3.0), (4.0, 0.5), (1.0, 10.0)]
    m = 2_000_000
    for s2, radius in cases:
        r = (np.arange(m) + 0.5) * (radius / m)
        oracle = float(np.sum(r * r * np.exp(-r * r / (2.0 * s2)))) / s2 * (radius / m)
        assert abs(_truncated_abs_mean(s2, radius) - oracle) <= 1e-13, (s2, radius)
    assert _truncated_abs_mean(1.0, 40.0) == gaussian_abs_mean(1.0)


def test_exact_gaussian_side_matches_sampled_y():
    # Y drawn here as the audit once drew it, from stream tag 2, with Z from
    # STREAM_Z: each sampled mean lies within 4 standard errors of the exact field
    audit = clt_report(lacunary_set(8, 16), McConfig(samples=1000, seed=3), with_chain_audit=True).chain_audit
    layout = lrng.chunk_layout(10**6, McConfig(samples=1).chunk_size)

    def gauss(stream, sigma2):
        return np.concatenate([lrng.chunk_gaussian_pairs(3, stream, c, k, math.sqrt(sigma2)) for c, k in layout])

    z = gauss(lrng.STREAM_Z, audit.sigma2_z)
    abs_yz = np.hypot(*(z + gauss(2, 0.5)).T)
    sampled = {
        "e_abs_yz": abs_yz,
        "e_abs_yz_trunc": abs_yz * (abs_yz <= audit.truncation_radius),
        "e_abs_z": np.hypot(*z.T),
    }
    for name, v in sampled.items():
        assert abs(v.mean() - getattr(audit, name).value) <= 4 * v.std(ddof=1) / math.sqrt(v.size), name


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
    for name in ("e_abs_x", "e_abs_xz", "e_abs_xz_trunc"):
        assert math.isnan(getattr(rep.chain_audit, name).std_error), name
    for name in ("e_abs_yz", "e_abs_yz_trunc", "e_abs_z"):
        assert getattr(rep.chain_audit, name).std_error == 0.0, name


def test_clt_report_memory_is_chunk_sized_plus_mu_nu(monkeypatch):
    # only mu and nu are kept at full length (16 bytes per sample), and the
    # KS distances sort them in place, with no copy (24 bytes with one copy);
    # one thread holds one chunk at a time, so the pass's own peak is fixed
    monkeypatch.setenv("LACSUM_THREADS", "1")
    fs = lacunary_set(8, 6)
    clt_report(fs, McConfig(samples=1000, seed=1), with_chain_audit=True)
    peaks = []
    tracemalloc.start()
    try:
        for samples in (1 << 20, 1 << 21):
            gc.collect()  # garbage of earlier tests, freed mid-report, would lower the peak
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            clt_report(fs, McConfig(samples=samples, seed=1), with_chain_audit=True)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / (1 << 20) <= 20


def test_clt_report_grid_rows_are_piece_sized(monkeypatch):
    # beyond the kept mu and nu, one worker holds one chunk's kernel rows, S,
    # mu, nu and chain arrays (~3.5 MiB at the default 2^16 points); the
    # grid's phase rows, 8 MB for a whole chunk, are built a piece at a time
    monkeypatch.setenv("LACSUM_THREADS", "1")
    fs, mc = lacunary_set(8, 16), McConfig(samples=10**6, seed=1)
    clt_report(fs, McConfig(samples=1000, seed=1), with_chain_audit=True)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        clt_report(fs, mc, with_chain_audit=True)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert (peak - 16 * mc.samples) / (1 << 20) <= 5


def test_kept_samples_are_capped_before_any_draw():
    start = time.perf_counter()
    with pytest.raises(CapacityExceeded, match=str(_MAX_KEPT_SAMPLES)):
        clt_report(lacunary_set(8, 4), McConfig(samples=_MAX_KEPT_SAMPLES + 1, seed=1))
    assert time.perf_counter() - start < 1.0


def test_ks_distance_leaves_its_sample_unsorted():
    # clt_report sorts its own mu and nu in place; the public function sorts a copy
    mu, _ = mu_nu(lacunary_set(8, 6), McConfig(samples=5000, seed=4))
    kept = mu.copy()
    ks_distance_to_normal(mu, 0.5)
    assert np.array_equal(mu, kept)
