"""Acceptance gate: one pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the criterion lines
interleaved with the test names. Tolerances are fixed; do not loosen them to
make a run green.
"""

import cmath
import math
import os

import numpy as np

from lacsum import (
    FinalChainAudit,
    GaussianSpec,
    McConfig,
    SQRT_PI_OVER_2,
    SmoothingInputs,
    alpha_mean,
    clt_report,
    convergence_study,
    count_quadruple_solutions,
    default_phi_grid,
    deviation_bound,
    empirical_char_fn,
    exhaustive_sigma,
    fourth_moment_cos,
    gaussian_abs_mean,
    holder_lower_bound,
    l1_monte_carlo,
    lacunary_set,
    lp_norm_quadrature,
    make_frequency_set,
    markov_tail_fraction,
    mian_chowla,
    smoothing_bound,
    w_remainder,
)
from oracles import exact_phase_sum


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_closed_form_n2():
    est = lp_norm_quadrature(make_frequency_set([1, 2]), p=1)
    ok = (
        abs(est.value - 4 / math.pi) < 1e-6
        and abs(est.normalized - 4 / (math.pi * math.sqrt(2))) < 1e-6
    )
    _report(1, "closed form n=2", ok, f"value={est.value:.12f}")


def test_criterion_02_parseval_energy_oracle():
    # integrals of |S|^2 and |S|^4 from the equispaced rule on exact integer
    # phases, against n, the energy count and the library's exact norms
    rng = np.random.default_rng(2024)
    worst2 = worst4 = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        freqs = np.sort(rng.choice(np.arange(1, 2001), size=n, replace=False))
        fs = make_frequency_set(freqs.tolist())
        m = 2 * (fs.k_max - fs.freqs[0]) + 1  # |S|^4 has degree 2 (k_max - k_min)
        sq = np.abs(exact_phase_sum(fs.freqs, np.arange(m), m)) ** 2
        l2sq, l4q = np.mean(sq), np.mean(sq * sq)
        energy = count_quadruple_solutions(fs)
        worst2 = max(worst2, abs(l2sq - n) / n, abs(l2sq - lp_norm_quadrature(fs, p=2).value ** 2) / n)
        worst4 = max(
            worst4, abs(l4q - energy) / energy, abs(l4q - lp_norm_quadrature(fs, p=4).value ** 4) / energy
        )
    ok = worst2 < 1e-9 and worst4 < 1e-8
    _report(2, "Parseval / energy oracle", ok, f"rel2={worst2:.2e} rel4={worst4:.2e}")


def test_criterion_03_sidon_exactness():
    e10 = count_quadruple_solutions(mian_chowla(10))
    bound50 = holder_lower_bound(mian_chowla(50)).normalized_lower_bound
    target = 50 / math.sqrt(4950)
    ok = (
        e10 == 190
        and abs(bound50 - target) < 1e-12
        and abs(bound50 - 1 / math.sqrt(2)) < 0.004
    )
    _report(3, "Sidon exactness", ok, f"energy10={e10} bound50={bound50:.5f}")


def test_criterion_04_desk_scale_reproduction():
    rows = convergence_study(8, [4, 8, 16], McConfig(samples=10**7, seed=7))
    close = abs(rows[-1].normalized_l1 - SQRT_PI_OVER_2) < 0.05
    monotone = True
    for a, b in zip(rows, rows[1:]):
        slack = 4 * math.hypot(a.std_error, b.std_error)
        if abs(b.gap_to_limit) > abs(a.gap_to_limit) + slack:
            monotone = False
    detail = " ".join(f"n={r.n}:{r.normalized_l1:.6f}" for r in rows)
    _report(4, "desk-scale limit reproduction", close and monotone, detail)


def test_criterion_05_gaussian_moment():
    rng = np.random.default_rng(12)
    z = rng.normal(scale=math.sqrt(0.5), size=(2, 10**6))
    sim = float(np.mean(np.hypot(z[0], z[1])))
    closed = gaussian_abs_mean(GaussianSpec(sigma2=0.5))
    ok = abs(sim - SQRT_PI_OVER_2) < 0.005 and abs(closed - SQRT_PI_OVER_2) < 1e-14
    _report(5, "Gaussian radial moment", ok, f"sim={sim:.6f}")


def test_criterion_06_alpha_mean_is_one():
    worst = 0.0
    for n in range(1, 7):
        fs = lacunary_set(8, n)
        for s in (0.5, 1.0):
            for t in (0.5, 1.0):
                worst = max(worst, abs(alpha_mean(fs, s, t) - 1.0))
    _report(6, "E[alpha] = 1", worst <= 1e-6, f"worst dev={worst:.2e}")


def test_criterion_07_w_remainder():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, size=10**4)
    xs = xs[np.abs(xs) < 0.9999]
    cubic = all(abs(w_remainder(float(x))) <= abs(x) ** 3 + 1e-15 for x in xs)
    recon = all(
        abs(cmath.exp(x * x / 2 + 1j * x - w_remainder(x)) - (1 + 1j * x)) < 1e-14
        for x in (-0.9, -0.3, 0.05, 0.5, 0.9)
    )
    # the odd-in-x fourth-order term (x/4) is removed by averaging over +-x,
    # leaving the cubic coefficient i/3 up to O(x^2)
    x = 1e-2
    coeff = (w_remainder(x) / x**3 + w_remainder(-x) / (-x) ** 3) / 2
    leading = abs(coeff - 1j / 3) < 1e-3
    _report(7, "w-remainder bounds", cubic and recon and leading)


def test_criterion_08_fourth_moment_and_markov():
    ok = True
    details = []
    for n in range(2, 9):
        fs = lacunary_set(8, n)
        mc = McConfig(samples=10**6, seed=40 + n)
        m4 = fourth_moment_cos(fs)
        frac = markov_tail_fraction(fs, mc)
        slack_m = 3 * math.sqrt(max(frac * (1 - frac), 1e-12) / mc.samples)
        if m4 > n * n or frac > 1 / n + slack_m:
            ok = False
        details.append(f"n={n}:{m4:.2f}/{frac:.4f}")
    _report(8, "fourth moment and Markov step", ok, " ".join(details))


def test_criterion_09_char_fn_convergence():
    fs = lacunary_set(8, 16)
    grid = default_phi_grid()
    pts = empirical_char_fn(fs, grid, McConfig(samples=10**6, seed=9))
    ok = True
    worst = 0.0
    for pt in pts:
        gauss = math.exp(-(pt.s**2 + pt.t**2) / 4)
        gap = abs(pt.phi - gauss)
        worst = max(worst, gap)
        if gap > 0.01 + 3 * pt.std_error:
            ok = False
        bound = deviation_bound(pt.s, pt.t, fs.n)
        if bound < 1.0 and gap > bound + 4 * pt.std_error:
            ok = False
    _report(9, "characteristic-function convergence", ok, f"worst gap={worst:.5f}")


def test_criterion_10_smoothing_arithmetic():
    a = SmoothingInputs(
        t1=2.0, t2=2.0, delta1=1.0, delta2=1.0, x=1.0, y=1.0, integral_term=0.0
    )
    b = SmoothingInputs(
        t1=1.0, t2=2.0, delta1=2.0, delta2=1.0, x=1.0, y=3.0, integral_term=0.1
    )
    va, vb = smoothing_bound(a), smoothing_bound(b)
    ok = (
        abs(va - 2 * math.exp(-2)) < 1e-12
        and abs(vb - (0.3 + 7.5 * math.exp(-2))) < 1e-12
    )
    _report(10, "smoothing lemma arithmetic", ok, f"{va:.12f} {vb:.12f}")


def test_criterion_11_final_chain_audit():
    rep = clt_report(
        lacunary_set(8, 16), McConfig(samples=10**6, seed=3), with_chain_audit=True
    )
    audit: FinalChainAudit = rep.chain_audit
    checks = audit.inequalities()
    ok = all(c["ok"] for c in checks)
    detail = "; ".join(f"{c['name']}: {'ok' if c['ok'] else 'VIOLATED'}" for c in checks)
    _report(11, "final-chain audit", ok, detail)


def test_criterion_12_search_correctness():
    target = 4 / (math.pi * math.sqrt(2))
    ok = True
    for m in (2, 5, 10):
        r = exhaustive_sigma(2, m)
        if abs(r.best_value - target) > 1e-6:
            ok = False
        if r.best_value < holder_lower_bound(r.best_set).normalized_lower_bound:
            ok = False
    r1 = exhaustive_sigma(1, 5)
    if abs(r1.best_value - 1.0) > 1e-9:
        ok = False
    r3 = exhaustive_sigma(3, 12)
    if r3.best_value < holder_lower_bound(r3.best_set).normalized_lower_bound:
        ok = False
    _report(12, "search correctness", ok)


def test_criterion_13_determinism_across_workers():
    fs = lacunary_set(8, 12)
    cfg = McConfig(samples=500_000, seed=77)
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
    ok = results[0] == results[1] == results[2]
    _report(13, "Monte Carlo determinism", ok, f"value={results[0][0]:.12f}")
