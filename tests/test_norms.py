import functools
import hashlib
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lacsum import (
    McConfig,
    canonicalize,
    clt_report,
    convergence_study,
    default_phi_grid,
    empirical_char_fn,
    fourth_moment_cos,
    l1_monte_carlo,
    lacunary_set,
    lp_norm_quadrature,
    make_frequency_set,
    markov_tail_fraction,
    mian_chowla,
    sample_mu_nu,
)
from lacsum import frequency, norms, quadrature, rng
from lacsum.energy import count_quadruple_solutions
from lacsum.errors import BudgetExceeded, FrequencyTooLarge
from lacsum.frequency import sum_components_dyadic, sum_values
from lacsum.norms import MAX_CHUNKS, MAX_MC_SAMPLES, MAX_WORKERS, _abs, _map_chunks, num_workers
from lacsum.quadrature import MAX_HARMONIC
from oracles import l1_1_2_4_5_6_7_9_10, l1_1_2_6_7, midpoint_l1, periodic_mean


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
    assert lp_norm_quadrature(shifted, p=1).value == ref
    assert lp_norm_quadrature(dilated, p=1).value == ref


def test_l1_rule_measures_the_canonical_set():
    # shifted and dilated copies of a set get its canonical set's estimate,
    # bit for bit; the estimate still describes the copy
    bases = [make_frequency_set(f) for f in ([1, 2], [1, 4, 11], [1, 2, 6, 7], [1, 3, 8, 9, 12])]
    copies = [make_frequency_set([a * k + b for k in fs.freqs]) for fs in bases for a, b in ((1, 7), (5, 0), (3, 2))]
    assert all(canonicalize(fs) is fs for fs in bases)
    for fs in copies:
        assert lp_norm_quadrature(fs, 1) == lp_norm_quadrature(canonicalize(fs), 1)


def test_l1_canonical_set_sets_the_limit():
    # {1, 2^22} is {1, 2} up to dilation: measured, not refused or sampled
    est = lp_norm_quadrature(make_frequency_set([1, 2**22]), 1)
    assert est.method == "quadrature"
    assert abs(est.value - 4 / math.pi) < 1e-9
    with pytest.raises(FrequencyTooLarge, match=f"k_max {8**16} \\(canonical k_max {(8**16 - 8) // 56 + 1}\\)"):
        lp_norm_quadrature(lacunary_set(8, 16), 1)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
def test_l1_error_is_within_its_bound_on_a_zero_free_set():
    # S of {1, 4, 24} has no zero, so every panel passes the kink test and
    # error_bound reads 0; the rule is 7.05e-14 off the reference, computed
    # with mpmath at 30 digits over 240 equal subintervals
    est = lp_norm_quadrature(make_frequency_set([1, 4, 24]), 1)
    assert abs(est.value - 1.574618631718960863529) <= est.error_bound + 1e-15


def test_l1_two_term_kinks_near_panel_edges():
    # |e(a theta) + e(300 theta)| = 2 |cos(pi (300 - a) theta)| has mean 4/pi.
    # For these a some zeros of S lie closer to a panel edge than the first
    # Gauss node, where a panel-against-halves error estimate sees no kink.
    # lp_norm_quadrature measures every such pair as {1, 2}, so the rule
    # runs here on the raw integrand.
    for a in (17, 46, 58, 62, 74, 82, 86, 94, 98, 151):
        fs = make_frequency_set([a, 300])
        value, _ = quadrature.integrate_abs_adaptive(
            lambda th: np.abs(sum_values(fs, th)), 2 * math.pi * (a + 300), 300)
        assert abs(value - 4 / math.pi) < 1e-12


def test_l1_quadrature_memory_is_block_sized():
    # 2^18 first-level panels, 2^21 nodes, refined in blocks of 2^17 panels:
    # the peak stays below 48 bytes per first-level node, where evaluating
    # every node at once peaks at ~120
    fs = make_frequency_set([1, 3, 2**16])
    tracemalloc.start()
    try:
        lp_norm_quadrature(fs, p=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**21


@pytest.mark.parametrize(
    "freqs, oracle",
    [([1, 2, 6, 7], l1_1_2_6_7), ([1, 2, 4, 5, 6, 7, 9, 10], l1_1_2_4_5_6_7_9_10)],
    ids=["double-zero", "triple-zero"],
)
def test_l1_multiple_zeros_within_the_reported_bound(freqs, oracle):
    # a double zero of S at 1/2 for {1,2,6,7}, a triple one for the 8-set:
    # panels there stay suspect down to the depth limit and are accepted
    # with lipschitz * width^2 each, which error_bound sums
    est = lp_norm_quadrature(make_frequency_set(freqs), p=1)
    error = est.value - oracle()
    assert abs(error) < 1e-12
    assert 0 < est.error_bound
    assert abs(error) <= est.error_bound + 1e-14


def test_l1_double_zero_memory_stays_small():
    # the suspect panels around a double zero grow as width^(-1/2); the depth
    # limit keeps them near 10^4, where a 1e-13 width floor held millions
    tracemalloc.start()
    try:
        lp_norm_quadrature(make_frequency_set([1, 2, 6, 7]), p=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_l2_and_l4_are_exact_for_64_bit_lacunary_sets():
    # 8-lacunary sets are Sidon, so the energy is 2n^2 - n, up to k = 8^21
    for n in range(1, 22):
        fs = lacunary_set(8, n)
        l2, l4 = lp_norm_quadrature(fs, p=2), lp_norm_quadrature(fs, p=4)
        assert l2.method == l4.method == "exact"
        assert l2.value == math.sqrt(n)
        assert l4.value == (2 * n * n - n) ** 0.25


def test_quadrature_budget_enforced():
    fs = lacunary_set(8, 16)
    with pytest.raises(FrequencyTooLarge):
        lp_norm_quadrature(fs, p=1)


def test_l1_rule_admits_canonical_k_max_up_to_2_21(monkeypatch):
    # the limit is a harmonic, 2^21: lp_norm_quadrature hands the rule a
    # canonical k_max at the limit and refuses one just above it
    assert MAX_HARMONIC == 2**21
    harmonics = []

    def rule(absfn, lipschitz, max_harmonic):
        harmonics.append(max_harmonic)
        return 0.0, 0.0

    monkeypatch.setattr(norms, "integrate_abs_adaptive", rule)
    lp_norm_quadrature(make_frequency_set([1, 2, 2**21]), 1)
    assert harmonics == [2**21]
    with pytest.raises(FrequencyTooLarge):
        lp_norm_quadrature(make_frequency_set([1, 2, 2**21 + 1]), 1)
    assert harmonics == [2**21]


def test_gauss_legendre_literals_are_leggauss_bits():
    # the rule's literals are numpy's own 8-point rule, bit for bit
    x, w = np.polynomial.legendre.leggauss(8)
    assert quadrature._GL_X.tobytes() == x.tobytes()
    assert quadrature._GL_W.tobytes() == w.tobytes()
    # on [0, 1] it integrates every x^k, k <= 15, to 1/(k+1)
    for k in range(16):
        assert abs(float(quadrature._W01 @ quadrature._X01**k) - 1 / (k + 1)) <= 4e-16, k


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
            results.append((
                est.value,
                est.std_error,
                convergence_study(8, [3, 10, 6], cfg),
                markov_tail_fraction(fs, cfg),
                empirical_char_fn(fs, [(0.5, 1.0), (-1.0, 0.5), (0.5, -2.0), (-0.5, -1.0)], cfg),
                clt_report(fs, cfg, with_chain_audit=True),
            ))
    finally:
        if old is None:
            os.environ.pop("LACSUM_THREADS", None)
        else:
            os.environ["LACSUM_THREADS"] = old
    assert results[0] == results[1] == results[2]


def test_payload_bits_are_pinned():
    # recorded before the kernel's bit-identical trims (the latest: 2^15-point
    # blocks, a float gather of the table, an int64 conversion of the low
    # bits); a platform or change that moves the dyadic kernel or the Monte
    # Carlo reduction shows here
    est = l1_monte_carlo(lacunary_set(8, 16), McConfig(70_001, seed=3, chunk_size=8192))
    assert (est.value.hex(), est.std_error.hex()) == ("0x1.c6c5d5c52f2f6p+1", "0x1.c32ffeedbd493p-8")
    values = sum_values(make_frequency_set([1, 3, 2**16]), [-0.4142, 0.001, 0.1, 0.3333, 12.875])
    assert [(float(v.real).hex(), float(v.imag).hex()) for v in values] == [
        ("0x1.7c95209fc6ba8p-3", "-0x1.9524e848094e5p+0"),
        ("0x1.0678788e9dd4bp+0", "-0x1.97d647edc3032p-3"),
        ("-0x1.3c6ef372f8ac6p-2", "0x1.e6f0e134413eep-1"),
        ("0x1.1813a1324397ep+0", "0x1.ab8950f832797p+0"),
        ("0x1.fffffffffffffp-1", "-0x1.6a09e667f3bccp+0"),
    ]
    # 2^16 points in one hash: a single moved bit, such as from a fused
    # multiply-add, shows here even where the sums above absorb it
    m = np.random.default_rng(11).integers(0, 1 << 63, size=1 << 16, dtype=np.uint64)
    re, im = sum_components_dyadic(lacunary_set(8, 16), m)
    digest = hashlib.sha256(re.tobytes() + im.tobytes()).hexdigest()
    assert digest == "812bd0b5c41b9fc9b07179c83a0e8fcb9aaaa66336225333f164350cf5618586"
    # every other kernel entry point and payload that sums its terms
    fs = make_frequency_set([1, 3, 2**16, 8**21])
    m = np.array([0x1234567890ABCDEF, 0x5DEECE66D1234567, 0x7FEDCBA987654321, 0x0F0F0F0F12345678], dtype=np.uint64)
    re, im = sum_components_dyadic(fs, m)
    assert [float(v).hex() for v in re] == [
        "0x1.1eba5c0ff7a18p-2", "0x1.c098eeab742e6p-2", "0x1.14665134d7850p+1", "0x1.e019025d3e5a4p+0"]
    assert [float(v).hex() for v in im] == [
        "0x1.5358172234c1ep-2", "-0x1.617492fa8179bp-1", "-0x1.1c80dce63d0b9p-1", "0x1.129ccda26a62ap+1"]
    assert [float(v).hex() for v in sum_components_dyadic(fs, m << np.uint64(1))[0]] == [
        "0x1.97c9378c39e09p-1", "-0x1.497b4f3e2a950p-1", "0x1.b4d89ef0a6c10p+1", "0x1.d25d6d2886abcp-1"]
    mc = McConfig(70_001, seed=3, chunk_size=8192)
    assert markov_tail_fraction(lacunary_set(8, 16), mc).hex() == "0x1.0713938f58d3cp-8"
    row = convergence_study(8, [4, 16], mc)[0]
    assert (row.normalized_l1.hex(), row.std_error.hex()) == ("0x1.cc7b52b23933ap-1", "0x1.b0f0da178b1cap-10")
    report = clt_report(lacunary_set(8, 16), mc, with_chain_audit=True)
    assert (report.radial_mean.hex(), report.radial_std_error.hex()) == ("0x1.c6c5d5c52f2f6p-1", "0x1.c32ffeedbd493p-10")
    # the sampled side of the chain audit, recorded while Y was still sampled;
    # schema 11 takes |X+Z| as sqrt(re^2 + im^2) instead of hypot, which moved
    # only these two standard errors, by 1 and 3 ulp: the |S| moments above
    # read the same bits either way
    audit = report.chain_audit
    assert [(v.value.hex(), v.std_error.hex()) for v in (audit.e_abs_xz, audit.e_abs_xz_trunc)] == [
        ("0x1.788c757a860f0p+0", "0x1.7bc1568f551a3p-9"), ("0x1.754072ec66ca7p-2", "0x1.c02e2f2ed9913p-10")]
    # schema 10: rows for |s|, |t| = 1 and 2 are squares of the 0.5 and 1 rows
    assert (report.ks_mu.hex(), report.ks_nu.hex()) == ("0x1.702aeb2f6fa00p-9", "0x1.6e0431ed3c500p-8")
    phi = {(p.s, p.t): (p.phi.real.hex(), p.phi.imag.hex(), p.std_error.hex()) for p in report.phi_grid}
    assert [phi[st] for st in ((0.5, 0.5), (1.0, -2.0), (-2.0, 1.0), (2.0, 2.0))] == [
        ("0x1.c34c192aaaeddp-1", "0x1.882dff92a93a7p-10", "0x1.d3f43316720bdp-10"),
        ("0x1.1efa302bba4a9p-2", "-0x1.49f264886ef1dp-10", "0x1.db8d79a5518c8p-9"),
        ("0x1.24d2cad191d3bp-2", "-0x1.80b2dcfbdd8aep-10", "0x1.dab7b5c3d8891p-9"),
        ("0x1.03621efbdbcc4p-3", "-0x1.7fb5872f91498p-11", "0x1.eb6a833080d69p-9"),
    ]
    # a default 2^16-point chunk sums its char-fn grid over eight pieces of
    # cltlab._GRID_PIECE points; an 8 192-point chunk above is one piece
    report = clt_report(lacunary_set(8, 16), McConfig(70_001, seed=3), with_chain_audit=True)
    phi = {(p.s, p.t): (p.phi.real.hex(), p.phi.imag.hex(), p.std_error.hex()) for p in report.phi_grid}
    assert [phi[st] for st in ((0.5, 0.5), (1.0, -2.0), (-2.0, 1.0), (2.0, 2.0))] == [
        ("0x1.c36a7ee295625p-1", "-0x1.0d02c4715fddfp-14", "0x1.d386f3a36a2aep-10"),
        ("0x1.1c07c22860feep-2", "0x1.4cca1866bc35fp-10", "0x1.dbf77062666bbp-9"),
        ("0x1.1b3e8c5393337p-2", "-0x1.89f452a4a6381p-9", "0x1.dc1302b765eecp-9"),
        ("0x1.019ed51d3a387p-3", "-0x1.b90e3ca9d0f6fp-10", "0x1.eb7841821f1f0p-9"),
    ]


# Monte Carlo payloads of test_payload_bits_are_pinned, as hex, for a run in
# another process; cov_hat is left out of that test but not of this one
_MC_PAYLOAD_HEX = """
import lacsum as ls
fs, mc = ls.lacunary_set(8, 16), ls.McConfig(70_001, seed=3, chunk_size=8192)
est = ls.l1_monte_carlo(fs, mc)
rep = ls.clt_report(fs, mc, with_chain_audit=True)
audit = [f for v in (rep.chain_audit.e_abs_xz, rep.chain_audit.e_abs_xz_trunc) for f in (v.value, v.std_error)]
values = [est.value, est.std_error, ls.markov_tail_fraction(fs, mc), rep.radial_mean, rep.radial_std_error,
          rep.ks_mu, rep.ks_nu, *rep.cov_hat[0], rep.cov_hat[1][1], *audit]
hexes = [float(v).hex() for v in values]
"""


def _skip_unless_forceable(env: dict):
    """Skip where the variable in env would not switch numpy or OpenBLAS to another code path."""
    if "OPENBLAS_CORETYPE" in env:
        try:
            config = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("openblas configuration", "")
        except (TypeError, KeyError):
            config = ""
        if "DYNAMIC_ARCH" not in config:
            pytest.skip("numpy's BLAS is not an OpenBLAS DYNAMIC_ARCH build")
    else:
        try:
            from numpy._core._multiarray_umath import __cpu_features__
        except ImportError:
            pytest.skip("this numpy does not report its CPU features")
        missing = [t for t in env["NPY_DISABLE_CPU_FEATURES"].split(",") if not __cpu_features__.get(t)]
        if missing:
            pytest.skip(f"numpy does not run {', '.join(missing)} on this CPU")


# the value and error_bound of every set exhaustive_sigma(4, 14) measures,
# and the values of five sets with zeros of S of order 0 to 2, in one
# sha256; then the best value of the pinned anneal
_QUADRATURE_PAYLOAD_HEX = """
import hashlib
import lacsum as ls
from lacsum.search import _canonical_candidates
ests = [ls.lp_norm_quadrature(fs, 1) for fs in _canonical_candidates(4, 14)]
values = [v for est in ests for v in (est.value, est.error_bound)]
values += [ls.lp_norm_quadrature(ls.make_frequency_set(f), 1).value
           for f in ([1], [1, 4, 24], [1, 14, 276], [1, 3, 4096], [1, 2, 6, 7])]
hexes = [hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest(),
         ls.anneal_sigma(4, 20, 300, 5).best_value.hex()]
"""


@functools.cache
def _hexes_here(snippet: str) -> tuple:
    """The hexes snippet computes in this process."""
    here = {}
    exec(snippet, here)
    return tuple(here["hexes"])


def _hexes_under(snippet: str, env: dict) -> tuple:
    """The hexes snippet computes in a subprocess with env added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", snippet + "print(*hexes)"], env={
        **os.environ, "PYTHONPATH": src, **env}, capture_output=True, text=True, timeout=120, check=True)
    return tuple(out.stdout.split())


_FORCED_SETTINGS = pytest.mark.parametrize("env", [
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3,X86_V4,AVX512_ICL,AVX512_SPR"},
], ids=["openblas-prescott", "numpy-baseline"])


@_FORCED_SETTINGS
def test_monte_carlo_payloads_keep_their_bits_on_other_simd_paths(env):
    # OpenBLAS's SSE3 kernels and numpy's baseline loops move the char-fn
    # grid (ROADMAP item 14), but not these: their products have a zero part
    # or are squares, and they take no BLAS call
    _skip_unless_forceable(env)
    assert _hexes_under(_MC_PAYLOAD_HEX, env) == _hexes_here(_MC_PAYLOAD_HEX)


@_FORCED_SETTINGS
def test_quadrature_payloads_keep_their_bits_on_other_simd_paths(env):
    # |S| is norms._abs and each panel sum is a product and a pairwise row
    # sum, with no BLAS call, so the L1 rule, the search and the anneal keep
    # their bits too
    _skip_unless_forceable(env)
    assert _hexes_under(_QUADRATURE_PAYLOAD_HEX, env) == _hexes_here(_QUADRATURE_PAYLOAD_HEX)


def test_quadrature_payload_bits_are_pinned():
    # a platform or change that moves one quadrature value or bound shows here
    assert _hexes_here(_QUADRATURE_PAYLOAD_HEX)[0] == (
        "22034ae79cd95aeeb177be950c769e139bcb321de8455d7395995d0ddfde6868")


def test_kernel_table_bits_are_pinned():
    # the kernel's one contact with libm: math.cos and math.sin of the 1 025
    # first-octant angles, taken at import; a libm that rounds one entry
    # differently moves kernel sums and fails here by name
    assert hashlib.sha256(frequency._TABLE.tobytes()).hexdigest() == (
        "54615a07109aced6d926e09abed4ad65bbe3eb945410d45b51526e2d6ec0e169")


def test_every_mc_statistic_draws_each_chunk_once(monkeypatch):
    mc = McConfig(samples=5000, seed=9, chunk_size=1000)
    fs = lacunary_set(8, 4)
    draws = []
    original = rng.chunk_uniform63

    def counted(*args):
        draws.append(args)
        return original(*args)

    monkeypatch.setattr(rng, "chunk_uniform63", counted)
    expected = [(mc.seed, rng.STREAM_THETA, c, k) for c, k in rng.chunk_layout(mc.samples, mc.chunk_size)]
    assert len(expected) == 5
    for statistic in (
        lambda: l1_monte_carlo(fs, mc),
        lambda: convergence_study(8, [4, 2, 3], mc),
        lambda: markov_tail_fraction(fs, mc),
        lambda: empirical_char_fn(fs, default_phi_grid(), mc),
        lambda: sample_mu_nu(fs, mc),
        lambda: clt_report(fs, mc, with_chain_audit=True),
    ):
        draws.clear()
        statistic()
        assert sorted(draws) == expected


def test_abs_of_s_takes_no_libm_hypot(monkeypatch):
    # |S| and |X+Z| use IEEE ops only, so their bits cannot follow the libm
    m = np.random.default_rng(11).integers(0, 1 << 63, size=1 << 16, dtype=np.uint64)
    re, im = sum_components_dyadic(lacunary_set(8, 16), m)
    hypot = np.hypot(re, im)
    assert np.all(np.abs(_abs(re, im) - hypot) <= np.spacing(hypot))

    def no_hypot(*args, **kwargs):
        raise AssertionError("np.hypot called")

    monkeypatch.setattr(np, "hypot", no_hypot)
    mc = McConfig(samples=3000, seed=4, chunk_size=1000)
    l1_monte_carlo(lacunary_set(8, 6), mc)
    convergence_study(8, [2, 6], mc)
    clt_report(lacunary_set(8, 6), mc, with_chain_audit=True)

    # nor does the L1 rule take |S| with np.abs, whose complex loop is hypot
    absolute = np.abs

    def real_abs(x, *args, **kwargs):
        if np.iscomplexobj(x):
            raise AssertionError("np.abs called on complex values")
        return absolute(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", real_abs)
    assert lp_norm_quadrature(make_frequency_set([1, 2, 6, 7]), 1).value == pytest.approx(l1_1_2_6_7(), abs=1e-12)
    assert lp_norm_quadrature(make_frequency_set([1, 4, 24]), 1).value == pytest.approx(1.574618631718960863529, abs=1e-12)


def test_map_chunks_keeps_a_bounded_window_of_futures(monkeypatch):
    # a pass of many small chunks holds a few futures at a time, not one per
    # chunk, and still returns the results in layout order
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setenv("LACSUM_THREADS", "2")
    original = ThreadPoolExecutor.submit
    unfinished, peak, lock = set(), [0], threading.Lock()

    def finished(future):
        with lock:
            unfinished.discard(future)

    def submit(self, fn, *args, **kwargs):
        future = original(self, fn, *args, **kwargs)
        with lock:
            unfinished.add(future)
            peak[0] = max(peak[0], len(unfinished))
        future.add_done_callback(finished)
        return future

    def chunk(item):
        if item == 0:
            time.sleep(0.05)  # the other worker runs ahead while the first chunk is collected
        return item

    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
    assert _map_chunks(chunk, range(200)) == list(range(200))
    # 2 x workers ahead of the one being collected
    assert 1 < peak[0] <= 2 * 2 + 1


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_num_workers_rejects_bad_thread_counts(monkeypatch, value):
    monkeypatch.setenv("LACSUM_THREADS", value)
    with pytest.raises(ValueError, match=f"LACSUM_THREADS.*{value!r}"):
        num_workers()


def test_num_workers_caps_the_thread_count(monkeypatch):
    monkeypatch.setenv("LACSUM_THREADS", str(MAX_WORKERS))
    assert num_workers() == MAX_WORKERS
    for value in (str(MAX_WORKERS + 1), "150000"):
        monkeypatch.setenv("LACSUM_THREADS", value)
        with pytest.raises(ValueError, match=f"LACSUM_THREADS '{value}' exceeds the cap MAX_WORKERS = {MAX_WORKERS}"):
            num_workers()


def test_num_workers_reads_thread_count(monkeypatch):
    monkeypatch.setenv("LACSUM_THREADS", " 3 ")
    assert num_workers() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
    monkeypatch.setenv("LACSUM_THREADS", "")
    assert num_workers() == 3


def test_num_workers_defaults_to_the_usable_cores(monkeypatch):
    # a process pinned to one core of many runs one worker, not one per core
    monkeypatch.delenv("LACSUM_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert num_workers() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # a platform without affinity
    assert num_workers() == 64


def test_mc_seed_sensitivity():
    fs = lacunary_set(8, 6)
    a = l1_monte_carlo(fs, McConfig(samples=100_000, seed=1))
    b = l1_monte_carlo(fs, McConfig(samples=100_000, seed=2))
    assert a.value != b.value
    assert abs(a.value - b.value) < 6 * math.hypot(a.std_error, b.std_error)


def test_mc_config_caps_samples():
    # fails before chunk_layout builds one tuple per chunk
    with pytest.raises(BudgetExceeded, match="MAX_MC_SAMPLES = 10000000000"):
        McConfig(samples=MAX_MC_SAMPLES + 1)
    assert McConfig(samples=MAX_MC_SAMPLES).samples == MAX_MC_SAMPLES


def test_mc_config_caps_chunks():
    # one chunk per sample would build 10^7 layout tuples and futures; refused at construction
    with pytest.raises(BudgetExceeded, match=f"10000000 chunks, over MAX_CHUNKS = {MAX_CHUNKS}"):
        McConfig(samples=10**7, chunk_size=1)
    with pytest.raises(BudgetExceeded, match="MAX_CHUNKS"):
        McConfig(samples=2 * MAX_CHUNKS + 1, chunk_size=2)
    assert McConfig(samples=2 * MAX_CHUNKS, chunk_size=2).samples == 2 * MAX_CHUNKS
    assert McConfig(samples=MAX_MC_SAMPLES).chunk_size == 1 << 16  # no default run is refused


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
    # reference: the equispaced mean of (sum_j cos 4 pi k_j theta)^4,
    # a trigonometric polynomial of degree 8 k_max
    for fs in (make_frequency_set([1, 2, 3, 7]), mian_chowla(12)):
        ref = periodic_mean(
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

