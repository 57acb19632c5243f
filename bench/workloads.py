"""The benchmark's workloads: seeded inputs, the operations run on them, and their checks.

Every operation goes through lacsum's public API with default options (or,
for `cli`, through fresh `python -m lacsum.cli` processes), so the same
workloads run on commits that delete private helpers or options. Names are
looked up on the `lacsum` module at call time, so a traced run sees them.

A check returns None when the output is right and a reason otherwise. Each
tolerance is no looser than the matching criterion in
tests/test_acceptance.py; the closed forms are computed here, not by lacsum.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

import lacsum as ls

SQRT_PI_OVER_2 = math.sqrt(math.pi) / 2.0
FOUR_OVER_PI = 4.0 / math.pi

# Sizes. Ops are kept short so that one run repeats each of them often
# enough for its fastest time to be steady (see worker.best_times). mc_l1
# runs the paper's headline estimate on 10^6 samples per set (4 * 10^6 per
# pass); clt_audit materialises 10^6 samples as the acceptance gate does.
MC_SAMPLES = 10**6
CLT_SAMPLES = 10**6
CLI_MC_SAMPLES = 200_000
CLI_CLT_SAMPLES = 100_000

# The two inputs with a multiple zero of S that send the adaptive L1 rule
# into deep refinement. They run in child processes killed at this deadline
# (seconds of call time, import excluded); a kill counts as a failed op.
PROBE_DEADLINE_S = 3.0
OP_DEADLINE_S = 60.0

MIAN_CHOWLA_PREFIX = (1, 2, 4, 8, 13, 21, 31, 45, 66, 81)


@dataclass
class Op:
    name: str
    phase: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def energy_oracle(freqs) -> int:
    """Ordered solutions of a + b = c + d, by a histogram of pairwise sums.

    Large sets are histogrammed in row blocks, so the check stays small next
    to the workload's own peak memory.
    """
    arr = np.asarray(freqs, dtype=np.int64)
    if arr.size <= 1000:
        _, mult = np.unique(arr[:, None] + arr[None, :], return_counts=True)
        return int(np.sum(mult.astype(np.int64) ** 2))
    arr = arr - arr.min()
    hist = np.zeros(2 * int(arr.max()) + 1, dtype=np.int64)
    for i in range(0, arr.size, 128):
        hist += np.bincount((arr[i:i + 128, None] + arr[None, :]).ravel(), minlength=hist.size)
    return int(np.sum(hist**2))


def exp_sum_oracle(freqs, num: int, den: int) -> complex:
    """S(num/den) with each phase reduced exactly in integers."""
    return sum(complex(math.cos(2 * math.pi * (k * num % den) / den),
                       math.sin(2 * math.pi * (k * num % den) / den)) for k in freqs)


def l1_of_1267() -> float:
    """||S||_1 for {1,2,6,7}: S = z(1+z)(1+z^5), so |S| = 4|cos(pi t) cos(5 pi t)|.

    cos(pi t)cos(5 pi t) = (cos 4 pi t + cos 6 pi t)/2 keeps its sign between
    the zeros 0.1, 0.3, 0.5, 0.7, 0.9, so the integral is a sum of exact
    antiderivative differences.
    """
    def anti(t):
        return 0.5 * (math.sin(4 * math.pi * t) / (4 * math.pi) + math.sin(6 * math.pi * t) / (6 * math.pi))

    cuts = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    return 4.0 * sum(abs(anti(b) - anti(a)) for a, b in zip(cuts, cuts[1:]))


def _first_failure(reasons) -> Optional[str]:
    return next((r for r in reasons if r), None)


def _near(label, value, target, tol) -> Optional[str]:
    if not abs(value - target) <= tol:
        return f"{label}={value!r}, expected {target!r} within {tol}"
    return None


# ---------------------------------------------------------------------------
# mc_l1
# ---------------------------------------------------------------------------

def check_study(rows) -> Optional[str]:
    """Criterion 04: n = 16 within 0.05 of sqrt(pi)/2, gap monotone up to 4 sigma."""
    if [r.n for r in rows] != [4, 8, 16]:
        return f"rows for n={[r.n for r in rows]}"
    for a, b in zip(rows, rows[1:]):
        slack = 4 * math.hypot(a.std_error, b.std_error)
        if abs(b.gap_to_limit) > abs(a.gap_to_limit) + slack:
            return f"gap grows from n={a.n} to n={b.n}"
    return _near("normalized_l1(n=16)", rows[-1].normalized_l1, SQRT_PI_OVER_2, 0.05)


def check_l1_mc(est) -> Optional[str]:
    if not (est.std_error is not None and math.isfinite(est.std_error) and est.std_error > 0):
        return f"std_error={est.std_error!r}"
    return _near("normalized", est.normalized, SQRT_PI_OVER_2, 0.05)


def mc_l1_ops(seed: int, ctx) -> list[Op]:
    rg = random.Random(seed)
    study_cfg = ls.McConfig(samples=MC_SAMPLES, seed=rg.randrange(2**63))
    call_cfg = ls.McConfig(samples=MC_SAMPLES, seed=rg.randrange(2**63))
    fs16 = ls.lacunary_set(8, 16)
    return [
        Op("convergence_study", "mc", lambda: ls.convergence_study(8, [4, 8, 16], study_cfg), check_study),
        Op("l1_monte_carlo_n16", "mc", lambda: ls.l1_monte_carlo(fs16, call_cfg), check_l1_mc),
    ]


# ---------------------------------------------------------------------------
# clt_audit
# ---------------------------------------------------------------------------

def check_phi_grid(points, n: int) -> Optional[str]:
    """Criterion 09: within 0.01 + 3 se of the Gaussian and within the deviation bound."""
    for pt in points:
        gap = abs(pt.phi - math.exp(-(pt.s**2 + pt.t**2) / 4))
        if gap > 0.01 + 3 * pt.std_error:
            return f"phi({pt.s},{pt.t}) off the Gaussian by {gap:.4g}"
        bound = ls.deviation_bound(pt.s, pt.t, n)
        if bound < 1.0 and gap > bound + 4 * pt.std_error:
            return f"phi({pt.s},{pt.t}) outside the deviation bound"
    return None


def check_chain(audit) -> Optional[str]:
    """Criterion 11: every inequality of the closing chain holds at 4 sigma."""
    if audit is None:
        return "no chain audit"
    bad = [c["name"] for c in audit.inequalities() if not c["ok"]]
    return f"violated: {bad}" if bad else None


def check_clt(rep, samples=CLT_SAMPLES) -> Optional[str]:
    return _first_failure([
        None if rep.samples == samples else f"samples={rep.samples}",
        check_phi_grid(rep.phi_grid, rep.n),
        check_chain(rep.chain_audit),
        _near("radial_mean", rep.radial_mean, SQRT_PI_OVER_2, 0.05),
    ])


def clt_audit_ops(seed: int, ctx) -> list[Op]:
    cfg = ls.McConfig(samples=CLT_SAMPLES, seed=random.Random(seed).randrange(2**63))
    fs16 = ls.lacunary_set(8, 16)
    return [Op("clt_report", "clt", lambda: ls.clt_report(fs16, cfg, with_chain_audit=True), check_clt)]


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

_P = 2**31 - 1  # products of two residues stay inside int64


def _polymod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    inv = pow(int(b[-1]), _P - 2, _P)
    a = a.copy()
    while a.size >= b.size:
        f = a[-1] * inv % _P
        a[a.size - b.size:] = (a[a.size - b.size:] - f * b) % _P
        a = np.trim_zeros(a, "b")
    return a


def has_multiple_zero(freqs) -> bool:
    """Whether S has a multiple zero: Q = z^-k_min S and Q' have a common factor (Euclid mod a prime).

    A repeated factor of Q survives reduction mod the prime, so the answer is
    never a false "no"; a rare false "yes" only costs a redraw.
    """
    lo = min(freqs)
    q = np.zeros(max(freqs) - lo + 1, dtype=np.int64)
    q[[k - lo for k in freqs]] = 1
    a, b = q, np.trim_zeros(q[1:] * np.arange(1, q.size), "b") % _P
    while b.size:
        a, b = b, _polymod(a, b)
    return a.size > 1


def _random_set(rg: random.Random, n: int, k_max: int, simple_zeros: bool = False):
    """n distinct frequencies with the largest fixed at k_max, so the rule's panel count is fixed.

    With simple_zeros the set is redrawn until S has no multiple zero: the
    adaptive L1 rule refines a multiple zero for minutes, which the
    deadline probes measure on their own instead of stalling a timed pass.
    """
    while True:
        freqs = rg.sample(range(1, k_max), n - 1) + [k_max]
        if not (simple_zeros and has_multiple_zero(freqs)):
            return ls.make_frequency_set(freqs)


def check_l1_bounds(fs, est) -> Optional[str]:
    """Hoelder lower bound n^{3/2}/sqrt(K) <= ||S||_1 <= ||S||_2 = sqrt(n)."""
    lower = fs.n**1.5 / math.sqrt(energy_oracle(fs.freqs))
    if not lower - 1e-9 <= est.value <= math.sqrt(fs.n) + 1e-9:
        return f"value {est.value!r} outside [{lower!r}, {math.sqrt(fs.n)!r}]"
    return None


def _parseval(fs):
    return ls.lp_norm_quadrature(fs, 2), ls.lp_norm_quadrature(fs, 4), ls.count_quadruple_solutions(fs)


def check_parseval(fs, out) -> Optional[str]:
    """Criterion 02: ||S||_2^2 = n to 1e-9 and ||S||_4^4 = energy to 1e-8 (relative)."""
    l2, l4, energy = out
    oracle = energy_oracle(fs.freqs)
    if energy != oracle:
        return f"energy {energy} != {oracle}"
    return _first_failure([
        _near("rel ||S||_2^2 - n", (l2.value**2 - fs.n) / fs.n, 0.0, 1e-9),
        _near("rel ||S||_4^4 - K", (l4.value**4 - energy) / energy, 0.0, 1e-8),
    ])


def check_alpha(values) -> Optional[str]:
    """Criterion 06: |E[alpha] - 1| <= 1e-6."""
    worst = max(abs(v - 1.0) for v in values)
    return None if worst <= 1e-6 else f"|E[alpha]-1| = {worst:.3g}"


def check_fourth_moment(n: int, value: float) -> Optional[str]:
    """Criterion 08 (<= n^2), and the closed form 3n/8 + 3n(n-1)/4 for q = 8 to 1e-9."""
    closed = 3 * n / 8 + 3 * n * (n - 1) / 4
    if value > n * n:
        return f"fourth moment {value!r} > n^2"
    return _near("rel fourth moment", (value - closed) / closed, 0.0, 1e-9)


def check_sidon(fs, cert=None) -> Optional[str]:
    """Criterion 03: a Sidon set has energy 2n^2 - n and certificate n/sqrt(2n^2 - n)."""
    n = fs.n
    target = 2 * n * n - n
    if energy_oracle(fs.freqs) != target:
        return "oracle energy is not 2n^2 - n"
    if cert is None:
        return None
    if cert.energy != target or not cert.is_sidon:
        return f"certificate energy {cert.energy}, is_sidon={cert.is_sidon}"
    return _near("normalized_lower_bound", cert.normalized_lower_bound, n / math.sqrt(target), 1e-12)


def check_mian_chowla(out) -> Optional[str]:
    fs, cert = out
    if fs.freqs[: len(MIAN_CHOWLA_PREFIX)] != MIAN_CHOWLA_PREFIX:
        return f"prefix {fs.freqs[:10]}"
    return check_sidon(fs, cert)


def check_search(res, n: int) -> Optional[str]:
    """Criterion 12: the maximiser beats its Hoelder certificate and stays <= 1."""
    lower = n / math.sqrt(energy_oracle(res.best_set.freqs))
    if res.best_set.n != n or res.evaluations < 1:
        return f"best_set={res.best_set.freqs} evaluations={res.evaluations}"
    if not lower - 1e-12 <= res.best_value <= 1.0 + 1e-9:
        return f"best_value {res.best_value!r} outside [{lower!r}, 1]"
    return None


def exact_ops(seed: int, ctx) -> list[Op]:
    rg = random.Random(seed)
    ops: list[Op] = []

    # L1 quadrature: one closed form, n = 2 sets (always 4/pi), and n = 3..8 bounds.
    def add_l1(name, fs, check):
        ops.append(Op(name, "l1_quad", lambda: ls.lp_norm_quadrature(fs, 1), lambda est: check(fs, est)))

    def closed_pair(fs, est):
        return _first_failure([
            _near("value", est.value, FOUR_OVER_PI, 1e-6),
            _near("normalized", est.normalized, FOUR_OVER_PI / math.sqrt(2), 1e-6),
        ])

    add_l1("l1_closed_form_1_2", ls.make_frequency_set([1, 2]), closed_pair)
    for i in range(3):
        add_l1(f"l1_pair_{i}", _random_set(rg, 2, 300), closed_pair)
    for n in range(3, 9):
        add_l1(f"l1_set_n{n}", _random_set(rg, n, 300, simple_zeros=True), check_l1_bounds)

    # Moments: Parseval/energy, E[alpha], the fourth moment, product moments.
    for n in range(1, 9):
        fs = _random_set(rg, n, 1000)
        ops.append(Op(f"parseval_n{n}", "moments", lambda fs=fs: _parseval(fs), lambda out, fs=fs: check_parseval(fs, out)))
    grid = [(s, t) for s in (0.5, 1.0) for t in (0.5, 1.0)]
    for n in range(1, 5):
        fs = ls.lacunary_set(8, n)
        ops.append(Op(f"alpha_mean_n{n}", "moments",
                      lambda fs=fs: [ls.alpha_mean(fs, s, t) for s, t in grid], check_alpha))
    fs4 = ls.lacunary_set(8, 4)
    for n in range(1, 5):
        fs = ls.lacunary_set(8, n)
        ops.append(Op(f"fourth_moment_n{n}", "moments", lambda fs=fs: ls.fourth_moment_cos(fs),
                      lambda v, n=n: check_fourth_moment(n, v)))
    for i in range(4):
        # the top frequency is always selected, so the harmonic (and the cost) varies little
        delta = [rg.randrange(2) for _ in range(3)] + [1]
        delta_hat = [rg.randrange(2) for _ in range(3)] + [1]
        s, t = rg.choice(grid)
        ops.append(Op(f"product_moment_{i}", "moments",
                      lambda d=delta, dh=delta_hat, s=s, t=t: ls.product_moment(fs4, d, dh, s, t),
                      lambda v: _near("|product moment|", abs(v), 0.0, 1e-10)))

    # Energy: the greedy Sidon prefix and its certificate, a dilated copy, a random set.
    ops.append(Op("mian_chowla_120", "energy",
                  lambda: (lambda fs: (fs, ls.holder_lower_bound(fs)))(ls.mian_chowla(120)),
                  check_mian_chowla))
    a, b = rg.randrange(2, 1000), rg.randrange(0, 10**6)
    dilated = ls.make_frequency_set([a * k + b for k in greedy_sidon(60)])
    ops.append(Op("sidon_dilated_60", "energy", lambda: ls.is_sidon(dilated),
                  lambda ok: None if ok is True and check_sidon(dilated) is None else "dilated prefix not Sidon"))
    big = ls.make_frequency_set(rg.sample(range(1, 10**5), 2000))
    ops.append(Op("energy_random_2000", "energy", lambda: ls.holder_lower_bound(big),
                  lambda cert: None if cert.energy == energy_oracle(big.freqs) else f"energy {cert.energy}"))

    # Search: exhaustive sigma with the fine rule.
    ops.append(Op("exhaustive_sigma_3_24", "search", lambda: ls.exhaustive_sigma(3, 24), lambda r: check_search(r, 3)))
    ops.append(Op("exhaustive_sigma_2_10", "search", lambda: ls.exhaustive_sigma(2, 10),
                  lambda r: _near("best_value", r.best_value, FOUR_OVER_PI / math.sqrt(2), 1e-6)))
    ops.append(Op("exhaustive_sigma_1_5", "search", lambda: ls.exhaustive_sigma(1, 5),
                  lambda r: _near("best_value", r.best_value, 1.0, 1e-9)))
    return ops


def greedy_sidon(n: int) -> list[int]:
    """The greedy Sidon sequence, computed here so the input is built without lacsum."""
    seq, sums, c = [], set(), 1
    while len(seq) < n:
        new = [c + a for a in seq] + [2 * c]
        if not any(s in sums for s in new):
            seq.append(c)
            sums.update(new)
        c += 1
    return seq


def probe_ops() -> list[Op]:
    """Multiple-zero inputs; run in killable child processes, never in the timed passes."""
    fs = ls.make_frequency_set([1, 2, 6, 7])
    return [
        Op("probe_l1_1_2_6_7", "probe", lambda: ls.lp_norm_quadrature(fs, 1),
           lambda est: _near("value", est.value, l1_of_1267(), 1e-6)),
        Op("probe_exhaustive_sigma_4_8", "probe", lambda: ls.exhaustive_sigma(4, 8), lambda r: check_search(r, 4)),
    ]


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

@dataclass
class CliContext:
    """How to launch the CLI and where its run records go (inside the checkout)."""

    launcher: list
    workdir: Path
    env: dict


def _cli(ctx: CliContext, name: str, args: list):
    runs = ctx.workdir / name
    shutil.rmtree(runs, ignore_errors=True)
    proc = subprocess.run(ctx.launcher + ["--runs-dir", str(runs)] + args,
                          capture_output=True, text=True, env=ctx.env, timeout=OP_DEADLINE_S)
    records = sorted(runs.iterdir()) if runs.is_dir() else []
    return proc, records


def _payload(out):
    proc, records = out
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    if len(records) != 1:
        raise RuntimeError(f"{len(records)} run records written")
    return proc.stdout


def cli_ops(seed: int, ctx: CliContext) -> list[Op]:
    rg = random.Random(seed)
    freqs = sorted(rg.sample(range(1, 21), 3))
    num = rg.randrange(1, 1024)
    a, b = rg.randrange(2, 50), rg.randrange(0, 1000)
    sidon5 = [a * k + b for k in MIAN_CHOWLA_PREFIX[:5]]
    mc_seed, clt_seed = rg.randrange(2**63), rg.randrange(2**63)

    def check_eval(p):
        return _near("abs", p["abs"], abs(exp_sum_oracle(freqs, num, 1024)), 1e-9)

    def check_norms(p):
        return _near("normalized", p["normalized"], SQRT_PI_OVER_2, 0.05)

    def check_energy(p):
        return None if p["energy"] == 45 and p["is_sidon"] else f"energy {p['energy']}"

    def check_clt_payload(p):
        pts = [SimpleNamespace(s=q["s"], t=q["t"], phi=complex(q["phi_re"], q["phi_im"]), std_error=q["std_error"])
               for q in p["phi_grid"]]
        bad = [c["name"] for c in p["chain_audit"]["inequalities"] if not c["ok"]]
        return _first_failure([check_phi_grid(pts, p["n"]), f"violated: {bad}" if bad else None])

    def check_search_payload(p):
        lower = 3 / math.sqrt(energy_oracle(p["best_set"]))
        return None if lower - 1e-12 <= p["best_value"] <= 1 + 1e-9 else f"best_value {p['best_value']}"

    commands = [
        ("eval", ["eval", "--freqs", ",".join(map(str, freqs)), "--theta", repr(num / 1024)], check_eval),
        ("norms", ["norms", "--lacunary", "8,16", "--method", "mc", "--samples", str(CLI_MC_SAMPLES),
                   "--seed", str(mc_seed)], check_norms),
        ("energy", ["energy", "--freqs", ",".join(map(str, sidon5))], check_energy),
        ("sidon", ["sidon", "--n", "20"], None),
        ("clt", ["clt", "--lacunary", "8,16", "--samples", str(CLI_CLT_SAMPLES), "--seed", str(clt_seed),
                 "--chain-audit"], check_clt_payload),
        ("search", ["search", "--n", "3", "--max-freq", "12"], check_search_payload),
    ]
    record_of: dict = {}
    ops = []
    for name, args, check in commands:
        def run(name=name, args=args):
            out = _cli(ctx, name, args)
            record_of[name] = out[1][0] if len(out[1]) == 1 else None
            return _payload(out)

        if name == "sidon":
            def check_stdout(text):
                fs = [int(v) for v in text.split()]
                if len(fs) != 20 or tuple(fs[:10]) != MIAN_CHOWLA_PREFIX:
                    return f"sidon output {fs[:10]}"
                return check_sidon(ls.make_frequency_set(fs))
        else:
            def check_stdout(text, check=check):
                return check(json.loads(text))
        ops.append(Op(name, "command", run, check_stdout))
    for name, _, _ in commands:
        def replay(name=name):
            if record_of.get(name) is None:
                raise RuntimeError(f"no record from {name}")
            proc = subprocess.run(ctx.launcher + ["replay", str(record_of[name])],
                                  capture_output=True, text=True, env=ctx.env, timeout=OP_DEADLINE_S)
            return proc.returncode, proc.stdout

        ops.append(Op(f"replay_{name}", "replay", replay,
                      lambda out: None if out[0] == 0 and json.loads(out[1])["replay"] == "match"
                      else f"replay exit {out[0]}"))
    return ops


WORKLOADS = {
    "mc_l1": mc_l1_ops,
    "clt_audit": clt_audit_ops,
    "exact": exact_ops,
    "cli": cli_ops,
}
