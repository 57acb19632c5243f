"""Numerical audit of the two-dimensional CLT argument behind the sqrt(pi)/2 limit.

Everything here works with the normalized pair
mu = (sum_j sin 2 pi k_j theta)/sqrt(n), nu = (sum_j cos 2 pi k_j theta)/sqrt(n),
whose joint law approaches a centered Gaussian with covariance diag(1/2, 1/2)
when the frequencies grow geometrically. The operations expose each
ingredient of that argument: the remainder w in
e^{ix} = (1+ix) e^{-x^2/2 + w(x)}, the product decomposition alpha/beta, the
lacunary orthogonality identity E[alpha] = 1, the explicit characteristic
function deviation majorant, the smoothing inequality, Gaussian radial
moments, and the final expectation chain audited with Monte Carlo error bars.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import frequency as fq
from . import rng
from .errors import CapacityExceeded, DomainError
from .frequency import FrequencySet
from .norms import McConfig, _map_chunks, _mean_and_error, _moment_sums, _tree_reduce

DEFAULT_PHI_AXIS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)

# Live-exponent cap for _constant_term. A q-lacunary set keeps a few states
# at any q >= 2, and small dense sets stay far below it; a dense set of large
# frequencies, which would grow to 3^(2n) states, hits it within a second.
_MAX_STATES = 1 << 16

# ks_distance_to_normal evaluates the normal CDF at every _KS_KNOT_STEP-th
# sorted sample, and at the others only near the maximum.
_KS_KNOT_STEP = 64
_KS_SLACK = 1e-12


# ---------------------------------------------------------------------------
# The remainder w and the alpha/beta decomposition
# ---------------------------------------------------------------------------

def w_remainder(x: float) -> complex:
    """w(x) = x^2/2 + ix - Log(1+ix), so that e^{ix} = (1+ix) e^{-x^2/2 + w(x)}.

    Restricted to |x| < 1, where 1+ix stays in the right half plane and
    |w(x)| <= |x|^3.
    """
    if not abs(x) < 1.0:
        raise DomainError("w_remainder requires |x| < 1")
    return x * x / 2.0 + 1j * x - cmath.log(1.0 + 1j * x)


def _w_vec(x: np.ndarray) -> np.ndarray:
    return x * x / 2.0 + 1j * x - np.log(1.0 + 1j * x)


def alpha_at(fs: FrequencySet, s: float, t: float, thetas: np.ndarray) -> np.ndarray:
    """alpha(s,t)(theta) = prod_j (1 + is sin(2 pi k_j theta)/sqrt(n)) (1 + it cos(...)/sqrt(n))."""
    rt = math.sqrt(fs.n)
    out = np.ones(np.shape(thetas), dtype=np.complex128)
    for k in fs:
        ang = 2.0 * math.pi * fq._frac_mul(float(k), np.asarray(thetas, dtype=np.float64))
        out *= 1.0 + 1j * s * np.sin(ang) / rt
        out *= 1.0 + 1j * t * np.cos(ang) / rt
    return out


def beta_at(fs: FrequencySet, s: float, t: float, thetas: np.ndarray) -> np.ndarray:
    """beta(s,t)(theta): the exponent correction in the decomposition of e^{is mu + it nu}."""
    n = fs.n
    rt = math.sqrt(n)
    out = np.zeros(np.shape(thetas), dtype=np.complex128)
    for k in fs:
        ang = 2.0 * math.pi * fq._frac_mul(float(k), np.asarray(thetas, dtype=np.float64))
        out += (s * s - t * t) * np.cos(2.0 * ang) / (4.0 * n)
        out += _w_vec(s * np.sin(ang) / rt)
        out += _w_vec(t * np.cos(ang) / rt)
    return out


def _constant_term(factors: Sequence[dict[int, complex]]) -> complex:
    """Constant coefficient of a product of sparse Laurent polynomials in z.

    Each factor maps integer exponents to coefficients. Factors are
    multiplied largest span first, and a partial exponent is dropped as soon
    as its size exceeds the total span of the factors still to come, since
    nothing can cancel it back to zero.
    """
    spans = sorted(((max(map(abs, f)), f) for f in factors), key=lambda x: x[0], reverse=True)
    reach = sum(span for span, _ in spans)
    state: dict[int, complex] = {0: complex(1.0)}
    for span, factor in spans:
        reach -= span
        nxt: dict[int, complex] = {}
        for e, c in state.items():
            for d, w in factor.items():
                x = e + d
                if -reach <= x <= reach:
                    nxt[x] = nxt.get(x, 0) + c * w
        if len(nxt) > _MAX_STATES:
            raise CapacityExceeded(
                f"the Laurent product needs more than {_MAX_STATES} live exponents"
            )
        state = nxt
    return complex(state.get(0, 0))


def product_moment(
    fs: FrequencySet,
    delta: Sequence[int],
    delta_hat: Sequence[int],
    s: float,
    t: float,
) -> complex:
    """E[ prod_j (is sin 2 pi k_j theta)^{delta_j} (it cos 2 pi k_j theta)^{delta_hat_j} ], exactly.

    With z = e^{2 pi i theta} the selected factors are (s/2)(z^k - z^-k) and
    (it/2)(z^k + z^-k); the expectation is the constant term of their
    product. For geometric frequency sets every non-empty selection expands
    into sines and cosines of nonzero frequency, so the expectation vanishes.
    """
    if len(delta) != fs.n or len(delta_hat) != fs.n:
        raise DomainError("selector vectors must have length n")
    factors = []
    for k, d, dh in zip(fs.freqs, delta, delta_hat):
        if d:
            factors.append({k: s / 2.0, -k: -s / 2.0})
        if dh:
            factors.append({k: 0.5j * t, -k: 0.5j * t})
    return _constant_term(factors)


def alpha_mean(fs: FrequencySet, s: float, t: float) -> complex:
    """E[alpha(s,t)], exactly; equals 1 for geometric frequency sets.

    alpha is the product of 1 + (s/2 sqrt n)(z^k - z^-k) and
    1 + (it/2 sqrt n)(z^k + z^-k) over the frequencies, with
    z = e^{2 pi i theta}; its mean is the constant term of that product.
    """
    a = s / (2.0 * math.sqrt(fs.n))
    b = 0.5j * t / math.sqrt(fs.n)
    factors = []
    for k in fs.freqs:
        if s:
            factors.append({0: 1.0, k: a, -k: -a})
        if t:
            factors.append({0: 1.0, k: b, -k: b})
    return _constant_term(factors)


# ---------------------------------------------------------------------------
# Explicit bounds and Gaussian targets
# ---------------------------------------------------------------------------

def deviation_bound(s: float, t: float, n: int) -> float:
    """Explicit majorant of |phi(s,t) - e^{-(s^2+t^2)/4}| for the geometric set of size n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    ss = s * s + t * t
    return (
        math.expm1((abs(s) ** 3 + abs(t) ** 3) / math.sqrt(n))
        + math.expm1(ss / n**0.25)
        + math.exp(ss) / n
    )


@dataclass(frozen=True)
class GaussianSpec:
    """Centered 2-D normal with covariance diag(sigma2, sigma2)."""

    sigma2: float

    def __post_init__(self):
        if self.sigma2 < 0:
            raise DomainError("sigma2 must be >= 0")


def gaussian_abs_mean(g: GaussianSpec | float) -> float:
    """E|Z| = sqrt(pi sigma^2 / 2) for Z ~ N(0, diag(sigma^2, sigma^2))."""
    sigma2 = g.sigma2 if isinstance(g, GaussianSpec) else GaussianSpec(float(g)).sigma2
    return math.sqrt(math.pi * sigma2 / 2.0)


@dataclass(frozen=True)
class SmoothingInputs:
    t1: float
    t2: float
    delta1: float
    delta2: float
    x: float
    y: float
    integral_term: float  # value of the |p1 - p2| double integral, supplied upstream

    def __post_init__(self):
        for name in ("t1", "t2", "delta1", "delta2", "x", "y"):
            if getattr(self, name) <= 0:
                raise DomainError(f"{name} must be positive")
        if self.integral_term < 0:
            raise DomainError("integral_term must be >= 0")


def smoothing_bound(inp: SmoothingInputs) -> float:
    """Rectangle-probability bound for smoothed measures: integral term plus Gaussian tails."""
    xy = inp.x * inp.y
    tails = (
        inp.delta2 / inp.delta1 * math.exp(-(inp.t1 * inp.delta1) ** 2 / 2.0)
        + inp.delta1 / inp.delta2 * math.exp(-(inp.t2 * inp.delta2) ** 2 / 2.0)
    )
    return xy * inp.integral_term + xy * tails


# ---------------------------------------------------------------------------
# Sampling, empirical characteristic function, and the report
# ---------------------------------------------------------------------------

def sample_mu_nu(fs: FrequencySet, mc: McConfig) -> tuple[np.ndarray, np.ndarray]:
    """mc.samples iid draws of (mu, nu) from the deterministic theta stream."""
    rt = math.sqrt(fs.n)

    def one(item):
        chunk, count = item
        m = rng.chunk_uniform63(mc.seed, rng.STREAM_THETA, chunk, count)
        re, im = fq.sum_components_dyadic(fs, m)
        return im / rt, re / rt

    parts = _map_chunks(one, rng.chunk_layout(mc.samples, mc.chunk_size))
    mu = np.concatenate([p[0] for p in parts])
    nu = np.concatenate([p[1] for p in parts])
    return mu, nu


@dataclass(frozen=True)
class CharFnPoint:
    s: float
    t: float
    phi: complex
    std_error: float
    gaussian: float  # the limit value e^{-(s^2+t^2)/4}


def default_phi_grid() -> list[tuple[float, float]]:
    return [(s, t) for s in DEFAULT_PHI_AXIS for t in DEFAULT_PHI_AXIS]


def _phase_rows(axis: list[float], x: np.ndarray) -> np.ndarray:
    """e^{iax} for each a in axis, one row each; the row for a = 0 is exactly 1."""
    rows = np.ones((len(axis), x.size), dtype=np.complex128)
    for row, a in zip(rows, axis):
        if a:
            row.real, row.imag = np.cos(a * x), np.sin(a * x)
    return rows


def _chain_audit(mc: McConfig, chain: tuple, item: tuple, x: np.ndarray, y: np.ndarray) -> list:
    """_moment_sums of |X+Z|, |X+Z| truncated, |Y+Z|, |Y+Z| truncated, |Z| for one chunk.

    X = (x, y) is the chunk's (mu, nu); its Z and Y come from their own
    streams. chain is (radius, sigma2_z); the order is FinalChainAudit's.
    """
    radius, sigma2_z = chain
    z = rng.chunk_gaussian_pairs(mc.seed, rng.STREAM_Z, *item, math.sqrt(sigma2_z))
    g = rng.chunk_gaussian_pairs(mc.seed, rng.STREAM_Y, *item, math.sqrt(0.5))
    xz = np.hypot(x + z[:, 0], y + z[:, 1])
    yz = np.hypot(g[:, 0] + z[:, 0], g[:, 1] + z[:, 1])
    return _moment_sums(xz, xz * (xz <= radius), yz, yz * (yz <= radius), np.hypot(*z.T))


def _sample_pass(
    fs: FrequencySet, mc: McConfig, grid: Sequence[tuple[float, float]], chain: Optional[tuple]
) -> tuple[np.ndarray, list[CharFnPoint], np.ndarray, np.ndarray]:
    """One chunked pass over the theta stream; every statistic is a per-chunk sum.

    Each chunk returns one vector: the _moment_sums of |S|, mu, nu, mu nu
    and, with chain, the _chain_audit sums; then A B^T and A conj(B)^T, where
    A and B hold e^{i|s| mu} and e^{i|t| nu} for the distinct |s| and |t| of
    the grid. Each per-sample quantity is summed as soon as it is made, so a
    chunk holds few arrays at once. The vectors are summed in the fixed
    _tree_reduce order, so the result does not depend on the worker count.
    Negative s follows from phi(-s, t) = conj phi(s, -t); as |e^{ix}| = 1,
    the ddof=1 variances of Re and Im add up to N (1 - |phi|^2) / (N - 1).

    Returns the (sum, sum of squares) rows, the char-fn points, and mu and
    nu, the only arrays kept at full length (the exact KS distance sorts them).
    """
    rt, count = math.sqrt(fs.n), mc.samples
    s_abs = sorted({abs(s) for s, _ in grid})
    t_abs = sorted({abs(t) for _, t in grid})
    mu, nu = np.empty(count), np.empty(count)

    def sums(item):
        lo = item[0] * mc.chunk_size
        x, y = mu[lo : lo + item[1]], nu[lo : lo + item[1]]
        re, im = fq.sum_components_dyadic(fs, rng.chunk_uniform63(mc.seed, rng.STREAM_THETA, *item))
        x[:], y[:] = im / rt, re / rt
        moments = _moment_sums(np.hypot(re, im), x, y, x * y)
        if chain:
            moments += _chain_audit(mc, chain, item, x, y)
        a, b = _phase_rows(s_abs, x), _phase_rows(t_abs, y)
        plus = a @ b.T
        minus = a @ np.conjugate(b, out=b).T  # in place: no copy of B
        return np.concatenate([moments, plus.ravel(), minus.ravel()])

    total = _tree_reduce(_map_chunks(sums, rng.chunk_layout(count, mc.chunk_size)))
    k = total.size - 2 * len(s_abs) * len(t_abs)
    plus, minus = total[k:].reshape(2, len(s_abs), len(t_abs)) / count
    points = []
    for s, t in grid:
        phi, se = complex(1.0), 0.0
        if s or t:
            i, j = s_abs.index(abs(s)), t_abs.index(abs(t))
            phi = complex((plus if (s < 0) == (t < 0) else minus)[i, j])
            phi = phi.conjugate() if s < 0 else phi
            se = math.sqrt(max(1.0 - abs(phi) ** 2, 0.0) / (count - 1)) if count > 1 else math.nan
        points.append(CharFnPoint(s, t, phi, se, math.exp(-(s * s + t * t) / 4.0)))
    return total[:k].real.reshape(-1, 2), points, mu, nu


def empirical_char_fn(
    fs: FrequencySet, grid: Sequence[tuple[float, float]], mc: McConfig
) -> list[CharFnPoint]:
    """Monte Carlo estimates of phi(s,t) = E[e^{is mu + it nu}] on a grid of (s,t)."""
    if not all(math.isfinite(s) and math.isfinite(t) for s, t in grid):
        raise DomainError("char-fn grid points must be finite")
    return _sample_pass(fs, mc, grid, None)[1]


def ks_distance_to_normal(sample: np.ndarray, sigma2: float) -> float:
    """Exact one-sample Kolmogorov-Smirnov distance to N(0, sigma2).

    Phi(x) = erfc(-x / sqrt(2 sigma2)) / 2 is monotone, so once it is known at
    every _KS_KNOT_STEP-th sorted sample, the knot values bound every term in
    between. Phi is evaluated at the other samples only in the blocks whose
    bound comes within _KS_SLACK of the best knot term; the slack absorbs any
    ulp-level non-monotonicity of the computed erfc.
    """
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = x.size
    scale = math.sqrt(2.0 * sigma2)

    def terms(idx):
        cdf = np.array([0.5 * math.erfc(-v / scale) for v in x[idx].tolist()])
        return cdf, max(((idx + 1.0) / n - cdf).max(), (cdf - idx / n).max())

    knots = np.append(np.arange(0, n - 1, _KS_KNOT_STEP), n - 1)
    cdf, best = terms(knots)
    bound = np.maximum((knots[1:] + 1.0) / n - cdf[:-1], cdf[1:] - knots[:-1] / n)
    near = [np.arange(knots[j] + 1, knots[j + 1]) for j in np.flatnonzero(bound >= best - _KS_SLACK)]
    return float(max(best, terms(np.concatenate([knots[:1], *near]))[1]))


@dataclass(frozen=True)
class ValueWithError:
    value: float
    std_error: float


@dataclass(frozen=True)
class FinalChainAudit:
    """Every expectation in the closing inequality chain, with Monte Carlo errors.

    X is the sampled (mu, nu) pair, Y the diag(1/2,1/2) Gaussian, Z the
    independent smoothing Gaussian with per-coordinate variance
    (log n)^{-1/8}; truncation cuts at radius (log n)^{1/4}.
    """

    truncation_radius: float
    sigma2_z: float
    e_abs_x: ValueWithError
    e_abs_xz: ValueWithError
    e_abs_xz_trunc: ValueWithError
    e_abs_yz: ValueWithError
    e_abs_yz_trunc: ValueWithError
    e_abs_z: ValueWithError

    def inequalities(self, sigmas: float = 4.0) -> list[dict]:
        """Each chain inequality as lhs >= rhs - sigmas * combined std error."""
        def check(name, lhs, rhs, *errs):
            slack = sigmas * math.sqrt(sum(e * e for e in errs))
            return {
                "name": name,
                "lhs": lhs,
                "rhs": rhs,
                "slack": slack,
                "ok": lhs >= rhs - slack,
            }

        a = self
        return [
            check(
                "E|X| >= E|X+Z| - E|Z|",
                a.e_abs_x.value,
                a.e_abs_xz.value - a.e_abs_z.value,
                a.e_abs_x.std_error, a.e_abs_xz.std_error, a.e_abs_z.std_error,
            ),
            check(
                "E|X+Z| >= E|X+Z| truncated",
                a.e_abs_xz.value,
                a.e_abs_xz_trunc.value,
                a.e_abs_xz.std_error, a.e_abs_xz_trunc.std_error,
            ),
            check(
                "E|Y+Z| >= E|Y+Z| truncated",
                a.e_abs_yz.value,
                a.e_abs_yz_trunc.value,
                a.e_abs_yz.std_error, a.e_abs_yz_trunc.std_error,
            ),
        ]


@dataclass(frozen=True)
class CltReport:
    n: int
    samples: int
    seed: int
    radial_mean: float       # estimate of E|X|, i.e. the normalized L1 norm
    radial_std_error: float
    ks_mu: float             # KS distance of the mu marginal to N(0, 1/2)
    ks_nu: float
    cov_hat: list            # 2x2 empirical covariance of (mu, nu)
    phi_grid: list = field(default_factory=list)
    chain_audit: Optional[FinalChainAudit] = None


def clt_report(fs: FrequencySet, mc: McConfig, with_chain_audit: bool = False) -> CltReport:
    """Empirical (mu, nu) statistics against the Gaussian targets, from one chunked pass.

    The radial mean is sum |S| / N / sqrt(n), as in l1_monte_carlo.
    """
    count, rt = mc.samples, math.sqrt(fs.n)
    if with_chain_audit and fs.n < 2:
        raise DomainError("the chain audit needs n >= 2 (log n must be positive)")
    chain = (math.log(fs.n) ** 0.25, math.log(fs.n) ** -0.125) if with_chain_audit else None
    moments, points, mu, nu = _sample_pass(fs, mc, default_phi_grid(), chain)
    est = [ValueWithError(*_mean_and_error(s1, s2, count)) for s1, s2 in moments]
    radial = ValueWithError(est[0].value / rt, est[0].std_error / rt)
    (s_mu, s_mumu), (s_nu, s_nunu), (s_munu, _) = moments[1:4]
    gram = np.array([[s_mumu, s_munu], [s_munu, s_nunu]])
    gram -= np.outer([s_mu, s_nu], [s_mu, s_nu]) / count
    return CltReport(
        n=fs.n,
        samples=count,
        seed=mc.seed,
        radial_mean=radial.value,
        radial_std_error=radial.std_error,
        ks_mu=ks_distance_to_normal(mu, 0.5),
        ks_nu=ks_distance_to_normal(nu, 0.5),
        cov_hat=(gram / (count - 1) if count > 1 else np.full((2, 2), math.nan)).tolist(),
        phi_grid=points,
        chain_audit=FinalChainAudit(*chain, radial, *est[4:]) if chain else None,
    )
