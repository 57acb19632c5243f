"""Numerical audit of the two-dimensional CLT argument behind the sqrt(pi)/2 limit.

Everything here works with the normalized pair
mu = (sum_j sin 2 pi k_j theta)/sqrt(n), nu = (sum_j cos 2 pi k_j theta)/sqrt(n),
whose joint law approaches a centered Gaussian with covariance diag(1/2, 1/2)
when the frequencies grow geometrically. The operations expose each
ingredient of that argument: the remainder w in
e^{ix} = (1+ix) e^{-x^2/2 + w(x)}, the product decomposition alpha/beta, the
lacunary orthogonality identity E[alpha] = 1, the explicit characteristic
function deviation majorant, the smoothing inequality, Gaussian radial
moments, and the final expectation chain: its sampled side with Monte Carlo
error bars, its Gaussian side in closed form. A report draws theta and the
smoothing Gaussian Z only.
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
from .sets import FrequencySet
from .norms import McConfig, _abs, _map_chunks, _mc_mean, _mean_and_error, _moment_sums

DEFAULT_PHI_AXIS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
# The distinct |s| and |t| of DEFAULT_PHI_AXIS: the a of the rows that _phase_rows builds.
_PHI_ABS = (0.0, 0.5, 1.0, 2.0)

# Live-exponent cap for _constant_term. A q-lacunary set keeps a few states
# at any q >= 2, and small dense sets stay far below it; a dense set of large
# frequencies, which would grow to 3^(2n) states, hits it within a second.
_MAX_STATES = 1 << 16

# ks_distance_to_normal evaluates the normal CDF at every _KS_KNOT_STEP-th
# sorted sample, and at the others only near the maximum.
_KS_KNOT_STEP = 64
_KS_SLACK = 1e-12

# Samples that clt_report keeps as mu and nu, 16 bytes each: 1.6 GB at the cap.
_MAX_KEPT_SAMPLES = 10**8

# Points of a chunk whose char-fn phase rows are built at once: the default
# grid's 4 + 4 rows of 2^13 points are 1 MB, against 8 MB for a whole
# 2^16-point chunk. That is below the kernel's 3.5 MB of rows, so 2^12 gave
# the same peak, and took ~4% longer from twice the numpy calls.
_GRID_PIECE = 1 << 13

# FinalChainAudit.inequalities allows each check this many combined standard errors.
_AUDIT_SIGMAS = 4.0


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


def _finite_thetas(thetas) -> np.ndarray:
    th = np.asarray(thetas, dtype=np.float64)
    if not np.isfinite(th).all():
        raise DomainError("theta must be finite")
    return th


def _require_finite(**values: float) -> None:
    """DomainError naming the first of values that is NaN or infinite."""
    for name, v in values.items():
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")


def alpha_at(fs: FrequencySet, s: float, t: float, thetas: np.ndarray) -> np.ndarray:
    """alpha(s,t)(theta) = prod_j (1 + is sin(2 pi k_j theta)/sqrt(n)) (1 + it cos(...)/sqrt(n))."""
    _require_finite(s=s, t=t)
    thetas = _finite_thetas(thetas)
    rt = math.sqrt(fs.n)
    out = np.ones(np.shape(thetas), dtype=np.complex128)
    for k in fs:
        z = fq.sum_values(FrequencySet((k,)), thetas)
        out *= 1.0 + 1j * s * z.imag / rt
        out *= 1.0 + 1j * t * z.real / rt
    return out


def beta_at(fs: FrequencySet, s: float, t: float, thetas: np.ndarray) -> np.ndarray:
    """beta(s,t)(theta): the exponent correction in the decomposition of e^{is mu + it nu}."""
    _require_finite(s=s, t=t)
    thetas = _finite_thetas(thetas)
    n = fs.n
    rt = math.sqrt(n)
    out = np.zeros(np.shape(thetas), dtype=np.complex128)
    for k in fs:
        z = fq.sum_values(FrequencySet((k,)), thetas)
        c, sn = z.real, z.imag
        out += (s * s - t * t) * (c * c - sn * sn) / (4.0 * n)
        out += _w_vec(s * sn / rt)
        out += _w_vec(t * c / rt)
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
    _require_finite(s=s, t=t)
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
    _require_finite(s=s, t=t)
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
    _require_finite(s=s, t=t)
    ss = s * s + t * t
    try:
        return (
            math.expm1((abs(s) ** 3 + abs(t) ** 3) / math.sqrt(n))
            + math.expm1(ss / n**0.25)
            + math.exp(ss) / n
        )
    except OverflowError:  # a term past the float range: the bound is vacuous
        return math.inf


@dataclass(frozen=True)
class GaussianSpec:
    """Centered 2-D normal with covariance diag(sigma2, sigma2)."""

    sigma2: float

    def __post_init__(self):
        if not 0 <= self.sigma2 < math.inf:
            raise DomainError(f"sigma2 must be finite and >= 0, got {self.sigma2!r}")


def gaussian_abs_mean(g: GaussianSpec | float) -> float:
    """E|Z| = sqrt(pi sigma^2 / 2) for Z ~ N(0, diag(sigma^2, sigma^2))."""
    sigma2 = g.sigma2 if isinstance(g, GaussianSpec) else GaussianSpec(float(g)).sigma2
    return math.sqrt(math.pi * sigma2 / 2.0)


def _truncated_abs_mean(sigma2: float, radius: float) -> float:
    """E|Z| 1{|Z| <= radius} for Z ~ N(0, diag(sigma^2, sigma^2)), sigma2 > 0.

    |Z| is Rayleigh with scale sigma; with a = radius / sigma the integral
    is sigma (sqrt(pi/2) erf(a/sqrt 2) - a e^{-a^2/2}).
    """
    sigma = math.sqrt(sigma2)
    a = radius / sigma
    return sigma * (math.sqrt(math.pi / 2.0) * math.erf(a / math.sqrt(2.0)) - a * math.exp(-a * a / 2.0))


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
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not 0 <= self.integral_term < math.inf:
            raise DomainError(f"integral_term must be finite and >= 0, got {self.integral_term!r}")


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

@dataclass(frozen=True)
class CharFnPoint:
    s: float
    t: float
    phi: complex
    std_error: float
    gaussian: float  # the limit value e^{-(s^2+t^2)/4}


def default_phi_grid() -> list[tuple[float, float]]:
    return [(s, t) for s in DEFAULT_PHI_AXIS for t in DEFAULT_PHI_AXIS]


def _phase_rows(x: np.ndarray) -> np.ndarray:
    """e^{iax} for each a in _PHI_ABS, one row each; the row for a = 0 is exactly 1.

    The row for a = 1/2 is cos(x/2) + i sin(x/2) from libm, written into the
    row's real and imaginary parts; the rows for a = 1 and 2 are each the
    square of the row before. The rounded x/2 doubles exactly to x, and each
    square at most doubles the error of its input, so every row is within
    ~8 ulp of e^{iax}.
    """
    rows = np.empty((len(_PHI_ABS), x.size), dtype=np.complex128)
    rows[0].fill(1.0)
    half = rows[1]
    np.multiply(0.5, x, out=half.real)
    np.sin(half.real, out=half.imag)
    np.cos(half.real, out=half.real)
    np.square(half, out=rows[2])
    np.square(rows[2], out=rows[3])
    return rows


def _chain_audit(mc: McConfig, chain: tuple, item: tuple, x: np.ndarray, y: np.ndarray) -> list:
    """_moment_sums of |X+Z| (norms._abs) and of |X+Z| truncated, for one chunk.

    X = (x, y) is the chunk's (mu, nu); its Z comes from its own stream.
    chain is (radius, sigma2_z). The Gaussian side of the chain has closed
    forms and is not sampled (clt_report).
    """
    radius, sigma2_z = chain
    z = rng.chunk_gaussian_pairs(mc.seed, rng.STREAM_Z, *item, math.sqrt(sigma2_z))
    xz = _abs(x + z[:, 0], y + z[:, 1])
    return _moment_sums(xz, xz * (xz <= radius))


def ks_distance_to_normal(sample: np.ndarray, sigma2: float) -> float:
    """Exact one-sample Kolmogorov-Smirnov distance to N(0, sigma2).

    Phi(x) = erfc(-x / sqrt(2 sigma2)) / 2 is monotone, so once it is known at
    every _KS_KNOT_STEP-th sorted sample, the knot values bound every term in
    between. Phi is evaluated at the other samples only in the blocks whose
    bound comes within _KS_SLACK of the best knot term; the slack absorbs any
    ulp-level non-monotonicity of the computed erfc.
    """
    x = np.asarray(sample, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DomainError(f"sample must be one-dimensional and nonempty, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError("sample must be finite")
    if not 0 < sigma2 < math.inf:
        raise DomainError(f"sigma2 must be positive and finite, got {sigma2!r}")
    return _ks_sorted(np.sort(x), sigma2)


def _ks_sorted(x: np.ndarray, sigma2: float) -> float:
    """ks_distance_to_normal of an ascending, finite, nonempty float64 x."""
    n, scale = x.size, math.sqrt(2.0 * sigma2)

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
    """Every expectation in the closing inequality chain, with its standard error.

    X is the sampled (mu, nu) pair, Y the diag(1/2,1/2) Gaussian, Z the
    independent smoothing Gaussian with per-coordinate variance
    (log n)^{-1/8}; truncation cuts at radius (log n)^{1/4}. The X side is
    Monte Carlo. The Gaussian side is exact, with std_error 0.0: Y + Z and Z
    are centered isotropic Gaussians with variances 1/2 + sigma2_z and
    sigma2_z per coordinate, so their radii are Rayleigh.
    """

    truncation_radius: float
    sigma2_z: float
    e_abs_x: ValueWithError
    e_abs_xz: ValueWithError
    e_abs_xz_trunc: ValueWithError
    e_abs_yz: ValueWithError
    e_abs_yz_trunc: ValueWithError
    e_abs_z: ValueWithError

    def inequalities(self) -> list[dict]:
        """Each chain inequality as lhs >= rhs - _AUDIT_SIGMAS * combined std error.

        None can fail at any practical n: two compare a mean with its own
        truncation, and the triangle inequality holds by 0.59 against a slack
        of 0.011 at n = 16 (10^5 samples, seed 3). None compares e_abs_xz_trunc
        with e_abs_yz_trunc, the step where the paper's CLT enters (ROADMAP item 3).
        """
        def check(name, lhs, rhs, *errs):
            slack = _AUDIT_SIGMAS * math.sqrt(sum(e * e for e in errs))
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


def _ks_in_place(sample: np.ndarray) -> float:
    """KS distance of the report's own mu or nu to N(0, 1/2); sorts sample in place."""
    sample.sort()
    return _ks_sorted(sample, 0.5)


def clt_report(fs: FrequencySet, mc: McConfig, with_chain_audit: bool = False) -> CltReport:
    """Empirical (mu, nu) statistics against the Gaussian targets, from one chunked pass.

    Each chunk that norms._mc_mean draws returns one sum vector: the
    _moment_sums of |S| (norms._abs, as in l1_monte_carlo, so the radial
    mean is sum |S| / N / sqrt(n)), mu, nu, mu nu and, with the chain audit,
    the _chain_audit sums; then A B^T and A conj(B)^T, where A and B hold
    e^{i|s| mu} and e^{i|t| nu} for |s|, |t| in _PHI_ABS = 0, 1/2, 1, 2,
    the distinct |s| and |t| of default_phi_grid(): the _phase_rows of one
    libm cos/sin pair and two squares, built and multiplied _GRID_PIECE
    points at a time and added up over the chunk. Each per-sample quantity
    is summed as soon as it is made, so a chunk holds few arrays at once.
    _mc_mean sums the vectors in a fixed order, so the result does not
    depend on the worker count. Negative s follows from phi(-s, t) = conj phi(s, -t); as
    |e^{ix}| = 1, the ddof=1 variances of Re and Im add up to
    N (1 - |phi|^2) / (N - 1).

    mu and nu are kept at full length, 16 bytes a sample, capped at
    _MAX_KEPT_SAMPLES before any draw. Their KS distances are taken on the
    worker pool, one each, each sorting the report's own array in place.
    """
    count, rt = mc.samples, math.sqrt(fs.n)
    if with_chain_audit and fs.n < 2:
        raise DomainError("the chain audit needs n >= 2 (log n must be positive)")
    if count > _MAX_KEPT_SAMPLES:
        raise CapacityExceeded(
            f"{count} samples of mu and nu would hold {16 * count} bytes; "
            f"the kept-sample cap is {_MAX_KEPT_SAMPLES} samples"
        )
    chain = (math.log(fs.n) ** 0.25, math.log(fs.n) ** -0.125) if with_chain_audit else None
    mu, nu = np.empty(count), np.empty(count)

    def sums(item, m):
        re, im = fq.sum_components_dyadic(fs, m)
        del m  # the draws are dead once S is evaluated; free them before the grid
        moments = _moment_sums(_abs(re, im))
        x, y = np.divide(im, rt, out=im), np.divide(re, rt, out=re)
        lo = item[0] * mc.chunk_size
        mu[lo : lo + item[1]], nu[lo : lo + item[1]] = x, y
        moments += _moment_sums(x, y, x * y)
        if chain:
            moments += _chain_audit(mc, chain, item, x, y)
        grid_sums = np.zeros((2, len(_PHI_ABS), len(_PHI_ABS)), dtype=np.complex128)
        for lo in range(0, x.size, _GRID_PIECE):
            a = _phase_rows(x[lo : lo + _GRID_PIECE])
            b = _phase_rows(y[lo : lo + _GRID_PIECE])
            grid_sums[0] += a @ b.T
            grid_sums[1] += a @ np.conjugate(b, out=b).T  # in place: no copy of B
        return np.concatenate([moments, grid_sums.ravel()])

    total = _mc_mean(mc, sums)
    k = total.size - 2 * len(_PHI_ABS) ** 2
    plus, minus = total[k:].reshape(2, len(_PHI_ABS), len(_PHI_ABS)) / count
    points = []
    for s, t in default_phi_grid():
        phi, se = complex(1.0), 0.0
        if s or t:
            phi = complex((plus if (s < 0) == (t < 0) else minus)[_PHI_ABS.index(abs(s)), _PHI_ABS.index(abs(t))])
            phi = phi.conjugate() if s < 0 else phi
            se = math.sqrt(max(1.0 - abs(phi) ** 2, 0.0) / (count - 1)) if count > 1 else math.nan
        points.append(CharFnPoint(s, t, phi, se, math.exp(-(s * s + t * t) / 4.0)))
    moments = total[:k].real.reshape(-1, 2)
    est = [ValueWithError(*_mean_and_error(s1, s2, count)) for s1, s2 in moments]
    radial = ValueWithError(est[0].value / rt, est[0].std_error / rt)
    (s_mu, s_mumu), (s_nu, s_nunu), (s_munu, _) = moments[1:4]
    gram = np.array([[s_mumu, s_munu], [s_munu, s_nunu]])
    gram -= np.outer([s_mu, s_nu], [s_mu, s_nu]) / count
    ks_mu, ks_nu = _map_chunks(_ks_in_place, [mu, nu])
    audit = None
    if chain:
        radius, sigma2_z = chain
        exact = (gaussian_abs_mean(0.5 + sigma2_z), _truncated_abs_mean(0.5 + sigma2_z, radius),
                 gaussian_abs_mean(sigma2_z))
        audit = FinalChainAudit(*chain, radial, *est[4:], *(ValueWithError(v, 0.0) for v in exact))
    return CltReport(
        n=fs.n,
        samples=count,
        seed=mc.seed,
        radial_mean=radial.value,
        radial_std_error=radial.std_error,
        ks_mu=ks_mu,
        ks_nu=ks_nu,
        cov_hat=(gram / (count - 1) if count > 1 else np.full((2, 2), math.nan)).tolist(),
        phi_grid=points,
        chain_audit=audit,
    )
