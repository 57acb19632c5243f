"""Frequency sets and evaluation of the exponential sum S(theta) = sum_j e^{2 pi i k_j theta}.

Frequencies are strictly increasing positive integers bounded by 64 bits.
Phase reduction k*theta mod 1 is done exactly: a float theta is a dyadic
rational, so the reduction is integer arithmetic followed by one rounding.
This matters because frequencies reach 8^21 ~ 9.2e18, where naive
double-precision products lose all phase information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

U64_MAX = 2**64 - 1

_MASK63 = np.uint64(2**63 - 1)
_TWO_63 = 2**63
_PHASE_SCALE = 2.0 * math.pi / _TWO_63  # radians per dyadic unit


@dataclass(frozen=True)
class FrequencySet:
    """A sorted set of distinct positive integer frequencies."""

    freqs: tuple[int, ...]

    def __post_init__(self):
        if len(self.freqs) == 0:
            raise DomainError("frequency set must be nonempty")
        prev = 0
        for k in self.freqs:
            if not isinstance(k, int) or isinstance(k, bool):
                raise DomainError(f"frequency {k!r} is not an integer")
            if k < 1:
                raise DomainError(f"frequency {k} is not positive")
            if k > U64_MAX:
                raise DomainError(f"frequency {k} exceeds the 64-bit limit")
            if k == prev:
                raise DomainError(f"duplicate frequency {k}")
            if k < prev:
                raise DomainError("frequencies must be given strictly increasing after sorting")
            prev = k

    @property
    def n(self) -> int:
        return len(self.freqs)

    @property
    def k_max(self) -> int:
        return self.freqs[-1]

    @property
    def gap_ratio(self) -> float:
        """Smallest ratio k_{j+1}/k_j; inf for singletons."""
        if self.n == 1:
            return math.inf
        return min(b / a for a, b in zip(self.freqs, self.freqs[1:]))

    def __iter__(self):
        return iter(self.freqs)

    def __len__(self):
        return len(self.freqs)


@dataclass(frozen=True)
class MuNu:
    """Normalized sine and cosine sums at one point: mu = sinsum/sqrt(n), nu = cossum/sqrt(n)."""

    mu: float
    nu: float


def make_frequency_set(values: Iterable[int]) -> FrequencySet:
    vals = sorted(values)
    if not vals:
        raise DomainError("frequency set must be nonempty")
    for a, b in zip(vals, vals[1:]):
        if a == b:
            raise DomainError(f"duplicate frequency {a}")
    return FrequencySet(tuple(int(v) for v in vals))


def lacunary_set(q: int, n: int) -> FrequencySet:
    """The geometric set {q, q^2, ..., q^n}."""
    if q < 2:
        raise DomainError("lacunary base q must be >= 2")
    if n < 1:
        raise DomainError("n must be >= 1")
    if q**n > U64_MAX:
        raise DomainError(f"{q}^{n} exceeds the 64-bit frequency range")
    return FrequencySet(tuple(q**j for j in range(1, n + 1)))


def parse_freqs_file(path) -> FrequencySet:
    """One positive integer per line; '#' starts a comment."""
    values = []
    with open(path) as fh:
        for line in fh:
            body = line.split("#", 1)[0].strip()
            if body:
                values.append(int(body))
    return make_frequency_set(values)


def write_freqs_file(fs: FrequencySet, path) -> None:
    with open(path, "w") as fh:
        for k in fs:
            fh.write(f"{k}\n")


# ---------------------------------------------------------------------------
# Point evaluation (exact dyadic reduction)
# ---------------------------------------------------------------------------

def _frac_exact(k: int, theta: float) -> float:
    """(k * theta) mod 1, computed exactly in integer arithmetic then rounded once."""
    num, den = float(theta).as_integer_ratio()  # den is a power of two
    if den == 1:
        return 0.0
    r = (k * num) % den
    return r / den


def evaluate_sum(fs: FrequencySet, theta: float) -> complex:
    """S(theta) = sum_j e^{2 pi i k_j theta}; theta is taken mod 1."""
    if not math.isfinite(theta):
        raise DomainError("theta must be finite")
    re = 0.0
    im = 0.0
    for k in fs:
        phase = 2.0 * math.pi * _frac_exact(k, theta)
        re += math.cos(phase)
        im += math.sin(phase)
    return complex(re, im)


def evaluate_mu_nu(fs: FrequencySet, theta: float) -> MuNu:
    s = evaluate_sum(fs, theta)
    rt = math.sqrt(fs.n)
    return MuNu(mu=s.imag / rt, nu=s.real / rt)


def evaluate_batch(fs: FrequencySet, thetas: Sequence[float]) -> np.ndarray:
    """Elementwise evaluate_sum; bit-identical to mapping the scalar kernel."""
    return np.array([evaluate_sum(fs, float(t)) for t in thetas], dtype=np.complex128)


# ---------------------------------------------------------------------------
# Dyadic bulk paths (Monte Carlo internals)
#
# theta = m / 2^63 with m a 63-bit integer, so k*theta mod 1 is
# (k*m mod 2^63) / 2^63: the low 63 bits of the wrapping uint64 product.
# ---------------------------------------------------------------------------

def sum_components_dyadic(fs: FrequencySet, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re S, Im S) at theta = m/2^63, vectorized over m (uint64, 63-bit)."""
    re = np.zeros(m.shape, dtype=np.float64)
    im = np.zeros(m.shape, dtype=np.float64)
    for k in fs:
        km = (np.uint64(k) * m) & _MASK63
        ang = km.astype(np.float64) * _PHASE_SCALE
        re += np.cos(ang)
        im += np.sin(ang)
    return re, im


def cos_double_sum_dyadic(fs: FrequencySet, m: np.ndarray) -> np.ndarray:
    """sum_j cos(4 pi k_j theta) at theta = m/2^63 (the doubled-frequency cosine sum)."""
    out = np.zeros(m.shape, dtype=np.float64)
    for k in fs:
        km = (np.uint64(k) * m) & _MASK63
        km2 = (km + km) & _MASK63
        out += np.cos(km2.astype(np.float64) * _PHASE_SCALE)
    return out


# ---------------------------------------------------------------------------
# Float bulk path (quadrature internals)
#
# Dekker two-product reduction: exact residual of k*theta recovers the
# fractional part to ~2^-52 as long as k < 2^26 (guaranteed by the
# quadrature budget).
# ---------------------------------------------------------------------------

_SPLIT = 2.0**27 + 1.0


def _frac_mul(k: float, theta: np.ndarray) -> np.ndarray:
    p = k * theta
    kh = _SPLIT * k
    kh = kh - (kh - k)
    kl = k - kh
    th = _SPLIT * theta
    th = th - (th - theta)
    tl = theta - th
    err = ((kh * th - p) + kh * tl + kl * th) + kl * tl
    r = (p % 1.0) + err
    return r % 1.0


def sum_values(fs: FrequencySet, thetas: np.ndarray) -> np.ndarray:
    """S(theta) vectorized over a float array (k_max must be < 2^26)."""
    out = np.zeros(thetas.shape, dtype=np.complex128)
    for k in fs:
        ang = 2.0 * math.pi * _frac_mul(float(k), thetas)
        out += np.cos(ang) + 1j * np.sin(ang)
    return out

