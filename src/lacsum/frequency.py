"""Frequency sets and evaluation of the exponential sum S(theta) = sum_j e^{2 pi i k_j theta}.

Frequencies are strictly increasing positive integers bounded by 64 bits.
Phase reduction k*theta mod 1 is done exactly: a float theta is a dyadic
rational, so the reduction is integer arithmetic followed by one rounding.
This matters because frequencies reach 8^21 ~ 9.2e18, where naive
double-precision products lose all phase information.

Every bulk evaluation (Monte Carlo, quadrature, the alpha/beta products)
goes through one kernel, which takes each phase as an exact 64-bit fraction
and e^{2 pi i phase} from a table; only this module builds its multipliers,
one uint64 scalar per frequency. sum_components_dyadic evaluates one set at
Monte Carlo draws, and sum_values one set at float theta (the L1 quadrature
nodes). evaluate_sum is the scalar libm reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DomainError

U64_MAX = 2**64 - 1


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


def _as_int(value) -> int:
    """value as a Python int, for Python and numpy integers only (not bool)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"frequency {value!r} is not an integer")


def make_frequency_set(values: Iterable[int]) -> FrequencySet:
    """The FrequencySet of integer values in any order; non-integers raise DomainError."""
    return FrequencySet(tuple(sorted(_as_int(v) for v in values)))


def lacunary_set(q: int, n: int) -> FrequencySet:
    """The geometric set {q, q^2, ..., q^n}."""
    if q < 2:
        raise DomainError("lacunary base q must be >= 2")
    if n < 1:
        raise DomainError("n must be >= 1")
    if n >= 64 or q**n > U64_MAX:  # q >= 2, so n >= 64 is out of range: skip the huge power
        raise DomainError(f"{q}^{n} exceeds the 64-bit frequency range")
    return FrequencySet(tuple(q**j for j in range(1, n + 1)))


def canonicalize(fs: FrequencySet) -> FrequencySet:
    """Shift the minimum to 1, then divide the differences by their gcd; fs itself if already so.

    |S| at theta of a*k + b is |S| at a*theta of k, so every L^p norm is
    the canonical set's.
    """
    base = fs.freqs[0]
    g = math.gcd(*(k - base for k in fs.freqs[1:]))  # 0 for a singleton
    if base == 1 and g <= 1:
        return fs
    return FrequencySet(tuple(1 + (k - base) // (g or 1) for k in fs.freqs))


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
    return (k * num) % den / den


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


# ---------------------------------------------------------------------------
# Dyadic bulk paths
#
# theta = m / 2^63 with m a 63-bit integer (Monte Carlo), so k*theta mod 1 is
# exactly the 64-bit fraction w / 2^64 with w = (2k mod 2^64) * m, the
# wrapping uint64 product; sum_values takes theta = m / 2^64 and factor 1.
# e^{2 pi i w / 2^64} is taken from w without libm (Tang, ARITH 1991): the
# top _TABLE_BITS bits of w index a table of e^{2 pi i j / 2^B}, the low
# bits x give r = 2 pi x / 2^64 < 2 pi / 2^B, short Taylor polynomials give
# sin r and cos r, and one complex multiply-add joins the two. Only IEEE +
# and x and a gather touch the data, so the sums depend on the platform's
# cos and sin only through the 1 025 first-octant entries of the table, and
# not on fused multiply-adds (see _unit_roots and _add_unit_roots).
# Each term is within ~2e-16 of e^{2 pi i k theta}.
# ---------------------------------------------------------------------------

_TABLE_BITS = 13
_LOW_BITS = np.uint64(64 - _TABLE_BITS)
_LOW_MASK = np.uint64(2 ** (64 - _TABLE_BITS) - 1)

# Polynomials in the exact float x < 2^51: sin r = x (S1 + x^2 S3) and
# cos r - 1 = x^2 (C2 + x^2 C4) with r = S1 x < 7.7e-4; the first omitted
# terms, r^5/120 and r^6/720, are below 3e-18.
_S1 = 2.0 * math.pi / 2.0**64
_S3 = -(_S1**3) / 6.0
_C2 = -(_S1**2) / 2.0
_C4 = _S1**4 / 24.0

# Points per block. Each numpy call holds the GIL for ~1.34 us of dispatch
# around its loop, so with 2^14 points ~11% of every call is serial and a
# second worker thread spends its time passing the GIL back and forth;
# 2^15 halves the calls per point and frequency. The block's four complex
# work rows take 64 bytes per point, 2 MB at 2^15, which fills a core's
# 2 MB L2 cache; 2^16 spills it and measured no faster.
_BLOCK = 1 << 15


def _unit_roots(bits: int) -> np.ndarray:
    """e^{2 pi i j / 2^bits} for every j < 2^bits.

    math.cos and math.sin are taken on the first octant only, where the
    rounded angle pi j / 2^(bits-1) <= pi/4 is most accurate; the other
    entries follow by exact swaps and sign changes. The parts are set one
    by one, as a product with 1j would lose the signed zeros.
    """
    eighth = 1 << (bits - 3)
    ang = [math.pi * j / (1 << (bits - 1)) for j in range(eighth + 1)]
    c, s = np.array([math.cos(a) for a in ang]), np.array([math.sin(a) for a in ang])
    qc = np.concatenate([c, s[-2:0:-1]])  # cos 2 pi j / 2^bits = sin 2 pi (2^bits/4 - j) / 2^bits
    qs = np.concatenate([s, c[-2:0:-1]])
    table = np.empty(1 << bits, dtype=np.complex128)
    table.real, table.imag = np.concatenate([qc, -qs, -qc, qs]), np.concatenate([qs, qc, -qs, -qc])
    return table


_TABLE = _unit_roots(_TABLE_BITS)
_TABLE_PARTS = _TABLE.view(np.float64).reshape(-1, 2)


def _multipliers(freqs: tuple, factor: int) -> tuple:
    """factor k mod 2^64 for each k of freqs, as uint64 scalars for _add_unit_roots."""
    return tuple(np.uint64(factor * k % 2**64) for k in freqs)


def _add_unit_roots(mults, m: np.ndarray, out: np.ndarray) -> None:
    """out += sum_k e^{2 pi i w_k / 2^64}, out complex128 and shaped like m.

    w_k = mult_k m wraps in uint64, each multiplier a uint64 scalar. m is
    split into _BLOCK-point blocks that share one work buffer; within a
    block the frequencies are added in order, as a per-frequency loop over
    all of m would.
    """
    rows = np.empty((4, min(_BLOCK, m.size)), dtype=np.complex128)
    rows[1] = 0  # i sin r: only its imaginary part is ever written
    for lo in range(0, m.size, _BLOCK):
        n = min(_BLOCK, m.size - lo)
        cos_r1, i_sin_r, term, t = rows[:, :n]
        # the float work lives in rows not yet in use: w (then x^2) and top
        # in t, x and the polynomials in term
        w, top = t.view(np.uint64)[:n], t.view(np.int64)[n:]
        top_u, x2 = top.view(np.uint64), w.view(np.float64)  # top < 2^B reads the same as int64
        x, poly = term.view(np.float64)[:n], term.view(np.float64)[n:]
        term_parts, w_signed = term.view(np.float64).reshape(n, 2), w.view(np.int64)
        for mult in mults:
            np.multiply(m[lo : lo + n], mult, out=w)
            np.right_shift(w, _LOW_BITS, out=top_u)
            np.bitwise_and(w, _LOW_MASK, out=w)
            x[...] = w_signed  # < 2^51: exact, and int64 converts faster than uint64
            np.square(x, out=x2)
            np.multiply(x2, _S3, out=poly)
            poly += _S1
            np.multiply(poly, x, out=i_sin_r.imag)
            np.multiply(x2, _C4, out=poly)
            poly += _C2
            np.multiply(poly, x2, out=cos_r1)  # (cos r - 1) + 0i
            # e^{ia} as (re, im) rows of floats: half the time of the complex
            # gather. The indices are in range, so mode="wrap" never wraps; it
            # spares numpy a copy of out and measured faster than "clip"
            np.take(_TABLE_PARTS, top, axis=0, out=term_parts, mode="wrap")
            # e^{i(a + r)} = e^{ia} + (e^{ia} (cos r - 1) + e^{ia} i sin r): one
            # part of each factor is 0, so every product rounds once, fused
            # multiply-add or not. The correction is small, so only the last
            # addition rounds at the size of the term.
            cos_r1 *= term
            np.multiply(term, i_sin_r, out=t)
            t += cos_r1
            t += term
            out[lo : lo + n] += t


def sum_components_dyadic(
    fs: FrequencySet, m: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(Re S, Im S) at theta = m/2^63, vectorized over m (uint64); theta is taken mod 1.

    Given out (complex128, C-contiguous, shaped like m), S is added into it,
    and its real and imaginary views are returned; any other out raises
    ValueError, as S could not be added in place. The frequencies are added
    one at a time in order, so adding {k_1..k_a} and then {k_a+1..k_n} gives,
    bit for bit, the sums of {k_1..k_n}.
    """
    if out is None:
        out = np.zeros(m.shape, dtype=np.complex128)
    elif out.dtype != np.complex128 or out.shape != m.shape or not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous complex128 array shaped like m")
    _add_unit_roots(_multipliers(fs.freqs, 2), m.reshape(-1), out.reshape(-1))
    return out.real, out.imag


def sum_values(fs: FrequencySet, thetas) -> np.ndarray:
    """S(theta) vectorized over a float array of any shape; theta is taken mod 1.

    theta mod 1 becomes m / 2^64 with m = floor((theta mod 1) 2^64), which
    is exact for theta mod 1 >= 2^-11; a smaller theta moves by less than
    2^-64, so its phase k theta by less than k 2^-64 turns. The dyadic kernel
    then takes every phase k m mod 2^64 exactly.
    """
    th = np.asarray(thetas, dtype=np.float64)
    flat = th.reshape(-1)
    # theta - floor(theta) is np.mod(theta, 1.0) bit for bit: both round the
    # exact fraction once. np.mod goes through libm fmod at ~20 ns a point.
    frac = np.floor(flat)
    np.subtract(flat, frac, out=frac)
    np.ldexp(frac, 64, out=frac)
    frac[frac == 2.0**64] = 0.0  # a tiny negative theta rounds to 1 mod 1
    m = frac.astype(np.uint64)
    del frac
    out = np.zeros(m.size, dtype=np.complex128)
    _add_unit_roots(_multipliers(fs.freqs, 1), m, out)
    return out.reshape(th.shape)
