"""The dyadic kernel: bulk evaluation of S(theta) = sum_j e^{2 pi i k_j theta} with numpy.

Every bulk evaluation (Monte Carlo, quadrature, the alpha/beta products)
goes through one kernel, which takes each phase as an exact 64-bit fraction
and e^{2 pi i phase} from a table; only this module builds its multipliers,
one uint64 per frequency. The kernel has two paths with the same bits. A
call of up to _SMALL_TERMS = 2^12 terms (frequencies x points), such as
most L1 levels of the search, takes every frequency in one numpy pass per
step on (n, P) arrays; a larger call, such as every Monte Carlo chunk,
loops over the frequencies in blocks of points. sum_components_dyadic
evaluates one set at Monte Carlo draws, and sum_values one set at float
theta (the L1 quadrature nodes). The frequency-set type and the scalar
libm reference, sets.evaluate_sum, live in sets, which imports no numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .sets import FrequencySet


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

# Terms (frequencies x points) up to which a call takes every frequency in
# one pass (_add_unit_roots_small). Its fresh (n, P) arrays take ~0.4 MB at
# 2^12 terms. From ~5 000 terms on, a process whose heap glibc trims after
# every call page-faults them in again each time, and the pass measured 2x
# slower than the block loop at 5 000 to 9 000 terms; below 4 500 it was
# faster in every heap state tried.
_SMALL_TERMS = 1 << 12


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


def _multipliers(freqs: tuple, factor: int) -> np.ndarray:
    """factor k mod 2^64 for each k of freqs, as a uint64 array for _add_unit_roots."""
    return np.array([factor * k % 2**64 for k in freqs], dtype=np.uint64)


def _add_unit_roots(mults: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """out += sum_k e^{2 pi i w_k / 2^64}, out complex128 and shaped like m.

    w_k = mult_k m wraps in uint64. Both paths give the same bits; which is
    faster depends on the number of terms, frequencies x points.
    """
    if mults.size * m.size <= _SMALL_TERMS:
        _add_unit_roots_small(mults, m, out)
    else:
        _add_unit_roots_blocks(mults, m, out)


def _add_unit_roots_blocks(mults: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """_add_unit_roots frequency by frequency over _BLOCK-point blocks of m.

    The blocks share one work buffer; within a block the frequencies are
    added in order, as a per-frequency loop over all of m would.
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


def _add_unit_roots_small(mults: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """_add_unit_roots with every frequency at once: one numpy pass per step on (n, P) arrays.

    Each term takes the block loop's IEEE operations, complex products
    included, and the rows go into out in frequency order, so the sums keep
    the block loop's bits.
    """
    w = np.multiply.outer(mults, m)
    top = np.right_shift(w, _LOW_BITS).view(np.int64)
    np.bitwise_and(w, _LOW_MASK, out=w)
    x = w.view(np.int64).astype(np.float64)
    x2 = x * x
    i_sin_r = np.zeros(w.shape, dtype=np.complex128)
    i_sin_r.imag = (x2 * _S3 + _S1) * x
    cos_r1 = np.zeros(w.shape, dtype=np.complex128)
    cos_r1.real = (x2 * _C4 + _C2) * x2
    term = _TABLE[top]
    cos_r1 *= term
    t = term * i_sin_r
    t += cos_r1
    t += term
    for row in t:
        out += row


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
