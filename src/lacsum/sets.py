"""Frequency sets and the scalar exponential sum S(theta) = sum_j e^{2 pi i k_j theta}.

Frequencies are strictly increasing positive integers bounded by 64 bits.
Phase reduction k*theta mod 1 is done exactly: a float theta is a dyadic
rational, so the reduction is integer arithmetic followed by one rounding.
This matters because frequencies reach 8^21 ~ 9.2e18, where naive
double-precision products lose all phase information.

This module imports no numpy, so the commands that only build a set or
evaluate S at one point (lacsum eval, lacsum sidon) start without it.
evaluate_sum is the scalar libm reference; the bulk evaluations live in
frequency, the dyadic kernel.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

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

    def __iter__(self):
        return iter(self.freqs)

    def __len__(self):
        return len(self.freqs)


def _as_int(value, name: str = "frequency") -> int:
    """value as a Python int, for Python and numpy integers only (not bool).

    Anything else raises DomainError, naming the argument as name.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} {value!r} is not an integer")


def make_frequency_set(values: Iterable[int]) -> FrequencySet:
    """The FrequencySet of integer values in any order; non-integers raise DomainError."""
    return FrequencySet(tuple(sorted(_as_int(v) for v in values)))


def lacunary_set(q: int, n: int) -> FrequencySet:
    """The geometric set {q, q^2, ..., q^n}; q and n are Python or numpy integers, not bool."""
    q, n = _as_int(q, "lacunary base q"), _as_int(n, "length n")
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
