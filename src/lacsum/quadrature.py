"""Adaptive composite Gauss-Legendre quadrature of |S| on [0,1].

There is one rule: 8-point Gauss-Legendre on 8 first-level panels per unit
of the highest harmonic k_max (64 nodes per period). It refines many
integrands at once, level by level, each level in one integrand call;
integrate_abs_adaptive is the rule with one. |S| has kinks at the
zeros of S, so any panel that might contain a zero is bisected, to a fixed
depth. A coarser first level saves nothing: at one panel per harmonic,
lipschitz * width >= 2 pi > n >= max |S| for n <= 6, so every panel fails
the kink test and is split anyway; 8 to 128 points per period agree to 2e-15.

The rule accepts k_max <= MAX_HARMONIC = 2^21, i.e. up to 2^27 first-level
nodes; above it, FrequencyTooLarge sends callers to Monte Carlo. The limit
bounds time; blocks and the depth limit bound memory. L2 and L4 norms need
no quadrature: they are exact (see norms.lp_norm_quadrature).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import FrequencyTooLarge

_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)
_X01 = (_GL_X + 1.0) / 2.0  # nodes on [0,1]
_W01 = _GL_W / 2.0

MAX_HARMONIC = 1 << 21
_PANELS_PER_HARMONIC = 8

# Bisections of a first-level panel before a still-suspect panel is accepted.
# Near a zero of order m >= 2 the suspect set grows as width^(1/m - 1), so a
# depth relative to the first level, not an absolute width, bounds it.
_MAX_DEPTH = 20

# First-level panels of one integrand refined together, to bound peak memory:
# 2^17 panels are 2^20 nodes, and the rule on |S| for {1, 3, 2^17} peaks at
# 70 MB of arrays.
_BLOCK_PANELS = 1 << 17

# Panels of many integrands refined together: a level above this many is
# split between its owners (never within one), so several double zeros
# (~10^4 panels each at depth) are not refined in one level. 2^12 panels are
# 2^15 nodes, the kernel's block; exhaustive_sigma(4, 14) and (5, 16) ran
# 25-40% slower at 2^14, where the arrays of a level no longer stay in cache.
GROUP_PANELS = 1 << 12

# Offsets of a panel's two halves, in half widths.
_HALVES = np.array([0.0, 1.0])


def panel_count(max_harmonic: int) -> int:
    """First-level panels for a given highest harmonic; raises above MAX_HARMONIC."""
    if max_harmonic > MAX_HARMONIC:
        raise FrequencyTooLarge(
            f"harmonic {max_harmonic} exceeds the quadrature limit {MAX_HARMONIC}; "
            "use Monte Carlo instead"
        )
    return _PANELS_PER_HARMONIC * max_harmonic


def integrate_abs_adaptive(
    absfn: Callable[[np.ndarray], np.ndarray],
    lipschitz: float,
    max_harmonic: int,
) -> tuple[float, float]:
    """(integral, bound) of a nonnegative lipschitz-Lipschitz function with kinks at its zeros.

    The rule of integrate_abs_many with one owner: its first level goes in
    blocks of _BLOCK_PANELS panels, each refined before the next is evaluated.
    """
    return integrate_abs_many(lambda nodes, owners, counts: absfn(nodes), [lipschitz], [max_harmonic])[0]


def integrate_abs_many(
    absfn: Callable[[np.ndarray, list, list], np.ndarray],
    lipschitz: Sequence[float],
    max_harmonics: Sequence[int],
) -> list[tuple[float, float]]:
    """(integral, bound) for each of many owners, as integrate_abs_adaptive gives it alone.

    Owner o is a nonnegative lipschitz[o]-Lipschitz function with kinks at
    its zeros and highest harmonic max_harmonics[o]. absfn(nodes, owners,
    counts) returns the values at nodes, which come 8 a panel in runs:
    counts[i] consecutive panels of owner owners[i], owners ascending.

    A panel is accepted once its node minimum exceeds lipschitz * width
    (so the panel cannot reach zero), else bisected; at depth _MAX_DEPTH it
    is accepted anyway, within lipschitz * width^2, and bound sums those.
    Panels that passed the kink test are not in bound: the rule is accurate
    to <= 2.2e-15 on every closed form tested.

    No level holds more than GROUP_PANELS panels of several owners: the
    first level goes in each owner's blocks of _BLOCK_PANELS panels, packed
    into runs of consecutive blocks within GROUP_PANELS (a larger block
    alone), and a deeper level above GROUP_PANELS is split between its
    owners, never within one. Each run is refined depth first before the
    next is evaluated. An owner's panels are weighed, summed and counted apart from
    the others', in the order it would see alone, so its result does not
    depend on its company, bit for bit.
    """
    lips = [float(lip) for lip in lipschitz]
    npanels = [panel_count(k) for k in max_harmonics]
    totals, bounds = [0.0] * len(npanels), [0.0] * len(npanels)
    for first in _first_levels(npanels, lips):
        # a level holds counts[i] consecutive panels of owners[i], of width
        # widths[i] and kink threshold lip_widths[i] = lips[owners[i]] *
        # widths[i]; depth first, the pending levels hold no more panels
        # than the one split
        pending = [first]
        while pending:
            lefts, owners, counts, widths, lip_widths, depth = pending.pop()
            nodes = (lefts[:, None] + _per_panel(widths, counts) * _X01).ravel()
            vals = absfn(nodes, owners, counts).reshape(-1, 8)
            del nodes
            # the kink test: some node of the panel is below its threshold; a
            # panel's 8 comparisons are the 8 bytes of one uint64
            suspect = (vals < _per_panel(lip_widths, counts)).view(np.uint64)[:, 0] != 0
            next_owners, kept, halves, lip_halves, hi = [], [], [], [], 0
            for o, w, lw, c in zip(owners, widths, lip_widths, counts):
                lo, hi = hi, hi + c
                part = suspect[lo:hi]
                if depth == _MAX_DEPTH:
                    bounds[o] += np.count_nonzero(part) * lips[o] * w * w
                    part[:] = False
                # each owner's own slice through matmul and sum: their results
                # depend on the array's length (BLAS tails, pairwise summation)
                totals[o] += float((w * (vals[lo:hi] @ _W01))[~part].sum())
                k = np.count_nonzero(part)
                if k:
                    next_owners.append(o)
                    kept.append(k)
                    halves.append(w / 2.0)
                    lip_halves.append(lw / 2.0)  # lip * (w / 2): halving is exact
            del vals  # freed before the next level is evaluated
            if next_owners:
                lefts = (lefts[suspect][:, None] + _per_panel(halves, kept) * _HALVES).ravel()
                level = (lefts, next_owners, [2 * k for k in kept], halves, lip_halves, depth + 1)
                if lefts.size > GROUP_PANELS:
                    pending += reversed(_split(*level))
                else:
                    pending.append(level)
    return list(zip(totals, bounds))


def _first_levels(npanels: list, lips: list):
    """The first level as (lefts, owners, counts, widths, lip_widths, 0): each owner's panels in
    blocks of _BLOCK_PANELS, consecutive blocks in _runs."""
    blocks = [
        (o, start, min(start + _BLOCK_PANELS, count))
        for o, count in enumerate(npanels)
        for start in range(0, count, _BLOCK_PANELS)
    ]
    for a, b in _runs([end - start for _, start, end in blocks]):
        lefts = [np.arange(start, end, dtype=np.float64) / npanels[o] for o, start, end in blocks[a:b]]
        owners = [o for o, _, _ in blocks[a:b]]
        widths = [1.0 / npanels[o] for o in owners]
        counts = [end - start for _, start, end in blocks[a:b]]
        yield np.concatenate(lefts), owners, counts, widths, [lips[o] * w for o, w in zip(owners, widths)], 0


def _split(lefts, owners, counts, widths, lip_widths, depth) -> list:
    """The level as its _runs, one level each."""
    starts = np.cumsum([0] + counts).tolist()
    return [
        (lefts[starts[a] : starts[b]], owners[a:b], counts[a:b], widths[a:b], lip_widths[a:b], depth)
        for a, b in _runs(counts)
    ]


def _runs(counts: list):
    """(a, b) index ranges of consecutive counts that sum to at most GROUP_PANELS, a larger count alone."""
    a = size = 0
    for b, c in enumerate(counts):
        if b > a and size + c > GROUP_PANELS:
            yield a, b
            a, size = b, 0
        size += c
    if counts:
        yield a, len(counts)


def _per_panel(values: list, counts: list):
    """One value per owner as a column of one per panel; a single owner's value stays a scalar, which broadcasts."""
    return values[0] if len(values) == 1 else np.repeat(values, counts)[:, None]
