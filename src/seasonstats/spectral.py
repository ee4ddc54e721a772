"""Discrete Fourier analysis of monthly count series.

The transform is the plain unnormalized forward DFT of the chronological
series; only the positive-frequency half-spectrum is reported and the DC
term is excluded, so peaks describe periodic structure rather than the
series total.

It is computed with a mixed-radix Cooley-Tukey FFT (Cooley and Tukey
1965). A series of T = 12 x years months factors into 2, 3 and the prime
factors of the year count, so the cost is O(T x sum of those primes)
instead of the O(T^2) of the direct sum. The recursion of that
factorization is run level by level, from the single samples up to length
T: each level combines all of its sub-transforms at once, one list
comprehension per radix term, in the order of the plain per-bin sum, so
the magnitudes equal that form's bit for bit. The top level computes only
bins 0 .. T/2. Every term is a sample or a product with a table entry, so
a transform of zeros stays exactly zero: an impulse gives exactly equal
magnitudes, and the tie rule of `top_peaks` sees exact ties.

The tables a length needs (the roots of unity, the sample order and the
levels) do not depend on the series, so they are built once per length
and kept for the last eight lengths used (`_plan`). Each level builds its
rotations from the roots on every transform, so a length keeps O(T)
memory whatever its factors.
"""
from __future__ import annotations

import cmath
import math
from functools import lru_cache
from operator import index, itemgetter
from typing import NamedTuple, Sequence


class SpectralPeak(NamedTuple):
    frequency: float  # cycles per month
    period: float  # months, 1 / frequency
    amplitude: float


class _Level(NamedTuple):
    radix: int  # p: the level combines p sub-transforms into each of its own
    blocks: int  # S: the number of transforms the level produces
    length: int  # n = T / S, the length of each
    bins: int  # the bins computed of each: n, or 0 .. T/2 at the top


def _smallest_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _repeat_each(values: Sequence, times: int) -> list:
    """values with each entry repeated `times` times in a row."""
    out = [None] * (len(values) * times)
    for j in range(times):
        out[j::times] = values
    return out


def _rotation(twiddle: list, r: int, level: _Level) -> list:
    """The factor of sub-transform r at each position of the level's array:
    exp(-2 pi i r k / n) = twiddle[(r k mod n) S] for bin k, S times in a row."""
    n, blocks = level.length, level.blocks
    return _repeat_each([twiddle[r * k % n * blocks] for k in range(level.bins)], blocks)


@lru_cache(maxsize=8)
def _plan(T: int) -> tuple:
    """(sample order, roots of unity, levels from the bottom up) of a length-T transform.

    With p_1, p_2, ... the prime factors of T, smallest first, the level
    of radix p_l turns S_l = p_1 ... p_(l-1) transforms of length n = T/S_l
    out of the S_l p_l of length n/p_l below it: the transform of x[s::S_l]
    is X_s[k] = sum_r exp(-2 pi i r k / n) Y_(s + S_l r)[k mod n/p_l], r from
    0 to p_l - 1, with Y the transforms below. A level's array holds bin k
    of transform s at k S_l + s', where s' is s with its digits r_1, r_2, ...
    in reverse order. So the sub-transforms of term r are the level below
    read from r in steps of p_l, repeated p_l times, and the samples start
    in the digit-reversed order; rotation r holds exp(-2 pi i r k / n) at
    every position of bin k.
    """
    twiddle = [cmath.exp(-2j * math.pi * j / T) for j in range(T)]
    factors = []
    n = T
    while n > 1:
        factors.append(_smallest_factor(n))
        n //= factors[-1]
    order = [0]
    for p in reversed(factors):
        order = [r + p * j for r in range(p) for j in order]
    levels = []
    blocks, n = 1, T
    for p in factors:
        # the top level needs bins 0 .. T/2 only
        levels.append(_Level(p, blocks, n, T // 2 + 1 if blocks == 1 else n))
        blocks *= p
        n //= p
    return itemgetter(*order), twiddle, tuple(reversed(levels))


def dft_magnitudes(x: Sequence[float]) -> tuple:
    """Magnitudes |X_k| at frequencies k/T for k = 1 .. T//2.

    X_k = sum_t x_t exp(-2 pi i k t / T), computed by a mixed-radix FFT
    from the tables `_plan` keeps for T; each level builds its rotations
    from the roots as it runs. A sample that is not finite, or a magnitude
    past the float range (such as that of [1e308, -1e308]), raises
    ValueError.
    """
    try:
        series = [float(v) for v in x]
    except OverflowError:  # an int past the float range
        raise ValueError("samples must lie within the float range") from None
    T = len(series)
    if T < 2:
        raise ValueError("need at least 2 samples")
    order, twiddle, levels = _plan(T)
    out = order(series)
    for level in levels:
        p, lower = level.radix, out
        # the r = 0 term is taken as it is: its factor is 1, and multiplying
        # by that or adding it to 0 could change only the sign of a zero,
        # which no magnitude sees
        out = lower[0::p] * p
        for r in range(1, p):
            out = [o + y * c for o, y, c in zip(out, lower[r::p] * p,
                                                _rotation(twiddle, r, level))]
    try:
        magnitudes = list(map(abs, out[1:T // 2 + 1]))
        if all(map(math.isfinite, magnitudes)):
            return tuple(zip([k / T for k in range(1, T // 2 + 1)], magnitudes))
    except OverflowError:  # abs of finite parts whose modulus is past the range
        pass
    # nan and inf propagate through every level, so a sample that is not
    # finite leaves no magnitude finite: when all are, one pass checks both
    if not all(map(math.isfinite, series)):
        raise ValueError("samples must be finite")
    raise ValueError("a spectral magnitude is past the float range")


def top_peaks(x: Sequence[float], k: int) -> list:
    """The k largest spectral peaks, ties broken toward lower frequency."""
    k = index(k)
    if k < 1:
        raise ValueError("need at least one peak")
    spectrum = dft_magnitudes(x)
    ranked = sorted(spectrum, key=lambda fm: (-fm[1], fm[0]))
    return [SpectralPeak(f, 1.0 / f, m) for f, m in ranked[:k]]
