"""Discrete Fourier analysis of monthly count series.

The transform is the plain unnormalized forward DFT of the chronological
series; only the positive-frequency half-spectrum is reported and the DC
term is excluded, so peaks describe periodic structure rather than the
series total.

It is computed with a recursive mixed-radix Cooley-Tukey FFT (Cooley and
Tukey 1965). A series of T = 12 x years months factors into 2, 3 and the
prime factors of the year count, so the cost is O(T x sum of those primes)
instead of the O(T^2) of the direct sum. A prime length falls back to the
direct sum. Every term is a product with a table entry, so a transform
of zeros stays exactly zero: an impulse gives exactly equal magnitudes,
and the tie rule of `top_peaks` sees exact ties.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Sequence


class SpectralPeak(NamedTuple):
    frequency: float  # cycles per month
    period: float  # months, 1 / frequency
    amplitude: float


def _smallest_factor(n: int) -> int:
    p = 2
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1
    return n


def _fft(x: list, twiddle: list) -> list:
    """Full DFT of x; len(x) divides len(twiddle) = N, twiddle[j] = exp(-2 pi i j / N).

    With p the smallest prime factor of n = len(x) and m = n / p, the p
    decimated series x[r::p] have DFTs Y_r of length m, and
    X_k = sum_r exp(-2 pi i r k / n) Y_r[k mod m].
    """
    n = len(x)
    stride = len(twiddle) // n  # exp(-2 pi i j / n) = twiddle[j * stride]
    w = twiddle[::stride]
    p = _smallest_factor(n)
    if p == n:
        return [sum(v * w[k * t % n] for t, v in enumerate(x)) for k in range(n)]
    m = n // p
    subs = [_fft(x[r::p], twiddle) for r in range(p)]
    return [sum(y[k % m] * w[r * k % n] for r, y in enumerate(subs)) for k in range(n)]


def dft_magnitudes(x: Sequence[float]) -> tuple:
    """Magnitudes |X_k| at frequencies k/T for k = 1 .. T//2.

    X_k = sum_t x_t exp(-2 pi i k t / T), computed by a mixed-radix FFT
    over one table of the T roots of unity.
    """
    series = [float(v) for v in x]
    T = len(series)
    if T < 2:
        raise ValueError("need at least 2 samples")
    twiddle = [cmath.exp(-2j * math.pi * j / T) for j in range(T)]
    spectrum = _fft(series, twiddle)
    return tuple((k / T, abs(spectrum[k])) for k in range(1, T // 2 + 1))


def top_peaks(x: Sequence[float], k: int) -> list:
    """The k largest spectral peaks, ties broken toward lower frequency."""
    if k < 1:
        raise ValueError("need at least one peak")
    spectrum = dft_magnitudes(x)
    ranked = sorted(spectrum, key=lambda fm: (-fm[1], fm[0]))
    return [SpectralPeak(f, 1.0 / f, m) for f, m in ranked[:k]]
