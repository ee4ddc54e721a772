"""Discrete Fourier magnitudes and peak picking."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seasonstats import spectral
from seasonstats.spectral import _smallest_factor, dft_magnitudes, top_peaks

import refvalues as rv

series_strategy = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=96,
)
long_series_strategy = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=480,
)


def assert_matches_numpy(x):
    spectrum = dft_magnitudes(x)
    ref = np.abs(np.fft.fft(np.asarray(x)))
    assert len(spectrum) == len(x) // 2
    for k, (freq, mag) in enumerate(spectrum, start=1):
        assert freq == pytest.approx(k / len(x), abs=1e-15)
        assert mag == pytest.approx(ref[k], abs=1e-6 + 1e-9 * abs(ref[k]))


def _plain_sum(terms):
    # builtin sum adds complex numbers one by one from 0 up to Python 3.13
    # (3.14 compensates), which is the order the goldens were written in
    total = 0
    for term in terms:
        total = total + term
    return total


def _reference_fft(x, twiddle):
    """The FFT as one sum of a generator per output bin, the form whose
    results the goldens were written from."""
    n = len(x)
    w = twiddle[::len(twiddle) // n]
    p = _smallest_factor(n)
    if p == n:
        return [_plain_sum(v * w[k * t % n] for t, v in enumerate(x)) for k in range(n)]
    m = n // p
    subs = [_reference_fft(x[r::p], twiddle) for r in range(p)]
    return [_plain_sum(y[k % m] * w[r * k % n] for r, y in enumerate(subs)) for k in range(n)]


def _reference_magnitudes(x):
    T = len(x)
    twiddle = [cmath.exp(-2j * math.pi * j / T) for j in range(T)]
    spectrum = _reference_fft([float(v) for v in x], twiddle)
    return tuple((k / T, abs(spectrum[k])) for k in range(1, T // 2 + 1))


@pytest.mark.parametrize("T", [12 * y for y in range(1, 21)] + [2, 3, 5, 7, 11, 13, 31, 241])
def test_magnitudes_equal_per_bin_sum_reference(T):
    # batching a level's butterflies keeps each bin's additions in order, so
    # the magnitudes are bit-identical to the reference form, not just close
    rng = np.random.default_rng(T)
    series = [list(rng.integers(0, 500, T)), list(rng.integers(-1000, 1000, T))]
    for position in (0, T // 2, T - 1):
        impulse = [0] * T
        impulse[position] = int(rng.integers(1, 50))
        series.append(impulse)
    for x in series:
        assert dft_magnitudes(x) == _reference_magnitudes(x)


def _random_series(T):
    rng = np.random.default_rng(T)
    return [list(rng.integers(0, 500, T)), list(rng.uniform(-1e3, 1e3, T))]


def test_tables_kept_per_length_give_reference_magnitudes():
    # each length's first transform builds its tables, later ones reuse them;
    # 948 = 12 x 79 adds a radix-79 level
    spectral._plan.cache_clear()
    for T in (240, 36, 241, 240, 120, 948, 36, 241, 120, 948):
        for x in _random_series(T):
            assert dft_magnitudes(x) == _reference_magnitudes(x)
    assert spectral._plan.cache_info().misses == 5  # one build per length


@pytest.mark.parametrize("T", [2, 12, 36, 240, 241, 256])
def test_rotations_built_per_transform_give_reference_magnitudes(T):
    # every level builds its rotations from the kept roots on each transform
    spectral._plan.cache_clear()
    try:
        for x in _random_series(T):
            assert dft_magnitudes(x) == _reference_magnitudes(x)
    finally:
        spectral._plan.cache_clear()


def test_pure_tone_peak():
    # period-12 cosine over 36 months concentrates at frequency 3/36
    amp = 7.0
    x = [amp * math.cos(2 * math.pi * t / 12) for t in range(36)]
    peak = top_peaks(x, 1)[0]
    assert peak.frequency == pytest.approx(3 / 36)
    assert peak.period == pytest.approx(12.0)
    assert peak.amplitude == pytest.approx(amp * 36 / 2, rel=1e-9)


def test_impulse_is_flat_and_tie_breaks_low():
    # 36 and 240 take the FFT's mixed-radix path, the prime 241 its direct sum;
    # the magnitudes tie exactly, so the lowest frequencies rank first
    for T in (36, 240, 241):
        x = [0.0] * T
        x[0] = 1.0
        spectrum = dft_magnitudes(x)
        assert all(m == pytest.approx(1.0, abs=1e-12) for _, m in spectrum)
        peaks = top_peaks(x, 3)
        assert [p.frequency for p in peaks] == pytest.approx([1 / T, 2 / T, 3 / T])


def test_dc_component_excluded():
    x = [5.0] * 36  # constant series: all non-zero frequencies vanish
    spectrum = dft_magnitudes(x)
    assert len(spectrum) == 18
    assert all(f > 0 for f, _ in spectrum)
    assert all(m == pytest.approx(0.0, abs=1e-9) for _, m in spectrum)


def test_reference_series_spectra(jscs_matrices, ent_matrices):
    cases = {
        "jscs_submitted": jscs_matrices[0],
        "jscs_accepted": jscs_matrices[1],
        "ent_submitted": ent_matrices[0],
        "ent_accepted": ent_matrices[1],
    }
    for name, matrix in cases.items():
        peaks = top_peaks(matrix.series(), 2)
        for peak, (amp, freq) in zip(peaks, rv.T6_COMPUTED[name]):
            assert peak.amplitude == pytest.approx(amp, abs=5e-5)
            assert peak.frequency == pytest.approx(freq, abs=1e-12)


@settings(max_examples=40)
@given(long_series_strategy)
def test_magnitudes_match_numpy(x):
    assert_matches_numpy(x)


@pytest.mark.parametrize("T", [2, 3, 4, 5, 7, 12, 36, 60, 240, 241, 480, 1200])
def test_magnitudes_match_numpy_at_fixed_lengths(T):
    # 240 is the 20-year series, 241 a prime length (direct-sum fallback)
    rng = np.random.default_rng(T)
    assert_matches_numpy(list(rng.uniform(-1e3, 1e3, T)))


@settings(max_examples=40)
@given(series_strategy)
def test_parseval_identity(x):
    # sum|X_k|^2 over the full spectrum equals T * sum x_t^2
    T = len(x)
    full = [abs(sum(v * cmath.exp(-2j * cmath.pi * k * t / T)
                    for t, v in enumerate(x))) for k in range(T)]
    lhs = sum(m * m for m in full)
    rhs = T * sum(v * v for v in x)
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-6)


def test_top_peaks_ordering():
    # two tones with distinct amplitudes rank by magnitude, not frequency
    x = [3.0 * math.cos(2 * math.pi * 5 * t / 36)
         + 1.0 * math.cos(2 * math.pi * 2 * t / 36) for t in range(36)]
    peaks = top_peaks(x, 2)
    assert peaks[0].frequency == pytest.approx(5 / 36)
    assert peaks[1].frequency == pytest.approx(2 / 36)
    assert peaks[0].amplitude > peaks[1].amplitude
    assert len(top_peaks(x, 99)) == 18
    with pytest.raises(ValueError):
        top_peaks(x, 0)


def test_dft_requires_two_points():
    with pytest.raises(ValueError):
        dft_magnitudes([1.0])
